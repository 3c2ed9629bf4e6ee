"""``pytest.approx`` with ``rel`` and no ``abs`` checks ``rel`` alone.

pytest adds its default absolute tolerance, 1e-12, to a ``rel``-only
comparison, so ``approx(ref, rel=1e-14)`` passes any value within 1e-12
of ``ref``, which for a ``ref`` near or below 1e-12 checks nothing.  Here
such a call gets ``abs=0``.  A call with ``abs`` set is left alone
(pytest then uses the absolute tolerance alone when ``rel`` is unset),
as is a call with neither.
"""

import pytest

_approx = pytest.approx


def _approx_rel_alone(expected, rel=None, abs=None, nan_ok=False):
    if rel is not None and abs is None:
        abs = 0.0
    return _approx(expected, rel=rel, abs=abs, nan_ok=nan_ok)


@pytest.fixture(autouse=True, scope="module")
def _rel_means_rel():
    # Module scope: hypothesis refuses function-scoped fixtures in
    # @given tests, and the patch ends with the last module here.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pytest, "approx", _approx_rel_alone)
        yield
