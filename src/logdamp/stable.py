"""Numerically stable scalar/array helpers shared across modules."""

from __future__ import annotations

import numpy as np

# Below this |x| the series remainder is < 1e-18 relative; direct
# evaluation is used above it (sin(x)/x has no cancellation for x != 0).
_SERIES_CUT = 1e-3


def sinc(x):
    """sin(x)/x with the x = 0 limit 1 (unnormalized sinc).

    Total and accurate to a few ulps on the whole line: sin(x)/x is
    taken over the whole array, and only the entries with |x| < 1e-3
    are overwritten by a short Taylor series, so the 0/0 at x = 0 never
    reaches the result (and raises no warning).
    """
    x = np.asarray(x, dtype=float)
    x1 = np.atleast_1d(x)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.sin(x1) / x1
    small = np.abs(x1) < _SERIES_CUT
    if small.any():
        x2 = x1[small] * x1[small]
        out[small] = 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0))
    return out.reshape(x.shape) if x.ndim else float(out[0])
