"""Numerically stable scalar/array helpers shared across modules."""

from __future__ import annotations

import numpy as np

# Below this |x| the series remainder is < 1e-18 relative; direct
# evaluation is used above it (sin(x)/x has no cancellation for x != 0).
_SERIES_CUT = 1e-3


def sinc(x):
    """sin(x)/x with the x = 0 limit 1 (unnormalized sinc).

    Total and accurate to a few ulps on the whole line: a short Taylor
    series takes over on |x| < 1e-3, so the removable singularity never
    reaches the division.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SERIES_CUT
    xs = np.where(small, 0.0, x)
    x2 = x * x
    series = 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = np.where(small, 1.0, np.sin(xs) / np.where(small, 1.0, xs))
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)
