"""Frequency-domain symbols of the log-damped wave operator.

The mode at radius r = |xi| solves  v'' + 2*a(r)*v' + r^2*v = 0  with

    a(r) = log(1 + r^2) / 2          (damping symbol)
    b(r) = r * sqrt(1 - g(r))        (oscillation symbol)
    g(r) = log^2(1 + r^2) / (4 r^2)

so the characteristic roots are lambda_pm = -a +/- i*b and a^2 + b^2 = r^2
exactly.  Everything here is evaluated in forms that stay accurate near
r = 0, where the naive 4r^2 - log^2(1+r^2) loses half the significand:
g uses a Taylor series below r = 1e-4 and is a^2/r^2 above it (one
route, ``ratio_g_from_a``, so a kernel that already holds a pays no
second log1p), and the differences b - r and 1/b - 1/r are computed
from g without subtraction of close quantities.

All functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this radius g is evaluated by series; the first dropped term is
# < 1e-20 relative, far below double precision.
G_SERIES_CUT = 1e-4


def _check_radius(r):
    arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("radius must be finite and >= 0")
    return arr


@dataclass(frozen=True)
class SymbolValues:
    """All symbols and stable derived differences at one radius."""

    r: float
    a: float
    b: float
    g: float
    b_minus_r: float
    inv_b_minus_inv_r: float


def _square(r):
    """(r*r, the mask where it overflows or None); numpy's overflow flag
    spares ordinary radii (r <= 1.34e154) an extra pass."""
    try:
        with np.errstate(over="raise"):
            return r * r, None
    except FloatingPointError:
        with np.errstate(over="ignore"):
            rr = r * r
        return rr, np.isinf(rr)


def damping_a(r):
    """a(r) = log(1 + r^2)/2, via log1p; log r where r*r overflows."""
    r = _check_radius(r)
    rr, big = _square(r)
    out = 0.5 * np.log1p(rr)
    if big is not None:   # log1p(r^-2)/2 < 1e-308 is dropped there
        out = np.where(big, np.log(np.where(big, r, 1.0)), out)
    return out if out.ndim else float(out)


def ratio_g(r):
    """g(r) = log^2(1+r^2)/(4r^2); series below r = 1e-4, 0 at r = 0."""
    r = _check_radius(r)
    out = ratio_g_from_a(r, damping_a(r))
    return out if out.ndim else float(out)


def ratio_g_from_a(r, a):
    """g(r) from a = damping_a(r) at the same (already checked) radii.

    Above r = 1e-4, g = a*a/(r*r); wherever 4r^2 is finite this is
    bit-identical to log^2(1+r^2)/(4r^2), because 1/2 and 4 are powers
    of two.  Where r*r overflows, g = (a/r)^2.  Below r = 1e-4 the
    entries are overwritten by the series, with x = r^2,
    g = (x/4) * (1 - x + (11/12) x^2 - (5/6) x^3 + O(x^4)).
    Returns an array of r's shape (0-d for a scalar r).
    """
    r = np.asarray(r, dtype=float)
    r1, a1 = np.atleast_1d(r, a)
    rr, big = _square(r1)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = a1 * a1 / rr
    if big is not None:
        out[big] = (a1[big] / r1[big]) ** 2
    small = r1 < G_SERIES_CUT
    if small.any():
        x = r1[small] * r1[small]
        out[small] = 0.25 * x * (1.0 - x * (1.0 - x * (11.0 / 12.0
                                                        - x * (5.0 / 6.0))))
    return out.reshape(r.shape)


def oscillation_b(r):
    """b(r) = r * sqrt(1 - g(r)); real since g < 1 everywhere."""
    r = _check_radius(r)
    out = r * np.sqrt(1.0 - ratio_g(r))
    return out if out.ndim else float(out)


def b_minus_r(r):
    """The difference b(r) - r = -r*g / (1 + sqrt(1-g)), always <= 0.

    This rewrite is exact and avoids the cancellation of b - r for small
    r, where both sides agree to leading order r^3/8.
    """
    r = _check_radius(r)
    g = ratio_g(r)
    out = -r * g / (1.0 + np.sqrt(1.0 - g))
    return out if out.ndim else float(out)


def inv_b_minus_inv_r(r):
    """1/b(r) - 1/r = g / (r * sqrt(1-g) * (1 + sqrt(1-g))), >= 0.

    Returns the limit value 0 at r = 0 (the quantity behaves like r/8
    there); callers multiply by factors that vanish fast enough.
    """
    r = _check_radius(r)
    g = ratio_g(r)
    sq = np.sqrt(1.0 - g)
    rd = np.where(r == 0.0, 1.0, r)
    out = np.where(r == 0.0, 0.0, g / (rd * sq * (1.0 + sq)))
    return out if out.ndim else float(out)


def eval_symbols(r: float) -> SymbolValues:
    """Evaluate every symbol at a single radius.

    Raises ValueError for negative or non-finite input.
    """
    rf = float(r)
    _check_radius(rf)
    return SymbolValues(
        r=rf,
        a=damping_a(rf),
        b=oscillation_b(rf),
        g=ratio_g(rf),
        b_minus_r=b_minus_r(rf),
        inv_b_minus_inv_r=inv_b_minus_inv_r(rf),
    )


def lambda_pm(r: float) -> tuple[complex, complex]:
    """Characteristic roots (-a + ib, -a - ib) of the mode equation."""
    s = eval_symbols(r)
    return complex(-s.a, s.b), complex(-s.a, -s.b)


def phi(x):
    """phi(x) = log(1+x)/(1+x) on x >= 0; maximized at x = e-1 with 1/e."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("phi requires finite x >= 0")
    out = np.log1p(arr) / (1.0 + arr)
    return out if out.ndim else float(out)


def _golden_max(f, a: float, b: float, width: float) -> tuple[float, float]:
    """Golden-section bracket of the maximizer of a unimodal f on [a, b].

    Returns (left, right) with right - left <= width.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > width:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return a, b


def locate_phi_max(lo: float = 0.0, hi: float = 10.0,
                   width: float = 1e-8) -> tuple[float, float]:
    """Golden-section bracket of the maximizer of phi on [lo, hi].

    Returns (left, right) with right - left <= width.  The bracket is
    reliable down to widths ~1e-7 where phi is still strictly concave
    above double-precision noise.
    """
    return _golden_max(phi, float(lo), float(hi), width)


def g_peak() -> tuple[float, float]:
    """Radius and value of the global maximum of g(r).

    g rises from 0, peaks near r = 1.98 at about 0.162, and decays; in
    particular g < 1/4 everywhere (since log(1+r^2) <= r).
    """
    a, b = _golden_max(ratio_g, 0.5, 8.0, 1e-10)
    rstar = 0.5 * (a + b)
    return rstar, ratio_g(rstar)


def g_level_radius(level: float) -> float | None:
    """Smallest r > 0 with g(r) = level, or None when g stays below.

    Useful for band-split radii defined by a smallness condition on g;
    since max g ~ 0.162, levels >= that return None and callers fall
    back to a fixed split.
    """
    if not (0.0 < level):
        raise ValueError("level must be positive")
    rpk, gmax = g_peak()
    if level >= gmax:
        return None
    lo, hi = 0.0, rpk
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ratio_g(mid) < level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
