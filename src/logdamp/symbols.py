"""Frequency-domain symbols of the log-damped wave operator.

The mode at radius r = |xi| solves  v'' + 2*a(r)*v' + r^2*v = 0  with

    a(r) = log(1 + r^2) / 2          (damping symbol)
    b(r) = r * sqrt(1 - g(r))        (oscillation symbol)
    g(r) = log^2(1 + r^2) / (4 r^2)

so the characteristic roots are lambda_pm = -a +/- i*b and a^2 + b^2 = r^2
exactly.  One ``kernel`` checks and squares each radius array once and
owns the overflow policy; the named symbols are views of it.  It uses
forms that stay accurate near r = 0, where the naive 4r^2 -
log^2(1+r^2) loses half the significand: g is a Taylor series below
r = 1e-4, and b - r and 1/b - 1/r come from g without subtraction of
close quantities.

All functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import math

import numpy as np

# Below this radius g is evaluated by series; the first dropped term is
# < 1e-20 relative, far below double precision.
G_SERIES_CUT = 1e-4


def kernel(r):
    """(r, a, g, big) as arrays of r's shape, checking r once and squaring
    it once.  a = log1p(r^2)/2 and g = a*a/(r*r), bit-identical to
    log^2(1+r^2)/(4r^2) as 1/2 and 4 are powers of two.  ``big`` masks
    the radii whose square overflows (|r| > 1.34e154; None when none
    does): there a = log r, dropping log1p(r^-2)/2 < 1e-308, and
    g = (a/r)^2.  Below |r| = 1e-4, g is the series in x = r^2,
    g = (x/4) * (1 - x + (11/12) x^2 - (5/6) x^3 + O(x^4)).

    Real radii must be finite and >= 0.  Complex radii (the analytic
    continuation, for contour integrals) must be finite with Re r >= 0
    and off the cut r = iy, |y| >= 1, where 1 + r^2 <= 0; there
    log1p(r^2) is the cancellation-free ``_log1p_complex``, which gives
    a complex radius with Im r = 0 the bits of the real path.
    """
    r = np.asarray(r)
    cplx = np.iscomplexobj(r)
    if not cplx:
        r = r.astype(float, copy=False)
    shape = r.shape
    r = np.atleast_1d(r)
    low = r.real.min() if r.size else 0.0
    if not (np.isfinite(r).all() and low >= 0.0) or (
            cplx and low == 0.0
            and (np.abs(r.imag[r.real == 0.0]) >= 1.0).any()):
        raise ValueError("complex radius must be finite with Re r >= 0, "
                         "off the cut r = iy, |y| >= 1" if cplx else
                         "radius must be finite and >= 0")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rr = r * r
        a = 0.5 * (_log1p_complex(rr) if cplx else np.log1p(rr))
        g = a * a / rr
        big = ~np.isfinite(rr)
        if big.any():
            a[big] = np.log(r[big])
            g[big] = (a[big] / r[big]) ** 2
            big = big.reshape(shape)
        else:
            big = None
    small = (np.abs(r) if cplx else r) < G_SERIES_CUT
    if small.any():
        x = rr[small]
        g[small] = 0.25 * x * (1.0 - x * (1.0 - x * (11.0 / 12.0
                                                      - x * (5.0 / 6.0))))
    return r.reshape(shape), a.reshape(shape), g.reshape(shape), big


def _log1p_complex(z):
    """log(1 + z) for complex z, accurate relative to |log(1 + z)|.

    numpy's complex log1p loses digits as |z| falls (6e-5 relative at
    |z| = 1e-12, z = r^2 for r = (1 + 0.3i) 1e-6).  With z = p + iq and
    |q| <= 1 + p (so z = r^2 for every r with |Im r| <= 1/2) this takes

        log|1 + z| = log1p(p) + log1p((q / (1 + p))^2) / 2,

    whose second term lies in [0, log(2)/2] and is at most 2/pi times
    |arg(1 + z)|, and arg(1 + z) = atan2(q, 1 + p): the error is a few
    ulps of |log(1 + z)|, and a real z (q = 0) gets log1p(p), the bits
    of the real path.  Elsewhere |arg(1 + z)| > pi/4 and log(1 + z) has
    no cancellation.
    """
    p, q = z.real, z.imag
    d = 1.0 + p
    out = np.empty_like(z)
    out.real = np.log1p(p) + 0.5 * np.log1p((q / d) ** 2)
    out.imag = np.arctan2(q, d)
    far = ~(np.abs(q) <= d)
    if far.any():
        out[far] = np.log(1.0 + z[far])
    return out


def _out(x):
    return x if x.ndim else float(x)


def damping_a(r):
    """a(r) = log(1 + r^2)/2, via log1p; log r where r*r overflows."""
    return _out(kernel(r)[1])


def ratio_g(r):
    """g(r) = log^2(1+r^2)/(4r^2); series below r = 1e-4, 0 at r = 0."""
    return _out(kernel(r)[2])


def oscillation_b(r):
    """b(r) = r * sqrt(1 - g(r)); real since g < 1 everywhere."""
    r, _, g, _ = kernel(r)
    return _out(r * np.sqrt(1.0 - g))


def b_minus_r(r):
    """The difference b(r) - r = -r*g / (1 + sqrt(1-g)), always <= 0.

    This rewrite is exact and avoids the cancellation of b - r for small
    r, where both sides agree to leading order r^3/8.  Where r*r
    overflows, g underflows, so there it is -a (a/r)/2.
    """
    r, a, g, big = kernel(r)
    out = -r * g / (1.0 + np.sqrt(1.0 - g))
    if big is not None:
        out = np.where(big, -0.5 * a * (a / np.maximum(r, 1.0)), out)
    return _out(out)


def inv_b_minus_inv_r(r):
    """1/b(r) - 1/r = g / (r * sqrt(1-g) * (1 + sqrt(1-g))), >= 0.

    Returns the limit value 0 at r = 0 (the quantity behaves like r/8
    there); callers multiply by factors that vanish fast enough, and 0
    where r*r overflows, as a^2/(2 r^3) underflows there.
    """
    r, _, g, big = kernel(r)
    sq = np.sqrt(1.0 - g)
    zero = r == 0.0 if big is None else (r == 0.0) | big
    rd = np.where(zero, 1.0, r)
    return _out(np.where(zero, 0.0, g / (rd * sq * (1.0 + sq))))


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


def locate_phi_max() -> tuple[float, float]:
    """Golden-section bracket (left, right) of the maximizer of phi on
    [0, 10], right - left <= 1e-8; phi is strictly concave above
    double-precision noise down to widths ~1e-7."""
    return _golden_max(phi, 0.0, 10.0, 1e-8)


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
