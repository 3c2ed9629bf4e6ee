"""Frequency-domain symbols of the log-damped wave operator.

The mode at radius r = |xi| solves  v'' + 2*a(r)*v' + r^2*v = 0  with

    a(r) = log(1 + r^2) / 2          (damping symbol)
    b(r) = r * sqrt(1 - g(r))        (oscillation symbol)
    g(r) = log^2(1 + r^2) / (4 r^2)

so the characteristic roots are lambda_pm = -a +/- i*b and a^2 + b^2 = r^2
exactly.  One ``kernel`` checks and squares each radius array once and
owns the overflow policy; the named symbols are views of it.  It uses
forms that stay accurate near r = 0, where the naive 4r^2 -
log^2(1+r^2) loses half the significand: g = a*a/r^2 keeps its digits
from log1p, a Taylor series takes over only below r = 1e-60, and b - r
and 1/b - 1/r come from g without subtraction of close quantities.

All functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

# Below this radius g is evaluated by series.  Above it a*a/(r*r) is
# within 3e-16 of g on real radii and 7e-16 on the strip (against a
# 50-digit log1p, from 1e-59 to 1e-3; the series at a cut of 1e-4 gave
# 2e-16 and 4e-16), so the series need not run on every contour near
# r = 0.  Below about 1e-77 a*a underflows, and r*r does below 1.5e-162.
# The series' first dropped term is 1e-480 relative here.
G_SERIES_CUT = 1e-60
# ``kernel``'s complex domain is the strip Re r >= 0, |Im r| <= this.
STRIP_HEIGHT = 0.5


def kernel(r):
    """(r, rr, a, g, big) as arrays of r's shape, checking r once and
    squaring it once: rr = r*r, a = log1p(rr)/2 and g = a*a/rr,
    bit-identical to log^2(1+r^2)/(4r^2) as 1/2 and 4 are powers of two.
    ``big`` masks the radii whose square overflows (|r| > 1.34e154; None
    when none does): there rr is inf, a = log r, dropping
    log1p(r^-2)/2 < 1e-308, and g = (a/r)^2.  Below |r| = G_SERIES_CUT,
    g is the series in x = r^2, g = (x/4) * (1 - x + (11/12) x^2 -
    (5/6) x^3 + O(x^4)).

    Real radii must be finite and >= 0.  Complex radii (the analytic
    continuation, for contour integrals) must be finite and lie in the
    strip Re r >= 0, |Im r| <= ``STRIP_HEIGHT``; there log1p(r^2) is the
    cancellation-free ``_log1p_complex``, which gives a complex radius
    with Im r = 0 the bits of the real path.

    The check is one minimum of Re r and one maximum of |r|, which also
    tell whether any radius needs the series or the overflow path; each
    is formed only then, and only then are floating-point warnings
    silenced (rr overflows, or 0/0 where rr is 0).  As |Im r| <= |r|,
    Im r is scanned only where that maximum exceeds the strip's height,
    and |r| only where Re r falls below the cut.
    """
    r = np.asarray(r)
    cplx = r.dtype.kind == "c"
    if not cplx:
        r = r.astype(float, copy=False)
    scalar = not r.ndim
    if scalar:
        r = r.reshape(1)
    mag = np.abs(r) if cplx else r
    low, top = (r.real.min(), mag.max()) if r.size else (0.0, 0.0)
    # NaN fails every comparison (|r| is NaN where Im r is).
    if not (low >= 0.0 and top < math.inf) or (
            cplx and top > STRIP_HEIGHT
            and not np.abs(r.imag).max() <= STRIP_HEIGHT):
        raise ValueError(
            f"complex radius must be finite with Re r >= 0 and |Im r| <= "
            f"{STRIP_HEIGHT}" if cplx else "radius must be finite and >= 0")
    series = low < G_SERIES_CUT and (not cplx
                                     or mag.min() < G_SERIES_CUT)
    with (np.errstate(over="ignore", invalid="ignore", divide="ignore")
          if series or top > 1e154 else contextlib.nullcontext()):
        rr = r * r
        a = 0.5 * (_log1p_complex(rr) if cplx else np.log1p(rr))
        g = a * a / rr
        big = ~np.isfinite(rr) if top > 1e154 else None
        if big is not None and big.any():
            a[big] = np.log(r[big])
            g[big] = (a[big] / r[big]) ** 2
        else:
            big = None
    if series:
        small = mag < G_SERIES_CUT
        x = rr[small]
        g[small] = 0.25 * x * (1.0 - x * (1.0 - x * (11.0 / 12.0
                                                      - x * (5.0 / 6.0))))
    if scalar:
        r, rr, a, g = (v.reshape(()) for v in (r, rr, a, g))
        big = None if big is None else big.reshape(())
    return r, rr, a, g, big


def _log1p_complex(z):
    """log(1 + z) for z = r^2, r in ``kernel``'s strip, accurate relative
    to |log(1 + z)|.

    numpy's complex log1p loses digits as |z| falls (6e-5 relative at
    |z| = 1e-12, z = r^2 for r = (1 + 0.3i) 1e-6).  With z = p + iq,
    r = x + iy and |y| <= STRIP_HEIGHT = 1/2, 1 + p - |q| = (x - |y|)^2
    + 1 - 2y^2 > 0, so |q| < 1 + p and this takes

        log|1 + z| = log1p(p) + log1p((q / (1 + p))^2) / 2,

    whose second term lies in [0, log(2)/2] and is at most 2/pi times
    |arg(1 + z)|, and arg(1 + z) = atan2(q, 1 + p): the error is a few
    ulps of |log(1 + z)|, and a real z (q = 0) gets log1p(p), the bits
    of the real path.
    """
    p, q = z.real, z.imag
    d = 1.0 + p
    out = np.empty_like(z)
    out.real = np.log1p(p) + 0.5 * np.log1p((q / d) ** 2)
    out.imag = np.arctan2(q, d)
    return out


def _out(x):
    return x if x.ndim else float(x)


def damping_a(r):
    """a(r) = log(1 + r^2)/2, via log1p; log r where r*r overflows."""
    return _out(kernel(r)[2])


def ratio_g(r):
    """g(r) = log^2(1+r^2)/(4r^2); series below G_SERIES_CUT, 0 at r = 0."""
    return _out(kernel(r)[3])


def oscillation_b(r):
    """b(r) = r * sqrt(1 - g(r)); real since g < 1 everywhere."""
    r, _, _, g, _ = kernel(r)
    return _out(r * np.sqrt(1.0 - g))


def b_minus_r(r):
    """The difference b(r) - r = -r*g / (1 + sqrt(1-g)), always <= 0.

    This rewrite is exact and avoids the cancellation of b - r for small
    r, where both sides agree to leading order r^3/8.  Where r*r
    overflows, g underflows, so there it is -a (a/r)/2.
    """
    r, _, a, g, big = kernel(r)
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
    r, _, _, g, big = kernel(r)
    sq = np.sqrt(1.0 - g)
    zero = r == 0.0 if big is None else (r == 0.0) | big
    rd = np.where(zero, 1.0, r)
    return _out(np.where(zero, 0.0, g / (rd * sq * (1.0 + sq))))


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
