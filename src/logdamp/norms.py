"""L^2 norms, energies, oscillatory decay integrals, and exponent fits.

All physical-space norms are computed spectrally: for radial data,

    ||u(t)||^2 = (2 pi)^(-n) * omega_n * integral_0^inf u_hat(t,r)^2 r^(n-1) dr

with omega_n the unit-sphere area.  Semi-infinite integrals run in two
phases: a first pass out to a radius where the analytic envelope is
small gives the magnitude, a second pass (plus the closed-form tail
bound) then meets the requested relative tolerance, or the call raises
ArithmeticError naming its site and t.  Mode integrands oscillate like
sin(b(r) t) with phase slope <= t in r, so their squares carry
oscillation frequency 2t, and half-period panels cost ~sqrt(t) per
call.  l2_norm, energy, residual_norm and M_integral keep them only on
the first 128 half-periods: past that each integrand is (Re X)^2
r^(n-1) for an analytic X (the mode's phasor, the residual phasor
of ``Mode.residual_phasor``, or the weight's e^{(ir - a)t}), so a mean
part, integrated directly, plus the real part of an analytic function,
whose integral Cauchy's theorem moves onto a contour where it decays
like e^{-2ty} (``_contour``: one path parameter runs down the sides,
then along the axis).  So their cost does not grow with t;
residual_norm(method="kterms") keeps half-period panels throughout as
the cross-check route.  The data pair is first
scaled by a power of two to a unit transform sup, so every amplitude
in the double range is computed alike; zero data have a zero envelope
and give 0.0 without quadrature.

The "varies like" statements about decaying quantities are made
checkable two ways: scaled-band reports over a log grid, and least
squares slopes on (log t, log value) via fit_decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import modes
from .modes import InitialDataSpec, sphere_area
from .quadrature import (Envelope, QuadratureSpec, integrate,
                         truncation_point)
from .stable import sinc

__all__ = [
    "DecaySeries", "DecayFitResult", "fit_decay", "BAND_SPLIT",
    "l2_norm", "residual_norm", "energy", "M_integral",
    "log_operator_norms", "data_constant",
]


def plancherel_constant(n: int) -> float:
    """(2 pi)^(-n) * omega_n, the radial-reduction prefactor."""
    return (2.0 * math.pi) ** (-n) * sphere_area(n)


# Lower limit of residual_norm's high band, the natural boundary between
# the peak and tail integral families.  A split at the smallest radius
# where g reaches 1/2 would never apply: g peaks near 0.162.
BAND_SPLIT = 1.0


# -- two-phase semi-infinite quadrature -------------------------------------

def _two_phase(f, tail, omega: float, rel_tol: float, site: str,
               lower: float = 0.0, abs_floor: float = 0.0,
               split: _Split | None = None) -> float:
    """Integral of f over [lower, inf): the one half-line route.

    Phase 1 picks a provisional truncation radius r1 of the analytic
    tail envelope and learns the magnitude there; phase 2 extends the
    radius until the envelope bound is below rel_tol * |value| / 4.  The
    bound at the radius where integration stops (``lower`` itself when
    the envelope is already small there) is charged to the error.
    ``abs_floor`` certifies results whose error is negligible on the
    caller's absolute scale (bands that have decayed to nothing cannot
    be certified relative to themselves).

    With a ``split`` (f = mean + Re h past split.delta, see ``_Split``)
    half-period panels stop at c = max(lower, split.delta), and one
    contour (``_contour``) spans [c, r2].  When r1 lies past c, phase 1
    integrates f directly only on [lower, c] and estimates the integral
    m of the mean part over [c, r1]: a magnitude, since 0 <= f <= 2 mean
    on the axis and the oscillating part integrates to little past c.
    [lower, c] is certified against m too (absolute tolerance
    rel_tol m / 4), not only against its own value, which may be a
    cancelling remainder.  A contour whose bounds do not fit (None)
    falls back to half-period panels.  Returns the value, or raises
    ArithmeticError("<site> did not converge"), also where a direct
    piece does not converge: its estimate may not see the error then.
    """
    scale = tail.scale
    if scale == 0.0:
        return 0.0

    b_at_1 = tail.bound(max(1.0, lower * 1.0000001))
    tau1 = 1e-4 * b_at_1 if 0.0 < b_at_1 < math.inf else 1e-25 * scale
    if abs_floor > 0.0:
        tau1 = min(tau1, 0.25 * abs_floor)
    r1, bound = truncation_point(tail, tau1)
    if r1 < lower:
        r1, bound = lower, tail.bound(lower)

    def direct(lo, hi, abs_tol):
        # Panels no wider than a half-period pi/omega, so a symmetric
        # cancellation cannot fool the embedded error estimate.
        halves = math.ceil((hi - lo) / (math.pi / omega)) if omega else 1
        res = integrate(f, QuadratureSpec(
            lo, hi, abs_tol=abs_tol, rel_tol=0.5 * rel_tol,
            min_panels=halves, max_panels=200_000))
        if not res.converged:
            raise ArithmeticError(f"{site} did not converge")
        return res.value, res.error_estimate

    cut = math.inf if split is None else max(lower, split.delta)
    hi = min(r1, cut)
    mean = _mean_estimate(split, cut, r1) if r1 > cut else 0.0
    value = err = 0.0
    if hi > lower:
        value, err = direct(lower, hi, max(0.25 * rel_tol * mean, 1e-300))

    r2, tau2 = r1, 0.25 * rel_tol * (abs(value) + mean)
    if bound > tau2 > 0.0:
        radius, bound2 = truncation_point(tail, tau2)
        if radius > r1:
            r2, bound = radius, bound2
    if r2 > hi:
        abs_tol = max(tau2, 1e-300)
        mid = min(r2, cut)
        v, e = direct(hi, mid, abs_tol) if mid > hi else (0.0, 0.0)
        if r2 > mid:
            v2, e2 = (_contour(split, mid, r2, 0.5 * rel_tol, abs_tol)
                      or direct(mid, r2, abs_tol))
            v, e = v + v2, e + e2
        value, err = value + v, err + e
    err += bound

    if not err <= max(rel_tol * abs(value), abs_floor,
                      1e-280 * max(scale, 1.0)):
        raise ArithmeticError(f"{site} did not converge")
    return value


# -- the split: mean part and contour ---------------------------------------

# Half-periods of cos(2bt) on the direct route: [0, delta] with
# delta = _K pi / (2t).  Every l2_norm, energy and residual_norm call of
# ``logdamp lemmas`` needs at most 70, so those keep their half-period
# panels (its M_integral calls at t = 1e3 and 1e4 take the split).
_K = 128
# t Y for the contour height Y: |e^{2 lambda t}| <= e^{-1.5 t y} on the
# strip 0 <= y <= 1/2, so it is at most e^{-36} on the top side.
_TY = 24.0


class _Split:
    """(Re X)^2 r^(n-1), X = phasor(mode, r) analytic where ``_contour``
    needs it (e.g. X = Mode.phasor), on [delta, inf) as mean(x) + Re h(x)
    (x real), h analytic on the rectangles [delta, R] x [0, height].

    On real radii (Re X)^2 = |X|^2/2 + Re(X^2)/2, so the mean is
    |X|^2/2 r^(n-1) and h = X^2/2 r^(n-1).  ``energy`` splits
    ((Re lambda X)^2 + r^2 (Re X)^2) r^(n-1), the energy integrand of a
    mode X: |lambda|^2 = r^2 on real radii and lambda^2 + r^2 =
    -2 a lambda (the mode equation) give the mean r^2 |X|^2 r^(n-1) and
    h = -a lambda X^2 r^(n-1).  The mean carries no e^{2ibt} and h is
    analytic, so neither needs half-period panels past delta.  A call
    on radii z builds one ``Mode``: the mean where Im z = 0, h elsewhere.
    The height min(1/2, _TY/t, 1/w), w the widest nonzero datum of
    ``data``, keeps tY <= 24 and |e^{-w^2 r^2/2}| <= e^{w^2 Y^2/2} <= e^{1/2}.
    """

    def __init__(self, t: float, n: int, phasor, data=(), energy=False):
        self.t, self.n, self.phasor, self.energy = t, n, phasor, energy
        widths = [d.width for d in data if d.amplitude != 0.0] or [1.0]
        self.delta = _K * math.pi / (2.0 * t)
        self.height = min(0.5, _TY / t, 1.0 / max(widths))

    def __call__(self, z):
        mode = modes.Mode(self.t, z)
        p, real = self.phasor(mode, z), np.imag(z) == 0.0
        w = (np.where(real, z * z, mode.a * (mode.a - 1j * mode.b))
             if self.energy else 0.5)
        return w * p * np.where(real, p.conj(), p) * z ** (self.n - 1)


def _squared_mode(t: float, u0, u1, n: int, energy: bool):
    """(f, split): the integrand of l2_norm (u^2 r^(n-1)) or of energy
    ((u_t^2 + r^2 u^2) r^(n-1)), and its ``_Split`` past delta with
    X = Mode.phasor, u = Re X and u_t = Re(lambda X) (None at t = 0).
    """
    def f(r):
        mode = modes.Mode(t, r)
        u0v, u1v = u0.fourier(r), u1.fourier(r)
        u = mode.u(u0v, u1v)
        if energy:
            ut = mode.u_t(u0v, u1v)
            return (ut * ut + (r * u) ** 2) * r ** (n - 1)
        return u ** 2 * r ** (n - 1)

    if t == 0.0:
        return f, None
    return f, _Split(t, n, lambda mode, r: mode.phasor(u0.fourier(r),
                                                       u1.fourier(r)),
                     (u0, u1), energy)


def _geometric(lo: float, hi: float) -> tuple:
    """Breakpoints lo 2^(k/2) inside (lo, hi), where a mean part runs."""
    steps = np.arange(1, math.ceil(2.0 * math.log2(hi / lo)))
    return tuple(lo * 2.0 ** (steps / 2))


def _mean_estimate(split: _Split, lo: float, hi: float) -> float:
    """The integral of a mean part over [lo, hi] by the trapezoid rule in
    log x on lo, its ``_geometric`` breakpoints and hi: an estimate that
    only sizes the truncation (within 1e-4 on the benchmark's calls)."""
    x = np.array((lo, *_geometric(lo, hi), hi))
    y = split(x).real * x
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(np.log(x))))


def _contour(split: _Split, lo: float, hi: float, rel_tol: float,
             abs_tol: float):
    """(value, error) of the integral of f = mean + Re h over [lo, hi],
    lo > 0, or None when the contour's error exceeds
    max(abs_tol, rel_tol |value|).

    On the rectangle [lo, hi] x [0, Y] Cauchy's theorem gives

        int_lo^hi h dx = i int_0^Y h(lo + iy) dy + int_lo^hi h(x + iY) dx
                         - i int_0^Y h(hi + iy) dy.

    The left side decays like e^{-2ty} and is integrated; the top and
    right sides are bounded by the integrals of |h| (plus their
    quadrature errors) and charged to the error, as the envelope tail
    is.  One ``integrate`` call runs a path parameter s over [lo - Y, hi]
    with two rows, two radii per abscissa in one ``_Split`` call: for
    s < lo down the sides, y = lo - s, -Im h(lo + iy) and |h(hi + iy)|;
    from lo along the axis, mean(s) and |h(s + iY)|.  The sides start on
    eight equal y panels, the axis on the geometric breakpoints
    lo 2^(k/2) (both take fewer waves than halving from one panel).

    h is analytic there: 1 + r^2 has real part >= 3/4 for
    y <= 1/2, so a = log1p(r^2)/2 is, and so is g = a^2/r^2 for
    r != 0.  |g| <= 0.17 on the boundary of [lo, hi] x [0, 1/2] (0.169
    at r = 1.71 + 0.5i; tests/test_symbols.py samples the strip), so by
    the maximum-modulus principle also inside it, which holds every
    rectangle of height Y <= 1/2.  Hence Re(1 - g) > 0, sqrt(1 - g)
    and b = r sqrt(1 - g) are analytic, and b != 0, so 1/b is too; the
    data transforms are entire, and the powers r^k (k < 0 too) are
    analytic where Re r >= lo > 0.
    """
    def f(s):
        side = s < lo
        y = np.where(side, lo - s, split.height)
        v = split(np.concatenate([np.where(side, lo + 1j * y, s),
                                  np.where(side, hi, s) + 1j * y]))
        first, second = v[:s.size], v[s.size:]
        return np.array([np.where(side, -first.imag, first.real),
                         np.abs(second)])

    sides = lo - split.height * np.arange(8) / 8.0
    res = integrate(f, QuadratureSpec(
        lo - split.height, hi, abs_tol=0.25 * abs_tol,
        rel_tol=0.25 * rel_tol, breakpoints=(*sides, *_geometric(lo, hi))))
    if not res.panels_used:  # refused: more panels than max_panels
        return None
    value = float(res.value[0])
    err = float(res.error_estimate.sum() + res.value[1])
    return (value, err) if err <= max(abs_tol, rel_tol * abs(value)) \
        else None


def _check_pair(u0: InitialDataSpec, u1: InitialDataSpec, n):
    if u0.dimension != u1.dimension:
        raise ValueError("data pair must share a dimension")
    if n is None:
        n = u0.dimension
    if n != u0.dimension:
        raise ValueError("n must match the data dimension")
    return n


def _unit_pair(u0: InitialDataSpec, u1: InitialDataSpec):
    """(u0, u1, k): the pair scaled by 2^-k to a larger transform sup in
    [1/2, 1).  u is linear in the data and the scaling is exact, so the
    norms of the pair are 2^k (the energy 2^2k) times those of the
    scaled pair, which stays clear of under- and overflow."""
    k = math.frexp(max(u0.fourier_sup(), u1.fourier_sup()))[1]
    return (*(replace(d, amplitude=math.ldexp(d.amplitude, -k))
              for d in (u0, u1)), k)


def _rescaled(value: float, k: int, site: str) -> float:
    """value * 2^k, exactly, or ArithmeticError naming the site where a
    nonzero value would leave the normal doubles (inf, 0.0 or a
    subnormal)."""
    e = math.frexp(value)[1] + k
    if value and not -1021 <= e <= 1024:
        raise ArithmeticError(f"{site}: the result "
                              f"{'overflows' if e > 0 else 'underflows'}")
    return math.ldexp(value, k)


def _envelope(t: float, u0, u1, n: int, energy: bool = False,
              p1: float | None = None) -> Envelope:
    """Tail envelope of a mode integrand, from B_i = sup |data transform|
    and the narrowest data width w: for r >= 1 the first term's weight
    (1+r^2)^(-t) r^p may also be replaced by r^q exp(-w^2 r^2).

    u_hat(t,.)^2 r^(n-1): |u_hat| <= e^{-at}(1.58 B0 + min(t, 1.1/r) B1)
    <= e^{-at}(1.58 B0 + t B1) (a/b <= 3^(-1/2), 1/b <= 1.1/r,
    |sin(bt)/b| <= t), so the term is (1.58 B0 + t B1)^2 (1+r^2)^(-t)
    r^(n-1), q = n - 1; the B1 part vanishes at t = 0.

    ``energy``: |u_t| <= e^{-at}(1.58 B1 + 1.1 r B0) and
    r |u_hat| <= e^{-at}(1.58 r B0 + 1.1 B1), so
    (u_t^2 + r^2 u^2) r^(n-1) <= 5.2 (B0 + B1)^2 (1+r^2)^(-t) r^(n+1) for
    r >= 1 and with r^(n-1) for r < 1 (the weight (t, n + 1, n - 1)),
    q = n + 3.  ``p1`` (the residual against the mass-p1 profile
    P): (u_hat - P)^2 <= 2 u_hat^2 + 2 P^2, a second term from
    P^2 r^(n-1) <= p1^2 (1+r^2)^(-t) r^(n-3).
    """
    b0, b1 = u0.fourier_sup(), u1.fourier_sup()
    if energy:
        coeff, weight, q = 5.2 * (b0 + b1) ** 2, (t, n + 1.0, n - 1.0), n + 3.0
    else:
        coeff, weight, q = (1.58 * b0 + t * b1) ** 2, (t, n - 1.0), n - 1.0
    if p1 is not None:
        coeff *= 2.0
    widths = [d.width for d in (u0, u1) if d.amplitude != 0.0]
    data = (min(widths) ** 2, q) if widths else None
    profile = [(2.0 * p1 * p1, (t, n - 3.0), None)] if p1 and t > 0.0 else []
    return Envelope((coeff, weight, data), *profile)


def l2_norm(t: float, u0: InitialDataSpec, u1: InitialDataSpec,
            n: int | None = None, rel_tol: float = 1e-10) -> float:
    """||u(t, .)||_{L^2} for the given data pair, by radial quadrature.

    Raises ArithmeticError if the quadrature cannot certify rel_tol.
    """
    n = _check_pair(u0, u1, n)
    t = float(t)
    u0, u1, k = _unit_pair(u0, u1)
    f, split = _squared_mode(t, u0, u1, n, energy=False)
    site = f"l2_norm at t={t}"
    val = _two_phase(f, _envelope(t, u0, u1, n), 2.0 * t, rel_tol, site,
                     split=split)
    return _rescaled(math.sqrt(plancherel_constant(n) * max(val, 0.0)), k,
                     site)


def energy(t: float, u0: InitialDataSpec, u1: InitialDataSpec,
           n: int | None = None, rel_tol: float = 1e-10) -> float:
    """E(t) = (||u_t||^2 + ||grad u||^2) / 2, computed spectrally."""
    n = _check_pair(u0, u1, n)
    t = float(t)
    u0, u1, k = _unit_pair(u0, u1)
    f, split = _squared_mode(t, u0, u1, n, energy=True)
    site = f"energy at t={t}"
    val = _two_phase(f, _envelope(t, u0, u1, n, energy=True), 2.0 * t,
                     rel_tol, site, split=split)
    return _rescaled(0.5 * plancherel_constant(n) * max(val, 0.0), 2 * k,
                     site)


def residual_norm(t: float, u0: InitialDataSpec, u1: InitialDataSpec,
                  n: int | None = None, band: str = "both",
                  method: str = "difference") -> float:
    """L^2 distance between u_hat(t) and the mass profile, to 1e-9.

    ``band`` is "both" ([0, inf)) or "high" ([BAND_SPLIT, inf)).
    ``method`` "difference" evaluates the integrand as the direct
    difference on the first 128 half-periods and splits the residual
    phasor of ``Mode.residual_phasor`` past them (see ``_Split``);
    "kterms" sums the five remainder terms on half-period panels
    throughout, the independent cross-check route.  The two integrands
    agree to roundoff by the closure identity.
    For n >= 3 and P1 != 0 the profile is in L^2 only when 2t > n - 2;
    below that the call raises ValueError naming t and n, before any
    quadrature.

    The 1e-9 is relative or absolute, whichever is larger, on the radial
    integral D of (u_hat - profile)^2 r^(n-1) (the squared norm before
    the factor (2 pi)^(-n) omega_n): D's error is at most
    max(1e-9 D, (1e-9 (|P1| + sup|u0_hat| + sup|u1_hat|))^2).  Where D
    has decayed below that floor, the result is certified only to it.
    """
    n = _check_pair(u0, u1, n)
    if band not in ("both", "high"):
        raise ValueError("band must be 'both' or 'high'")
    if method not in ("difference", "kterms"):
        raise ValueError("method must be 'difference' or 'kterms'")
    t = float(t)
    u0, u1, k = _unit_pair(u0, u1)
    p1 = u1.mass()
    if p1 != 0.0 and 0.0 < 2.0 * t <= n - 2.0:
        raise ValueError(f"residual_norm at t={t}: the profile is not in L^2"
                         f" for n={n} (needs 2t > n - 2)")

    split = None
    if method == "difference":
        def f(r):
            mode = modes.Mode(t, r)
            d = mode.u(u0.fourier(r), u1.fourier(r)) - mode.profile(p1)
            return d * d * r ** (n - 1)

        if t > 0.0:
            split = _Split(t, n, lambda mode, r: mode.residual_phasor(
                u0.fourier(r), u1.fourier_minus_mass(r), p1), (u0, u1))
    else:
        def f(r):
            mode = modes.Mode(t, r)
            d = sum(mode.k_terms(u0.fourier(r), u1.fourier(r), p1))
            return d * d * r ** (n - 1)

    if band == "high":
        lower, site = BAND_SPLIT, f"residual_norm high band at t={t}"
    else:
        lower, site = 0.0, f"residual_norm at t={t}"
    floor = (1e-9 * (abs(p1) + u0.fourier_sup() + u1.fourier_sup())) ** 2
    val = _two_phase(f, _envelope(t, u0, u1, n, p1=p1), 2.0 * max(t, 1.0),
                     1e-9, site, lower=lower, abs_floor=floor, split=split)
    return _rescaled(math.sqrt(plancherel_constant(n) * max(val, 0.0)), k,
                     site)


# -- named decay integrals ---------------------------------------------------

def M_integral(t: float, n: int, kind: str) -> float:
    """omega_n * integral_0^inf (1+r^2)^(-t) w(r) r^(n-1) dr, to 1e-10.

    kind='sin' uses w = sin^2(rt)/r^2, kind='cos' uses w = cos^2(rt);
    both take any n >= 1 and need t > 1.  The sine weight grows like t
    for n = 1, like log t for n = 2 and decays like t^(-(n-2)/2) for n >= 3.
    """
    t = float(t)
    if kind not in ("sin", "cos"):
        raise ValueError("kind must be 'sin' or 'cos'")
    if t <= 1.0:
        raise ValueError("M_integral requires t > 1")

    if kind == "sin":
        # sin^2(rt)/r^2 is evaluated as t^2 sinc^2(rt), so the removable
        # singularity at r = 0 costs nothing.
        def f(r):
            return (np.exp(-t * np.log1p(r * r)) * t * t * sinc(r * t) ** 2
                    * r ** (n - 1))
        tail = Envelope((1.0, (t, n - 3.0), None))
    else:
        def f(r):
            return (np.exp(-t * np.log1p(r * r))
                    * np.cos(r * t) ** 2 * r ** (n - 1))
        tail = Envelope((1.0, (t, n - 1.0), None))

    def phasor(mode, r):  # (1+r^2)^(-t) w = (Re X)^2 on real radii
        x = np.exp(t * (1j * r - mode.a))
        return -1j * x / r if kind == "sin" else x

    site = f"M_integral({kind}) at t={t}"
    return sphere_area(n) * _two_phase(f, tail, 2.0 * t, 1e-10, site,
                                       split=_Split(t, n, phasor))


# -- spectral operator norms (log-damping relative bound) -------------------

def log_operator_norms(vhat, n: int, radius: float, breakpoints=(),
                       rel_tol: float = 1e-11):
    """(||v||, ||Av||, ||Lv||) for a compact spectral profile vhat.

    A has symbol r^2 and L has symbol log(1+r^2); all three norms are
    radial quadratures of vhat^2 against the symbol squares on
    [0, radius], outside which vhat must be negligible.  They share one
    panelling, so vhat is evaluated once per abscissa, and each meets
    rel_tol on its own.  Raises ArithmeticError if one does not.
    """
    def f(r):
        v = vhat(r)
        w = v * v * r ** (n - 1)
        return np.array([w, r ** 4 * w, np.log1p(r * r) ** 2 * w])

    spec = QuadratureSpec(0.0, float(radius), rel_tol=rel_tol,
                          breakpoints=tuple(breakpoints), min_panels=32)
    res = integrate(f, spec)
    if not res.converged:
        raise ArithmeticError(
            f"log_operator_norms quadrature did not converge, n={n}")
    cn = plancherel_constant(n)
    return tuple(math.sqrt(cn * max(v, 0.0)) for v in res.value.tolist())


def data_constant(u0: InitialDataSpec, u1: InitialDataSpec) -> float:
    """||u0|| + ||u1|| + ||u0||_1 + ||(1+|x|) u1||_1 (closed forms)."""
    return (u0.l2_norm() + u1.l2_norm()
            + u0.l1_norm() + u1.weighted_l1_norm())


# -- decay series and exponent fitting ---------------------------------------

@dataclass(frozen=True)
class DecaySeries:
    """A positive quantity sampled on a strictly increasing t-grid."""

    t_grid: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.t_grid) != len(self.values):
            raise ValueError("t_grid and values must have equal length")
        if any(b <= a for a, b in zip(self.t_grid, self.t_grid[1:])):
            raise ValueError("t_grid must be strictly increasing")
        vals = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
            raise ValueError("values must be finite and positive")


@dataclass(frozen=True)
class DecayFitResult:
    slope: float
    intercept: float
    max_log_residual: float


def fit_decay(series: DecaySeries) -> DecayFitResult:
    """Least-squares slope of log(value) against log(t) over the series."""
    if len(series.t_grid) < 5:
        raise ValueError("a decay fit needs at least 5 grid points")
    x = np.log(np.asarray(series.t_grid))
    y = np.log(np.asarray(series.values))
    slope, intercept = np.polyfit(x, y, 1)
    resid = np.max(np.abs(slope * x + intercept - y))
    return DecayFitResult(float(slope), float(intercept), float(resid))
