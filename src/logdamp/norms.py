"""L^2 norms, energies, oscillatory decay integrals, and exponent fits.

All physical-space norms are computed spectrally: for radial data,

    ||u(t)||^2 = (2 pi)^(-n) * omega_n * integral_0^inf u_hat(t,r)^2 r^(n-1) dr

with omega_n the unit-sphere area.  Semi-infinite integrals run in two
phases: a first pass out to a radius where the analytic envelope is
small gives the magnitude, a second pass (plus the closed-form tail
bound) then meets the requested relative tolerance.  Mode integrands
oscillate like sin(b(r) t) with phase slope <= t in r, so their squares
carry oscillation frequency 2t into the panelling.

The "varies like" statements about decaying quantities are made
checkable two ways: scaled-band reports over a log grid, and least
squares slopes on (log t, log value) via fit_decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import modes
from .modes import InitialDataSpec, sphere_area
from .quadrature import (GaussTail, PowerTail, QuadratureSpec, TailBest,
                         TailSum, integrate, truncation_point)
from .stable import sinc

__all__ = [
    "DecaySeries", "DecayFitResult", "fit_decay", "BAND_SPLIT",
    "l2_norm", "residual_norm", "energy", "M_integral", "Q_integral",
    "R_integral", "log_operator_norms", "data_constant",
]


def plancherel_constant(n: int) -> float:
    """(2 pi)^(-n) * omega_n, the radial-reduction prefactor."""
    return (2.0 * math.pi) ** (-n) * sphere_area(n)


# Default low/high frequency split radius, the natural boundary between
# the peak and tail integral families.  A split at the smallest radius
# where g reaches 1/2 would never apply: g peaks near 0.162.
BAND_SPLIT = 1.0


# -- two-phase semi-infinite quadrature -------------------------------------

def _two_phase(f, tail, omega: float, rel_tol: float, lower: float = 0.0,
               cap: float = math.inf, max_panels: int = 200_000,
               abs_floor: float = 0.0):
    """Integrate f over [lower, cap) with an analytic tail envelope.

    Phase 1 integrates to a provisional truncation radius to learn the
    magnitude; phase 2 extends the radius until the envelope bound is
    below rel_tol * |value| / 4.  Returns (value, error, converged).
    A finite ``cap`` ends the domain there (band integrals) and no tail
    bound is charged beyond it.  ``abs_floor`` certifies results whose
    error is negligible on the caller's absolute scale (bands that have
    decayed to nothing cannot be certified relative to themselves).
    """
    scale = tail.scale
    if scale == 0.0:
        return 0.0, 0.0, True

    b_at_1 = tail.bound(max(1.0, lower * 1.0000001))
    if 0.0 < b_at_1 < math.inf:
        tau1 = 1e-4 * b_at_1
    else:
        tau1 = 1e-25 * scale
    if abs_floor > 0.0:
        tau1 = min(tau1, 0.25 * abs_floor)
    r1, bound1 = truncation_point(tail, tau1)
    r1 = min(max(r1, lower), cap)
    if r1 >= cap:
        r1, bound1 = cap, 0.0

    def spec(lo, hi, abs_tol):
        return QuadratureSpec(lo, hi, abs_tol=abs_tol, rel_tol=0.5 * rel_tol,
                              oscillation_frequency=omega,
                              max_panels=max_panels)

    value = err = 0.0
    if r1 > lower:
        res = integrate(f, spec(lower, r1, 1e-300))
        value, err = res.value, res.error_estimate

    tau2 = 0.25 * rel_tol * abs(value)
    if r1 < cap and bound1 > tau2 and tau2 > 0.0:
        r2, _ = truncation_point(tail, tau2)
        r2 = min(max(r2, r1), cap)
        if r2 > r1:
            res2 = integrate(f, spec(r1, r2, max(tau2, 1e-300)))
            value += res2.value
            err += res2.error_estimate
        if r2 < cap:
            err += tail.bound(r2) if r2 > r1 else bound1
    elif r1 < cap:
        err += bound1

    converged = err <= max(rel_tol * abs(value), abs_floor,
                           1e-280 * max(scale, 1.0))
    return value, err, converged


def _check_pair(u0: InitialDataSpec, u1: InitialDataSpec, n):
    if u0.dimension != u1.dimension:
        raise ValueError("data pair must share a dimension")
    if n is None:
        n = u0.dimension
    if n != u0.dimension:
        raise ValueError("n must match the data dimension")
    return n


def _mode_tail(t: float, u0, u1, n: int, factor: float = 1.0):
    """Envelope models for u_hat(t,.)^2 r^(n-1).

    Globally |u_hat| <= e^{-a t}(1.58 B0 + min(t, 1.1/r) B1) with
    B_i = sup |data transform| (a/b <= 3^(-1/2), 1/b <= 1.1/r,
    |sin(bt)/b| <= t), which yields one power-decay and one
    data-decay alternative for the whole integrand, each scaled by
    ``factor``.
    """
    b0, b1 = u0.fourier_sup(), u1.fourier_sup()
    coeff = (1.58 * b0 + (1.1 + t) * b1) ** 2 * factor
    options = []
    if t > 0.0:
        options.append(PowerTail(t, n - 1.0, coeff))
    widths = [d.width for d in (u0, u1) if d.family != "zero"]
    if widths:
        cmin = min(widths) ** 2
        options.append(GaussTail(cmin, n - 1.0, coeff, min_radius=1.0))
    return TailBest(tuple(options))


def l2_norm(t: float, u0: InitialDataSpec, u1: InitialDataSpec,
            n: int | None = None, rel_tol: float = 1e-10) -> float:
    """||u(t, .)||_{L^2} for the given data pair, by radial quadrature.

    Raises ArithmeticError if the quadrature cannot certify rel_tol.
    """
    n = _check_pair(u0, u1, n)
    if u0.family == "zero" and u1.family == "zero":
        return 0.0
    t = float(t)

    def f(r):
        u = modes.Mode(t, r).u(u0.fourier(r), u1.fourier(r))
        return u ** 2 * r ** (n - 1)

    tail = _mode_tail(t, u0, u1, n)
    omega = 2.0 * t
    val, _, ok = _two_phase(f, tail, omega, rel_tol)
    if not ok:
        raise ArithmeticError(f"l2_norm quadrature did not converge at t={t}")
    return math.sqrt(plancherel_constant(n) * max(val, 0.0))


def energy(t: float, u0: InitialDataSpec, u1: InitialDataSpec,
           n: int | None = None, rel_tol: float = 1e-10) -> float:
    """E(t) = (||u_t||^2 + ||grad u||^2) / 2, computed spectrally."""
    n = _check_pair(u0, u1, n)
    if u0.family == "zero" and u1.family == "zero":
        return 0.0
    t = float(t)

    def f(r):
        mode = modes.Mode(t, r)
        u0v, u1v = u0.fourier(r), u1.fourier(r)
        ut = mode.u_t(u0v, u1v)
        u = mode.u(u0v, u1v)
        return (ut * ut + (r * u) ** 2) * r ** (n - 1)

    b0, b1 = u0.fourier_sup(), u1.fourier_sup()
    coeff = 5.2 * (b0 + b1) ** 2
    options = []
    if t > 0.0:
        options.append(PowerTail(t, n + 1.0, coeff))
    widths = [d.width for d in (u0, u1) if d.family != "zero"]
    if widths:
        options.append(GaussTail(min(widths) ** 2, n + 3.0, coeff,
                                 min_radius=1.0))
    val, _, ok = _two_phase(f, TailBest(tuple(options)), 2.0 * t, rel_tol)
    if not ok:
        raise ArithmeticError(f"energy quadrature did not converge at t={t}")
    return 0.5 * plancherel_constant(n) * max(val, 0.0)


def _residual_tail(t: float, u0, u1, n: int, p1: float):
    """Envelope for (u_hat - profile)^2 r^(n-1) as a sum of two parts."""
    parts = [_mode_tail(t, u0, u1, n, 2.0)]
    if p1 != 0.0 and t > 0.0:
        parts.append(PowerTail(t, n - 3.0, 2.0 * p1 * p1))
    return TailSum(tuple(parts))


def residual_norm(t: float, u0: InitialDataSpec, u1: InitialDataSpec,
                  n: int | None = None, band: str = "both",
                  method: str = "difference", delta1: float | None = None,
                  rel_tol: float = 1e-9) -> float:
    """L^2 distance between u_hat(t) and the mass profile.

    ``band`` restricts to low ([0, delta1]), high ([delta1, inf)) or
    both.  ``method`` evaluates the integrand either as the direct
    difference or as the sum of the five remainder terms; the two agree
    to roundoff by the closure identity and both are kept as a
    cross-check route.
    """
    n = _check_pair(u0, u1, n)
    if band not in ("both", "low", "high"):
        raise ValueError("band must be 'both', 'low' or 'high'")
    if method not in ("difference", "kterms"):
        raise ValueError("method must be 'difference' or 'kterms'")
    t = float(t)
    split = BAND_SPLIT if delta1 is None else float(delta1)
    p1 = modes.decompose_data(u1).P1
    if u0.family == "zero" and u1.family == "zero":
        return 0.0

    if method == "difference":
        def f(r):
            mode = modes.Mode(t, r)
            d = mode.u(u0.fourier(r), u1.fourier(r)) - mode.profile(p1)
            return d * d * r ** (n - 1)
    else:
        def f(r):
            mode = modes.Mode(t, r)
            d = sum(mode.k_terms(u0.fourier(r), u1.fourier(r), p1))
            return d * d * r ** (n - 1)

    tail = _residual_tail(t, u0, u1, n, p1)
    omega = 2.0 * max(t, 1.0)
    # Bands that have decayed below this absolute level (squared-norm
    # units, data scale) count as converged zeros.
    floor = (rel_tol * (abs(p1) + u0.fourier_sup() + u1.fourier_sup())) ** 2
    total = 0.0
    if band in ("both", "low"):
        val, _, ok = _two_phase(f, tail, omega, rel_tol, lower=0.0,
                                cap=split, abs_floor=floor)
        if not ok:
            raise ArithmeticError(f"residual low band not converged, t={t}")
        total += max(val, 0.0)
    if band in ("both", "high"):
        val, _, ok = _two_phase(f, tail, omega, rel_tol, lower=split,
                                abs_floor=floor)
        if not ok:
            raise ArithmeticError(f"residual high band not converged, t={t}")
        total += max(val, 0.0)
    return math.sqrt(plancherel_constant(n) * total)


# -- named decay integrals ---------------------------------------------------

def M_integral(t: float, n: int, kind: str, rel_tol: float = 1e-10) -> float:
    """omega_n * integral_0^inf (1+r^2)^(-t) w(r) r^(n-1) dr.

    kind='sin' uses w = sin^2(rt)/r^2 (requires n > 2); kind='cos' uses
    w = cos^2(rt) (any n >= 1).  Both need t > 1.  The removable
    singularity of the sin kind is evaluated as t^2 sinc^2(rt).
    """
    t = float(t)
    if kind not in ("sin", "cos"):
        raise ValueError("kind must be 'sin' or 'cos'")
    if t <= 1.0:
        raise ValueError("M_integral requires t > 1")
    if kind == "sin" and n <= 2:
        raise ValueError("kind='sin' requires n > 2")
    if n < 1:
        raise ValueError("dimension must be >= 1")

    if kind == "sin":
        def f(r):
            return (np.exp(-t * np.log1p(r * r)) * t * t
                    * sinc(r * t) ** 2 * r ** (n - 1))
        tail = PowerTail(t, n - 3.0, 1.0)
    else:
        def f(r):
            return (np.exp(-t * np.log1p(r * r))
                    * np.cos(r * t) ** 2 * r ** (n - 1))
        tail = PowerTail(t, n - 1.0, 1.0)

    val, _, ok = _two_phase(f, tail, 2.0 * t, rel_tol)
    if not ok:
        raise ArithmeticError(f"M_integral did not converge at t={t}")
    return sphere_area(n) * val


def Q_integral(t: float, rel_tol: float = 1e-10) -> float:
    """integral_0^inf (1+r^2)^(-t) sin^2(tr)/r^2 dr, which grows like t."""
    t = float(t)
    if t <= 2.0:
        raise ValueError("Q_integral requires t > 2")

    def f(r):
        return np.exp(-t * np.log1p(r * r)) * t * t * sinc(r * t) ** 2

    val, _, ok = _two_phase(f, PowerTail(t, -2.0, 1.0), 2.0 * t, rel_tol)
    if not ok:
        raise ArithmeticError(f"Q_integral did not converge at t={t}")
    return val


def R_integral(t: float, rel_tol: float = 1e-10) -> float:
    """integral_0^inf (1+r^2)^(-t) sin^2(tr)/r dr, which grows like log t."""
    t = float(t)
    if t <= 2.0:
        raise ValueError("R_integral requires t > 2")

    def f(r):
        return np.exp(-t * np.log1p(r * r)) * t * t * sinc(r * t) ** 2 * r

    val, _, ok = _two_phase(f, PowerTail(t, -1.0, 1.0), 2.0 * t, rel_tol)
    if not ok:
        raise ArithmeticError(f"R_integral did not converge at t={t}")
    return val


# -- spectral operator norms (log-damping relative bound) -------------------

def log_operator_norms(vhat, n: int, radius: float, breakpoints=(),
                       rel_tol: float = 1e-11):
    """(||v||, ||Av||, ||Lv||) for a compact spectral profile vhat.

    A has symbol r^2 and L has symbol log(1+r^2); all three norms are
    radial quadratures of vhat^2 against the symbol squares on
    [0, radius], outside which vhat must be negligible.
    """
    cn = plancherel_constant(n)

    def make(fsym):
        def f(r):
            v = vhat(r)
            return fsym(r) * v * v * r ** (n - 1)
        return f

    spec = QuadratureSpec(0.0, float(radius), rel_tol=rel_tol,
                          breakpoints=tuple(breakpoints), min_panels=32)
    out = []
    for fsym in (lambda r: 1.0 + 0.0 * r,
                 lambda r: r ** 4,
                 lambda r: np.log1p(r * r) ** 2):
        res = integrate(make(fsym), spec)
        out.append(math.sqrt(cn * max(res.value, 0.0)))
    return tuple(out)


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
    label: str = ""

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
    window: tuple[float, float]


def fit_decay(series: DecaySeries,
              window: tuple[float, float] | None = None) -> DecayFitResult:
    """Least-squares slope of log(value) against log(t) over a window."""
    if window is None:
        window = (series.t_grid[0], series.t_grid[-1])
    lo, hi = float(window[0]), float(window[1])
    ts = np.asarray(series.t_grid)
    vs = np.asarray(series.values)
    mask = (ts >= lo) & (ts <= hi)
    if int(mask.sum()) < 5:
        raise ValueError("window must contain at least 5 grid points")
    x = np.log(ts[mask])
    y = np.log(vs[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = np.max(np.abs(slope * x + intercept - y))
    return DecayFitResult(float(slope), float(intercept), float(resid),
                          (lo, hi))
