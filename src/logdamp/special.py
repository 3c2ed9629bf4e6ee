"""Radial weight integrals and their special-function identities.

The family studied here is

    I_p(t) = integral_0^1   (1+r^2)^(-t) r^p dr    ~  t^(-(p+1)/2)
    J_p(t) = integral_1^inf (1+r^2)^(-t) r^p dr    ~  2^(-t)/(t-1)
    H_0(t) = I_0 + J_0 = (sqrt(pi)/2) Gamma(t-1/2)/Gamma(t)

together with the recurrence
    I_p(t) = 2^(1-t)/(p+1-2t) + (p-1)/(2t-p-1) * I_{p-2}(t)
and the hypergeometric slice 2F1(t, (p+1)/2; (p+3)/2; -1) = (p+1) I_p(t).

The weight (1+r^2)^(-t) is always evaluated as exp(-t*log1p(r^2));
powering overflows long before the interesting range t ~ 1e6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureSpec, integrate

__all__ = [
    "I_p", "J_p", "J_p_direct", "I_p_recurrence", "hyp2f1_special",
    "gamma_ratio", "middle_band", "AsymptoticBandReport", "i_band_report",
    "j_sandwich_bounds",
]


def _weight(t):
    def f(r):
        return np.exp(-t * np.log1p(r * r))
    return f


def I_p(t: float, p: float, rel_tol: float = 1e-12) -> float:
    """integral_0^1 (1+r^2)^(-t) r^p dr by adaptive quadrature.

    Converges for every finite t when p >= 0.  For large t the mass sits
    in a peak of width ~ t^(-1/2) near the origin, so peak-scale
    breakpoints are passed as hints.
    """
    t = float(t)
    p = float(p)
    if p < 0.0:
        raise ValueError("I_p requires p >= 0")
    if not math.isfinite(t):
        raise ValueError("I_p requires finite t")
    w = _weight(t)

    def f(r):
        if p == 0.0:
            return w(r)
        # r**p at r=0 with p>0 is fine (0.0); avoid 0**0 ambiguity above.
        return w(r) * r ** p

    hints = []
    if t > 4.0 * (p + 2.0):
        scale = math.sqrt((p + 1.0) / t)
        for frac in (1.0, 8.0):
            x = frac * scale
            if 0.0 < x < 1.0:
                hints.append(x)
    res = integrate(f, QuadratureSpec(0.0, 1.0, rel_tol=rel_tol,
                                      breakpoints=tuple(hints)))
    if not res.converged:
        raise ArithmeticError(f"I_p({t}, {p}) quadrature did not converge")
    return res.value


def J_p(t: float, p: float, rel_tol: float = 1e-12) -> float:
    """integral_1^inf (1+r^2)^(-t) r^p dr for t > (p+3)/2.

    Uses the substitution u = log(1+r^2):
        J_p = (1/2) integral_{log 2}^inf e^{-(t-1)u} (e^u - 1)^{(p-1)/2} du,
    truncated where the analytic exponential tail is negligible relative
    to the leading magnitude 2^(-t).
    """
    t = float(t)
    p = float(p)
    if not (t > (p + 3.0) / 2.0):
        raise ValueError("J_p requires t > (p+3)/2")
    s = t - max(1.0, (p + 1.0) / 2.0)
    upper = math.log(2.0) + 46.0 / s

    def f(u):
        return 0.5 * np.exp(-(t - 1.0) * u) * np.expm1(u) ** ((p - 1.0) / 2.0)

    res = integrate(f, QuadratureSpec(math.log(2.0), upper, rel_tol=rel_tol))
    if not res.converged:
        raise ArithmeticError(f"J_p({t}, {p}) quadrature did not converge")
    return res.value


def J_p_direct(t: float, p: float, rel_tol: float = 1e-10) -> float:
    """J_p by direct quadrature on [1, R]; valid whenever 2t > p + 1.

    The truncation uses (1+r^2)^(-t) <= r^(-2t), so the omitted tail is
    at most R^(p+1-2t)/(2t-p-1).  Slower than the substitution form but
    valid closer to the convergence boundary; serves as an independent
    cross-check route.
    """
    t = float(t)
    p = float(p)
    q = 2.0 * t - p - 1.0
    if not (q > 0.0):
        raise ValueError("J_p_direct requires 2t > p + 1")
    w = _weight(t)

    def f(r):
        return w(r) * r ** p

    # Solve R^(-q)/q <= tail for the truncation point, then refine scale
    # once the first pass gives the integral's magnitude.
    value = None
    tail_tol = 1e-3
    for _ in range(3):
        radius = max(2.0, (tail_tol * q) ** (-1.0 / q))
        res = integrate(f, QuadratureSpec(1.0, radius, rel_tol=rel_tol))
        if not res.converged:
            raise ArithmeticError(
                f"J_p_direct({t}, {p}) quadrature did not converge")
        value = res.value
        new_tol = 0.25 * rel_tol * abs(value)
        if new_tol <= 0.0 or tail_tol <= new_tol:
            break
        tail_tol = new_tol
    return value


def I_p_recurrence(t: float, p: float, I_pm2: float) -> float:
    """Step the two-down recurrence: I_p from I_{p-2} at the same t."""
    t = float(t)
    p = float(p)
    if p < 2.0:
        raise ValueError("recurrence requires p >= 2")
    if not (t > (p + 1.0) / 2.0):
        raise ValueError("recurrence requires t > (p+1)/2")
    return 2.0 ** (-t + 1.0) / (p + 1.0 - 2.0 * t) \
        + (p - 1.0) / (2.0 * t - p - 1.0) * I_pm2


def hyp2f1_special(t: float, p: float) -> float:
    """2F1(t, (p+1)/2; (p+3)/2; -1), evaluated as (p+1) * I_p(t).

    Only this parameter slice is provided; it is the one the damped-wave
    decay analysis needs, and the identity makes it exact relative to
    the I_p quadrature.
    """
    return (float(p) + 1.0) * I_p(t, p)


def gamma_ratio(t: float) -> float:
    """Gamma(t - 1/2) / Gamma(t) via log-gamma differences.

    Raw Gamma overflows past t ~ 170; the log route is exact-to-ulps up
    to t ~ 1e15.  Behaves like t^(-1/2) for large t.
    """
    t = float(t)
    if not (t > 0.5):
        raise ValueError("gamma_ratio requires t > 1/2")
    return math.exp(math.lgamma(t - 0.5) - math.lgamma(t))


def middle_band(eta: float, p: float, t: float, rel_tol: float = 1e-12) -> float:
    """integral_eta^1 (1+r^2)^(-t) r^p dr for eta in (0, 1].

    For p >= 0 the integrand is pointwise at most (1+eta^2)^(-t) on the
    interval, so the value is bounded by that with constant 1.
    """
    eta = float(eta)
    if not (0.0 < eta <= 1.0):
        raise ValueError("middle_band requires eta in (0, 1]")
    if eta == 1.0:
        return 0.0
    w = _weight(float(t))

    def f(r):
        return w(r) * r ** float(p)

    res = integrate(f, QuadratureSpec(eta, 1.0, rel_tol=rel_tol))
    if not res.converged:
        raise ArithmeticError(
            f"middle_band({eta}, {p}, {t}) quadrature did not converge")
    return res.value


@dataclass(frozen=True)
class AsymptoticBandReport:
    """Scaled values of a decaying quantity over a t-grid.

    scaled_values[i] = value(t_grid[i]) * t_grid[i]^rate_exponent; the
    band [band_min, band_max] and the tail-monotonicity flag let callers
    assert two-sided boundedness without knowing sharp constants.
    """

    p: float
    t_grid: tuple[float, ...]
    scaled_values: tuple[float, ...]
    band_min: float
    band_max: float
    monotone_tail: bool


def i_band_report(p: float, t_grid) -> AsymptoticBandReport:
    """Band report for I_p(t) * t^((p+1)/2) over an increasing t-grid."""
    ts = tuple(float(t) for t in t_grid)
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t_grid must be strictly increasing")
    scaled = tuple(I_p(t, p) * t ** ((p + 1.0) / 2.0) for t in ts)
    diffs = [b - a for a, b in zip(scaled, scaled[1:])]
    monotone = all(d <= 0 for d in diffs) or all(d >= 0 for d in diffs)
    return AsymptoticBandReport(float(p), ts, scaled,
                                min(scaled), max(scaled), monotone)


def j_sandwich_bounds(t: float, p: float) -> tuple[float, float]:
    """Two-sided bounds for J_p(t) * (t-1) * 2^t from the substitution.

    On u >= log 2 one has e^u/2 <= e^u - 1 <= e^u, hence
    (e^u-1)^((p-1)/2) is sandwiched between the corresponding powers and

        lo = min(1, 2^((p-1)/2)) * (t-1)/(t-(p+1)/2)
        hi = max(1, 2^((p-1)/2)) * (t-1)/(t-(p+1)/2).

    Requires t > (p+1)/2.  For p = 1 both sides equal 1 (J_1 is exact).
    """
    t = float(t)
    p = float(p)
    if not (t > (p + 1.0) / 2.0):
        raise ValueError("sandwich requires t > (p+1)/2")
    base = (t - 1.0) / (t - (p + 1.0) / 2.0)
    half = 2.0 ** ((p - 1.0) / 2.0)
    return min(1.0, half) * base, max(1.0, half) * base
