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

import numpy as np

from .quadrature import QuadratureSpec, integrate, weight_factor_range

__all__ = [
    "I_p", "J_p", "J_p_direct", "J_p_scaled", "I_p_recurrence",
    "hyp2f1_special", "gamma_ratio", "middle_band", "j_sandwich_bounds",
]


def _weight(t, p):
    def f(r):
        return np.exp(-t * np.log1p(r * r)) * r ** p
    return f


def _certified(f, spec, site):
    """integrate(f, spec), or ArithmeticError("<site> did not converge")."""
    res = integrate(f, spec)
    if not res.converged:
        raise ArithmeticError(f"{site} did not converge")
    return res.value


def I_p(t: float, p: float) -> float:
    """integral_0^1 (1+r^2)^(-t) r^p dr by adaptive quadrature, to 1e-12.

    Converges for every finite t when p >= 0.  For large t the mass sits
    in a peak of width ~ t^(-1/2) near the origin, so peak-scale
    breakpoints are passed as hints, and 4^-k (k = 1..15) toward the r^p
    singularity at 0 for non-integer p.  Each value is held to
    max(1e-300, 1e-12 |value|), so values below 1e-288 are certified
    only absolutely (see ``middle_band``).
    """
    t, p = float(t), float(p)
    if p < 0.0:
        raise ValueError("I_p requires p >= 0")
    if not math.isfinite(t):
        raise ValueError("I_p requires finite t")
    hints = ()
    if t > 4.0 * (p + 2.0):
        scale = math.sqrt((p + 1.0) / t)
        hints = tuple(x for x in (scale, 8.0 * scale) if x < 1.0)
    if not p.is_integer():
        hints += tuple(4.0 ** -k for k in range(1, 16))
    return _certified(_weight(t, p), QuadratureSpec(
        0.0, 1.0, rel_tol=1e-12, breakpoints=hints), f"I_p({t}, {p})")


def _tail_integral(t: float, p: float) -> float:
    """K = J_p(t) * 2^s with s = t - (p+1)/2, for every 2t > p + 1.

    With v = log(1+r^2) - log 2 the tail integral becomes
        J_p = 2^(-s) K,  K = (1/2) integral_0^inf e^(-sv) c(v)^((p-1)/2) dv,
    c(v) = 1 - e^(-v)/2.  On v >= 0 the factor c^((p-1)/2) tends to 1 and
    lies in [m, M] = ``weight_factor_range(p, 1)``, so K >= m/(2s), and
    past V the tail is e^(-sV)/(2s) to within M e^(-sV)/(2s).
    V = log(4M/(m eps))/s makes that bound at most eps/4 of K, eps =
    1e-12; the quadrature on [0, V] runs at eps/2.
    """
    t, p = float(t), float(p)
    s = t - (p + 1.0) / 2.0
    if not 0.0 < s < math.inf:
        raise ValueError("J_p requires finite t with 2t > p + 1")
    m, M = weight_factor_range(p, 1.0)
    decay = m * 1e-12 / (4.0 * M)          # e^(-sV)

    def f(v):
        return 0.5 * np.exp(-s * v) * (1.0 - 0.5 * np.exp(-v)) ** ((p - 1) / 2)

    # Panel ends at 2-16 e-folds of e^(-sv): one or two waves, not five.
    spec = QuadratureSpec(0.0, -math.log(decay) / s, rel_tol=0.5e-12,
                          breakpoints=tuple(k / s for k in (2, 4, 8, 16)))
    return _certified(f, spec, f"J_p({t}, {p})") + 0.5 * decay / s


def J_p(t: float, p: float) -> float:
    """integral_1^inf (1+r^2)^(-t) r^p dr = 2^(-s) K to 1e-12 for 2t >
    p + 1 (``_tail_integral``); 0.0 from t ~ 1075 on, unlike J_p_scaled.
    Values below 1e-300 (t > ~1000) are certified only absolutely."""
    return _tail_integral(t, p) \
        * 2.0 ** -(float(t) - (float(p) + 1.0) / 2.0)


# ``bench/workloads.py`` and ``bench/tracer.py`` call the tail integral
# by this name.
J_p_direct = J_p


def J_p_scaled(t: float, p: float) -> float:
    """J_p(t) (t-1) 2^t = K (t-1) 2^((p+1)/2): finite at every t, exactly
    1 for p = 1, and bracketed by ``j_sandwich_bounds``."""
    return _tail_integral(t, p) * (float(t) - 1.0) \
        * 2.0 ** ((float(p) + 1.0) / 2.0)


def I_p_recurrence(t: float, p: float, I_pm2: float) -> float:
    """Step the two-down recurrence: I_p from I_{p-2} at the same t."""
    t, p = float(t), float(p)
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
    the I_p quadrature.  No report prints it (its column would copy
    I_p's); ``bench/tracer.py`` wraps this name.
    """
    return (float(p) + 1.0) * I_p(t, p)


def gamma_ratio(t: float) -> float:
    """Gamma(t - 1/2) / Gamma(t), which behaves like t^(-1/2).

    math.gamma below t = 40; above it t^(-1/2) exp(sum_k c_k t^-k), the
    series of DLMF 5.11.8 (c_8/t^8 < 1e-16).  Tested to 1e-14 relative
    against mpmath at 40 log-spaced t in [0.6, 1e15].
    """
    t = float(t)
    if not (t > 0.5):
        raise ValueError("gamma_ratio requires t > 1/2")
    if t < 40.0:
        return math.gamma(t - 0.5) / math.gamma(t)
    s = 0.0
    for c in (33 / 14336, 1 / 384, 3 / 640, 1 / 64, 3 / 64, 1 / 8, 3 / 8):
        s = (c + s) / t
    return math.exp(s) / math.sqrt(t)


def middle_band(eta: float, p: float, t: float) -> float:
    """integral_eta^1 (1+r^2)^(-t) r^p dr for eta in (0, 1], to 1e-12.

    For p >= 0 the integrand is pointwise at most (1+eta^2)^(-t) on the
    interval, so the value is bounded by that with constant 1.  Below the
    1e-300 absolute floor a value is certified only absolutely: 1.38e-310
    = middle_band(0.5, 0, 3162.28) read 9.0e-312 on a coarser panelling.
    """
    eta = float(eta)
    if not (0.0 < eta <= 1.0):
        raise ValueError("middle_band requires eta in (0, 1]")
    if eta == 1.0:
        return 0.0
    # Panel ends 2-32 e-folds (1+eta^2)/(2 eta t) of the weight past eta.
    fold = (1.0 + eta * eta) / (2.0 * eta) / t if t > 0.0 else math.inf
    hints = tuple(eta + k * fold for k in range(2, 33, 2))
    return _certified(_weight(float(t), float(p)), QuadratureSpec(
        eta, 1.0, rel_tol=1e-12, breakpoints=hints),
        f"middle_band({eta}, {p}, {t})")


def j_sandwich_bounds(t: float, p: float) -> tuple[float, float]:
    """Two-sided bounds for ``J_p_scaled`` where 2t > p + 1: K in
    [m, M]/(2s) (see ``_tail_integral``) puts it in [m, M] (t-1)
    2^((p-1)/2)/s; both sides are 1 for p = 1 (J_1 is exact)."""
    t, p = float(t), float(p)
    if not (t > (p + 1.0) / 2.0):
        raise ValueError("sandwich requires t > (p+1)/2")
    m, M = weight_factor_range(p, 1.0)
    base = (t - 1.0) / (t - (p + 1.0) / 2.0) * 2.0 ** ((p - 1.0) / 2.0)
    return m * base, M * base
