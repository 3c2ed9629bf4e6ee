"""Exact Fourier-mode solution, asymptotic profile, and remainder split.

For data (u0, u1) the transformed solution at radius r = |xi| is

    u_hat(t,r) = e^{-a t} [ u0_hat cos(bt) + (u1_hat + a u0_hat) sin(bt)/b ]

and its large-time shape is the profile P1 e^{-a t} sin(rt)/r, where
P1 = u1_hat(0) is the mass of the initial velocity.  The gap between
the two splits exactly into five remainder terms K1..K5; the mean-value
parameters that appear in the textbook derivation are replaced by the
exact differences 1/b - 1/r and sin(bt) - sin(rt), both evaluated in
cancellation-free forms, so the split is an identity to roundoff.

Initial data are radial Gaussians (or zero), whose transforms, masses
and weighted L^1 norms are closed-form; everything else in the package
is then quadrature over these exact mode values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import symbols
from .stable import sinc

__all__ = [
    "InitialDataSpec", "DataDecomposition", "ModeDecomposition", "Mode",
    "sphere_area", "mode_value", "mode_value_dt", "u_hat", "u_hat_t",
    "profile_hat", "k_terms", "remainder_terms", "decompose_data",
]

_FAMILIES = ("gaussian", "zero")


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n (2, 2*pi, 4*pi, ...)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class InitialDataSpec:
    """A radial datum amplitude * exp(-|x|^2 / (2 width^2)), or zero.

    The Fourier convention is f_hat(xi) = integral e^{-i x.xi} f(x) dx,
    under which the Gaussian transform is
    amplitude * (2 pi)^{n/2} width^n * exp(-width^2 r^2 / 2).
    """

    family: str
    amplitude: float = 1.0
    width: float = 1.0
    dimension: int = 1

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unsupported data family {self.family!r}")
        if not (self.width > 0.0 and math.isfinite(self.width)):
            raise ValueError("width must be positive and finite")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")

    # -- transform side ----------------------------------------------------

    def fourier(self, r):
        """Transform value at radius r (real, radial)."""
        if self.family == "zero":
            out = np.zeros_like(np.asarray(r, dtype=float))
            return out if out.ndim else 0.0
        w, n = self.width, self.dimension
        amp = self.amplitude * (2.0 * math.pi) ** (n / 2.0) * w ** n
        r = np.asarray(r, dtype=float)
        out = amp * np.exp(-0.5 * (w * r) ** 2)
        return out if out.ndim else float(out)

    def mass(self) -> float:
        """integral of the datum = transform at r = 0."""
        if self.family == "zero":
            return 0.0
        n = self.dimension
        return self.amplitude * (2.0 * math.pi * self.width ** 2) ** (n / 2.0)

    def fourier_sup(self) -> float:
        """sup over r of |transform| (attained at r = 0)."""
        return abs(self.mass())

    # -- physical-space norms (closed forms) -------------------------------

    def l1_norm(self) -> float:
        return abs(self.mass())

    def l2_norm(self) -> float:
        if self.family == "zero":
            return 0.0
        n = self.dimension
        return abs(self.amplitude) * (math.pi * self.width ** 2) ** (n / 4.0)

    def weighted_l1_norm(self) -> float:
        """integral (1 + |x|) |datum| dx."""
        if self.family == "zero":
            return 0.0
        w, n = self.width, self.dimension
        moment = (sphere_area(n) * math.gamma((n + 1.0) / 2.0)
                  * (2.0 * w * w) ** ((n + 1.0) / 2.0) / 2.0)
        return self.l1_norm() + abs(self.amplitude) * moment

    def grad_l2_norm_sq(self) -> float:
        """squared L^2 norm of the gradient."""
        if self.family == "zero":
            return 0.0
        w, n = self.width, self.dimension
        return (self.amplitude ** 2 * n / (2.0 * w * w)
                * (math.pi * w * w) ** (n / 2.0))


@dataclass(frozen=True)
class DataDecomposition:
    """Mass/oscillation split of a velocity transform.

    u1_hat(r) = A1(r) + P1 with A1 := u1_hat - P1 real (the sine moment
    of real radial data integrates to zero by symmetry).
    |A1(r)| <= |r| * weighted_l1 since |1 - cos(s)| <= |s|.
    """

    P1: float
    A1: Callable


def decompose_data(u1: InitialDataSpec) -> DataDecomposition:
    if u1.family not in _FAMILIES:
        raise ValueError(f"unsupported data family {u1.family!r}")
    p1 = u1.mass()

    def a1(r):
        return u1.fourier(r) - p1

    return DataDecomposition(P1=p1, A1=a1)


# -- mode evaluation --------------------------------------------------------

def _out(x):
    return x if np.ndim(x) else float(x)


class Mode:
    """The factors shared by every mode field at time t and radii r.

    The roots -a +/- ib of the mode equation fix a, e^{-at}, cos(bt) and
    sinc(bt) once per abscissa array; each method builds one field from
    them.  sin(bt)/b is evaluated as t*sinc(bt), so the r = 0 limit is
    exact.  One log1p per abscissa: g comes from the held a through
    ``symbols.ratio_g_from_a``.  Only these four full-size arrays are
    held, to keep peak memory low; g and sqrt(1-g) are recomputed from
    a on the K-term path.
    """

    def __init__(self, t, r):
        t = float(t)
        if t < 0.0:
            raise ValueError("time must be >= 0")
        self.t = t
        self.r = r = np.asarray(r, dtype=float)
        self.a = symbols.damping_a(r)
        # b = r * sqrt(1 - g), evaluated as symbols.oscillation_b does.
        bt = r * np.sqrt(1.0 - symbols.ratio_g_from_a(r, self.a)) * t
        self.env = np.exp(-self.a * t)
        self.cos_bt = np.cos(bt)
        self.sinc_bt = sinc(bt)

    def u(self, u0_val, u1_val):
        """Mode solution from raw transform values u0_val, u1_val."""
        return self.env * (u0_val * self.cos_bt + (u1_val + self.a * u0_val)
                           * self.t * self.sinc_bt)

    def u_t(self, u0_val, u1_val):
        """Time derivative of the mode solution (uses a^2 + b^2 = r^2)."""
        r = self.r
        return self.env * (u1_val * self.cos_bt
                           - (self.a * u1_val + r * r * u0_val)
                           * self.t * self.sinc_bt)

    def profile(self, p1: float):
        """Leading profile P1 * (1+r^2)^(-t/2) * sin(rt)/r."""
        return p1 * self.env * self.t * sinc(self.r * self.t)

    def k_terms(self, u0_val, u1_val, p1: float):
        """The five remainder terms, for r > 0 (see ``k_terms``)."""
        r, t, env = self.r, self.t, self.env
        if np.any(r <= 0.0):
            raise ValueError("remainder split requires r > 0")
        g = symbols.ratio_g_from_a(r, self.a)
        sq = np.sqrt(1.0 - g)
        inv_diff = g / (r * sq * (1.0 + sq))
        bmr_over_b = -g / (sq * (1.0 + sq))
        rt = r * t

        k1 = (u1_val - p1) * env * t * self.sinc_bt
        k2 = u0_val * self.a * env * t * self.sinc_bt
        k3 = u0_val * env * self.cos_bt
        k4 = p1 * env * np.sin(rt) * inv_diff
        delta = bmr_over_b * (r * sq) * t  # = (b - r) t, stably
        k5 = p1 * env * t * bmr_over_b * np.cos(rt + 0.5 * delta) \
            * sinc(0.5 * delta)
        return k1, k2, k3, k4, k5


def mode_value(t, r, u0_val, u1_val):
    """Mode solution from raw transform values u0_val, u1_val at r >= 0."""
    return _out(Mode(t, r).u(u0_val, u1_val))


def mode_value_dt(t, r, u0_val, u1_val):
    """Time derivative of the mode solution."""
    return _out(Mode(t, r).u_t(u0_val, u1_val))


def u_hat(t, r, u0: InitialDataSpec, u1: InitialDataSpec):
    """Transformed solution at time t and radius r for the given data."""
    rr = np.asarray(r, dtype=float)
    return mode_value(t, rr, u0.fourier(rr), u1.fourier(rr))


def u_hat_t(t, r, u0: InitialDataSpec, u1: InitialDataSpec):
    """Time derivative of the transformed solution."""
    rr = np.asarray(r, dtype=float)
    return mode_value_dt(t, rr, u0.fourier(rr), u1.fourier(rr))


def profile_hat(t, r, p1: float):
    """Leading profile P1 * (1+r^2)^(-t/2) * sin(rt)/r, with r=0 limit."""
    return _out(Mode(t, r).profile(p1))


def k_terms(t, r, u0: InitialDataSpec, u1: InitialDataSpec):
    """The five remainder terms at (t, r), vectorized over r > 0.

    K1 = (A1/b) e^{-at} sin(bt)
    K2 = u0_hat (a/b) e^{-at} sin(bt)
    K3 = u0_hat e^{-at} cos(bt)
    K4 = P1 e^{-at} sin(rt) (1/b - 1/r)
    K5 = P1 e^{-at} (sin(bt) - sin(rt))/b

    K4 uses the cancellation-free 1/b - 1/r; K5 evaluates the sine
    difference as 2 cos(rt + d/2) sin(d/2) with d = (b-r)t built from
    the stable b - r, divided by b through the equally stable ratio
    (b-r)/b, so both stay accurate when |b - r| t << 1.
    """
    r = np.asarray(r, dtype=float)
    return Mode(t, r).k_terms(u0.fourier(r), u1.fourier(r), u1.mass())


@dataclass(frozen=True)
class ModeDecomposition:
    """Mode value, profile, remainder terms and the split's residual."""

    t: float
    r: float
    u_hat: complex
    profile: complex
    K: tuple
    closure_residual: float


def remainder_terms(t, r, u0: InitialDataSpec,
                    u1: InitialDataSpec) -> ModeDecomposition:
    """Full decomposition record at (t, r); r may be a positive array.

    closure_residual = |u_hat - profile - sum K_j|, which vanishes to
    roundoff because the split is an algebraic identity.
    """
    rr = np.asarray(r, dtype=float)
    u0v, u1v = u0.fourier(rr), u1.fourier(rr)
    mode, p1 = Mode(t, rr), u1.mass()
    ks = mode.k_terms(u0v, u1v, p1)
    uh = _out(mode.u(u0v, u1v))
    prof = _out(mode.profile(p1))
    resid = np.abs(uh - prof - sum(ks))
    return ModeDecomposition(t=t, r=r, u_hat=uh, profile=prof,
                             K=ks, closure_residual=resid)
