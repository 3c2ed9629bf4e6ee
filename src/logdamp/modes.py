"""Exact Fourier-mode solution, asymptotic profile, and remainder split.

For data (u0, u1) the transformed solution at radius r = |xi| is

    u_hat(t,r) = e^{-a t} [ u0_hat cos(bt) + (u1_hat + a u0_hat) sin(bt)/b ]

and its large-time shape is the profile P1 e^{-a t} sin(rt)/r, where
P1 = u1_hat(0) is the mass of the initial velocity.  The gap between
the two splits exactly into five remainder terms K1..K5; the mean-value
parameters that appear in the textbook derivation are replaced by the
exact differences 1/b - 1/r and sin(bt) - sin(rt), both evaluated in
cancellation-free forms, so the split is an identity to roundoff.
The same gap is also Re X for one analytic residual phasor X
(``Mode.residual_phasor``), the form that continues to complex radii.

Initial data are radial Gaussians (zero data have amplitude 0), whose
transforms, masses and weighted L^1 norms are closed-form; everything
else in the package is then quadrature over these exact mode values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import symbols
from .stable import expm1_i, sinc

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
    """A radial datum amplitude * exp(-|x|^2 / (2 width^2)).

    The zero family is this datum at amplitude 0 and width 1.  The
    Fourier convention is f_hat(xi) = integral e^{-i x.xi} f(x) dx,
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
        if self.family == "zero":  # a unit width keeps w^n finite
            object.__setattr__(self, "amplitude", 0.0)
            object.__setattr__(self, "width", 1.0)
        # amplitude (2 pi)^(n/2) width^n, formed once: the datum is frozen.
        n = self.dimension
        object.__setattr__(self, "_mass", self._times_width_to(
            self.amplitude * (2.0 * math.pi) ** (n / 2.0), n))
        if not (math.isfinite(self.width * self.width)
                and math.isfinite(self._mass)):
            raise ValueError(
                f"width {self.width!r} in dimension {self.dimension}: "
                f"width^2 or the transform at r = 0, amplitude * "
                f"(2 pi)^(n/2) * width^n, overflows")

    def scaled(self, k: int) -> InitialDataSpec:
        """This datum times 2^k: the amplitude and the mass by ldexp, with
        no re-validation.  Where both stay normal doubles this is the
        datum that validation forms from the scaled amplitude, bit for
        bit; below that the mass is the nearest double to 2^k mass."""
        out = object.__new__(InitialDataSpec)
        out.__dict__.update(self.__dict__,
                            amplitude=math.ldexp(self.amplitude, k),
                            _mass=math.ldexp(self._mass, k))
        return out

    def _times_width_to(self, c: float, p: int) -> float:
        """c * width^p, formed as m^p 2^(kp) with width = m 2^k, m in
        [1/2, 1): a tiny c offsets a huge width^p, and only a result
        outside the doubles overflows (to +-inf)."""
        m, k = math.frexp(self.width)
        try:
            return math.ldexp(c * m ** p, k * p)
        except OverflowError:
            return math.copysign(math.inf, c)

    # -- transform side ----------------------------------------------------

    def _exponent(self, r):
        """-width^2 r^2 / 2 at radius r, real or complex."""
        r = np.asarray(r)
        if not np.iscomplexobj(r):
            r = r.astype(float, copy=False)
        return -0.5 * (self.width * r) ** 2

    def fourier(self, r):
        """Transform value at radius r, real or complex (it is entire)."""
        out = self._mass * np.exp(self._exponent(r))
        return out if out.ndim else out.item()

    def fourier_minus_mass(self, r):
        """Transform minus mass, mass * expm1(-width^2 r^2 / 2), at radius
        r, real or complex: no cancellation as r -> 0, where it is
        -mass width^2 r^2 / 2."""
        out = self._mass * np.expm1(self._exponent(r))
        return out if out.ndim else out.item()

    def fourier_of_square(self, rr, shift=None):
        """Transform at radius r from rr = r^2, real or complex, as
        ``symbols.kernel`` forms it, times e^shift where ``shift`` is
        given: mass * exp(shift - width^2 rr / 2).  So r^2 is not formed
        again, and a phasor's e^{lambda t} is the same exponential."""
        x = (-0.5 * self.width * self.width) * rr
        return self._mass * np.exp(x if shift is None else shift + x)

    def fourier_minus_mass_of_square(self, rr):
        """``fourier_minus_mass`` from rr = r^2: mass * expm1(-width^2
        rr / 2)."""
        return self._mass * np.expm1((-0.5 * self.width * self.width) * rr)

    def mass(self) -> float:
        """integral of the datum = transform at r = 0 (formed once)."""
        return self._mass

    def fourier_sup(self) -> float:
        """sup over r of |transform| (attained at r = 0)."""
        return abs(self.mass())

    # -- physical-space norms (closed forms) -------------------------------

    def l1_norm(self) -> float:
        return abs(self.mass())

    def l2_norm(self) -> float:
        """|amplitude| (pi width^2)^(n/4), width^(n/2) as
        width^(n//2) sqrt(width)^(n % 2)."""
        n = self.dimension
        c = abs(self.amplitude) * math.pi ** (n / 4.0)
        if n % 2:
            c *= math.sqrt(self.width)
        return self._times_width_to(c, n // 2)

    def weighted_l1_norm(self) -> float:
        """integral (1 + |x|) |datum| dx, inf where the first moment
        leaves the doubles (a width inside the domain can do that).

        The first moment is omega_n Gamma((n+1)/2) (2 width^2)^((n+1)/2)
        / 2 = omega_n Gamma((n+1)/2) 2^((n-1)/2) width^(n+1) per unit
        amplitude.
        """
        n = self.dimension
        c = (abs(self.amplitude) * sphere_area(n) * math.gamma((n + 1.0) / 2.0)
             * 2.0 ** ((n - 1.0) / 2.0))
        return self.l1_norm() + self._times_width_to(c, n + 1)


@dataclass(frozen=True)
class DataDecomposition:
    """Mass/oscillation split of a velocity transform.

    u1_hat(r) = A1(r) + P1 with A1 := u1_hat - P1 real (the sine moment
    of real radial data integrates to zero by symmetry), formed without
    cancellation by ``InitialDataSpec.fourier_minus_mass``.
    |A1(r)| <= |r| * weighted_l1 since |1 - cos(s)| <= |s|.
    """

    P1: float
    A1: Callable


def decompose_data(u1: InitialDataSpec) -> DataDecomposition:
    return DataDecomposition(P1=u1.mass(), A1=u1.fourier_minus_mass)


# -- mode evaluation --------------------------------------------------------

def _out(x):
    return x if np.ndim(x) else float(x)


class Mode:
    """The factors shared by every mode field at time t and radii r.

    The roots -a +/- ib of the mode equation fix a and b once per
    abscissa array; each method builds one field from them.  One
    ``symbols.kernel`` call per abscissa array gives r^2, a and g (one
    log1p per abscissa); r^2 serves the phasors' data transforms
    (``InitialDataSpec.fourier_of_square``), g and sqrt(1 - g) the
    K-term path and ``residual_phasor``.  The real-radius fields
    ``env`` = e^{-at}, ``cos_bt`` and ``sinc_bt`` form on first use (by
    ``u``, ``u_t``, ``profile``, ``k_terms``), so phasor-only modes skip
    them.
    sin(bt)/b is t*sinc(bt), so the r = 0 limit is exact.  Real radii
    serve every field; complex radii (|Im r| <= ``symbols.STRIP_HEIGHT``)
    only the two phasors, which take the data pair itself and form no
    term of a zero datum.  The other fields take transform values, which
    may be scalars (0 for a zero datum) that broadcast.
    """

    def __init__(self, t, r):
        t = float(t)
        if t < 0.0:
            raise ValueError("time must be >= 0")
        self.t = t
        self.r, self.rr, self.a, self.g, _ = symbols.kernel(r)
        # b = r * sqrt(1 - g), evaluated as symbols.oscillation_b does.
        self.sq = np.sqrt(1.0 - self.g)
        self.b = self.r * self.sq

    env = cached_property(lambda self: np.exp(-self.a * self.t))
    cos_bt = cached_property(lambda self: np.cos(self.b * self.t))
    sinc_bt = cached_property(lambda self: sinc(self.b * self.t))

    def phasor(self, u0: InitialDataSpec, u1: InitialDataSpec):
        """P = Z e^{lambda t}, lambda = -a + ib, Z = u0 - i(u1 + a u0)/b,
        for the transforms u0, u1 of the data pair.

        On real radii u = Re P and u_t = Re(lambda P) = Re dP/dt (Z is
        fixed by Re Z = u0 and Re(lambda Z) = u1), so
        u^2 = |P|^2/2 + Re(P^2)/2 splits into a mean part and a part
        that oscillates like e^{2ibt}.  P continues analytically to
        complex radii where |g| < 1 and r != 0 (see ``norms._contour``).
        P is linear in the data, so it is formed from u_j e^{lambda t} =
        mass_j exp(lambda t - width_j^2 r^2 / 2), one exponential per
        datum, and a zero datum forms no term.
        """
        a, b = self.a, self.b
        lt = self.t * (1j * b - a)
        if not u0.amplitude:
            return -1j * u1.fourier_of_square(self.rr, lt) / b
        p0 = u0.fourier_of_square(self.rr, lt)
        v = (u1.fourier_of_square(self.rr, lt) + a * p0 if u1.amplitude
             else a * p0)
        return p0 - 1j * v / b

    def residual_phasor(self, u0: InitialDataSpec, u1: InitialDataSpec):
        """X = e^{(ir - a)t} W with u - profile = Re X on real radii, for
        the data pair and the profile of u1's mass P1, where

            W = Z expm1(i(b - r)t) + u0 - i(A1/b + a u0/b + P1 (1/b - 1/r)),

        Z as in ``phasor`` and A1 = u1 - P1 (see
        ``InitialDataSpec.fourier_minus_mass``).  So X carries the one
        oscillation e^{irt}, and sin(bt) - sin(rt) is never formed.
        Every piece is cancellation-free on real and complex radii
        r != 0: d = (b - r)t = -g r t / (1 + sqrt(1 - g)), expm1(id) is
        ``stable.expm1_i`` and 1/b - 1/r = g / (b (1 + sqrt(1 - g))).
        With v = (A1 + a u0)/b and e = e^{id} - 1 this is

            W = u0 (1 + e) - i ((v + P1/b) e + v + P1 (1/b - 1/r)),

        formed with 1/b and 1/(1 + sqrt(1 - g)) taken once; a zero
        datum forms no term.
        """
        r, a, g, t = self.r, self.a, self.g, self.t
        ib, iq = 1.0 / self.b, 1.0 / (1.0 + self.sq)
        e = expm1_i(-t * g * r * iq)
        p1 = u1.mass()
        if u0.amplitude:
            u0v = u0.fourier_of_square(self.rr)
            v = a * u0v
            if u1.amplitude:
                v = u1.fourier_minus_mass_of_square(self.rr) + v
        else:
            v = u1.fourier_minus_mass_of_square(self.rr)
        v = v * ib
        if p1:
            pb = p1 * ib
            s = (v + pb) * e + v + pb * g * iq
        else:
            s = v * e + v
        w = u0v * (1.0 + e) - 1j * s if u0.amplitude else -1j * s
        return np.exp(t * (1j * r - a)) * w

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
        r, t, env, g, sq = self.r, self.t, self.env, self.g, self.sq
        if np.any(r <= 0.0):
            raise ValueError("remainder split requires r > 0")
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
