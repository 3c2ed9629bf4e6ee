"""Adaptive one-dimensional quadrature for radial integrals.

A 15-point Kronrod rule with embedded 7-point Gauss estimate is applied
per panel; panels are bisected worst-first until the accumulated error
estimate meets the tolerance.  Two features matter for this package:

* oscillation awareness: when the integrand contains sin(w*r) or
  cos(w*r), initial panels are no wider than pi/w, so no panel spans
  more than a half-period and the embedded error estimate cannot be
  fooled by symmetric cancellation;

* semi-infinite intervals: the integral is truncated at a radius where
  an analytic tail envelope (power-decay or Gaussian-decay model) is
  below budget, and that closed-form tail bound is added to the error
  estimate rather than silently dropped.

Integrands must be vectorized (accept a float ndarray, return same
shape).  Panel sums are accumulated pairwise over panels sorted by
position, so a result is bit-reproducible for a fixed panel set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappush, heappop

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "PowerTail",
    "GaussTail",
    "TailSum",
    "TailBest",
    "EvaluationError",
    "integrate",
    "truncation_point",
    "truncation_radius",
]


class EvaluationError(RuntimeError):
    """The integrand returned a non-finite value."""


# --- 7/15 Gauss-Kronrod nodes and weights on [-1, 1] ---------------------

_XGK_HALF = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985,
])
_WGK_HALF = np.array([
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989,
])
_WGK_CENTER = 0.2094821410847278
_WG_HALF = np.array([0.1294849661688697, 0.2797053914892767,
                     0.3818300505051189])
_WG_CENTER = 0.4179591836734694

_XGK = np.concatenate([-_XGK_HALF, [0.0], _XGK_HALF[::-1]])
_WGK = np.concatenate([_WGK_HALF, [_WGK_CENTER], _WGK_HALF[::-1]])
# Gauss nodes sit at the odd positions 1, 3, ..., 13 of the Kronrod set.
_WG = np.concatenate([_WG_HALF, [_WG_CENTER], _WG_HALF[::-1]])


# --- analytic tail envelopes ---------------------------------------------

@dataclass(frozen=True)
class PowerTail:
    """Envelope |f(r)| <= coeff * (1+r^2)^(-t) * r^p.

    ``bound(R)`` is a closed-form upper bound for the integral of the
    envelope over [R, inf), combining three estimates:

    * substitution u = log(1+r^2) plus (e^u - 1)^((p-1)/2) <= max(1,
      e^((p-1)u/2)) on u >= log 2 gives (1+R^2)^(-s)/(2s) with
      s = t - max(1, (p+1)/2), valid for R >= 1 and s > 0;
    * (1+r^2)^(-t) <= r^(-2t) gives R^(p+1-2t)/(2t-p-1), valid for
      2t > p + 1 and any R > 0;
    * for R < 1, [R, 1] is bounded by the integrand sup times width and
      the [1, inf) part by the above.

    The minimum of the valid estimates is returned; +inf if none apply.
    """

    t: float
    p: float
    coeff: float = 1.0

    @property
    def scale(self) -> float:
        return self.coeff

    def _bound_ge1(self, radius: float) -> float:
        best = math.inf
        s = self.t - max(1.0, (self.p + 1.0) / 2.0)
        if s > 0.0:
            b = math.exp(-s * math.log1p(radius * radius)) / (2.0 * s)
            best = min(best, b)
        q = 2.0 * self.t - self.p - 1.0
        if q > 0.0:
            b = math.exp((self.p + 1.0 - 2.0 * self.t) * math.log(radius)) / q
            best = min(best, b)
        return self.coeff * best

    def bound(self, radius: float) -> float:
        if self.coeff == 0.0:
            return 0.0
        if radius >= 1.0:
            return self._bound_ge1(radius)
        if radius <= 0.0:
            return math.inf
        head = math.exp(-self.t * math.log1p(radius * radius))
        if self.p < 0.0:
            head *= radius ** self.p
        return self.coeff * head * (1.0 - radius) + self._bound_ge1(1.0)


@dataclass(frozen=True)
class GaussTail:
    """Envelope |f(r)| <= coeff * r^q * exp(-c * r^2) for r >= min_radius.

    ``bound(R)`` = coeff * R^(q-1) * exp(-c R^2) / c, valid once
    c*R^2 >= max(1, q - 1) (incomplete-gamma estimate); +inf below that
    or below ``min_radius`` (the radius the envelope itself needs).
    """

    c: float
    q: float
    coeff: float = 1.0
    min_radius: float = 0.0

    @property
    def scale(self) -> float:
        return self.coeff

    def bound(self, radius: float) -> float:
        if self.c <= 0.0:
            raise ValueError("GaussTail requires c > 0")
        if self.coeff == 0.0:
            return 0.0
        x = self.c * radius * radius
        if (radius <= 0.0 or radius < self.min_radius
                or x < max(1.0, self.q - 1.0)):
            return math.inf
        log_b = (math.log(self.coeff) + (self.q - 1.0) * math.log(radius)
                 - x - math.log(self.c))
        if log_b > 700.0:
            return math.inf
        return math.exp(log_b)


@dataclass(frozen=True)
class TailSum:
    """Additive envelope: each part bounds one piece of the integrand."""

    parts: tuple

    @property
    def scale(self) -> float:
        return sum(p.scale for p in self.parts)

    def bound(self, radius: float) -> float:
        return sum(p.bound(radius) for p in self.parts)


@dataclass(frozen=True)
class TailBest:
    """Alternative envelopes: every option bounds the whole integrand,
    so the smallest (often: power model for large t, Gaussian data decay
    for small t) wins at each radius."""

    options: tuple

    @property
    def scale(self) -> float:
        return min(o.scale for o in self.options)

    def bound(self, radius: float) -> float:
        return min(o.bound(radius) for o in self.options)


def truncation_point(tail, tol: float) -> tuple[float, float]:
    """Smallest radius (up to bisection slack) with tail.bound <= tol."""
    if tol <= 0.0:
        raise ValueError("tail tolerance must be positive")
    if tail.scale == 0.0:
        return 1e-9, 0.0
    hi = 1.0
    for _ in range(4000):
        if tail.bound(hi) <= tol:
            break
        hi *= 1.5
    else:
        raise ValueError("tail bound cannot reach the requested tolerance")
    lo = 1e-9
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if tail.bound(mid) <= tol:
            hi = mid
        else:
            lo = mid
        if hi / lo < 1.0 + 1e-9:
            break
    return hi, tail.bound(hi)


def truncation_radius(t: float, p: float, tail_tol: float) -> float:
    """Radius R >= 1 with closed-form tail of (1+r^2)^(-t) r^p below tol.

    Requires t > (p+1)/2 + 1 so the substitution-based estimate holds
    with margin.  The returned bound is the documented PowerTail one and
    is tested against direct quadrature of the tail.
    """
    if not (t > (p + 1.0) / 2.0 + 1.0):
        raise ValueError("truncation_radius requires t > (p+1)/2 + 1")
    if not (tail_tol > 0.0 and math.isfinite(tail_tol)):
        raise ValueError("tail_tol must be positive and finite")
    radius, _ = truncation_point(PowerTail(t, p), tail_tol)
    return max(1.0, radius)


# --- specs and results ----------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate: interval, tolerances, oscillation, tail model.

    ``upper`` may be math.inf, in which case ``tail`` (a PowerTail /
    GaussTail or a TailSum / TailBest combination) must be given and
    the truncation budget is abs_tol/2.  ``oscillation_frequency`` is
    the w of the fastest sin(w r)/cos(w r) factor; 0 means smooth.
    ``breakpoints`` are optional interior split hints (peak locations).
    """

    lower: float
    upper: float
    abs_tol: float = 1e-300
    rel_tol: float = 1e-12
    oscillation_frequency: float = 0.0
    max_panels: int = 50_000
    breakpoints: tuple[float, ...] = ()
    min_panels: int = 1
    tail: object = None

    def validate(self) -> None:
        if not (self.lower < self.upper):
            raise ValueError("lower must be < upper")
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.oscillation_frequency < 0.0:
            raise ValueError("oscillation_frequency must be >= 0")
        if self.max_panels < 1:
            raise ValueError("max_panels must be >= 1")
        if math.isinf(self.upper) and self.tail is None:
            raise ValueError("semi-infinite integral needs a tail model")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    panels_used: int
    converged: bool
    truncation: float | None = None


# --- the adaptive engine ---------------------------------------------------

def _panel_rule(f, a: np.ndarray, b: np.ndarray):
    """Vectorized K15/G7 on a batch of panels; returns (values, errors)."""
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    x = mid[:, None] + hw[:, None] * _XGK[None, :]
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    if not np.all(np.isfinite(fx)):
        bad = np.argwhere(~np.isfinite(fx.ravel()))[0, 0]
        raise EvaluationError(
            f"integrand returned a non-finite value at r={x.ravel()[bad]!r}")
    k15 = hw * (fx @ _WGK)
    g7 = hw * (fx[:, 1::2] @ _WG)
    return k15, np.abs(k15 - g7)


def _initial_edges(spec: QuadratureSpec, upper: float) -> np.ndarray:
    pts = [spec.lower, upper]
    for bp in spec.breakpoints:
        if spec.lower < bp < upper:
            pts.append(float(bp))
    pts = sorted(set(pts))
    width_cap = math.inf
    if spec.oscillation_frequency > 0.0:
        width_cap = math.pi / spec.oscillation_frequency
    edges = [pts[0]]
    total = sum(
        max(1, math.ceil((right - left) / width_cap)) if width_cap < math.inf
        else 1
        for left, right in zip(pts, pts[1:])
    )
    # Respect the panel budget even if the half-period cap asks for more.
    scale = max(1.0, total / max(1, spec.max_panels - 8))
    for left, right in zip(pts, pts[1:]):
        n = 1
        if width_cap < math.inf:
            n = max(1, math.ceil((right - left) / (width_cap * scale)))
        if spec.min_panels > 1:
            n = max(n, math.ceil(spec.min_panels / max(1, len(pts) - 1)))
        step = (right - left) / n
        edges.extend(left + step * k for k in range(1, n))
        edges.append(right)
    return np.array(edges)


def integrate(f, spec: QuadratureSpec) -> QuadratureResult:
    """Adaptively integrate ``f`` according to ``spec``.

    Never returns a silently wrong answer: if the tolerance cannot be
    met within ``max_panels`` the result carries converged=False, and a
    non-finite integrand value raises EvaluationError naming the
    abscissa.
    """
    spec.validate()

    tail_bound = 0.0
    truncation = None
    upper = spec.upper
    if math.isinf(upper):
        radius, tail_bound = truncation_point(spec.tail, 0.5 * spec.abs_tol)
        truncation = radius
        if radius <= spec.lower:
            # Everything beyond ``lower`` is already below budget.
            bound = spec.tail.bound(spec.lower)
            return QuadratureResult(0.0, bound, 0, bound <= spec.abs_tol,
                                    spec.lower)
        upper = radius

    edges = _initial_edges(spec, upper)
    lefts, rights = edges[:-1], edges[1:]
    vals, errs = _panel_rule(f, lefts, rights)

    heap: list[tuple[float, int, float, float, float, float]] = []
    seq = 0
    for a0, b0, v, e in zip(lefts, rights, vals, errs):
        heappush(heap, (-e, seq, a0, b0, v, e))
        seq += 1
    total_val = float(np.sum(vals))
    total_err = float(np.sum(errs))

    span = max(abs(spec.lower), abs(upper), 1.0)
    wave = 64
    while True:
        target = max(spec.abs_tol, spec.rel_tol * abs(total_val))
        if total_err + tail_bound <= target:
            break
        if len(heap) >= spec.max_panels:
            break
        batch = []
        budget = spec.max_panels - len(heap)
        while heap and len(batch) < min(wave, budget):
            item = heappop(heap)
            if item[3] - item[2] <= 16.0 * 2.2e-16 * span:
                heappush(heap, item)  # cannot be bisected further
                break
            batch.append(item)
        if not batch:
            break
        a0 = np.array([it[2] for it in batch])
        b0 = np.array([it[3] for it in batch])
        mid = 0.5 * (a0 + b0)
        la, lb = np.concatenate([a0, mid]), np.concatenate([mid, b0])
        vals, errs = _panel_rule(f, la, lb)
        for it in batch:
            total_val -= it[4]
            total_err -= it[5]
        for a1, b1, v, e in zip(la, lb, vals, errs):
            heappush(heap, (-e, seq, a1, b1, v, e))
            seq += 1
            total_val += v
            total_err += e

    panels = sorted(heap, key=lambda it: it[2])
    value = float(np.sum([it[4] for it in panels]))
    quad_err = float(np.sum([it[5] for it in panels]))
    error = quad_err + tail_bound
    converged = error <= max(spec.abs_tol, spec.rel_tol * abs(value))
    return QuadratureResult(value, error, len(panels), converged, truncation)
