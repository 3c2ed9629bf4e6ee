"""Adaptive one-dimensional quadrature over finite intervals.

A 15-point Kronrod rule with embedded 7-point Gauss estimate is applied
per panel.  Panels are numpy arrays (edges, values, errors), evaluated
at most _CHUNK = 512 at a time.  That bounds the arrays an integrand
sees to 7 680 abscissae (60 KB each), so the ten or so temporaries of
the mode kernel stay in a per-core L2 cache; chunks of 2048 panels
spill it, and an unrefined l2_norm/energy pass to t = 1e8 took 1.5x
as long (2-core Xeon VM, 2 MB L2).  Chunking changes no value,
because the rule works panel by panel.  An
initial panelling that meets the tolerance is returned at once;
otherwise each wave bisects the smallest worst-first prefix of the
splittable panels whose errors cover the excess (error minus target).
A panel is unsplittable once its width is a few ulps of its own
|endpoints|; it is skipped, not a reason to stop.  Integrands return
shape (N,), or (k, N) for k integrals on one panelling, each held to its
own max(abs_tol, rel_tol * |value_k|).  When the integrand contains
sin(w*r) or cos(w*r), initial panels are no wider than pi/w, so no panel
spans more than a half-period and the embedded error estimate cannot be
fooled by symmetric cancellation.

The analytic tail envelopes (power-decay and Gaussian-decay models and
their combinations) and ``truncation_point`` serve the half-line route
in ``norms._two_phase``, which truncates there and charges the
closed-form tail bound to the error.

Panel sums are taken in position order, so a result is bit-reproducible
for a fixed panel set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


# --- specs and results ----------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate: finite interval, tolerances, oscillation.

    Both limits must be finite; half-line integrals are truncated by
    ``norms._two_phase``.  ``oscillation_frequency`` is the w of the
    fastest sin(w r)/cos(w r) factor; 0 means smooth.  ``breakpoints``
    are optional interior split hints (peak locations).
    """

    lower: float
    upper: float
    abs_tol: float = 1e-300
    rel_tol: float = 1e-12
    oscillation_frequency: float = 0.0
    max_panels: int = 50_000
    breakpoints: tuple[float, ...] = ()
    min_panels: int = 1

    def validate(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("limits must be finite")
        if not (self.lower < self.upper):
            raise ValueError("lower must be < upper")
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.oscillation_frequency < 0.0:
            raise ValueError("oscillation_frequency must be >= 0")
        if self.max_panels < 1:
            raise ValueError("max_panels must be >= 1")


@dataclass(frozen=True)
class QuadratureResult:
    """``value`` and ``error_estimate`` are floats for a scalar integrand
    and arrays of shape (k,) for a k-vector one."""

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    panels_used: int
    converged: bool


# --- the adaptive engine ---------------------------------------------------

_CHUNK = 512  # panels per _panel_rule call: 15 abscissae each
# A panel is unsplittable once its width is 16 ulps of its |endpoints|.
_FLOOR = 16.0 * np.finfo(float).eps


def _panel_rule(f, a: np.ndarray, b: np.ndarray):
    """Vectorized K15/G7 on a batch of m panels; returns (values, errors),
    each of shape (m,) for a scalar integrand and (k, m) for a vector one.
    """
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    x = mid[:, None] + hw[:, None] * _XGK
    fx = np.asarray(f(x.ravel()), dtype=float)
    fx = fx.reshape(fx.shape[:-1] + x.shape)
    if not np.isfinite(fx).all():
        bad = tuple(np.argwhere(~np.isfinite(fx))[0][-2:])
        raise EvaluationError(
            f"integrand returned a non-finite value at r={x[bad]!r}")
    k15 = hw * (fx @ _WGK)
    g7 = hw * (fx[..., 1::2] @ _WG)
    return k15, np.abs(k15 - g7)


def _rule(f, a: np.ndarray, b: np.ndarray):
    """``_panel_rule`` in chunks of at most _CHUNK panels: (values, errors)
    as (k, m) arrays, k = 1 for a scalar integrand, and its shape.

    The outputs are filled in place: per-chunk results kept alive between
    the chunks' temporaries would fragment the heap and raise peak RSS.
    """
    for i in range(0, a.size, _CHUNK):
        v, e = _panel_rule(f, a[i:i + _CHUNK], b[i:i + _CHUNK])
        if i == 0:
            shape = v.shape[:-1]
            vals = np.empty((math.prod(shape), a.size))
            errs = np.empty_like(vals)
        vals[:, i:i + _CHUNK] = v.reshape(vals.shape[0], -1)
        errs[:, i:i + _CHUNK] = e.reshape(vals.shape[0], -1)
    return vals, errs, shape


def _initial_edges(spec: QuadratureSpec) -> np.ndarray:
    pts = sorted({spec.lower, spec.upper,
                  *(float(bp) for bp in spec.breakpoints
                    if spec.lower < bp < spec.upper)})
    width_cap = math.inf
    if spec.oscillation_frequency > 0.0:
        width_cap = math.pi / spec.oscillation_frequency
    spans = list(zip(pts, pts[1:]))
    total = sum(max(1, math.ceil((right - left) / width_cap))
                for left, right in spans)
    # Respect the panel budget even if the half-period cap asks for more.
    scale = max(1.0, total / max(1, spec.max_panels - 8))
    edges = [[pts[0]]]
    for left, right in spans:
        n = max(1, math.ceil((right - left) / (width_cap * scale)),
                math.ceil(spec.min_panels / len(spans)))
        edges.append(left + (right - left) / n * np.arange(1, n))
        edges.append([right])
    return np.concatenate(edges)


def _wave(a, b, err, excess, target, room):
    """Indices of the panels to bisect next, or None if refinement is stuck:
    no splittable panel carries error, or the unsplittable ones alone
    exceed a component's ``target``.  Panels are ranked by their largest
    error relative to each component's excess."""
    # a < b, so max(-a, b) is the larger |endpoint|.
    split = b - a > _FLOOR * np.maximum(-a, b)
    if not split.all() and (np.where(split, 0.0, err).sum(axis=1)
                            > target).any():
        return None
    # A component within its target weighs 0 and needs an empty prefix.
    score = (err / np.where(excess > 0.0, excess, np.inf)[:, None]).max(axis=0)
    cand = np.flatnonzero(split & (score > 0.0))
    if cand.size == 0:
        return None
    order = cand[np.argsort(-score[cand], kind="stable")]
    covered = err[:, order].cumsum(axis=1) >= excess[:, None]
    need = np.where(covered.any(axis=1), covered.argmax(axis=1), order.size)
    return order[:min(int(need.max()) + 1, room)]


def integrate(f, spec: QuadratureSpec) -> QuadratureResult:
    """Adaptively integrate ``f`` over the finite interval of ``spec``.

    ``f`` maps an abscissa array of shape (N,) to shape (N,), or to
    (k, N) for k integrands sharing one panelling; then ``value`` and
    ``error_estimate`` have shape (k,) and every component must meet
    max(abs_tol, rel_tol * |value_k|).

    Never returns a silently wrong answer: if the tolerance cannot be
    met within ``max_panels`` the result carries converged=False, and a
    non-finite integrand value raises EvaluationError naming the
    abscissa.
    """
    spec.validate()
    edges = _initial_edges(spec)
    a, b = edges[:-1], edges[1:].copy()
    val, err, shape = _rule(f, a, b)
    initial = a.size
    while True:
        total, error = val.sum(axis=1), err.sum(axis=1)
        target = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))
        excess = error - target
        room = spec.max_panels - a.size
        if (excess <= 0.0).all() or room <= 0:
            break
        pick = _wave(a, b, err, excess, target, room)
        if pick is None:
            break
        lo, hi = a[pick], b[pick]
        mid = 0.5 * (lo + hi)
        halves_val, halves_err, _ = _rule(f, np.concatenate([lo, mid]),
                                          np.concatenate([mid, hi]))
        # Left halves take their parents' slots; right halves go last.
        n = pick.size
        b[pick] = mid
        val[:, pick], err[:, pick] = halves_val[:, :n], halves_err[:, :n]
        a, b = np.concatenate([a, mid]), np.concatenate([b, hi])
        val = np.concatenate([val, halves_val[:, n:]], axis=1)
        err = np.concatenate([err, halves_err[:, n:]], axis=1)

    if a.size > initial:
        # Sum in position order, so a panel set always gives the same bits.
        order = np.argsort(a, kind="stable")
        total = val[:, order].sum(axis=1)
        error = err[:, order].sum(axis=1)
    converged = bool((
        error <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))).all())
    value, error = total.reshape(shape), error.reshape(shape)
    if not shape:
        value, error = float(value), float(error)
    return QuadratureResult(value, error, a.size, converged)
