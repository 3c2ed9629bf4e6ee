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
otherwise each wave quarters the smallest worst-first prefix of the
splittable panels whose errors cover the excess (error minus target):
two bisection levels in one rule pass, as a wave's fixed numpy-call
cost outweighs a small call's extra panels.  A panel is unsplittable
once its width is a few ulps of its own |endpoints|; it is skipped,
not a reason to stop.  Integrands return
shape (N,), or (k, N) for k integrals on one panelling, each held to its
own max(abs_tol, rel_tol * |value_k|).  An initial panelling of more
than max_panels panels is not integrated at all (converged=False).

The tail ``Envelope`` and ``truncation_point`` serve the half-line
route in ``norms._two_phase``, which truncates there and charges the
tail bound to the error.  The weight (1+r^2)^(-t) r^p has one tail bound,
the range of ``weight_factor_range``, which ``special.J_p`` shares.

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
    "Envelope",
    "weight_factor_range",
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

def weight_factor_range(p: float, radius: float) -> tuple[float, float]:
    """[m, M] = sorted(1, (1 + R^-2)^((1-p)/2)).  With w = log(1+r^2) and
    s = t - (p+1)/2 > 0 (DLMF 8.17, incomplete beta),
        integral_R^inf (1+r^2)^(-t) r^p dr
            = (1/2) integral_{log(1+R^2)}^inf e^(-sw) (1-e^(-w))^((p-1)/2) dw,
    whose last factor lies in [m, M]: the tail is [m, M] (1+R^2)^(-s)/(2s).
    R^-2 overflows (OverflowError) below R ~ 1e-154.
    """
    f = (1.0 + float(radius) ** -2.0) ** ((1.0 - p) / 2.0)
    return min(1.0, f), max(1.0, f)


def _weight_tail(coeff: float, radius: float, t: float, p: float,
                 p_low: float | None = None) -> float:
    """coeff M(R) (1+R^2)^(-s)/(2s), s = t - (p+1)/2, M from
    ``weight_factor_range``: at least the tail of coeff (1+r^2)^(-t) r^p
    and at most M/m times it, for 2t > p + 1 and R > 0 (+inf elsewhere).
    With ``p_low`` the weight is r^p_low below r = 1: from R < 1 the
    bound is the r^p_low tail from R plus the r^p tail from 1."""
    if p_low is not None and radius < 1.0:
        return (_weight_tail(coeff, radius, t, p_low)
                + _weight_tail(coeff, 1.0, t, p))
    s = t - (p + 1.0) / 2.0
    if not (s > 0.0 and radius > 0.0):
        return math.inf
    r = float(radius)           # log(1+R^2), also where R*R overflows
    w = math.log1p(r * r) if r < 1e154 else 2.0 * math.log(r)
    top = weight_factor_range(p, r)[1]
    return coeff * top * math.exp(-s * w) / (2.0 * s)


def _data_tail(coeff: float, c: float, q: float, radius: float) -> float:
    """coeff R^(q-1) exp(-c R^2)/c >= the tail of coeff r^q exp(-c r^2)
    once R >= 1 and c R^2 >= max(1, q - 1) (incomplete-gamma estimate);
    +inf below that."""
    x = c * radius * radius
    if radius < 1.0 or x < max(1.0, q - 1.0):
        return math.inf
    log_b = (math.log(coeff) + (q - 1.0) * math.log(radius)
             - x - math.log(c))
    return math.exp(log_b) if log_b <= 700.0 else math.inf


class Envelope:
    """Tail envelope |f(r)| <= sum over terms (coeff, weight, data) of
    coeff min((1+r^2)^(-t) r^p, r^q exp(-c r^2)), weight = (t, p) or
    (t, p, p_low) (r^p_low in place of r^p below r = 1), data = (c, q)
    (for r >= 1 only); None drops a side.  ``bound(R)``, the sum of each
    term's smaller closed-form tail, bounds the integral of |f| past R.
    """

    def __init__(self, *terms: tuple):
        self.terms = terms
        self.scale = sum(coeff for coeff, _, _ in terms)

    def bound(self, radius: float) -> float:
        return sum(min(_weight_tail(c, radius, *w) if w else math.inf,
                       _data_tail(c, *d, radius) if d else math.inf)
                   for c, w, d in self.terms if c != 0.0)


def _term_radius(coeff, weight, data, tol: float) -> float:
    """Where one term's bound falls to tol, from its closed forms.  The
    weight side has w = log1p(R^2) solve s w + k log(-expm1(-w)) = c,
    c = log(coeff/(2 s tol)), k = max(0, (1-p)/2) (p_low if that gives
    R < 1): increasing and concave, so Newton climbs from a point left
    of the root.  The data side takes fixed-point steps on c R^2 =
    log(coeff/(c tol)) + (q-1) log R from where that bound holds."""
    radius = math.inf
    for i, p in enumerate(weight[1:] if weight else ()):
        s, k = weight[0] - (p + 1.0) / 2.0, max(0.0, (1.0 - p) / 2.0)
        if not s > 0.0:
            break
        c = math.log(coeff) - math.log(2.0 * s) - math.log(tol)
        w = c / s  # the root at k = 0
        if k:  # from a point where s w + k log w <= c, left of the root
            w = max(w, min(1.0 / s, math.exp(min(0.0, max(-700.0,
                                                          (c - 1.0) / k)))))
            for _ in range(8 if w < 700.0 else 0):
                w -= (s * w + k * math.log(-math.expm1(-w)) - c) / (
                    s + k / math.expm1(w))
        radius = min(1.0 if i else math.inf, math.exp(0.5 * w) if w > 700.0
                     else math.sqrt(max(math.expm1(w), 0.0)))
        if radius >= 1.0:
            break
    if data:
        c, q = data
        x = start = max(1.0, max(1.0, q - 1.0) / c)
        for _ in range(3):
            x = max(start, (math.log(coeff) - math.log(c) - math.log(tol)
                            + 0.5 * (q - 1.0) * math.log(x)) / c)
        radius = min(radius, math.sqrt(x))
    return radius


_GRID, _LOWEST = 1024, -30615  # radii 2^(j/1024), j > _LOWEST (1e-9)


def truncation_point(tail: Envelope, tol: float) -> tuple[float, float]:
    """Smallest grid radius R = 2^(j/1024) > 1e-9 with tail.bound(R) <=
    tol, and that bound.  Bound calls check the bracket of the largest
    ``_term_radius`` at tol and at tol / (number of terms), widening it
    in doubling steps, and close it on the line through log bound
    against log R.  R does not depend on the search path."""
    if tol <= 0.0:
        raise ValueError("tail tolerance must be positive")
    terms = [term for term in tail.terms if term[0] != 0.0]
    if not terms:
        return 1e-9, 0.0
    lo = max(_term_radius(*term, tol) for term in terms)
    hi = (max(_term_radius(*term, tol / len(terms)) for term in terms)
          if len(terms) > 1 else lo)
    lo, hi = (math.floor(_GRID * math.log2(min(max(radius, 1e-9), 1e300)))
              for radius in (lo, hi))
    hi, low, step = max(hi, lo) + 1, math.inf, 1  # low: the bound at lo
    while not (top := tail.bound(2.0 ** (hi / _GRID))) <= tol:
        if hi > 1000 * _GRID:
            raise ValueError("tail bound cannot reach the requested "
                             "tolerance")
        lo, low, hi, step = hi, top, hi + step, 2 * step
    while (low == math.inf and lo > _LOWEST
           and (low := tail.bound(2.0 ** (lo / _GRID))) <= tol):
        lo, hi, top, low, step = (max(lo - step, _LOWEST), lo, low,
                                  math.inf, 2 * step)
    tries = 3
    while hi - lo > 1:
        j = (lo + hi) // 2
        if tries and 0.0 < top and low < math.inf:  # the line's crossing
            j = lo + (hi - lo) * math.log(low / tol) / math.log(low / top)
            j, tries = min(max(math.ceil(j), lo + 1), hi - 1), tries - 1
        if (b := tail.bound(2.0 ** (j / _GRID))) > tol:
            lo, low = j, b
        else:
            hi, top = j, b
    return 2.0 ** (hi / _GRID), top


# --- specs and results ----------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate: finite interval, tolerances, initial panels.

    Both limits must be finite (``norms._two_phase`` truncates half-line
    integrals).  Refinement starts from at least ``min_panels`` equal
    panels over the spans between optional interior ``breakpoints``.
    """

    lower: float
    upper: float
    abs_tol: float = 1e-300
    rel_tol: float = 1e-12
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
# A panel is unsplittable once its width is 16 ulps of its |endpoints|,
# so the quarters of a splittable one are distinct and non-empty.
_FLOOR = 16.0 * np.finfo(float).eps


def _panel_rule(f, a: np.ndarray, b: np.ndarray):
    """Vectorized K15/G7 on a batch of m panels: (values, errors) as
    (k, m) arrays, k = 1 for a scalar integrand, and the integrand's
    leading shape, () for a scalar integrand and (k,) for a vector one."""
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    x = mid[:, None] + hw[:, None] * _XGK
    fx = np.asarray(f(x.ravel()), dtype=float)
    shape = fx.shape[:-1]
    fx = fx.reshape((-1,) + x.shape)
    k15 = hw * (fx @ _WGK)
    # Kronrod weights are positive: a non-finite value leaves its sum so.
    if not np.isfinite(k15).all():
        bad = np.argwhere(~np.isfinite(fx))
        if bad.size:
            raise EvaluationError("integrand returned a non-finite value "
                                  f"at r={float(x[tuple(bad[0][1:])])!r}")
    g7 = hw * (fx[..., 1::2] @ _WG)
    return k15, np.abs(k15 - g7), shape


def _rule(f, a: np.ndarray, b: np.ndarray):
    """``_panel_rule`` in chunks of at most _CHUNK panels: (values, errors)
    as (k, m) arrays, and the integrand's leading shape.

    The outputs are filled in place: per-chunk results kept alive between
    the chunks' temporaries would fragment the heap and raise peak RSS.
    """
    for i in range(0, a.size, _CHUNK):
        v, e, shape = _panel_rule(f, a[i:i + _CHUNK], b[i:i + _CHUNK])
        if i == 0:
            vals = np.empty((v.shape[0], a.size))
            errs = np.empty_like(vals)
        vals[:, i:i + _CHUNK] = v
        errs[:, i:i + _CHUNK] = e
    return vals, errs, shape


def _initial_edges(spec: QuadratureSpec) -> np.ndarray | None:
    """Edges of the initial panels: the spans between the limits and
    breakpoints, each cut into equal panels, at least ``min_panels`` in
    all; None when that takes more than max_panels."""
    pts = sorted({spec.lower, spec.upper,
                  *(float(bp) for bp in spec.breakpoints
                    if spec.lower < bp < spec.upper)})
    spans = len(pts) - 1
    least = max(1, math.ceil(spec.min_panels / spans))
    if least * spans > spec.max_panels:
        return None
    if least == 1:
        return np.array(pts)
    # Edge j of span i is pts[i] + j * (pts[i+1] - pts[i]) / least.
    return np.interp(np.arange(least * spans + 1),
                     np.arange(spans + 1) * least, pts)


def _wave(a, b, err, excess, target, room):
    """Indices of the panels to quarter next, or None if refinement is
    stuck: no splittable panel carries error, or the unsplittable ones
    alone exceed a component's ``target``.  Panels are ranked by their
    largest error relative to each component's excess."""
    # A component within its target weighs 0 and needs an empty prefix.
    score = (err / np.where(excess > 0.0, excess, np.inf)[:, None]).max(axis=0)
    # Worst first: the stable sort keeps ties in position order.
    order = (-score).argsort(kind="stable")[:np.count_nonzero(score > 0.0)]
    lo, hi = a[order], b[order]
    # a < b, so max(-a, b) is the larger |endpoint|.
    split = hi - lo > _FLOOR * np.maximum(-lo, hi)
    if not split.all():
        if (err[:, order[~split]].sum(axis=1) > target).any():
            return None
        order = order[split]
    if order.size == 0:
        return None
    # Running sums never fall: count where one is short of its excess.
    short = (err.take(order, axis=1).cumsum(axis=1)
             < excess[:, None]).any(axis=0)
    return order[:min(np.count_nonzero(short) + 1, room)]


def integrate(f, spec: QuadratureSpec) -> QuadratureResult:
    """Adaptively integrate ``f`` over the finite interval of ``spec``.

    ``f`` maps an abscissa array of shape (N,) to shape (N,), or to
    (k, N) for k integrands sharing one panelling; then ``value`` and
    ``error_estimate`` have shape (k,) and every component must meet
    max(abs_tol, rel_tol * |value_k|).

    Never returns a silently wrong answer: if the tolerance cannot be
    met within ``max_panels`` the result carries converged=False, and a
    non-finite integrand value raises EvaluationError naming the
    abscissa.  If the initial panelling takes more than ``max_panels``,
    ``f`` is not called: the result is value 0, error +inf,
    ``panels_used`` 0 and converged=False.
    """
    spec.validate()
    edges = _initial_edges(spec)
    if edges is None:
        return QuadratureResult(0.0, math.inf, 0, False)
    a, b = edges[:-1], edges[1:].copy()
    val, err, shape = _rule(f, a, b)
    initial = a.size
    while True:
        total, error = val.sum(axis=1), err.sum(axis=1)
        target = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))
        room = (spec.max_panels - a.size) // 3  # a pick adds 3 panels
        if (error <= target).all() or room <= 0:
            break
        pick = _wave(a, b, err, error - target, target, room)
        if pick is None:
            break
        n, lo, hi = pick.size, a[pick], b[pick]
        mid = 0.5 * (lo + hi)
        left = np.concatenate([lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi)])
        right = np.concatenate([left[n:], hi])
        qval, qerr, _ = _rule(f, left, right)
        # First quarters take their parents' slots; the others go last.
        b[pick] = right[:n]
        val[:, pick], err[:, pick] = qval[:, :n], qerr[:, :n]
        a, b = np.concatenate([a, left[n:]]), np.concatenate([b, right[n:]])
        val = np.concatenate([val, qval[:, n:]], axis=1)
        err = np.concatenate([err, qerr[:, n:]], axis=1)

    if a.size > initial:
        # Sum in position order, so a panel set always gives the same bits.
        order = a.argsort(kind="stable")
        total = val.take(order, axis=1).sum(axis=1)
        error = err.take(order, axis=1).sum(axis=1)
        target = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))
    converged = bool((error <= target).all())
    value, error = total.reshape(shape), error.reshape(shape)
    if not shape:
        value, error = float(value), float(error)
    return QuadratureResult(value, error, a.size, converged)
