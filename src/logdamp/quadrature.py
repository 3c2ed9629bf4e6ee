"""Adaptive one-dimensional quadrature over finite intervals.

A 15-point Kronrod rule with embedded 7-point Gauss estimate is applied
per panel.  Panels are numpy arrays (edges, values, errors), evaluated
at most _CHUNK = 512 at a time, which bounds the arrays an integrand
sees to 7 680 abscissae (60 KB each).  A split call of ``norms`` takes
one rule pass of 11 to about 60 panels (24.8 per call on the
benchmark's decay-1e8 grid), so only the K-term route and the
half-period fallback reach a chunk; there it keeps the ten or so
temporaries of the mode kernel in a per-core L2 cache (chunks of 2048
panels spilled it, and an unrefined half-period l2_norm/energy pass to
t = 1e8 took 1.5x as long; 2-core Xeon VM, 2 MB L2).  Chunking changes
no value, because the rule works panel by panel.  Every rule pass takes its
abscissae in ascending order.  The initial panels are the spans
between the limits and breakpoints, each cut into equal panels no
wider than (upper - lower)/min_panels, so a long span next to a
feature is not left with wide panels.  An
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
    Where the factor overflows (small R, p < 1) M is +inf; where R^-2
    does (R below ~1e-154, p > 1) m is 0.
    """
    try:
        f = (1.0 + float(radius) ** -2.0) ** ((1.0 - p) / 2.0)
    except OverflowError:
        f = math.inf if p < 1.0 else 0.0
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
    top = weight_factor_range(p, r)[1] if p < 1.0 else 1.0
    if top == math.inf:
        return math.inf
    # In logs: coeff * top can overflow where e^(-s w) underflows.
    log_b = math.log(coeff) + math.log(top) - s * w - math.log(2.0 * s)
    return math.exp(log_b) if log_b <= 709.0 else math.inf


def _data_tail(coeff: float, radius: float, c: float, q: float,
               q_low: float | None = None) -> float:
    """coeff R^(q-1) exp(-c R^2)/c >= the tail of coeff r^q exp(-c r^2)
    once c R^2 >= max(1, q - 1) (incomplete-gamma estimate); +inf below
    that.  The power is r^q from r = 1 on and r^q_low below it: from
    R < 1 the bound is the r^q_low tail from R plus the r^q tail from 1
    (+inf without q_low)."""
    low = radius < 1.0
    p = q_low if low else q
    x = c * radius * radius
    if p is None or x < max(1.0, p - 1.0):
        return math.inf
    log_b = (math.log(coeff) + (p - 1.0) * math.log(radius)
             - x - math.log(c))
    tail = math.exp(log_b) if log_b <= 700.0 else math.inf
    return tail + _data_tail(coeff, 1.0, c, q) if low else tail


class Envelope:
    """Tail envelope |f(r)| <= sum over terms (coeff, weight, data) of
    coeff min((1+r^2)^(-t) r^p, r^q exp(-c r^2)), weight = (t, p) or
    (t, p, p_low) (r^p_low in place of r^p below r = 1), data = (c, q)
    (for r >= 1 only) or (c, q, q_low) (r^q_low below r = 1); None drops
    a side.  ``bound(R)``, the sum of each term's smaller closed-form
    tail, bounds the integral of |f| past R.
    """

    def __init__(self, *terms: tuple):
        self.terms = terms
        self.scale = sum(coeff for coeff, _, _ in terms)

    def bound(self, radius: float) -> float:
        return sum(_term_tail(term, radius) for term in self.terms
                   if term[0] != 0.0)


def _term_tail(term, radius: float) -> float:
    """One term's bound: the smaller of its two closed-form tails."""
    c, w, d = term
    return min(_weight_tail(c, radius, *w) if w else math.inf,
               _data_tail(c, radius, *d) if d else math.inf)


def _term_radius(coeff, weight, data, tol: float) -> float:
    """Where one term's bound falls to tol, from its closed forms.  The
    weight side has w = log1p(R^2) solve s w + k log(-expm1(-w)) = c,
    c = log(coeff/(2 s tol)), k = max(0, (1-p)/2) (p_low if that gives
    R < 1): increasing and concave, so Newton climbs from a point left
    of the root, and stops once a step is below 1e-9 of w.  The data
    side takes fixed-point steps on c R^2 = log(coeff/(c tol)) +
    (q-1) log R from where that bound holds (q_low if that gives
    R < 1)."""
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
                step = (s * w + k * math.log(-math.expm1(-w)) - c) / (
                    s + k / math.expm1(w))
                if step > 0.0:  # the root is below the e^-700 start
                    break
                w -= step
                if abs(step) <= 1e-9 * w:
                    break
        radius = min(1.0 if i else math.inf,
                     math.exp(0.5 * min(w, 1400.0)) if w > 700.0
                     else math.sqrt(max(math.expm1(w), 0.0)))
        if radius >= 1.0:
            break
    if data:
        c, *powers = data
        cap = math.log(coeff) - math.log(c) - math.log(tol)
        for i, q in enumerate(powers):  # x = R^2, from where R^q holds
            x = start = max(0.0 if i else 1.0, max(1.0, q - 1.0) / c)
            for _ in range(3):
                x = max(start, (cap + 0.5 * (q - 1.0) * math.log(x)) / c)
            if i or x > 1.0:
                break
        radius = min(radius, math.sqrt(min(x, 1.0) if i else x))
    return radius


# Radii 2^(j/1024), j > _LOWEST (2^(_LOWEST/1024) = 1.18e-150, above the
# 1e-154 where ``weight_factor_range`` overflows): a datum of width w
# needs R ~ 1/w.
_GRID, _LOWEST = 1024, -510_000


def truncation_point(tail: Envelope, tol: float) -> tuple[float, float]:
    """Smallest grid radius R = 2^(j/1024) > 1.18e-150 with
    tail.bound(R) <= tol, and that bound.  The start is the first
    term's ``_term_radius`` R0 at tol.  Where the other terms' bound e
    at R0 is below tol, it is the first term's radius at tol - e: there
    the terms sum to at most tol, as the others fall past R0, and at R0
    to more, so the start is at most a grid step off.  Where e >= tol
    another term reaches further, and the start is the largest term
    radius at tol.  Bound calls check the grid bracket of the start,
    widening it in doubling steps, and close it on the line through log
    bound against log R.  R does not depend on the search path."""
    if tol <= 0.0:
        raise ValueError("tail tolerance must be positive")
    terms = [term for term in tail.terms if term[0] != 0.0]
    if not terms:
        return 1e-9, 0.0
    radius = _term_radius(*terms[0], tol)
    rest = sum(_term_tail(term, radius) for term in terms[1:])
    if rest >= tol:  # another term reaches further
        radius = max(radius, *(_term_radius(*term, tol)
                               for term in terms[1:]))
    elif rest > 0.0:
        radius = _term_radius(*terms[0], tol - rest)
    lo = max(_LOWEST, math.floor(_GRID * math.log2(
        min(max(radius, 1e-300), 1e300))))
    hi, low, step = lo + 1, math.inf, 1  # low: the bound at lo
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
    integrals).  Refinement starts from the spans between the limits and
    optional interior ``breakpoints``, each cut into equal panels no
    wider than (upper - lower)/``min_panels``; a single span takes
    exactly ``min_panels``.
    """

    lower: float
    upper: float
    abs_tol: float = 1e-300
    rel_tol: float = 1e-12
    max_panels: int = 50_000
    breakpoints: tuple[float, ...] = ()
    min_panels: int = 1

    def validate(self) -> None:
        # upper - lower is finite only if both limits are.
        if not math.isfinite(self.upper - self.lower):
            raise ValueError("limits and upper - lower must be finite")
        if not (self.lower < self.upper):
            raise ValueError("lower must be < upper")
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_panels < 1:
            raise ValueError("max_panels must be >= 1")
        if self.min_panels < 1:
            raise ValueError("min_panels must be >= 1")


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

    The outputs of several chunks are filled in place: per-chunk results
    kept alive between the chunks' temporaries would fragment the heap
    and raise peak RSS.  One chunk's are returned as they are.
    """
    if a.size <= _CHUNK:
        return _panel_rule(f, a, b)
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
    breakpoints, span [lo, hi] cut into ceil(min_panels (hi - lo) /
    (upper - lower)) equal panels, so none is wider than (upper -
    lower)/min_panels; None when that takes more than max_panels.  A
    single span takes exactly ``min_panels`` panels."""
    pts = sorted({spec.lower, spec.upper,
                  *(float(bp) for bp in spec.breakpoints
                    if spec.lower < bp < spec.upper)})
    ends = range(len(pts))  # the first panel of each span, and the total
    if spec.min_panels > 1:
        ends = [0]
        for lo, hi in zip(pts, pts[1:]):
            # The ratio first: a single span's is 1, so it takes min_panels.
            ends.append(ends[-1] + max(1, math.ceil(
                (hi - lo) / (spec.upper - spec.lower) * spec.min_panels)))
    if ends[-1] > spec.max_panels:
        return None
    if ends[-1] == len(pts) - 1:
        return np.array(pts)
    # Edge j of span i is pts[i] + j * (pts[i+1] - pts[i]) / its count.
    return np.interp(np.arange(ends[-1] + 1), ends, pts)


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
    total, error = val.sum(axis=1), err.sum(axis=1)
    while not (converged := _within(total, error, spec)):
        room = (spec.max_panels - a.size) // 3  # a pick adds 3 panels
        if room <= 0:
            break
        target = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))
        pick = _wave(a, b, err, error - target, target, room)
        if pick is None:
            break
        n, lo, hi = pick.size, a[pick], b[pick]
        mid = 0.5 * (lo + hi)
        left = np.concatenate([lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi)])
        right = np.concatenate([left[n:], hi])
        # The rule takes the quarters in ascending order, as it takes the
        # initial panels, so its abscissae ascend on every pass.
        order = left.argsort()
        v, e, _ = _rule(f, left[order], right[order])
        qval, qerr = np.empty_like(v), np.empty_like(e)
        qval[:, order], qerr[:, order] = v, e
        # First quarters take their parents' slots; the others go last.
        b[pick] = right[:n]
        val[:, pick], err[:, pick] = qval[:, :n], qerr[:, :n]
        a, b = np.concatenate([a, left[n:]]), np.concatenate([b, right[n:]])
        val = np.concatenate([val, qval[:, n:]], axis=1)
        err = np.concatenate([err, qerr[:, n:]], axis=1)
        total, error = val.sum(axis=1), err.sum(axis=1)

    if a.size > initial:
        # Sum in position order, so a panel set always gives the same bits.
        order = a.argsort(kind="stable")
        total = val.take(order, axis=1).sum(axis=1)
        error = err.take(order, axis=1).sum(axis=1)
        converged = _within(total, error, spec)
    if not shape:
        return QuadratureResult(float(total[0]), float(error[0]), a.size,
                                converged)
    return QuadratureResult(total.reshape(shape), error.reshape(shape),
                            a.size, converged)


def _within(total: np.ndarray, error: np.ndarray,
            spec: QuadratureSpec) -> bool:
    """Every component's error within max(abs_tol, rel_tol |total|), in
    Python floats: k is small, and a numpy chain costs more per pass.
    The relative term comes first, so a NaN total is not within."""
    return all(e <= max(spec.rel_tol * abs(v), spec.abs_tol)
               for v, e in zip(total.tolist(), error.tolist()))
