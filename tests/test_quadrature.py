"""Adaptive quadrature engine: closed forms, oscillation, tails, honesty."""

import dataclasses
import math

import numpy as np
import pytest

from logdamp import norms, quadrature, special
from logdamp.modes import InitialDataSpec
from logdamp.quadrature import (Envelope, EvaluationError, QuadratureSpec,
                                integrate, truncation_point)
from oracles import mp_weight_tail

# 40-digit panelled reference for sin(100 r)^2 (1+r^2)^(-100) on [0, 1]
OSC_ORACLE = 0.044478383843326293227


def weight(t, p, coeff=1.0):
    """Envelope of coeff (1+r^2)^(-t) r^p."""
    return Envelope((coeff, (t, p), None))


def gauss(c, q, coeff=1.0):
    """Envelope of coeff r^q exp(-c r^2), r >= 1."""
    return Envelope((coeff, None, (c, q)))


def half_periods(lo, hi, w):
    """Panels no wider than a half-period pi/w of sin(w r) on [lo, hi],
    as ``norms._two_phase`` asks for them."""
    return math.ceil((hi - lo) / (math.pi / w))


def test_arctan_closed_form():
    res = integrate(lambda x: 1.0 / (1.0 + x * x), QuadratureSpec(0.0, 1.0))
    assert res.converged
    assert res.value == pytest.approx(math.pi / 4.0, abs=1e-12)


def test_rational_cube_closed_form():
    # antiderivative r/(4(1+r^2)^2) + 3r/(8(1+r^2)) + (3/8) arctan r
    res = integrate(lambda x: (1.0 + x * x) ** -3, QuadratureSpec(0.0, 1.0))
    exact = 0.25 + 3.0 * math.pi / 32.0
    assert res.value == pytest.approx(exact, rel=1e-13)


def test_oscillatory_against_frozen_oracle():
    def f(x):
        return np.sin(100.0 * x) ** 2 * np.exp(-100.0 * np.log1p(x * x))

    res = integrate(f, QuadratureSpec(0.0, 1.0, rel_tol=1e-12,
                                      min_panels=half_periods(0.0, 1.0,
                                                              100.0)))
    assert res.converged
    assert res.value == pytest.approx(OSC_ORACLE, rel=1e-9)


@pytest.mark.parametrize("omega", [10.0, 100.0, 1000.0])
def test_oscillation_safety_gaussian_window(omega):
    # integral_0^inf sin(w r)^2 e^{-r^2} dr = sqrt(pi)(1 - e^{-w^2})/4,
    # indistinguishable from sqrt(pi)/4 for these w; the 40-digit
    # panelled oracle agrees to all shown digits.
    exact = 0.44311346272637900682

    def f(x):
        return np.sin(omega * x) ** 2 * np.exp(-x * x)

    res = integrate(f, QuadratureSpec(
        0.0, 8.0, rel_tol=1e-11, min_panels=half_periods(0.0, 8.0,
                                                         2.0 * omega)))
    assert res.converged
    assert res.value == pytest.approx(exact, rel=1e-9)

    # The same window on the half-line, through the two-phase route.
    semi = norms._two_phase(f, gauss(1.0, 0.0), 2.0 * omega, 1e-11,
                            "window")
    assert semi == pytest.approx(exact, rel=1e-9)


def test_additivity_over_random_smooth_integrands():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        c = rng.uniform(-2.0, 2.0, 4)
        mu, s, k = rng.uniform(0, 3), rng.uniform(0.3, 2.0), rng.uniform(0.5, 4.0)

        def f(x, c=c, mu=mu, s=s, k=k):
            return (c[0] + c[1] * np.sin(k * x)
                    + c[2] * np.exp(-((x - mu) / s) ** 2)
                    + c[3] / (1.0 + x * x))

        a, b, top = sorted(rng.uniform(0.0, 5.0, 3))
        if not (a < b < top):
            continue
        whole = integrate(f, QuadratureSpec(a, top, rel_tol=1e-12))
        left = integrate(f, QuadratureSpec(a, b, rel_tol=1e-12))
        right = integrate(f, QuadratureSpec(b, top, rel_tol=1e-12))
        budget = (whole.error_estimate + left.error_estimate
                  + right.error_estimate + 1e-14 * abs(whole.value))
        assert abs(whole.value - (left.value + right.value)) <= budget


def test_error_estimate_honesty():
    rng = np.random.default_rng(5)
    bad = total = 0
    for _ in range(120):
        x_hi = rng.uniform(0.5, 20.0)
        k = rng.uniform(0.2, 3.0)
        cases = [
            (lambda x: 1.0 / (1.0 + x * x), math.atan(x_hi)),
            (lambda x, k=k: np.exp(-k * x), (1.0 - math.exp(-k * x_hi)) / k),
        ]
        for f, exact in cases:
            res = integrate(f, QuadratureSpec(0.0, x_hi, rel_tol=1e-10))
            true_err = abs(res.value - exact)
            total += 1
            if true_err > 10.0 * res.error_estimate + 5e-16 * abs(exact):
                bad += 1
    assert bad <= 0.01 * total


def test_deterministic_bit_for_bit():
    def f(x):
        return np.sin(37.0 * x) ** 2 * np.exp(-x)

    spec = QuadratureSpec(0.0, 8.0, rel_tol=1e-12,
                          min_panels=half_periods(0.0, 8.0, 74.0))
    r1, r2 = integrate(f, spec), integrate(f, spec)
    assert r1.value.hex() == r2.value.hex()
    assert r1.panels_used == r2.panels_used


def test_converged_flag_honest_on_panel_exhaustion():
    def f(x):
        return np.sin(1000.0 * x) ** 2 / (1.0 + x * x)

    res = integrate(f, QuadratureSpec(0.0, 50.0, rel_tol=1e-13,
                                      max_panels=12))
    assert not res.converged
    assert res.error_estimate > 0.0


def test_over_budget_half_period_panelling_is_refused():
    # 1000 half-periods of sin(200 r)^2 on [0, 5*pi] do not fit in 100
    # panels; wider panels would void the error estimate, so a call that
    # asks for them reports failure without evaluating f.
    calls = []

    def f(x):
        calls.append(x.size)
        return np.sin(200.0 * x) ** 2

    spec = QuadratureSpec(0.0, 5.0 * math.pi,
                          min_panels=half_periods(0.0, 5.0 * math.pi, 400.0),
                          max_panels=100)
    res = integrate(f, spec)
    assert not res.converged
    assert res.panels_used == 0 and res.error_estimate == math.inf
    assert calls == []
    fits = integrate(f, dataclasses.replace(spec, max_panels=2000))
    assert fits.converged and calls
    assert fits.value == pytest.approx(2.5 * math.pi, rel=1e-12)


def test_refinement_waves_take_ascending_abscissae_and_keep_their_panels():
    # Each rule pass sees its abscissae in ascending order (a split
    # integrand slices its path segments by position), on the waves too,
    # where the picked panels come worst first.  Value bits and panel
    # count are those of the unsorted waves.
    seen = []

    def f(x):
        seen.append(x.copy())
        return np.array([1.0 / (1e-6 + (x - 0.3) ** 2),
                         np.sqrt(np.abs(x + 0.2))])

    res = integrate(f, QuadratureSpec(-1.0, 1.0, rel_tol=1e-12,
                                      breakpoints=(0.5,)))
    assert len(seen) == 13 and res.converged and res.panels_used == 101
    assert all(np.all(np.diff(x) > 0.0) for x in seen)
    assert [float(v).hex() for v in res.value] == [
        "0x1.886ca2a1be1e4p+11", "0x1.5a775e7a4aaacp+0"]


def test_over_budget_breakpoint_panelling_is_refused():
    # The half-periods may come as breakpoints too (the contour piece of
    # norms puts them there): more spans than max_panels are refused
    # without evaluating f, as an over-budget min_panels is.
    calls = []

    def f(x):
        calls.append(x.size)
        return np.sin(200.0 * x) ** 2

    edges = tuple(k * math.pi / 400.0 for k in range(1, 1000))
    spec = QuadratureSpec(0.0, 2.5 * math.pi, breakpoints=edges,
                          max_panels=100)
    res = integrate(f, spec)
    assert not res.converged
    assert res.panels_used == 0 and res.error_estimate == math.inf
    assert calls == []
    fits = integrate(f, dataclasses.replace(spec, max_panels=1000))
    assert fits.converged and fits.panels_used == 1000
    assert fits.value == pytest.approx(1.25 * math.pi, rel=1e-12)


def test_converged_invariant():
    def f(x):
        return np.exp(-x) * np.cos(3.0 * x)

    for rel in (1e-6, 1e-10, 1e-13):
        spec = QuadratureSpec(0.0, 10.0, rel_tol=rel)
        res = integrate(f, spec)
        if res.converged:
            assert res.error_estimate <= max(spec.abs_tol,
                                             rel * abs(res.value))


def test_nan_integrand_reports_abscissa():
    def f(x):
        return np.where(x > 0.5, np.nan, x)

    with pytest.raises(EvaluationError, match="r="):
        integrate(f, QuadratureSpec(0.0, 1.0))


@pytest.mark.parametrize("f, breakpoints, lo, hi", [
    # nan in one component of a vector integrand
    (lambda x: np.stack([x, np.where(x > 0.5, np.nan, x)]), (), 0.5, 1.0),
    # +inf and -inf in two panels: each sum is infinite, their total nan
    (lambda x: np.where(abs(x - 0.2) < 0.1, np.inf,
                        np.where(abs(x - 0.8) < 0.1, -np.inf, x)),
     (0.5,), 0.1, 0.3),
    # every initial node lies above 1e-3, so only a quarter panel of the
    # refined sqrt cusp meets the nan below it
    (lambda x: np.sqrt(x) + np.where(x < 1e-3, np.nan, 0.0), (), 0.0, 1e-3),
], ids=["one-component", "opposite-infinities", "quarter-panel"])
def test_non_finite_value_names_its_abscissa(f, breakpoints, lo, hi):
    with pytest.raises(EvaluationError, match="r=") as excinfo:
        integrate(f, QuadratureSpec(0.0, 1.0, breakpoints=breakpoints))
    assert lo < float(str(excinfo.value).rsplit("r=", 1)[1]) < hi


def test_spec_validation():
    with pytest.raises(ValueError, match="lower"):
        integrate(lambda x: x, QuadratureSpec(1.0, 1.0))
    with pytest.raises(ValueError, match="tolerances"):
        integrate(lambda x: x, QuadratureSpec(0.0, 1.0, rel_tol=0.0))
    with pytest.raises(ValueError, match="finite"):
        integrate(lambda x: x, QuadratureSpec(0.0, math.inf))
    # Panel widths divide upper - lower: a width past the doubles is
    # refused by name, not cut into NaN panels.
    with pytest.raises(ValueError, match="upper - lower must be finite"):
        integrate(lambda x: x, QuadratureSpec(-1e308, 1e308, min_panels=4))
    # min_panels divides the initial panel width: 0 and -5 are refused,
    # not read as 1.
    for least in (0, -5):
        with pytest.raises(ValueError, match="min_panels must be >= 1"):
            integrate(lambda x: x, QuadratureSpec(0.0, 1.0, min_panels=least))


def test_semi_infinite_with_power_tail(monkeypatch):
    uppers = []
    integrate_ = norms.integrate

    def recording_integrate(f, spec):
        uppers.append(spec.upper)
        return integrate_(f, spec)

    monkeypatch.setattr(norms, "integrate", recording_integrate)
    value = norms._two_phase(lambda x: (1.0 + x * x) ** -2,
                             weight(2.0, 0.0), 0.0, 1e-12, "power tail")
    assert value == pytest.approx(math.pi / 4.0, abs=1e-12)
    # Truncated at a finite radius beyond the bulk of the integrand.
    assert uppers and math.isfinite(uppers[-1]) and uppers[-1] > 1.0


def test_truncation_point_tail_actually_small():
    radius, bound = truncation_point(weight(50.0, 0.0), 1e-16)
    assert bound <= 1e-16
    tail = float(mp_weight_tail(50.0, 0.0, radius))
    assert tail < 1e-15


def test_truncation_point_against_closed_form_tail():
    radius, _ = truncation_point(weight(2.0, 0.0), 1e-10)
    # The incomplete beta at 40 digits: the double-precision closed form
    # pi/4 - R/(2(1+R^2)) - arctan(R)/2 cancels near R ~ 1500.
    tail = float(mp_weight_tail(2.0, 0.0, radius))
    assert 0.0 < tail <= 1e-10


def test_truncation_point_contract():
    radius, bound = truncation_point(weight(100.0, 3.0), 1e-8)
    assert radius > 0.0 and bound <= 1e-8
    with pytest.raises(ValueError, match="positive"):
        truncation_point(weight(50.0, 0.0), 0.0)
    # (1+r^2)^(-1/2) r^2 is not integrable: no radius reaches the budget.
    with pytest.raises(ValueError, match="cannot reach"):
        truncation_point(weight(0.5, 2.0), 1e-8)
    assert truncation_point(weight(5.0, 0.0, 0.0), 1e-8) == (1e-9, 0.0)


def _random_term(rng, side):
    """A random envelope term with a weight side, a data side, or both."""
    t = 10.0 ** rng.uniform(-0.3, 12.0)
    p = rng.uniform(-2.0, min(4.0, 2.0 * t - 1.0 - 1e-3))
    weight = None
    if side in ("weight", "both"):
        weight = (t, p) if rng.random() < 0.5 else (t, p, p - 2.0)
    data = None
    if side in ("data", "both"):
        data = (10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(0.0, 6.0))
        if rng.random() < 0.5:  # held below r = 1, wide data included
            data = (10.0 ** rng.uniform(-3.0, 300.0), data[1],
                    rng.uniform(0.0, 6.0))
    return (10.0 ** rng.uniform(-5.0, 20.0), weight, data)


def test_truncation_point_contract_on_random_envelopes():
    # The closed-form start and the search keep the contract: R is above
    # the grid's floor, the bound holds at R, and 0.1 % below R it fails
    # (or R is the floor's first grid radius).
    floor = 2.0 ** (quadrature._LOWEST / quadrature._GRID)
    rng = np.random.default_rng(16)
    below_one = at_floor = 0
    for _ in range(400):
        terms = [_random_term(rng, rng.choice(["weight", "data", "both"]))
                 for _ in range(rng.integers(1, 3))]
        tail = Envelope(*terms)
        tol = tail.scale * 10.0 ** rng.uniform(-40.0, -1.0)
        radius, bound = truncation_point(tail, tol)
        assert radius > floor and bound == tail.bound(radius) <= tol, terms
        at_floor += radius / 1.001 < floor
        below_one += radius < 1.0
        assert (radius / 1.001 < floor
                or tail.bound(radius / 1.001) > tol), terms
    assert below_one > 40 and at_floor > 0


def _huge_term(rng):
    """A random weight term with t up to the cap 1.34e154 and a
    coefficient up to 1e300, with or without a data side."""
    t = 10.0 ** rng.uniform(0.0, math.log10(1.34e154))
    p = rng.uniform(-2.0, 4.0)
    weight = (t, p) if rng.random() < 0.5 else (t, p, p - 2.0)
    data = None
    if rng.random() < 0.5:
        data = (10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(0.0, 6.0),
                rng.uniform(0.0, 6.0))
    return (10.0 ** rng.uniform(-5.0, 300.0), weight, data)


def test_envelopes_of_huge_t_and_coefficient_are_never_nan():
    # coeff * top overflowed where e^(-s w) underflowed: the weight tail
    # read inf * 0 = NaN (28 NaN bounds and 79 broken contracts here).
    floor = 2.0 ** (quadrature._LOWEST / quadrature._GRID)
    rng = np.random.default_rng(14)
    for _ in range(400):
        terms = [_huge_term(rng) for _ in range(rng.integers(1, 3))]
        tail = Envelope(*terms)
        for radius in 10.0 ** rng.uniform(-150.0, 300.0, 8):
            assert not math.isnan(tail.bound(float(radius))), terms
        tol = tail.scale * 10.0 ** rng.uniform(-40.0, -1.0)
        radius, bound = truncation_point(tail, tol)
        assert radius > floor and bound == tail.bound(radius) <= tol, terms
        assert (radius / 1.001 < floor
                or tail.bound(radius / 1.001) > tol), terms


def test_truncation_point_takes_few_bound_calls_on_the_norms_envelopes(
        monkeypatch):
    # Bisection from R = 1 took 12 to 31 bound calls here; each term's
    # closed-form radius leaves 2 to 4.
    calls, bound = [], Envelope.bound
    monkeypatch.setattr(Envelope, "bound", lambda self, radius: (
        calls.append(radius), bound(self, radius))[1])
    truncate, worst = norms.truncation_point, []

    def counted(tail, tol):
        calls.clear()
        out = truncate(tail, tol)
        worst.append(len(calls))
        return out

    monkeypatch.setattr(norms, "truncation_point", counted)
    for n in (1, 2, 3):
        u0 = InitialDataSpec("gaussian", 2.0, 0.7, n)
        u1 = InitialDataSpec("gaussian", 1.0, 1.0, n)
        for t in (3.0, 10.0, 1e3, 1e6, 1e8):
            norms.l2_norm(t, u0, u1, n)
            norms.energy(t, u0, u1, n)
            norms.residual_norm(t, u0, u1, n)
            norms.M_integral(t, n, "sin")
    assert worst and max(worst) <= 8


def test_tail_model_bounds_are_upper_bounds():
    for t, p in ((5.0, 0.0), (12.0, 2.0), (4.0, -1.0)):
        tail = weight(t, p)
        for radius in (1.0, 1.7, 3.0):
            true = float(mp_weight_tail(t, p, radius))
            assert true <= tail.bound(radius)


def test_power_tail_bound_is_valid_and_sharp():
    # Within the factor range [m, M] of the exact tail: never below it,
    # and above it by at most M/m (beyond rounding of exp(-s log1p(R^2))).
    radii = (1e-9, 1e-3, 0.1, 0.5, 1.0, 2.0, 10.0, 1e3, 1e6)
    checked = 0
    for t in (0.6, 1.0, 2.0, 5.0, 100.0, 1e4, 1e8):
        for p in (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0):
            if not 2.0 * t > p + 1.0:
                continue
            tail, s = weight(t, p), t - (p + 1.0) / 2.0
            for radius in radii:
                # Beyond e^(-750) the tail is below 1e-300 for every p
                # here, and mpmath's beta series stalls at t = 1e8.
                if s * math.log1p(radius * radius) > 750.0:
                    continue
                exact = float(mp_weight_tail(t, p, radius))
                if exact < 1e-300:
                    continue
                m, M = quadrature.weight_factor_range(p, radius)
                bound = tail.bound(radius)
                assert (1.0 - 1e-12) * exact <= bound \
                    <= M / m * (1.0 + 1e-12) * exact, (t, p, radius)
                checked += 1
            for radius in np.geomspace(1e-9, 1e300, 60).tolist():
                assert tail.bound(radius) >= 0.0
            assert tail.bound(0.0) == math.inf
    assert checked > 250


def test_gauss_tail_bound_is_upper_bound():
    import mpmath as mp
    for c, q in ((1.0, 0.0), (0.5, 2.0), (2.0, 3.0)):
        tail = gauss(c, q)
        for radius in (2.0, 3.0, 5.0):
            if tail.bound(radius) == math.inf:
                continue
            true = float(mp.quad(lambda r: r ** q * mp.exp(-c * r * r),
                                 [radius, radius + 4, mp.inf]))
            assert true <= tail.bound(radius)


def test_weight_with_a_lower_power_below_one():
    # (t, p, p_low) is r^p_low below r = 1 and r^p above, as for the
    # energy, whose integrand does not vanish at r = 0: the same bound as
    # (t, p) from r = 1 on, a true bound below, where (t, p) is not.
    import mpmath as mp
    t, p, p_low = 50.0, 2.0, 0.0  # the energy at n = 1
    split, high = Envelope((1.0, (t, p, p_low), None)), weight(t, p)
    for radius in (1.0, 1.5, 3.0):
        assert split.bound(radius) == high.bound(radius)
    for radius in (0.01, 0.05, 0.3):
        true = float(mp.quad(lambda r: (1 + r * r) ** -t * r ** p_low,
                             [radius, 1]) + mp_weight_tail(t, p, 1.0))
        assert true <= split.bound(radius)
        assert high.bound(radius) < true


def test_tail_combinators():
    # A term bounds by the smaller of its two tails, an envelope by the
    # sum of its terms, and both meet the truncation_point contract.
    p, g = weight(5.0, 0.0), gauss(1.0, 0.0)
    both = Envelope((1.0, (5.0, 0.0), (1.0, 0.0)))
    total = Envelope((1.0, (5.0, 0.0), None), (2.0, None, (1.0, 0.0)))
    for radius in (0.5, 1.0, 2.0, 3.0):
        assert both.bound(radius) == min(p.bound(radius), g.bound(radius))
        assert total.bound(radius) == (p.bound(radius)
                                       + gauss(1.0, 0.0, 2.0).bound(radius))
    assert both.scale == 1.0 and total.scale == 3.0
    assert Envelope((1.0, None, None)).bound(2.0) == math.inf
    radius, bound = truncation_point(both, 1e-12)
    assert bound <= 1e-12
    assert radius <= min(truncation_point(p, 1e-12)[0],
                         truncation_point(g, 1e-12)[0]) * 1.01
    radius, bound = truncation_point(total, 1e-12)
    assert bound <= 1e-12 and total.bound(radius) == bound
    assert radius * (1.0 + 1e-8) >= max(truncation_point(p, 1e-12)[0],
                                        truncation_point(g, 1e-12)[0])


def test_breakpoint_hints_catch_narrow_bumps():
    # A bump of width 0.02 in [0, 40] that plain panels would miss.
    def f(x):
        return np.exp(-((x - 17.3) / 0.02) ** 2)

    hinted = integrate(f, QuadratureSpec(0.0, 40.0, rel_tol=1e-10,
                                         breakpoints=(17.3,)))
    exact = 0.02 * math.sqrt(math.pi)
    assert hinted.value == pytest.approx(exact, rel=1e-9)


# -- the array engine: waves, chunks, vector integrands ----------------------

def _count_rule_calls(monkeypatch):
    """Record the panel count of every ``_panel_rule`` call."""
    sizes = []
    panel_rule = quadrature._panel_rule

    def counting_rule(f, a, b):
        sizes.append(len(a))
        return panel_rule(f, a, b)

    monkeypatch.setattr(quadrature, "_panel_rule", counting_rule)
    return sizes


def test_converged_initial_panelling_takes_one_rule_pass(monkeypatch):
    sizes = _count_rule_calls(monkeypatch)
    res = integrate(lambda x: np.exp(-x) * np.cos(3.0 * x),
                    QuadratureSpec(0.0, 10.0, rel_tol=1e-10,
                                   min_panels=half_periods(0.0, 10.0,
                                                           300.0)))
    exact = (1.0 - math.exp(-10.0) * (math.cos(30.0) - 3.0 * math.sin(30.0))
             ) / 10.0
    assert res.converged
    # Every panel is evaluated once, in chunks: no bisection happened.
    assert sum(sizes) == res.panels_used > 100
    assert max(sizes) <= quadrature._CHUNK
    assert isinstance(res.value, float)
    assert res.value == pytest.approx(exact, rel=1e-10)


_ZERO3 = InitialDataSpec("zero", dimension=3)
_GAUSS3 = InitialDataSpec("gaussian", 1.0, 1.0, 3)
_WIDE3 = InitialDataSpec("gaussian", 2.0, 0.7, 3)


def test_rule_calls_stay_within_the_chunk_at_t_1e8(monkeypatch):
    # The kterms residual keeps half-period panels to its truncation
    # radius: some 54 000 panel rules at t = 1e8 (the default route takes
    # about 170 panels, as its mean part and contour replace them past
    # 128 half-periods).
    sizes = _count_rule_calls(monkeypatch)
    assert norms.residual_norm(1e8, _ZERO3, _GAUSS3, 3,
                               method="kterms") > 0.0
    assert max(sizes) <= quadrature._CHUNK
    assert sum(sizes) > 10 * quadrature._CHUNK


def _bump(r):
    """A spectral profile: one Gaussian bump of width 0.1 at r = 0.5."""
    return np.exp(-0.5 * ((r - 0.5) / 0.1) ** 2)


def _narrow_bump_norms():
    """log_operator_norms of a bump of width 0.1 at the last breakpoint
    r = 1, with the last span [1, 4] three quarters of the interval:
    every initial panel is at most 4/32 wide, next to the bump too."""
    return norms.log_operator_norms(
        lambda r: np.exp(-0.5 * ((r - 1.0) / 0.1) ** 2), 3, 4.0,
        breakpoints=(0.5, 1.0), rel_tol=1e-9)


def test_narrow_bump_at_the_last_breakpoint_matches_gaussian_moments():
    # v^2 = exp(-(r-1)^2/(2 s^2)), s = 0.1/sqrt(2), is a normal density
    # times s sqrt(2 pi), negligible outside [0, 4]: ||v||^2 and ||Av||^2
    # are c_3 s sqrt(2 pi) E[X^2] and E[X^6] for X ~ N(1, s^2).
    import mpmath as mp
    s2 = 0.01 / 2.0
    mass = math.sqrt(2.0 * math.pi * s2)
    m2 = 1.0 + s2
    m6 = 1.0 + 15.0 * s2 + 45.0 * s2 ** 2 + 15.0 * s2 ** 3
    with mp.workdps(30):
        log_w = mp.quad(lambda r: mp.log(1 + r * r) ** 2 * r * r
                        * mp.exp(-(r - 1) ** 2 / 0.01), [0, 0.5, 1, 1.5, 4])
    c3 = norms.plancherel_constant(3)
    exact = (math.sqrt(c3 * mass * m2), math.sqrt(c3 * mass * m6),
             math.sqrt(c3 * float(log_w)))
    for got, want in zip(_narrow_bump_norms(), exact):
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("t", [1e2, 1e6])
def test_chunk_size_changes_no_bit(monkeypatch, t):
    calls = (
        lambda: norms.l2_norm(t, _WIDE3, _GAUSS3, 3),
        lambda: norms.energy(t, _WIDE3, _GAUSS3, 3),
        lambda: norms.residual_norm(t, _ZERO3, _GAUSS3, 3),
        lambda: norms.residual_norm(t, _ZERO3, _GAUSS3, 3, method="kterms"),
        lambda: norms.M_integral(t, 3, "sin"),
        # A vector integrand on 300 initial panels, and a refined call.
        lambda: norms.log_operator_norms(
            _bump, 3, 30.0, breakpoints=np.arange(0.1, 30.0, 0.1)),
        lambda: special.I_p(50.0, 0.5),
    )
    seen = []
    for chunk in (64, quadrature._CHUNK, 2048):
        monkeypatch.setattr(quadrature, "_CHUNK", chunk)
        seen.append([[float(v).hex() for v in np.atleast_1d(call())]
                     for call in calls])
    assert seen[0] == seen[1] == seen[2]


def test_vector_integrand_certifies_each_component():
    # Components 1e8 apart in scale: a target on the vector's norm would
    # allow the small one an error of rel * 1e4, a third of its value.
    def f(x):
        return np.stack([1e4 * np.exp(-x), 1e-4 * np.cos(40.0 * x),
                         1.0 / (1.0 + x * x)])

    rel = 1e-10
    res = integrate(f, QuadratureSpec(0.0, 2.0, rel_tol=rel))
    exact = np.array([1e4 * (1.0 - math.exp(-2.0)),
                      1e-4 * math.sin(80.0) / 40.0, math.atan(2.0)])
    assert res.converged
    assert res.value.shape == res.error_estimate.shape == (3,)
    assert np.all(res.error_estimate <= rel * np.abs(res.value))
    assert np.all(np.abs(res.value - exact) <= 10.0 * rel * np.abs(exact))
    for k in range(3):
        alone = integrate(lambda x, k=k: f(x)[k],
                          QuadratureSpec(0.0, 2.0, rel_tol=rel))
        assert alone.value == pytest.approx(exact[k], rel=10.0 * rel)


def test_unsplittable_span_floor_does_not_stop_refinement():
    # On [1, 1e28] a floor taken over the whole span (16 eps * 1e28) makes
    # every panel near r = 1 unsplittable, yet all of the mass sits there.
    # The floor is per panel, so refinement reaches down to r = 1.
    upper = 1e28
    res = integrate(lambda r: r ** -1.5,
                    QuadratureSpec(1.0, upper, rel_tol=1e-10))
    assert res.converged
    assert res.value == pytest.approx(2.0 * (1.0 - upper ** -0.5), rel=1e-10)


def test_unsplittable_panel_over_budget_ends_refinement():
    # A jump inside a panel two ulps wide: no bisection can shrink its
    # error, so refinement stops at once instead of spending max_panels.
    right = np.nextafter(np.nextafter(1.0, 2.0), 2.0)

    def f(x):
        return np.where((x > 1.0) & (x < right), 1e30, 0.0) + np.exp(-x)

    res = integrate(f, QuadratureSpec(0.0, 3.0, rel_tol=1e-12,
                                      breakpoints=(1.0, float(right))))
    assert not res.converged
    assert res.panels_used < 100


# Rule passes (the initial panelling, then one per wave) of small calls
# that used to take many waves: at one bisection level a wave and without
# the weight integrals' breakpoints they took 21-23, 7 and 6 passes.
_SMALL_CALLS = {
    "I_p(1, 0.5)": (lambda: special.I_p(1.0, 0.5), 2),
    "I_p(10, 0.5)": (lambda: special.I_p(10.0, 0.5), 2),
    "I_p(1e3, 0.5)": (lambda: special.I_p(1e3, 0.5), 3),
    **{f"middle_band(0.1, {p:g}, 1e3)":
       (lambda p=p: special.middle_band(0.1, p, 1e3), 1)
       for p in (0.0, 0.5, 1.0, 2.0, 3.0)},
    "log_operator_norms(bump)": (lambda: norms.log_operator_norms(
        _bump, 3, 30.0, breakpoints=(0.5,)), 3),
    "log_operator_norms(narrow bump, long last span)": (
        _narrow_bump_norms, 1),
    # The tail integral's e-fold panels meet 1e-12 on the first pass.
    **{f"{fn.__name__}({t:g}, {p:g})": (lambda fn=fn, t=t, p=p: fn(t, p), 1)
       for fn in (special.J_p, special.J_p_scaled)
       for t in (10.0, 1e3, 1e6) for p in (0.0, 0.5, 3.0)},
}


@pytest.mark.parametrize("name", list(_SMALL_CALLS))
def test_small_calls_take_few_rule_passes(monkeypatch, name):
    call, passes = _SMALL_CALLS[name]
    sizes = _count_rule_calls(monkeypatch)
    call()
    assert len(sizes) == passes


def test_each_pick_is_quartered(monkeypatch):
    # One panel [0, 1] on sqrt(x): the first wave picks it and rules on
    # its four quarters in one pass.
    edges = []
    panel_rule = quadrature._panel_rule

    def recording_rule(f, a, b):
        edges.append((a.tolist(), b.tolist()))
        return panel_rule(f, a, b)

    monkeypatch.setattr(quadrature, "_panel_rule", recording_rule)
    res = integrate(np.sqrt, QuadratureSpec(0.0, 1.0, rel_tol=1e-10))
    assert res.converged
    assert res.value == pytest.approx(2.0 / 3.0, rel=1e-10)
    assert edges[1] == ([0.0, 0.25, 0.5, 0.75], [0.25, 0.5, 0.75, 1.0])
    assert res.panels_used == 1 + 3 * (sum(len(a) for a, _ in edges[1:]) // 4)


def test_quarters_of_the_narrowest_splittable_panel_are_distinct():
    # The narrowest panel the floor lets split still has four non-empty
    # quarters with distinct edges.
    for lo in (1.0, -3.0, 1e-300, 7e300, -2.0 ** -1000):
        hi = lo
        while not hi - lo > quadrature._FLOOR * max(-lo, hi):
            hi = float(np.nextafter(hi, math.inf))
        mid = 0.5 * (lo + hi)
        edges = [lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi]
        assert all(l < r for l, r in zip(edges, edges[1:])), edges


def _loop_edges(spec):
    """``_initial_edges`` as a per-span loop: span [left, right] split
    into ceil((right - left) / (upper - lower) * min_panels) equal steps."""
    pts = sorted({spec.lower, spec.upper,
                  *(bp for bp in spec.breakpoints
                    if spec.lower < bp < spec.upper)})
    edges = [pts[0]]
    for left, right in zip(pts, pts[1:]):
        n = max(1, math.ceil((right - left) / (spec.upper - spec.lower)
                             * spec.min_panels))
        edges.extend(left + (right - left) / n * np.arange(1, n))
        edges.append(right)
    return np.array(edges)


def test_initial_edges_match_the_per_span_loop_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(500):
        lower = rng.uniform(-50.0, 50.0) * 10.0 ** rng.integers(-4, 5)
        upper = lower + rng.uniform(1e-3, 100.0) * 10.0 ** rng.integers(-4, 2)
        least = int(rng.choice([1, 3, 32, 955, 5000]))
        spec = QuadratureSpec(
            lower, upper,
            breakpoints=tuple(rng.uniform(lower, upper,
                                          rng.integers(0, 6)).tolist()),
            min_panels=least, max_panels=10 ** 6)
        edges = quadrature._initial_edges(spec)
        assert edges.tobytes() == _loop_edges(spec).tobytes(), spec
        # No panel wider than (upper - lower)/min_panels, to rounding.
        cap = ((upper - lower) / least * (1.0 + 1e-12)
               + 4.0 * np.spacing(max(abs(lower), abs(upper))))
        assert np.diff(edges).max() <= cap, spec
        assert np.isin(spec.breakpoints, edges).all(), spec
        # A single span keeps exactly min_panels panels, with the bits of
        # lower + j (upper - lower) / min_panels.
        single = quadrature._initial_edges(
            dataclasses.replace(spec, breakpoints=()))
        steps = lower + (upper - lower) / least * np.arange(1, least)
        assert single.tobytes() == np.array(
            [lower, *steps, upper]).tobytes(), spec
