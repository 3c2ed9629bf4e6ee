"""Adaptive quadrature engine: closed forms, oscillation, tails, honesty."""

import math

import numpy as np
import pytest

from logdamp import norms, quadrature
from logdamp.modes import InitialDataSpec
from logdamp.quadrature import (EvaluationError, GaussTail, PowerTail,
                                QuadratureSpec, TailBest, TailSum, integrate,
                                truncation_point)
from oracles import mp_weight_tail

# 40-digit panelled reference for sin(100 r)^2 (1+r^2)^(-100) on [0, 1]
OSC_ORACLE = 0.044478383843326293227


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
                                      oscillation_frequency=100.0))
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

    res = integrate(f, QuadratureSpec(0.0, 8.0, rel_tol=1e-11,
                                      oscillation_frequency=2.0 * omega))
    assert res.converged
    assert res.value == pytest.approx(exact, rel=1e-9)

    # The same window on the half-line, through the two-phase route.
    semi = norms._two_phase(f, GaussTail(1.0, 0.0), 2.0 * omega, 1e-11,
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

    spec = QuadratureSpec(0.0, 8.0, rel_tol=1e-12, oscillation_frequency=74.0)
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


def test_spec_validation():
    with pytest.raises(ValueError, match="lower"):
        integrate(lambda x: x, QuadratureSpec(1.0, 1.0))
    with pytest.raises(ValueError, match="tolerances"):
        integrate(lambda x: x, QuadratureSpec(0.0, 1.0, rel_tol=0.0))
    with pytest.raises(ValueError, match="finite"):
        integrate(lambda x: x, QuadratureSpec(0.0, math.inf))
    with pytest.raises(ValueError, match="oscillation"):
        integrate(lambda x: x,
                  QuadratureSpec(0.0, 1.0, oscillation_frequency=-1.0))


def test_semi_infinite_with_power_tail(monkeypatch):
    uppers = []
    integrate_ = norms.integrate

    def recording_integrate(f, spec):
        uppers.append(spec.upper)
        return integrate_(f, spec)

    monkeypatch.setattr(norms, "integrate", recording_integrate)
    value = norms._two_phase(lambda x: (1.0 + x * x) ** -2,
                             PowerTail(2.0, 0.0), 0.0, 1e-12, "power tail")
    assert value == pytest.approx(math.pi / 4.0, abs=1e-12)
    # Truncated at a finite radius beyond the bulk of the integrand.
    assert uppers and math.isfinite(uppers[-1]) and uppers[-1] > 1.0


def test_truncation_point_tail_actually_small():
    radius, bound = truncation_point(PowerTail(50.0, 0.0), 1e-16)
    assert bound <= 1e-16
    tail = float(mp_weight_tail(50.0, 0.0, radius))
    assert tail < 1e-15


def test_truncation_point_against_closed_form_tail():
    radius, _ = truncation_point(PowerTail(2.0, 0.0), 1e-10)
    # tail of (1+r^2)^(-2): pi/4 - R/(2(1+R^2)) - arctan(R)/2
    tail = (math.pi / 4.0 - radius / (2.0 * (1.0 + radius ** 2))
            - math.atan(radius) / 2.0)
    assert 0.0 < tail <= 1e-10


def test_truncation_point_contract():
    radius, bound = truncation_point(PowerTail(100.0, 3.0), 1e-8)
    assert radius > 0.0 and bound <= 1e-8
    with pytest.raises(ValueError, match="positive"):
        truncation_point(PowerTail(50.0, 0.0), 0.0)
    # (1+r^2)^(-1/2) r^2 is not integrable: no radius reaches the budget.
    with pytest.raises(ValueError, match="cannot reach"):
        truncation_point(PowerTail(0.5, 2.0), 1e-8)
    assert truncation_point(PowerTail(5.0, 0.0, 0.0), 1e-8) == (1e-9, 0.0)


def test_tail_model_bounds_are_upper_bounds():
    for t, p in ((5.0, 0.0), (12.0, 2.0), (4.0, -1.0)):
        tail = PowerTail(t, p)
        for radius in (1.0, 1.7, 3.0):
            true = float(mp_weight_tail(t, p, radius))
            assert true <= tail.bound(radius)


def test_gauss_tail_bound_is_upper_bound():
    import mpmath as mp
    for c, q in ((1.0, 0.0), (0.5, 2.0), (2.0, 3.0)):
        tail = GaussTail(c, q)
        for radius in (2.0, 3.0, 5.0):
            if tail.bound(radius) == math.inf:
                continue
            true = float(mp.quad(lambda r: r ** q * mp.exp(-c * r * r),
                                 [radius, radius + 4, mp.inf]))
            assert true <= tail.bound(radius)


def test_tail_combinators():
    p = PowerTail(5.0, 0.0, 1.0)
    g = GaussTail(1.0, 0.0, 1.0)
    assert TailSum((p, g)).bound(2.0) == p.bound(2.0) + g.bound(2.0)
    assert TailBest((p, g)).bound(2.0) == min(p.bound(2.0), g.bound(2.0))
    radius, bound = truncation_point(TailBest((p, g)), 1e-12)
    assert bound <= 1e-12
    assert radius <= min(truncation_point(p, 1e-12)[0],
                         truncation_point(g, 1e-12)[0]) * 1.01


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
                                   oscillation_frequency=300.0))
    exact = (1.0 - math.exp(-10.0) * (math.cos(30.0) - 3.0 * math.sin(30.0))
             ) / 10.0
    assert res.converged
    # Every panel is evaluated once, in chunks: no bisection happened.
    assert sum(sizes) == res.panels_used > 100
    assert max(sizes) <= quadrature._CHUNK
    assert isinstance(res.value, float)
    assert res.value == pytest.approx(exact, rel=1e-10)


def test_rule_calls_stay_within_the_chunk_at_t_1e8(monkeypatch):
    sizes = _count_rule_calls(monkeypatch)
    u0 = InitialDataSpec("zero", dimension=3)
    u1 = InitialDataSpec("gaussian", 1.0, 1.0, 3)
    assert norms.l2_norm(1e8, u0, u1, 3) > 0.0
    assert max(sizes) <= quadrature._CHUNK
    assert sum(sizes) > 10 * quadrature._CHUNK


_ZERO3 = InitialDataSpec("zero", dimension=3)
_GAUSS3 = InitialDataSpec("gaussian", 1.0, 1.0, 3)
_WIDE3 = InitialDataSpec("gaussian", 2.0, 0.7, 3)


@pytest.mark.parametrize("t", [1e2, 1e6])
def test_chunk_size_changes_no_bit(monkeypatch, t):
    calls = (
        lambda: norms.l2_norm(t, _WIDE3, _GAUSS3, 3),
        lambda: norms.energy(t, _WIDE3, _GAUSS3, 3),
        lambda: norms.residual_norm(t, _ZERO3, _GAUSS3, 3),
        lambda: norms.residual_norm(t, _ZERO3, _GAUSS3, 3, method="kterms"),
        lambda: norms.M_integral(t, 3, "sin"),
    )
    seen = []
    for chunk in (64, quadrature._CHUNK, 2048):
        monkeypatch.setattr(quadrature, "_CHUNK", chunk)
        seen.append([float(call()).hex() for call in calls])
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
