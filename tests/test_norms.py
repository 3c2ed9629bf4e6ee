"""Plancherel norms, energy decay, named integrals, and slope fitting."""

import math

import numpy as np
import pytest

from logdamp import norms, symbols
from logdamp.modes import InitialDataSpec
from logdamp.quadrature import QuadratureSpec, integrate
from oracles import mp_energy

# cosine-transform closed form: int_0^inf cos(b r)/(1+r^2)^2 dr
# = pi (1+b) e^{-b}/4, hence the squared-sine integral below.
M_SIN_3_AT_2 = math.pi ** 2 / 2.0 * (1.0 - 5.0 * math.exp(-4.0))


def gaussian(n, amp=1.0, width=1.0):
    return InitialDataSpec("gaussian", amp, width, n)


def zero(n):
    return InitialDataSpec("zero", dimension=n)


# -- L2 norms -----------------------------------------------------------------

def test_plancherel_matches_gaussian_norm_at_start():
    for n in (1, 2, 3):
        got = norms.l2_norm(0.0, gaussian(n), zero(n), n)
        assert got == pytest.approx(math.pi ** (n / 4.0), rel=1e-10)


def test_zero_data_norm():
    assert norms.l2_norm(7.0, zero(2), zero(2), 2) == 0.0


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        norms.l2_norm(1.0, gaussian(1), gaussian(2))
    with pytest.raises(ValueError):
        norms.l2_norm(1.0, gaussian(2), gaussian(2), n=3)


def test_three_dimensional_rate_between_decades():
    u0, u1 = zero(3), gaussian(3)
    r = norms.l2_norm(1e4, u0, u1, 3) / norms.l2_norm(1e3, u0, u1, 3)
    assert r == pytest.approx(10.0 ** -0.25, rel=0.1)


# -- energy -------------------------------------------------------------------

def test_energy_closed_form_at_start():
    got = norms.energy(0.0, zero(1), gaussian(1), 1)
    assert got == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-10)
    g0 = gaussian(1, amp=2.0, width=0.7)
    expect = 0.5 * (gaussian(1).l2_norm() ** 2 + g0.grad_l2_norm_sq())
    assert norms.energy(0.0, g0, gaussian(1), 1) == pytest.approx(expect,
                                                                  rel=1e-10)


def test_energy_never_increases():
    for n in (1, 3):
        es = [norms.energy(t, gaussian(n), gaussian(n), n)
              for t in np.linspace(0.0, 40.0, 20)]
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(es, es[1:]))


def test_energy_matches_root_oracle():
    u0, u1 = gaussian(1, 2.0, 0.7), gaussian(1)
    for t in (3.7, 11.0, 29.0):
        ref = float(mp_energy(t, u0, u1))
        assert norms.energy(t, u0, u1, 1) == pytest.approx(ref, rel=1e-10)


# -- residual -----------------------------------------------------------------

def test_residual_zero_for_zero_data():
    assert norms.residual_norm(5.0, zero(1), zero(1), 1) == 0.0


def test_residual_equals_norm_without_velocity_mass():
    # zero u1 means zero-mass profile, so the residual is the solution
    for n in (1, 3):
        u0, u1 = gaussian(n), zero(n)
        a = norms.residual_norm(200.0, u0, u1, n)
        b = norms.l2_norm(200.0, u0, u1, n)
        assert a == pytest.approx(b, rel=1e-9)


def test_residual_methods_agree():
    for (t, n) in ((123.0, 2), (1e3, 3)):
        a = norms.residual_norm(t, zero(n), gaussian(n), n,
                                method="difference")
        b = norms.residual_norm(t, zero(n), gaussian(n), n, method="kterms")
        assert b == pytest.approx(a, rel=1e-9)


def test_residual_scaled_band_two_dimensional():
    vals = [norms.residual_norm(t, zero(2), gaussian(2), 2) * math.sqrt(t)
            for t in (1e2, 1e3, 1e4)]
    assert max(vals) / min(vals) <= 3.0


def test_low_band_residual_rate():
    for n in (1, 2, 3):
        vals = [norms.residual_norm(t, zero(n), gaussian(n), n,
                                    band="low") ** 2 * t ** (n / 2.0)
                for t in np.logspace(2, 4, 7)]
        assert max(vals) / min(vals) <= 9.0


def test_high_band_residual_superpolynomial():
    # envelope C t^2 2^{-t} for the squared band mass, fitted at t = 20
    for n in (1, 2, 3):
        hb20 = norms.residual_norm(20.0, zero(n), gaussian(n), n,
                                   band="high")
        hb30 = norms.residual_norm(30.0, zero(n), gaussian(n), n,
                                   band="high")
        env = hb20 ** 2 / (20.0 ** 2 * 2.0 ** -20) * 30.0 ** 2 * 2.0 ** -30
        assert hb30 ** 2 <= env


def test_residual_argument_validation():
    with pytest.raises(ValueError):
        norms.residual_norm(1.0, zero(1), gaussian(1), 1, band="mid")
    with pytest.raises(ValueError):
        norms.residual_norm(1.0, zero(1), gaussian(1), 1, method="oracle")


# -- one symbol pass per abscissa --------------------------------------------

@pytest.mark.parametrize("call", [
    lambda u0, u1: norms.l2_norm(50.0, u0, u1, 2),
    lambda u0, u1: norms.energy(50.0, u0, u1, 2),
    lambda u0, u1: norms.residual_norm(50.0, u0, u1, 2),
    lambda u0, u1: norms.residual_norm(50.0, u0, u1, 2, method="kterms"),
], ids=["l2_norm", "energy", "residual_difference", "residual_kterms"])
def test_integrands_evaluate_the_damping_symbol_once(monkeypatch, call):
    seen = {"symbol": 0, "integrand": 0}
    damping_a, integrate_ = symbols.damping_a, norms.integrate

    def counted_damping_a(r):
        seen["symbol"] += np.size(r)
        return damping_a(r)

    def counted_integrate(f, spec):
        def g(x):
            seen["integrand"] += np.size(x)
            return f(x)
        return integrate_(g, spec)

    monkeypatch.setattr(symbols, "damping_a", counted_damping_a)
    monkeypatch.setattr(norms, "integrate", counted_integrate)
    call(gaussian(2, 2.0, 0.7), gaussian(2))
    assert seen["integrand"] > 0
    assert seen["symbol"] == seen["integrand"]


# -- named integrals ----------------------------------------------------------

def test_oscillating_integral_against_closed_form():
    got = norms.M_integral(2.0, 3, "sin")
    assert got == pytest.approx(M_SIN_3_AT_2, rel=1e-9)


def test_oscillating_integral_bands():
    for n, kind, expo in ((3, "sin", 0.5), (4, "sin", 1.0),
                          (1, "cos", 0.5), (2, "cos", 1.0)):
        vals = [norms.M_integral(t, n, kind) * t ** expo
                for t in (1e2, 1e3, 1e4)]
        assert max(vals) / min(vals) <= 1.5


def test_oscillating_integral_domain():
    with pytest.raises(ValueError):
        norms.M_integral(5.0, 2, "sin")
    with pytest.raises(ValueError):
        norms.M_integral(0.5, 3, "sin")
    with pytest.raises(ValueError):
        norms.M_integral(5.0, 1, "tan")


def test_linear_growth_integral():
    vals = {t: norms.Q_integral(t) for t in (1e2, 1e3, 1e4)}
    ratios = [vals[t] / t for t in vals]
    assert all(1.0 <= q <= 2.0 for q in ratios)
    assert max(ratios) / min(ratios) <= 1.2
    with pytest.raises(ValueError):
        norms.Q_integral(1.5)


def test_linear_growth_integral_window_witness():
    # on [5pi/4t, 7pi/4t] the squared sine is at least 1/2
    t = 100.0
    nu, nup = 5.0 * math.pi / (4.0 * t), 7.0 * math.pi / (4.0 * t)
    w = integrate(lambda r: np.exp(-t * np.log1p(r * r)) / (r * r),
                  QuadratureSpec(nu, nup, rel_tol=1e-12))
    assert 0.5 * w.value <= norms.Q_integral(t)
    # short-wave region alone already gives ~t/4
    wl = integrate(lambda r: np.exp(-t * np.log1p(r * r)),
                   QuadratureSpec(0.0, 1.0 / t, rel_tol=1e-12))
    assert t * t / 4.0 * wl.value <= norms.Q_integral(t)


def test_log_growth_integral():
    vals = {t: norms.R_integral(t) / math.log(t) for t in (1e3, 1e4, 1e6)}
    assert all(0.1 <= v <= 1.0 for v in vals.values())
    assert max(vals.values()) / min(vals.values()) <= 1.25
    r4 = norms.R_integral(1e4) / math.log(1e4)
    r6 = norms.R_integral(1e6) / math.log(1e6)
    assert abs(r4 / r6 - 1.0) <= 0.25


def test_log_growth_integral_window_witness():
    # sum of quarter-period windows of e^{-s^2}/s from below
    for t in (1e3, 1e4):
        total = 0.0
        for j in range(1, 40):
            lo = (0.25 + j) * math.pi / math.sqrt(t)
            hi = (0.75 + j) * math.pi / math.sqrt(t)
            total += integrate(lambda s: np.exp(-s * s) / s,
                               QuadratureSpec(lo, hi, rel_tol=1e-10)).value
        assert norms.R_integral(t) >= 0.5 * total


# -- spectral operator bound --------------------------------------------------

def test_log_operator_relative_bound_random_profiles():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        cs, mus = rng.uniform(-1, 1, k), rng.uniform(0, 5, k)
        sigmas = rng.uniform(0.1, 2.0, k)

        def vhat(r, cs=cs, mus=mus, sigmas=sigmas):
            acc = np.zeros_like(r)
            for c, m, s in zip(cs, mus, sigmas):
                acc = acc + c * np.exp(-0.5 * ((r - m) / s) ** 2)
            return acc

        radius = float(np.max(mus + 14.0 * sigmas))
        nv, nav, nlv = norms.log_operator_norms(
            vhat, n, radius, breakpoints=tuple(np.sort(mus)), rel_tol=1e-9)
        assert nlv <= (2.0 / math.e) * (nv + nav) * (1.0 + 1e-9)


# -- fitting ------------------------------------------------------------------

def test_fit_exact_power_law():
    ts = tuple(np.logspace(1, 4, 12))
    series = norms.DecaySeries(ts, tuple(3.7 * t ** -0.25 for t in ts))
    fit = norms.fit_decay(series)
    assert fit.slope == pytest.approx(-0.25, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.7), abs=1e-12)
    assert fit.max_log_residual <= 1e-12


def test_fit_perturbed_power_law():
    ts = tuple(np.logspace(2, 5, 24))
    vals = tuple(2.0 * t ** -0.25 * (1.0 + 0.1 * math.sin(math.log(t)))
                 for t in ts)
    fit = norms.fit_decay(norms.DecaySeries(ts, vals))
    assert fit.slope == pytest.approx(-0.25, abs=0.05)


def test_fit_constant_series():
    ts = tuple(np.logspace(0, 3, 9))
    fit = norms.fit_decay(norms.DecaySeries(ts, (4.2,) * 9))
    assert fit.slope == pytest.approx(0.0, abs=1e-14)


def test_fit_window_selection_and_errors():
    ts = tuple(np.logspace(0, 3, 16))
    series = norms.DecaySeries(ts, tuple(t ** -1.0 for t in ts))
    fit = norms.fit_decay(series, window=(10.0, 1000.0))
    assert fit.window == (10.0, 1000.0)
    with pytest.raises(ValueError, match="5 grid points"):
        norms.fit_decay(series, window=(1.0, 1.5))


def test_series_validation():
    with pytest.raises(ValueError):
        norms.DecaySeries((1.0, 2.0), (1.0,))
    with pytest.raises(ValueError):
        norms.DecaySeries((2.0, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        norms.DecaySeries((1.0, 2.0), (1.0, -1.0))
    with pytest.raises(ValueError):
        norms.DecaySeries((1.0, 2.0), (1.0, math.nan))
