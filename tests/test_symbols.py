"""Frequency-symbol layer: exact values, stability, and the proof bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdamp import symbols
from oracles import mp_symbols

RADII = np.exp(np.random.default_rng(7).uniform(
    math.log(1e-8), math.log(1e8), 10_000))


def test_origin_values():
    s = symbols.eval_symbols(0.0)
    assert s.a == 0.0 and s.b == 0.0 and s.g == 0.0
    assert s.b_minus_r == 0.0 and s.inv_b_minus_inv_r == 0.0


def test_values_at_unit_radius():
    s = symbols.eval_symbols(1.0)
    assert s.a == pytest.approx(math.log(2.0) / 2.0, rel=1e-15)
    # b(1) = sqrt(4 - log(2)^2)/2
    assert s.b == pytest.approx(math.sqrt(4.0 - math.log(2.0) ** 2) / 2.0,
                                rel=1e-15)
    assert s.b == pytest.approx(0.9380227857149578, rel=1e-14)
    ratio = (s.a / s.b) ** 2
    assert ratio == pytest.approx(0.13651, abs=1e-5)
    assert ratio <= 1.0 / 3.0


def test_domain_errors():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            symbols.eval_symbols(bad)
    with pytest.raises(ValueError):
        symbols.phi(-0.5)


def test_lambda_pm_origin_and_conjugacy():
    assert symbols.lambda_pm(0.0) == (0j, 0j)
    lp, lm = symbols.lambda_pm(1.0)
    assert lp == pytest.approx(complex(-0.34657359027997264,
                                       0.9380227857149578), rel=1e-12)
    assert lm == lp.conjugate()
    assert lp.real <= 0.0


@given(r=st.floats(min_value=1e-8, max_value=1e8))
@settings(max_examples=200, deadline=None)
def test_lambda_pm_vieta(r):
    lp, lm = symbols.lambda_pm(r)
    prod = lp * lm
    assert prod.real == pytest.approx(r * r, rel=1e-12)
    assert abs(prod.imag) <= 1e-12 * r * r
    assert (lp + lm).real == pytest.approx(-math.log1p(r * r), rel=1e-12)


@given(r=st.floats(min_value=0.0, max_value=1e8, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_pythagorean_identity(r):
    s = symbols.eval_symbols(r)
    assert s.a ** 2 + s.b ** 2 == pytest.approx(r * r, rel=8 * 2.3e-16)


def test_ratio_bounds_on_sampled_radii():
    a = symbols.damping_a(RADII)
    b = symbols.oscillation_b(RADII)
    g = symbols.ratio_g(RADII)
    assert np.all((a / b) ** 2 <= 1.0 / 3.0 + 1e-12)
    assert np.all(((b - RADII) / b) ** 2 <= 28.0 / 3.0 + 1e-9)
    assert np.all((g >= 0.0) & (g < 1.0))
    assert np.all(np.log1p(RADII ** 2) ** 2 <= 2.0 * RADII ** 2 * (1 + 1e-12))


def test_g_vanishes_at_both_ends():
    assert symbols.ratio_g(1e-10) < 1e-19
    assert symbols.ratio_g(1e10) < 1e-17


def test_ratio_g_is_pinned_to_its_closed_form_and_series():
    # log^2(1+x)/(4x) above the cut, bit for bit (a*a/(r*r) equals it
    # because 1/2 and 4 are powers of two), and the series below it.
    r = np.concatenate([[0.0], np.geomspace(1e-200, 1e150, 20_001)])
    x = r * r
    small = r < symbols.G_SERIES_CUT
    assert 1000 < small.sum() < r.size - 1000
    with np.errstate(all="ignore"):
        series = 0.25 * x * (1.0 - x * (1.0 - x * (11.0 / 12.0
                                                    - x * (5.0 / 6.0))))
        direct = np.log1p(x) ** 2 / (4.0 * x)
    expected = np.where(small, series, direct)
    assert symbols.ratio_g(r).tobytes() == expected.tobytes()
    a = symbols.damping_a(r)
    assert symbols.ratio_g_from_a(r, a).tobytes() == expected.tobytes()
    assert symbols.ratio_g(0.0) == 0.0
    assert type(symbols.ratio_g(2.0)) is float


def test_small_radius_series():
    # one ulp of slack: near r ~ 1e-8 the bound r^2/4 dips below eps
    r = np.exp(np.linspace(math.log(1e-8), math.log(1e-2), 200))
    b = symbols.oscillation_b(r)
    assert np.all(np.abs(b / r - 1.0) <= r * r / 4.0 + 2.3e-16)


def test_damping_symbol_strictly_increasing():
    grid = np.sort(RADII)
    a = symbols.damping_a(grid)
    assert np.all(np.diff(a) > 0.0)


def test_stable_difference_matches_naive_away_from_origin():
    # Beyond r ~ 4e3 the *naive* subtraction itself drops below 1e-10
    # relative accuracy, so the comparison window stops at 1e3.
    r = np.exp(np.linspace(math.log(0.5), math.log(1e3), 500))
    naive = symbols.oscillation_b(r) - r
    assert np.allclose(symbols.b_minus_r(r), naive, rtol=1e-10, atol=0.0)


def test_differences_against_high_precision():
    # The double-precision stable forms vs 40-digit naive evaluation.
    rng = np.random.default_rng(11)
    for r in np.exp(rng.uniform(math.log(1e-7), math.log(1e3), 60)):
        a, b, g, bmr, invd = mp_symbols(r)
        s = symbols.eval_symbols(float(r))
        assert s.a == pytest.approx(float(a), rel=1e-14)
        assert s.b == pytest.approx(float(b), rel=1e-14)
        assert s.g == pytest.approx(float(g), rel=1e-13, abs=1e-300)
        assert s.b_minus_r == pytest.approx(float(bmr), rel=1e-12,
                                            abs=1e-300)
        assert s.inv_b_minus_inv_r == pytest.approx(float(invd), rel=1e-12,
                                                    abs=1e-300)


@pytest.mark.parametrize("r", [2e154, 1e200, 1e300])
def test_symbols_where_r_squared_overflows(r):
    # r * r is inf here; a = log r and g = (a/r)^2 stay exact (g may
    # underflow to 0).  Any overflow warning fails the test.
    a, b, g = (float(x) for x in mp_symbols(r)[:3])
    assert symbols.damping_a(r) == pytest.approx(a, rel=1e-15)
    assert symbols.ratio_g(r) == pytest.approx(g, rel=1e-15, abs=0.0)
    assert symbols.oscillation_b(r) == pytest.approx(b, rel=1e-15)
    arr = symbols.damping_a(np.array([1.0, r]))
    assert arr[0] == symbols.damping_a(1.0)
    assert arr[1] == symbols.damping_a(r)


def test_extended_precision_mode_digits():
    import mpmath as mp
    x = 0.37
    a, b = mp_symbols(x, dps=35)[:2]
    with mp.workdps(35):
        ref = mp.log(1 + mp.mpf(x) ** 2) / 2
        assert mp.almosteq(a, ref, rel_eps=mp.mpf(10) ** -30)
        assert mp.almosteq(a ** 2 + b ** 2, mp.mpf(x) ** 2,
                           rel_eps=mp.mpf(10) ** -30)


def test_phi_values():
    assert symbols.phi(0.0) == 0.0
    assert symbols.phi(math.e - 1.0) == pytest.approx(1.0 / math.e, rel=1e-15)
    assert symbols.phi(1.0) == pytest.approx(math.log(2.0) / 2.0, rel=1e-15)


def test_phi_never_exceeds_its_maximum():
    x = np.linspace(0.0, 1e8, 10_000)
    assert np.all(symbols.phi(x) <= 1.0 / math.e + 1e-15)


def test_phi_maximizer_bracket():
    lo, hi = symbols.locate_phi_max(0.0, 10.0, width=1e-8)
    assert hi - lo <= 1e-8
    assert lo - 1e-6 <= math.e - 1.0 <= hi + 1e-6
    mid = 0.5 * (lo + hi)
    assert abs(symbols.phi(mid) - 1.0 / math.e) <= 1e-12


def test_g_peak_is_below_one_half():
    rstar, gmax = symbols.g_peak()
    assert 1.9 < rstar < 2.1
    assert gmax == pytest.approx(0.1619, abs=2e-3)
    assert gmax < 0.5
    # hence no radius reaches level 1/2 and the split falls back
    assert symbols.g_level_radius(0.5) is None


def test_g_level_radius_finds_small_levels():
    r = symbols.g_level_radius(0.01)
    assert r is not None
    assert symbols.ratio_g(r) == pytest.approx(0.01, rel=1e-6)
    assert symbols.ratio_g(0.5 * r) < 0.01
