"""Weight-integral layer: closed forms, recurrence, scalings, identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdamp import special
from oracles import mp_weight_tail


def test_peak_integral_closed_forms():
    assert special.I_p(1.0, 0.0) == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert special.I_p(3.0, 2.0) == pytest.approx(math.pi / 32.0, abs=1e-12)
    assert special.I_p(3.0, 0.0) == pytest.approx(
        0.25 + 3.0 * math.pi / 32.0, rel=1e-12)


def test_peak_integral_scaling_example():
    # t^(1/2)-rate: the limit constant is sqrt(pi)/2 ~ 0.886
    assert special.I_p(100.0, 0.0) * 10.0 == pytest.approx(0.889, abs=0.01)


def test_peak_integral_domain():
    with pytest.raises(ValueError):
        special.I_p(5.0, -1.0)
    with pytest.raises(ValueError):
        special.I_p(math.inf, 0.0)


def test_recurrence_closed_form_chain():
    i0 = 0.25 + 3.0 * math.pi / 32.0
    # 2^(-2)/(3-6) + (1/3) I_0(3) collapses to pi/32
    stepped = special.I_p_recurrence(3.0, 2.0, i0)
    assert stepped == pytest.approx(math.pi / 32.0, rel=1e-14)


def test_recurrence_contract():
    with pytest.raises(ValueError):
        special.I_p_recurrence(10.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        special.I_p_recurrence(1.4, 2.0, 0.5)


def test_recurrence_matches_quadrature_on_random_parameters():
    rng = np.random.default_rng(101)
    for _ in range(50):
        p = rng.uniform(2.0, 8.0)
        t = rng.uniform(p + 2.0, 200.0)
        direct = special.I_p(t, p)
        stepped = special.I_p_recurrence(t, p, special.I_p(t, p - 2.0))
        assert stepped == pytest.approx(direct, rel=1e-10)


@given(p=st.floats(min_value=2.0, max_value=8.0),
       t=st.floats(min_value=12.0, max_value=200.0))
@settings(max_examples=30, deadline=None)
def test_recurrence_property(p, t):
    direct = special.I_p(t, p)
    stepped = special.I_p_recurrence(t, p, special.I_p(t, p - 2.0))
    assert stepped == pytest.approx(direct, rel=1e-9)


def test_hypergeometric_slice_values():
    assert special.hyp2f1_special(1.0, 0.0) == pytest.approx(math.pi / 4.0,
                                                             rel=1e-12)
    assert special.hyp2f1_special(3.0, 2.0) == pytest.approx(
        3.0 * math.pi / 32.0, rel=1e-12)


def test_hypergeometric_slice_scaled_band():
    scaled = [special.hyp2f1_special(t, 0.0) * math.sqrt(t)
              for t in (1e2, 1e3, 1e4, 1e5, 1e6)]
    assert max(scaled) / min(scaled) <= 1.2
    assert 0.05 <= min(scaled) and max(scaled) <= 5.0


def test_gamma_ratio_closed_forms():
    assert special.gamma_ratio(1.0) == pytest.approx(math.sqrt(math.pi),
                                                     rel=1e-14)
    assert special.gamma_ratio(2.0) == pytest.approx(
        math.sqrt(math.pi) / 2.0, rel=1e-14)
    with pytest.raises(ValueError):
        special.gamma_ratio(0.5)


def test_gamma_ratio_no_overflow_at_large_argument():
    # raw Gamma overflows past ~170; the log route must not
    val = special.gamma_ratio(1e6)
    assert val == pytest.approx(1e-3, rel=1e-6)


def test_half_line_identity():
    for t in (2.0, 5.0, 20.0, 100.0):
        h0 = special.I_p(t, 0.0) + special.J_p(t, 0.0)
        ref = 0.5 * math.sqrt(math.pi) * special.gamma_ratio(t)
        assert h0 == pytest.approx(ref, rel=1e-10)


def test_gamma_ratio_square_root_limit():
    for t in np.logspace(math.log10(50.0), 6, 25):
        assert 0.99 <= special.gamma_ratio(t) * math.sqrt(t) <= 1.01


def test_tail_integral_substitution_vs_direct():
    sub = special.J_p(10.0, 2.0)
    direct = special.J_p_direct(10.0, 2.0)
    assert direct == pytest.approx(sub, rel=1e-10)


def test_tail_integral_closed_form_via_direct_mode():
    # J_0(1) = pi/2 - arctan(1); outside the substitution's domain
    with pytest.raises(ValueError):
        special.J_p(1.0, 0.0)
    assert special.J_p_direct(1.0, 0.0) == pytest.approx(math.pi / 4.0,
                                                         rel=1e-9)


@pytest.mark.parametrize("t", [0.999, 1.0])
def test_tail_integral_direct_near_its_domain_edge(t):
    # Truncated near R ~ 2e21, with all the mass near r = 1.
    ref = float(mp_weight_tail(t, 0.5, 1.0))
    assert special.J_p_direct(t, 0.5) == pytest.approx(ref, rel=1e-10)


def test_tail_integral_direct_refuses_uncertified():
    with pytest.raises(ArithmeticError, match="J_p_direct"):
        special.J_p_direct(10.0, 2.0, rel_tol=1e-30)


def test_tail_integral_exact_p1():
    # J_1(t) = 2^(-t)/(t-1) exactly
    for t in (5.0, 12.0, 40.0):
        assert special.J_p(t, 1.0) == pytest.approx(
            2.0 ** -t / (t - 1.0), rel=1e-12)


@pytest.mark.parametrize("p", [-1.0, 0.0, 1.0, 3.0])
@pytest.mark.parametrize("t", [5.0, 10.0, 20.0, 50.0])
def test_tail_integral_sandwich(p, t):
    scaled = special.J_p(t, p) * (t - 1.0) * 2.0 ** t
    lo, hi = special.j_sandwich_bounds(t, p)
    assert lo * (1.0 - 1e-9) <= scaled <= hi * (1.0 + 1e-9)


def test_tail_integral_domain():
    with pytest.raises(ValueError):
        special.J_p(2.0, 2.0)   # needs t > (p+3)/2
    with pytest.raises(ValueError):
        special.J_p_direct(0.5, 0.0)
    with pytest.raises(ValueError):
        special.j_sandwich_bounds(1.0, 1.0)


def test_mid_band_values():
    assert special.middle_band(1.0, 0.0, 10.0) == 0.0
    val = special.middle_band(0.5, 0.0, 10.0)
    assert 0.0 < val <= 1.25 ** -10
    assert special.middle_band(0.5, 3.0, 0.0) == pytest.approx(
        (1.0 - 1.0 / 16.0) / 4.0, rel=1e-12)
    with pytest.raises(ValueError):
        special.middle_band(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        special.middle_band(1.5, 0.0, 1.0)


def test_mid_band_refuses_uncertified():
    with pytest.raises(ArithmeticError, match="middle_band"):
        special.middle_band(0.5, 1.0, 5.0, rel_tol=1e-30)


def test_mid_band_exponential_bound():
    for eta in (0.1, 0.4, 0.8):
        for t in (0.0, 3.0, 30.0):
            for p in (0.0, 2.0):
                bound = math.exp(-t * math.log1p(eta * eta))
                assert special.middle_band(eta, p, t) <= bound * (1 + 1e-12)


def test_band_report_structure():
    rep = special.i_band_report(2.0, [1e2, 1e3, 1e4])
    assert rep.band_min <= min(rep.scaled_values)
    assert rep.band_max >= max(rep.scaled_values)
    assert rep.monotone_tail
    with pytest.raises(ValueError):
        special.i_band_report(2.0, [1e3, 1e2])


def test_peak_integral_two_sided_witness():
    # explicit lower bound evaluated at the interior maximum
    for p in (1.0, 2.0, 3.0):
        for t in (10.0, 100.0):
            lower = (math.exp(-p / 8.0) / 2.0 ** (p + 2.0)
                     * (p / (2.0 * t - p)) ** ((p + 1.0) / 2.0))
            assert special.I_p(t, p) >= lower
