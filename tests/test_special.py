"""Weight-integral layer: closed forms, recurrence, scalings, identities."""

import math

import mpmath
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


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("t", [1.0, 3.0, 10.0, 100.0])
def test_hypergeometric_slice_against_mpmath(t, p):
    ref = mpmath.hyp2f1(t, (p + 1.0) / 2.0, (p + 3.0) / 2.0, -1.0)
    assert special.hyp2f1_special(t, p) == pytest.approx(float(ref),
                                                         rel=1e-11, abs=0.0)


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
    # The v = log(1+r^2) - log 2 substitution against a direct quadrature
    # of the untransformed integrand in r, independent of the beta form.
    with mpmath.workdps(40):
        ref = mpmath.quad(lambda r: (1 + r * r) ** -10 * r * r,
                          [1, 2, 4, mpmath.inf])
    assert special.J_p(10.0, 2.0) == pytest.approx(float(ref), rel=1e-12,
                                                   abs=0.0)


def test_tail_integral_is_the_only_route():
    assert special.J_p_direct is special.J_p


def test_tail_integral_closed_form_at_unit_time():
    # J_0(1) = pi/2 - arctan(1)
    assert special.J_p(1.0, 0.0) == pytest.approx(math.pi / 4.0, rel=1e-14,
                                                  abs=0.0)


# q = 2t - p - 1 > 0 is the whole domain of convergence; near q = 0 the
# decay rate s = q/2 is small, so the truncation point V is far out.
_DOMAIN = [((q + p + 1.0) / 2.0, p) for p in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)
           for q in (0.25, 0.5, 1.0, 10.0)] + [(0.999, 0.5)]


@pytest.mark.parametrize("t, p", _DOMAIN)
def test_tail_integral_across_its_domain(t, p):
    ref = float(mp_weight_tail(t, p, 1.0))
    assert special.J_p(t, p) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_tail_integral_refuses_uncertified():
    with pytest.raises(ArithmeticError, match=r"J_p\(10.0, 2.0\)"):
        special.J_p(10.0, 2.0, rel_tol=1e-30)


def test_tail_integral_exact_p1():
    # J_1(t) = 2^(-t)/(t-1) exactly
    for t in (5.0, 12.0, 40.0):
        assert special.J_p(t, 1.0) == pytest.approx(
            2.0 ** -t / (t - 1.0), rel=1e-12)


def test_scaled_tail_integral_is_finite_where_j_underflows():
    # J_p underflows from t ~ 1075 on; its scaled form stays exact.
    for t in (1e3, 1e4, 1e6):
        assert special.J_p_scaled(t, 1.0) == pytest.approx(1.0, rel=1e-14,
                                                           abs=0.0)
        for p in (-1.0, 0.0, 0.5, 2.0, 3.0):
            lo, hi = special.j_sandwich_bounds(t, p)
            assert lo * (1.0 - 1e-12) <= special.J_p_scaled(t, p) \
                <= hi * (1.0 + 1e-12)
    assert special.J_p(1e4, 0.0) == 0.0


@pytest.mark.parametrize("p", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("t", [20.0, 1e3, 1e4])
def test_scaled_tail_integral_matches_the_oracle(t, p):
    # From t ~ 1000 on the unscaled integrand is near the underflow floor.
    ref = mp_weight_tail(t, p, 1.0) * (t - 1.0) * mpmath.mpf(2) ** t
    assert special.J_p_scaled(t, p) == pytest.approx(float(ref), rel=1e-12,
                                                     abs=0.0)


@pytest.mark.parametrize("p", [-1.0, 0.0, 1.0, 3.0])
@pytest.mark.parametrize("t", [5.0, 10.0, 20.0, 50.0])
def test_tail_integral_sandwich(p, t):
    scaled = special.J_p(t, p) * (t - 1.0) * 2.0 ** t
    lo, hi = special.j_sandwich_bounds(t, p)
    assert lo * (1.0 - 1e-9) <= scaled <= hi * (1.0 + 1e-9)


def test_tail_integral_domain():
    with pytest.raises(ValueError):
        special.J_p(1.5, 2.0)   # needs 2t > p + 1
    with pytest.raises(ValueError):
        special.J_p_scaled(0.5, 0.0)
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


def test_peak_integral_two_sided_witness():
    # explicit lower bound evaluated at the interior maximum
    for p in (1.0, 2.0, 3.0):
        for t in (10.0, 100.0):
            lower = (math.exp(-p / 8.0) / 2.0 ** (p + 2.0)
                     * (p / (2.0 * t - p)) ** ((p + 1.0) / 2.0))
            assert special.I_p(t, p) >= lower
