"""Mode solution, profile, data split, and the five-term remainder."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdamp import symbols
from logdamp.stable import sinc
from logdamp.modes import (InitialDataSpec, Mode, decompose_data, k_terms,
                           mode_value, mode_value_dt, profile_hat,
                           remainder_terms, sphere_area, u_hat, u_hat_t)

GAUSS1 = InitialDataSpec("gaussian", 1.0, 1.0, 1)
ZERO1 = InitialDataSpec("zero", dimension=1)


def closure_scale(md):
    return (np.abs(md.u_hat) + np.abs(md.profile)
            + sum(np.abs(k) for k in md.K))


# -- data specs ---------------------------------------------------------------

def test_data_validation():
    with pytest.raises(ValueError, match="family"):
        InitialDataSpec("delta", 1.0, 1.0, 1)
    with pytest.raises(ValueError, match="width"):
        InitialDataSpec("gaussian", 1.0, 0.0, 1)
    with pytest.raises(ValueError, match="dimension"):
        InitialDataSpec("gaussian", 1.0, 1.0, 0)


def test_gaussian_closed_form_norms():
    assert decompose_data(GAUSS1).P1 == pytest.approx(
        math.sqrt(2.0 * math.pi), rel=1e-15)
    assert GAUSS1.l2_norm() == pytest.approx(math.pi ** 0.25, rel=1e-15)
    assert GAUSS1.weighted_l1_norm() == pytest.approx(
        math.sqrt(2.0 * math.pi) + 2.0, rel=1e-14)
    assert GAUSS1.grad_l2_norm_sq() == pytest.approx(
        math.sqrt(math.pi) / 2.0, rel=1e-14)
    g3 = InitialDataSpec("gaussian", 2.0, 0.5, 3)
    assert g3.l1_norm() == pytest.approx(
        2.0 * (2.0 * math.pi * 0.25) ** 1.5, rel=1e-14)


def test_transform_moment_check():
    # int |x| e^{-x^2/2} dx = 2 in one dimension feeds the weighted norm
    import mpmath as mp
    n = 3
    g = InitialDataSpec("gaussian", 1.3, 0.8, n)
    moment = float(mp.quad(
        lambda rho: rho ** n * mp.exp(-rho * rho / (2 * 0.8 ** 2)),
        [0, 4, mp.inf]))
    expect = g.l1_norm() + 1.3 * sphere_area(n) * moment
    assert g.weighted_l1_norm() == pytest.approx(expect, rel=1e-12)


def test_sphere_areas():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2.0 * math.pi)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi)


def test_zero_family():
    dec = decompose_data(ZERO1)
    assert dec.P1 == 0.0
    assert np.all(dec.A1(np.linspace(0, 5, 9)) == 0.0)


def test_velocity_split_is_exact_and_real():
    dec = decompose_data(GAUSS1)
    xi = np.linspace(0.0, 8.0, 50)
    a1 = dec.A1(xi)
    assert np.isrealobj(a1)
    assert np.allclose(a1 + dec.P1, GAUSS1.fourier(xi), rtol=0, atol=1e-15)


def test_velocity_moment_ratio_bounded():
    dec = decompose_data(GAUSS1)
    w11 = GAUSS1.weighted_l1_norm()
    xi = np.exp(np.linspace(math.log(1e-6), math.log(1e3), 400))
    ratio = np.abs(dec.A1(xi)) / (xi * w11)
    assert np.max(ratio) <= 1.0  # |1 - cos(s)| <= |s| gives constant 1


# -- mode values --------------------------------------------------------------

def test_initial_conditions():
    g0 = InitialDataSpec("gaussian", 2.0, 0.7, 1)
    for r in (0.0, 0.3, 2.0):
        assert u_hat(0.0, r, g0, GAUSS1) == pytest.approx(g0.fourier(r),
                                                          rel=1e-15)
        assert u_hat_t(0.0, r, g0, GAUSS1) == pytest.approx(
            GAUSS1.fourier(r), rel=1e-15)


def test_origin_limit_is_linear_growth():
    p1 = decompose_data(GAUSS1).P1
    for t in (0.5, 3.0, 12.0):
        assert u_hat(t, 0.0, ZERO1, GAUSS1) == pytest.approx(p1 * t,
                                                             rel=1e-14)


def test_unit_mode_value():
    # e^{-log(2)/2} sin(b(1))/b(1) with b(1) = sqrt(4 - log(2)^2)/2
    b1 = math.sqrt(4.0 - math.log(2.0) ** 2) / 2.0
    exact = math.sin(b1) / b1 / math.sqrt(2.0)
    got = mode_value(1.0, 1.0, 0.0, 1.0)
    assert got == pytest.approx(exact, rel=1e-14)
    assert got == pytest.approx(0.6072, abs=1e-3)


def test_velocity_of_pure_displacement_data_starts_at_rest():
    assert mode_value_dt(0.0, 1.0, 1.0, 0.0) == 0.0


def test_time_derivative_against_central_differences():
    g0 = InitialDataSpec("gaussian", 2.0, 0.7, 1)
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(100):
        t = rng.uniform(h, 30.0)
        r = float(np.exp(rng.uniform(math.log(1e-6), math.log(8.0))))
        fd = (u_hat(t + h, r, g0, GAUSS1)
              - u_hat(t - h, r, g0, GAUSS1)) / (2.0 * h)
        an = u_hat_t(t, r, g0, GAUSS1)
        scale = abs(u_hat(t, r, g0, GAUSS1)) * (1 + r) ** 3 + abs(an) + 1e-30
        assert abs(fd - an) <= 1e-8 * scale


def test_profile_values():
    assert profile_hat(3.0, 0.0, 2.5) == pytest.approx(7.5, rel=1e-15)
    assert np.all(profile_hat(2.0, np.linspace(0, 5, 11), 0.0) == 0.0)
    assert profile_hat(2.0, 1.0, 1.0) == pytest.approx(0.5 * math.sin(2.0),
                                                       rel=1e-14)


def test_mode_kernel_matches_ratio_g_bit_for_bit():
    # g from the held a, on both sides of the series cut and at r = 0.
    r = np.concatenate([[0.0], np.geomspace(1e-200, 1e12, 20_001)])
    assert (r < symbols.G_SERIES_CUT).sum() > 1000
    assert (r > symbols.G_SERIES_CUT).sum() > 1000
    for t in (0.0, 0.5, 1e2, 1e8):
        mode = Mode(t, r)
        bt = r * np.sqrt(1.0 - symbols.ratio_g(r)) * t
        assert mode.cos_bt.tobytes() == np.cos(bt).tobytes()
        assert mode.sinc_bt.tobytes() == sinc(bt).tobytes()
        assert mode.a.tobytes() == symbols.damping_a(r).tobytes()


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        u_hat(-1.0, 0.5, ZERO1, GAUSS1)


# -- remainder split ----------------------------------------------------------

def test_closure_at_point_normalized_velocity():
    # amplitude (2*pi)^(-1/2) makes the velocity mass exactly 1
    u1 = InitialDataSpec("gaussian", (2.0 * math.pi) ** -0.5, 1.0, 1)
    md = remainder_terms(10.0, 0.3, ZERO1, u1)
    assert md.closure_residual <= 1e-12 * closure_scale(md)


def test_degenerate_data_kills_all_terms():
    u1 = InitialDataSpec("gaussian", 0.0, 1.0, 1)
    md = remainder_terms(5.0, 0.7, ZERO1, u1)
    assert all(np.all(k == 0.0) for k in md.K)
    assert md.u_hat == md.K[0] + md.profile == 0.0


def test_displacement_only_terms():
    g0 = InitialDataSpec("gaussian", 1.5, 0.9, 1)
    md = remainder_terms(4.0, 0.8, g0, ZERO1)
    k1, k2, k3, k4, k5 = md.K
    assert k1 == 0.0 and k4 == 0.0 and k5 == 0.0
    assert k2 != 0.0 and k3 != 0.0
    assert md.closure_residual <= 1e-13 * closure_scale(md)


def test_closure_identity_random_sample():
    g0 = InitialDataSpec("gaussian", 2.0, 0.7, 1)
    rng = np.random.default_rng(42)
    for _ in range(100):
        t = rng.uniform(0.0, 1e3)
        r = np.exp(rng.uniform(math.log(1e-6), math.log(1e3), 100))
        md = remainder_terms(t, r, g0, GAUSS1)
        assert np.all(md.closure_residual
                      <= 1e-10 * closure_scale(md) + 1e-300)


@given(t=st.floats(min_value=0.0, max_value=1e3),
       r=st.floats(min_value=1e-6, max_value=1e3))
@settings(max_examples=300, deadline=None)
def test_closure_identity_property(t, r):
    md = remainder_terms(t, r, ZERO1, GAUSS1)
    assert md.closure_residual <= 1e-10 * closure_scale(md) + 1e-300


def test_split_requires_positive_radius():
    with pytest.raises(ValueError):
        k_terms(1.0, 0.0, ZERO1, GAUSS1)
    with pytest.raises(ValueError):
        k_terms(1.0, np.array([0.5, -1.0]), ZERO1, GAUSS1)


def test_sine_difference_term_envelope():
    # |K5| <= |P1| t e^{-at} |b - r| / b pointwise
    p1 = decompose_data(GAUSS1).P1
    rng = np.random.default_rng(9)
    t = 13.0
    r = np.exp(rng.uniform(math.log(1e-6), math.log(50.0), 100))
    k5 = k_terms(t, r, ZERO1, GAUSS1)[4]
    env = (abs(p1) * t * np.exp(-symbols.damping_a(r) * t)
           * np.abs(symbols.b_minus_r(r)) / symbols.oscillation_b(r))
    assert np.all(np.abs(k5) <= env * (1.0 + 1e-12))


def test_reciprocal_term_small_radius_envelope():
    # |K4| <= |P1| e^{-at} log^2(1+r^2)/(8 r^3) * 2 sqrt(2) wherever
    # g <= 1/2; that holds for every radius here, so test r <= 1.
    p1 = decompose_data(GAUSS1).P1
    r = np.exp(np.linspace(math.log(1e-6), 0.0, 300))
    for t in (2.0, 17.0):
        k4 = k_terms(t, r, ZERO1, GAUSS1)[3]
        env = (abs(p1) * np.exp(-symbols.damping_a(r) * t)
               * np.log1p(r * r) ** 2 / (8.0 * r ** 3) * 2.0 * math.sqrt(2.0))
        assert np.all(np.abs(k4) <= env * (1.0 + 1e-12))


def test_mode_magnitude_envelope():
    # |u_hat| <= e^{-at}(|u0| + |u0| a/b + |u1|/b) by the triangle
    # inequality on the solution formula
    g0 = InitialDataSpec("gaussian", 2.0, 0.7, 1)
    rng = np.random.default_rng(17)
    for _ in range(50):
        t = rng.uniform(0.0, 50.0)
        r = np.exp(rng.uniform(math.log(1e-4), math.log(20.0), 64))
        a = symbols.damping_a(r)
        b = symbols.oscillation_b(r)
        u0v, u1v = np.abs(g0.fourier(r)), np.abs(GAUSS1.fourier(r))
        env = np.exp(-a * t) * (u0v + u0v * a / b + u1v * np.minimum(t, 1 / b))
        assert np.all(np.abs(u_hat(t, r, g0, GAUSS1)) <= env * (1 + 1e-12))
