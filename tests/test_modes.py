"""Mode solution, profile, data split, and the five-term remainder."""

import dataclasses
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
    # The zero family is the datum of amplitude 0, whatever amplitude and
    # width it is given; a width whose n-th power overflows is dropped.
    assert InitialDataSpec("zero", 5.0, 0.3, 3).amplitude == 0.0
    huge = InitialDataSpec("zero", 1.0, 1e103, 3)
    assert huge.fourier(0.0) == huge.mass() == 0.0
    dec = decompose_data(ZERO1)
    assert dec.P1 == 0.0
    assert np.all(dec.A1(np.linspace(0, 5, 9)) == 0.0)


def test_transform_prefactor_is_scale_safe():
    # width^3 overflows at width 1e103, but with amplitude 1e-300 the
    # transform sup, 1e-300 (2 pi)^(3/2) 1e309, is an ordinary double.
    wide = InitialDataSpec("gaussian", 1e-300, 1e103, 3)
    expect = 1e-300 * (2.0 * math.pi) ** 1.5 * 1e103 * 1e103 * 1e103
    assert wide.mass() == pytest.approx(expect, rel=1e-14)
    assert wide.fourier(0.0) == pytest.approx(expect, rel=1e-14)
    assert wide.fourier(1e-103) == pytest.approx(expect * math.exp(-0.5),
                                                 rel=1e-14)
    tiny = InitialDataSpec("gaussian", 1e300, 1e-110, 3)
    # 1e300 * 1e-330, formed without the literal 1e-330, which is below
    # the smallest subnormal and reads 0.0.
    assert tiny.mass() == pytest.approx(
        1e190 * 1e-110 * 1e-110 * (2.0 * math.pi) ** 1.5, rel=1e-14, abs=0)
    # Where the result itself leaves the doubles, the datum is refused
    # by its width and dimension.
    with pytest.raises(ValueError, match=r"width 1e\+103 in dimension 3"):
        InitialDataSpec("gaussian", 1.0, 1e103, 3)
    # A transform sup near the top of the doubles is still one.
    assert InitialDataSpec("gaussian", 1e308 / 16, 1.0, 3).mass() > 9e307
    # Ordinary widths keep the plain transform, and the mass is that
    # transform at 0, bit for bit.
    for w in (0.5, 0.8, 1.0, 1.3, 2.0):
        d = InitialDataSpec("gaussian", 1.7, w, 3)
        assert d.fourier(0.0) == 1.7 * (2.0 * math.pi) ** 1.5 * w ** 3
        assert d.mass() == d.fourier(0.0)


def _random_datum(rng, n, log10_hi=150.0, moment=False):
    """A Gaussian of random width 10^[-150, log10_hi] whose mass (with
    ``moment``, also its first moment) lies within 10^+-250 of 1, so it
    and its norms are ordinary doubles."""
    while True:
        lw = rng.uniform(-150.0, log10_hi)
        lo = max(-300.0, -n * lw - 200.0)
        hi = min(300.0, -n * lw + 200.0,
                 -(n + 1) * lw + 250.0 if moment else math.inf)
        if lo < hi:
            return InitialDataSpec("gaussian",
                                   float(rng.choice([-1.0, 1.0]))
                                   * 10.0 ** rng.uniform(lo, hi),
                                   10.0 ** lw, n)


def test_mass_is_the_transform_at_zero_bit_for_bit():
    # One closed form for P1: fourier and fourier_minus_mass scale by
    # mass(), so no width or amplitude lets the two disagree.  The pair
    # (1.7, 0.8) in dimension 3 once differed by one ulp.
    rng = np.random.default_rng(15)
    data = [InitialDataSpec("gaussian", 1.7, 0.8, 3)]
    data += [_random_datum(rng, n) for n in (1, 2, 3) for _ in range(300)]
    for d in data:
        assert d.mass().hex() == float(d.fourier(0.0)).hex(), d
        assert d.fourier_minus_mass(0.0) == 0.0


def test_mass_is_formed_once_per_datum(monkeypatch):
    # The datum is frozen: its mass is formed when it is built, and the
    # transforms scale by it without forming it again (a decay pass made
    # two _times_width_to calls per fourier call).  A replaced datum
    # forms its own.
    d = InitialDataSpec("gaussian", 1.7, 0.8, 3)
    mass, calls = d.mass(), []
    times_width_to = InitialDataSpec._times_width_to

    def counted(self, c, p):
        calls.append(p)
        return times_width_to(self, c, p)

    monkeypatch.setattr(InitialDataSpec, "_times_width_to", counted)
    r = np.linspace(0.0, 3.0, 7)
    for _ in range(3):
        d.fourier(r), d.fourier_minus_mass(r + 0.1j), d.fourier_sup()
    assert calls == [] and d.mass() == mass
    half = dataclasses.replace(d, amplitude=0.85)
    assert calls == [3] and half.mass() == 0.5 * mass


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_scaled_datum_is_the_revalidated_one(n):
    # scaled(k) sets the amplitude and the mass by ldexp without running
    # the validation again: where the mass stays normal that is the datum
    # validation forms from the scaled amplitude, bit for bit.
    rng = np.random.default_rng(27 + n)
    for _ in range(200):
        d = InitialDataSpec("gaussian", float(rng.uniform(-4.0, 4.0)),
                            float(10.0 ** rng.uniform(-3.0, 3.0)), n)
        k = int(rng.integers(-900, 900))
        ref = dataclasses.replace(d, amplitude=math.ldexp(d.amplitude, k))
        if not 2.0 ** -1022 <= abs(ref.mass()) < math.inf:
            continue
        got = d.scaled(k)
        assert got == ref and got.mass() == ref.mass(), (d, k)
        r = np.array([0.0, 0.3, 1.7]) / d.width
        assert np.array_equal(got.fourier(r), ref.fourier(r))
    z = InitialDataSpec("zero", dimension=n).scaled(-40)
    assert z.amplitude == 0.0 and z.mass() == 0.0 and z.width == 1.0


def test_closed_forms_match_log_space_references():
    # mass, l2_norm and weighted_l1_norm against 30-digit closed forms
    # built in log space, out to widths whose square is near the top of
    # the doubles, where a plain width^2 or width^(n+1) overflows.
    import mpmath as mp
    mp.mp.dps = 30
    rng = np.random.default_rng(154)
    data = [InitialDataSpec("gaussian", a, w, n) for n in (1, 2, 3)
            for a, w in ((1e-300, 1e150), (1e-300, 1e120), (1e-250, 1e80),
                         (1e300, 1e-150), (2.5, 0.7))]
    data += [InitialDataSpec("gaussian", 1e-300, 1e154, n) for n in (1, 2)]
    data += [_random_datum(rng, n, 154.0, moment=True) for n in (1, 2, 3)
             for _ in range(100)]
    for d in data:
        n, log_a, log_w = (d.dimension, mp.log(abs(mp.mpf(d.amplitude))),
                           mp.log(mp.mpf(d.width)))
        mass = mp.exp(log_a + n / mp.mpf(2) * mp.log(2 * mp.pi) + n * log_w)
        l2 = mp.exp(log_a + n / mp.mpf(4) * mp.log(mp.pi)
                    + n / mp.mpf(2) * log_w)
        # omega_n Gamma((n+1)/2) (2 w^2)^((n+1)/2) / 2, omega_n =
        # 2 pi^(n/2) / Gamma(n/2).
        moment = mp.exp(log_a + mp.log(2) + n / mp.mpf(2) * mp.log(mp.pi)
                        - mp.loggamma(mp.mpf(n) / 2)
                        + mp.loggamma(mp.mpf(n + 1) / 2)
                        + (n + 1) / mp.mpf(2) * mp.log(2)
                        + (n + 1) * log_w - mp.log(2))
        assert abs(d.mass()) == pytest.approx(float(mass), rel=1e-14), d
        assert d.l2_norm() == pytest.approx(float(l2), rel=1e-14), d
        assert d.weighted_l1_norm() == pytest.approx(float(mass + moment),
                                                     rel=1e-14), d
    # In dimension 3 the first moment at width 1e154 is 2.5e317 for the
    # smallest normal amplitude: the datum is valid, its I0 is not a
    # double, and weighted_l1_norm says so with inf (it raised a bare
    # OverflowError, which ended `logdamp profile` naming no site).
    assert InitialDataSpec("gaussian", 1e-300, 1e154,
                           3).weighted_l1_norm() == math.inf


def test_width_whose_square_overflows_is_refused_by_name():
    # The transform at 0, 1e-300 * 2 pi * 1e320, is an ordinary double,
    # but width^2 is not: the envelope and l2_norm square the width.
    for n in (1, 2):
        with pytest.raises(ValueError,
                           match=rf"width 1e\+160 in dimension {n}: width\^2"):
            InitialDataSpec("gaussian", 1e-300, 1e160, n)
    assert InitialDataSpec("gaussian", 1e-300, 1e154, 2).mass() > 0.0


def test_real_radius_fields_are_formed_on_first_use():
    # The split integrands read only the phasor: e^{-at}, cos(bt) and
    # sinc(bt) stay unformed until u, u_t, profile or k_terms asks, and
    # then equal the eager formulas bit for bit.
    t, r = 50.0, np.linspace(0.1, 3.0, 30)
    mode = Mode(t, r)
    mode.phasor(InitialDataSpec("gaussian", 1.0, 0.7, 1),
                InitialDataSpec("gaussian", 0.5, 1.3, 1))
    assert not {"env", "cos_bt", "sinc_bt"} & set(vars(mode))
    u = mode.u(1.0, 0.5)
    a, b = symbols.damping_a(r), r * np.sqrt(1.0 - symbols.ratio_g(r))
    bt = b * t
    assert np.array_equal(mode.env, np.exp(-a * t))
    assert np.array_equal(mode.cos_bt, np.cos(bt))
    assert np.array_equal(mode.sinc_bt, sinc(bt))
    assert np.array_equal(u, mode.env * (mode.cos_bt + (0.5 + a) * t
                                         * mode.sinc_bt))


def test_transform_and_phasor_take_complex_radii():
    # The transform is entire; the phasor P = Z e^{lambda t} gives the
    # mode as Re P and its time derivative as Re(lambda P) on real radii.
    g0 = InitialDataSpec("gaussian", 2.0, 0.7, 3)
    g1 = InitialDataSpec("gaussian", 1.0, 1.3, 3)
    z = np.array([0.3 + 0.2j, 2.0 + 0.5j])
    expect = 2.0 * (2.0 * math.pi) ** 1.5 * 0.7 ** 3 * np.exp(-0.245 * z * z)
    assert np.allclose(g0.fourier(z), expect, rtol=1e-14, atol=0.0)
    r = np.geomspace(1e-6, 30.0, 200)
    for t in (0.0, 3.0, 1e3):
        mode = Mode(t, r)
        # The transforms from r^2, as the phasor forms them (far out,
        # where exp amplifies the exponent's last bit, the r form differs
        # by ulps of the exponent).
        u0v, u1v = g0.fourier_of_square(mode.rr), g1.fourier_of_square(mode.rr)
        p = mode.phasor(g0, g1)
        lam = 1j * mode.b - mode.a
        scale = np.abs(u0v) + np.abs(u1v) * max(t, 1.0)
        assert np.all(np.abs(p.real - mode.u(u0v, u1v)) <= 1e-14 * scale)
        assert np.all(np.abs((lam * p).real - mode.u_t(u0v, u1v))
                      <= 1e-13 * scale * (1.0 + r))


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
    # a and g from one kernel call, on both sides of the series cut, at
    # r = 0 and where r*r overflows.
    r = np.concatenate([[0.0], np.geomspace(1e-200, 1e12, 20_001),
                        [2e154, 1e300]])
    assert (r < symbols.G_SERIES_CUT).sum() > 1000
    assert (r > symbols.G_SERIES_CUT).sum() > 1000
    _, rr, a, g, big = symbols.kernel(r)
    with np.errstate(over="ignore"):
        assert rr.tobytes() == (r * r).tobytes()
    assert g.tobytes() == symbols.ratio_g(r).tobytes()
    assert a.tobytes() == symbols.damping_a(r).tobytes()
    assert big.sum() == 2
    for t in (0.0, 0.5, 1e2, 1e8):
        mode = Mode(t, r)
        bt = r * np.sqrt(1.0 - symbols.ratio_g(r)) * t
        assert mode.cos_bt.tobytes() == np.cos(bt).tobytes()
        assert mode.sinc_bt.tobytes() == sinc(bt).tobytes()
        assert mode.a.tobytes() == a.tobytes()
        assert mode.g.tobytes() == g.tobytes()
        assert mode.rr.tobytes() == rr.tobytes()


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


# -- the residual phasor ------------------------------------------------------

_SMALL_AND_COMPLEX = np.array([s * m for s in np.geomspace(1e-7, 2.0, 25)
                               for m in (1.0, 1.0 + 0.3j, 0.5 + 1.0j)])


def test_transform_minus_mass_matches_mpmath_on_complex_radii():
    # A1 = u1_hat - P1 = P1 expm1(-w^2 r^2/2); the plain difference
    # keeps no digit of it below |r| = 1e-8.
    import mpmath as mp
    g1 = InitialDataSpec("gaussian", 1.0, 1.3, 3)
    got = g1.fourier_minus_mass(_SMALL_AND_COMPLEX)
    with mp.workdps(40):
        p1 = mp.mpf(g1.mass())
        ref = [complex(p1 * mp.expm1(-(mp.mpf(1.3) * mp.mpc(r)) ** 2 / 2))
               for r in _SMALL_AND_COMPLEX]
    assert np.all(np.abs(got - ref) <= 4e-16 * np.abs(ref))
    assert np.isrealobj(g1.fourier_minus_mass(np.array([0.0, 1e-5, 3.0])))
    assert InitialDataSpec("zero", dimension=3).fourier_minus_mass(0.2j) == 0


@pytest.mark.parametrize("t, top", [(10.0, 2.0), (1e3, 2.0), (2e7, 5e-4)])
def test_residual_phasor_matches_mpmath(t, top):
    # X = e^{(ir - a)t} (Z e^{i(b - r)t} + i P1/r), formed in mpmath from
    # the raw symbols at 60 digits, where the cancellation of Z e^{i(b-r)t}
    # against i P1/r near r = 0 costs nothing; |r| <= top keeps the
    # phase rt at most 1e4, as the double rt carries an error of ulp(rt),
    # and the radii lie in the kernel's strip |Im r| <= 1/2.
    import mpmath as mp
    from oracles import mp_symbols
    g0 = InitialDataSpec("gaussian", 0.5, 0.8, 2)
    g1 = InitialDataSpec("gaussian", 1.0, 1.3, 2)
    r = _SMALL_AND_COMPLEX[(np.abs(_SMALL_AND_COMPLEX) <= top) & (
        np.abs(_SMALL_AND_COMPLEX.imag) <= symbols.STRIP_HEIGHT)]
    got = Mode(t, r).residual_phasor(g0, g1)
    with mp.workdps(60):
        tm, p1 = mp.mpf(t), mp.mpf(g1.mass())
        ref = []
        for x in r:
            a, b, _, _, _ = mp_symbols(x, dps=60)
            xm = mp.mpc(x)
            u0 = mp.mpf(g0.mass()) * mp.exp(-(mp.mpf(0.8) * xm) ** 2 / 2)
            u1 = p1 * mp.exp(-(mp.mpf(1.3) * xm) ** 2 / 2)
            z = u0 - 1j * (u1 + a * u0) / b
            w = z * mp.exp(1j * (b - xm) * tm) + 1j * p1 / xm
            ref.append(complex(mp.exp(tm * (1j * xm - a)) * w))
    ref = np.array(ref)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))
    # On real radii Re X is the mode minus the profile, whose plain
    # difference carries the roundoff of each, up to eps P1 t near r = 0.
    x = np.geomspace(1e-7, top, 50)
    mode = Mode(t, x)
    diff = mode.u(g0.fourier(x), g1.fourier(x)) - mode.profile(g1.mass())
    X = mode.residual_phasor(g0, g1)
    assert np.all(np.abs(X.real - diff) <= 1e-12 * np.abs(X)
                  + 1e-15 * g1.mass() * t)
