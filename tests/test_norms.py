"""Plancherel norms, energy decay and named integrals."""

import dataclasses
import math
import re

import mpmath as mp
import numpy as np
import pytest

from logdamp import modes, norms, symbols
from logdamp.modes import InitialDataSpec
from logdamp.quadrature import QuadratureSpec, integrate
from oracles import (mp_contour_rows, mp_energy, mp_l2_sq, mp_quad_panels,
                     mp_residual_mean, mp_residual_sq, mp_residual_sq_small_t,
                     mp_weight_tail)

# cosine-transform closed form: int_0^inf cos(b r)/(1+r^2)^2 dr
# = pi (1+b) e^{-b}/4, hence the squared-sine integral below.
M_SIN_3_AT_2 = math.pi ** 2 / 2.0 * (1.0 - 5.0 * math.exp(-4.0))


def gaussian(n, amp=1.0, width=1.0):
    return InitialDataSpec("gaussian", amp, width, n)


def zero(n):
    return InitialDataSpec("zero", dimension=n)


def Q(t):
    """integral_0^inf (1+r^2)^(-t) sin^2(rt)/r^2 dr: M(sin) at n = 1."""
    return norms.M_integral(t, 1, "sin") / 2.0


def R(t):
    """integral_0^inf (1+r^2)^(-t) sin^2(rt)/r dr: M(sin) at n = 2."""
    return norms.M_integral(t, 2, "sin") / (2.0 * math.pi)


# -- L2 norms -----------------------------------------------------------------

def test_plancherel_matches_gaussian_norm_at_start():
    for n in (1, 2, 3):
        got = norms.l2_norm(0.0, gaussian(n), zero(n), n)
        assert got == pytest.approx(math.pi ** (n / 4.0), rel=1e-10)


def test_zero_data_norm():
    assert norms.l2_norm(7.0, zero(2), zero(2), 2) == 0.0


def test_zero_family_is_the_amplitude_zero_gaussian():
    # One zero datum: whatever its width, a zero u0 gives the norms of an
    # amplitude-0 Gaussian u0, bit for bit: the data tail of the envelope
    # ignores the width of an amplitude-0 datum.
    t, n, u1 = 5.0, 3, gaussian(3, 1.0, 2.0)
    u0, flat = InitialDataSpec("zero", 5.0, 0.3, n), gaussian(n, 0.0, 0.3)
    for fn in (norms.l2_norm, norms.energy, norms.residual_norm):
        assert fn(t, u0, u1, n) == fn(t, flat, u1, n)


def test_norm_at_start_is_the_displacement_norm():
    # u(0) = u0 exactly, whatever u1 is; a zero u0 gives exactly 0.
    for n in (1, 2, 3):
        assert norms.l2_norm(0.0, zero(n), gaussian(n), n) == 0.0
        u0 = gaussian(n, 2.0, 0.7)
        got = norms.l2_norm(0.0, u0, gaussian(n), n)
        assert got == pytest.approx(u0.l2_norm(), rel=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_norms_scale_exactly_with_amplitude(n):
    # The equation is linear: at amplitude scale 10^k every norm is the
    # scale times the unit one (the energy its square) across the whole
    # double range, and an energy outside that range names its site.
    t = 10.0
    unit = (gaussian(n, 0.7, 1.3), gaussian(n, 1.9, 0.8))
    l2, res = (fn(t, *unit, n) for fn in (norms.l2_norm, norms.residual_norm))
    e_unit = norms.energy(t, *unit, n)
    for k in range(-300, 301, 20):
        scale = 10.0 ** k
        pair = [dataclasses.replace(d, amplitude=scale * d.amplitude)
                for d in unit]
        assert norms.l2_norm(t, *pair, n) == pytest.approx(scale * l2,
                                                           rel=1e-12, abs=0)
        assert norms.residual_norm(t, *pair, n) == pytest.approx(
            scale * res, rel=1e-12, abs=0)
        decade = 2 * k + math.log10(e_unit)
        if -307.0 < decade < 308.0:
            assert norms.energy(t, *pair, n) == pytest.approx(
                scale * (scale * e_unit), rel=1e-12, abs=0)
        else:
            with pytest.raises(ArithmeticError,
                               match=rf"energy at t={t}: the result "
                                     rf"{'over' if k > 0 else 'under'}flows"):
                norms.energy(t, *pair, n)


@pytest.mark.parametrize("width", [1e105, 1e120, 1e154])
def test_data_that_underflow_when_scaled_are_refused(width):
    # Scaling this pair to a unit transform sup takes the amplitude 1e-300
    # to 0.0 (widths 1e120, 1e154) or to a subnormal of 23 bits (1e105):
    # the norms of the zero pair were 0.0 where the profile norm is
    # 7.5e59 ... 7.5e161 (ROADMAP defect 13).  Each norm names its site.
    u0, u1 = zero(3), gaussian(3, 1e-300, width)
    for fn, site in ((norms.l2_norm, "l2_norm"), (norms.energy, "energy"),
                     (norms.residual_norm, "residual_norm")):
        with pytest.raises(ArithmeticError,
                           match=re.escape(f"{site} at t=100.0: the data "
                                           "underflow when scaled")):
            fn(100.0, u0, u1, 3)
    # A datum whose scaled amplitude keeps 42 bits (width 1e103) is kept.
    # Its transform is a spike of width 1e-103 at r = 0: its residual is
    # the profile norm, and its norm, which no abscissa saw while the
    # envelope's data side held only from r = 1 (the call raised), is
    # t ||u1|| (see test_wide_datum_at_small_t_has_its_closed_form_norms).
    u1 = gaussian(3, 1e-300, 1e103)
    profile = u1.mass() * math.sqrt((2.0 * math.pi) ** -3
                                    * norms.M_integral(100.0, 3, "sin"))
    assert norms.residual_norm(100.0, u0, u1, 3) == pytest.approx(profile,
                                                                  rel=1e-9)
    assert norms.l2_norm(100.0, u0, u1, 3) == pytest.approx(
        100.0 * u1.l2_norm(), rel=1e-10)


def test_data_of_subnormal_mass_are_refused_by_site():
    # Amplitude 1, width 1e-160, n = 2: the mass 6.3e-320 is subnormal,
    # so the scaling to a unit transform sup multiplies the amplitude by
    # 2^1059, and math.ldexp raised a bare OverflowError("math range
    # error") that named no site (ROADMAP defect 18).
    u0, u1 = zero(2), gaussian(2, 1.0, 1e-160)
    for fn, site in ((norms.l2_norm, "l2_norm"), (norms.energy, "energy"),
                     (norms.residual_norm, "residual_norm")):
        with pytest.raises(ArithmeticError,
                           match=re.escape(f"{site} at t=10.0: the data "
                                           "underflow when scaled")):
            fn(10.0, u0, u1, 2)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("t", [1.0, 100.0, 1e4])
def test_wide_datum_at_small_t_has_its_closed_form_norms(n, t):
    # u1 = 1e-300 G(width 1e103): its transform lives on r ~ 1e-103, where
    # e^{-at} = 1 and sin(bt)/b = t to (t/width)^2, so ||u(t)|| = t ||u1||
    # and E(t) = ||u1||^2 / 2, both closed forms.  The envelope's data
    # side counted only from r = 1, so the bound there was 0.0 and
    # integration stopped at R ~ 1 (1e-9 at the least), where no abscissa
    # sees the spike: "l2_norm at t=100.0 did not converge".
    u1 = gaussian(n, 1e-300, 1e103)
    assert norms.l2_norm(t, zero(n), u1, n) == pytest.approx(
        t * u1.l2_norm(), rel=1e-10)
    if n == 3:  # ||u1||^2 underflows for n = 1, 2 (1e-497, 1e-394)
        assert norms.energy(t, zero(n), u1, n) == pytest.approx(
            0.5 * u1.l2_norm() ** 2, rel=1e-10)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match=re.escape(
            "n=1 and the data pair (1, 2) must share a dimension")):
        norms.l2_norm(1.0, gaussian(1), gaussian(2), 1)
    with pytest.raises(ValueError, match=re.escape("n=3 and the data pair "
                                                   "(2, 2)")):
        norms.l2_norm(1.0, gaussian(2), gaussian(2), n=3)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 1e155])
def test_time_outside_the_doubles_is_refused_by_name(t):
    # t^2 must be a double: past that the envelopes and the integrands
    # overflow, and nan or inf used to end on unnamed errors.
    u0, u1 = gaussian(2, 0.5, 0.8), gaussian(2)
    for site, call in (
            ("l2_norm", lambda: norms.l2_norm(t, u0, u1, 2)),
            ("energy", lambda: norms.energy(t, u0, u1, 2)),
            ("residual_norm", lambda: norms.residual_norm(t, u0, u1, 2)),
            ("M_integral(sin)", lambda: norms.M_integral(t, 2, "sin"))):
        with pytest.raises(ValueError, match=re.escape(
                f"{site} at t={t}: t must be finite")):
            call()


def test_time_1e154_still_certifies():
    # n = 2 at t = 1e154: ||u||^2 and M(t, 2, sin) are (pi/2)(log t +
    # gamma + 2 log 2) and E is pi/(2t) up to O(1/t); the residual reads
    # C_2 t^(-1/2), certified relatively (it was certified only to an
    # absolute floor some 1e150 times its size).
    t, u0, u1 = 1e154, gaussian(2, 0.5, 0.8), gaussian(2)
    lead = 0.5 * math.pi * (math.log(t) + 0.5772156649015329
                            + 2.0 * math.log(2.0))
    assert norms.l2_norm(t, u0, u1, 2) ** 2 == pytest.approx(lead, rel=1e-10)
    assert norms.M_integral(t, 2, "sin") == pytest.approx(lead, rel=1e-10)
    assert norms.energy(t, u0, u1, 2) == pytest.approx(0.5 * math.pi / t,
                                                       rel=1e-10)
    assert norms.residual_norm(t, u0, u1, 2) == pytest.approx(
        _leading_residual(2, u0, u1) / math.sqrt(t), rel=1e-9)


@pytest.mark.parametrize("t", [1e77, 1e78, 1e79, 1e80])
def test_residual_below_the_normal_doubles_keeps_its_bits_or_refuses(t):
    # Zero u0, u1 = G(1), n = 8: the residual is C_8 t^-2, and its radial
    # integral D is subnormal from t ~ 1e77.  sqrt((2 pi)^-n omega_n D)
    # rounded the product to a subnormal first: 3.3e-7 off at t = 1e78
    # and 9.9e-3 at 1e79, both passed by the absolute floor, and 0.0 at
    # 1e80.  D's binary exponent now moves out before the product; where
    # D has too few bits to certify, the call says so.
    u0, u1 = zero(8), gaussian(8)
    if t < 1e79:
        assert norms.residual_norm(t, u0, u1, 8) == pytest.approx(
            _leading_residual(8, u0, u1) / t ** 2, rel=1e-9)
    else:
        with pytest.raises(ArithmeticError, match=re.escape(
                f"residual_norm at t={t}: the result underflows")):
            norms.residual_norm(t, u0, u1, 8)


@pytest.mark.parametrize("t", [1e153, 1.34e154])
def test_four_dimensions_certify_up_to_the_t_cap(t):
    # The left side r = iy of l2_norm's contour reaches y ~ 1e-155 here,
    # where its phasor X ~ 1/y: X^2 overflowed before r^3 absorbed it, and
    # the pass raised "integrand returned a non-finite value".  ||u||^2
    # reads its leading law P1^2 (2 pi)^-4 omega_4 Gamma(1) t^-1 / 4.
    u1 = gaussian(4)
    lead = u1.mass() ** 2 * norms.plancherel_constant(4) / (4.0 * t)
    for u0 in (zero(4), gaussian(4, 0.5, 0.8)):
        assert norms.l2_norm(t, u0, u1, 4) ** 2 == pytest.approx(lead,
                                                                 rel=1e-6)


# t from 1e8 to the cap; 5e153 and 1.34e154 are where n = 6 and 8 raised
# "integrand returned a non-finite value" (see the test above).
_SWEEP_TIMES = (1e8, 1e30, 1e60, 1e80, 1e100, 1e130, 1e153, 5e153, 1.34e154)


@pytest.mark.parametrize("n", range(1, 9))
def test_norms_certify_or_refuse_by_site_up_to_the_t_cap(n):
    # Every call returns a finite value or an ArithmeticError or
    # ValueError naming its site (never EvaluationError, never NaN), and
    # every residual it returns reads its leading law C_n t^(-n/4).  The
    # refusals are n >= 5, where D leaves the normal doubles or (l2_norm,
    # n >= 7) ||u||^2 does.
    u1 = gaussian(n)
    for u0 in (zero(n), gaussian(n, 0.5, 0.8)):
        lead = _leading_residual(n, u0, u1)
        for t in _SWEEP_TIMES:
            for fn in (norms.l2_norm, norms.energy, norms.residual_norm):
                try:
                    value = fn(t, u0, u1, n)
                except (ArithmeticError, ValueError) as exc:
                    assert str(exc).startswith(f"{fn.__name__} at t={t}")
                    continue
                assert math.isfinite(value)
                if fn is norms.residual_norm:
                    assert value == pytest.approx(lead / t ** (n / 4.0),
                                                  rel=1e-6)


@pytest.mark.parametrize("n, t", [(6, 1e128), (6, 1e140), (7, 1e110),
                                  (8, 1e92), (8, 1e100)])
def test_l2_norm_at_huge_t_reads_its_leading_law(n, t):
    # The axis's mean |X|^2 ~ t times r^(n-1), r ~ t^(-1/2), went through
    # a subnormal r^(n-1): these calls raised "did not converge" after up
    # to 4 s (ROADMAP defect 19), where ||u|| is a normal double.  Now
    # r^((n-1)/2) goes into X before the square, and ||u||^2 reads its
    # leading law P1^2 (2 pi)^-n omega_n Gamma((n-2)/2) t^(-(n-2)/2) / 4.
    u1 = gaussian(n)
    lead = (u1.mass() ** 2 * norms.plancherel_constant(n)
            * math.gamma((n - 2) / 2.0) * t ** (-(n - 2) / 2.0) / 4.0)
    assert norms.l2_norm(t, zero(n), u1, n) ** 2 == pytest.approx(lead,
                                                                  rel=1e-12)


def test_truncation_radius_past_the_t_cap_is_refused_by_site():
    # At t = 0.52 a datum of width 1e-160 truncates near r = 1e161, where
    # r^2 = inf + iy and numpy's complex product with -w^2/2 read
    # 0 * inf = NaN: "integrand returned a non-finite value at
    # r=1.35e+154".  No contour goes past r = 1.34e154.
    u0, u1 = zero(1), gaussian(1, 1.0, 1e-160)
    for fn in (norms.l2_norm, norms.energy, norms.residual_norm):
        with pytest.raises(ArithmeticError, match=re.escape(
                f"{fn.__name__} at t=0.52: the tail runs past r = 1.34e154")):
            fn(0.52, u0, u1, 1)


@pytest.mark.parametrize("n, t", [(1, 0.5), (1, 1.0), (2, 1.0), (2, 1.5),
                                  (3, 2.0), (4, 2.5), (5, 3.0)])
def test_residual_certifies_at_small_t(n, t):
    # Phase 1 went to a quarter of the absolute floor (1e-9 (|P1| +
    # sup|u0_hat| + sup|u1_hat|))^2, far out on the profile's algebraic
    # tail, and each of these raised "did not converge".  Against the
    # incomplete beta and mpmath's oscillatory quadrature of that tail.
    u0, u1 = zero(n), gaussian(n)
    got = norms.residual_norm(t, u0, u1, n)
    ref = math.sqrt(mp_residual_sq_small_t(t, u0, u1))
    assert got == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("n, t, before", [
    (1, 1.5, 25_440), (2, 2.0, 33_916), (3, 3.0, 6_366), (4, 3.0, 50_851),
    (5, 4.0, 8_475), (6, 4.0, 67_784)])
def test_small_t_residual_takes_a_fifth_of_its_floor_panels(monkeypatch, n,
                                                            t, before):
    # ``before``: the panels these took while phase 1 aimed at the
    # absolute floor.  Zero u0, u1 = G(1).
    panels = _panels(monkeypatch)
    assert norms.residual_norm(t, zero(n), gaussian(n), n) > 0.0
    assert sum(panels) <= before / 5


def test_residual_envelope_overflow_is_refused_by_name():
    # The residual's envelope 2 (1.58 B0 + t B1)^2 overflowed below the t
    # cap while the pair was scaled to a sup in [1/2, 1): residual_norm
    # refused t = 1.3e154 ("the tail envelope overflows at this t"),
    # where l2_norm returns 23.67.  Scaled to [1/4, 1/2) it stays below
    # t^2/2, so the only t refused is the one whose square is no double.
    u0, u1 = gaussian(2, 0.5, 0.8), gaussian(2)
    for t, ref in ((1.3e154, 2.546e-78), (1.34e154, 2.508e-78)):
        assert norms.residual_norm(t, u0, u1, 2) == pytest.approx(ref,
                                                                  rel=1e-3)
    with pytest.raises(ValueError, match=re.escape(
            "residual_norm at t=1.35e+154: t must be finite with t^2 a "
            "double")):
        norms.residual_norm(1.35e154, u0, u1, 2)


@pytest.mark.parametrize("t", [20.0, 1e2, 1e6, 1e8])
def test_contour_radii_lie_in_the_kernel_strip(monkeypatch, t):
    # Every radius of _Split.path's rows, for the four split quantities,
    # lies in the strip; _DIRECT = 0 puts t = 20 and 1e2 on the contour
    # too.  The top side sits at the height min(STRIP_HEIGHT, 24/t, 1/w).
    monkeypatch.setattr(norms, "_DIRECT", 0)
    seen = []

    def kernel(r, kernel=symbols.kernel):
        if np.iscomplexobj(r):
            seen.append(np.asarray(r))
        return kernel(r)

    monkeypatch.setattr(symbols, "kernel", kernel)
    u0, u1 = gaussian(2, 0.5, 0.8), gaussian(2)
    for call in (lambda: norms.l2_norm(t, u0, u1, 2),
                 lambda: norms.energy(t, u0, u1, 2),
                 lambda: norms.residual_norm(t, u0, u1, 2),
                 lambda: norms.M_integral(t, 2, "sin")):
        seen.clear()
        call()
        z = np.concatenate(seen)
        assert z.real.min() >= 0.0
        assert np.abs(z.imag).max() == min(symbols.STRIP_HEIGHT, 24.0 / t)


def test_three_dimensional_rate_between_decades():
    u0, u1 = zero(3), gaussian(3)
    r = norms.l2_norm(1e4, u0, u1, 3) / norms.l2_norm(1e3, u0, u1, 3)
    assert r == pytest.approx(10.0 ** -0.25, rel=0.1)


# -- the mean part and contour past 16 half-periods ---------------------------

def _contours(monkeypatch):
    """Record what each norms._contour call returned."""
    seen, contour = [], norms._contour

    def recorded(*args):
        seen.append(contour(*args))
        return seen[-1]

    monkeypatch.setattr(norms, "_contour", recorded)
    return seen


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("u0", ["zero", "gaussian"])
def test_split_route_matches_mpmath(monkeypatch, n, u0):
    # At t = 1e3 the contour covers [0.2, R], R about 1; mpmath integrates
    # the mode from its characteristic roots on panels of 16 half-periods
    # at 30 digits, and the residual as that mode minus the profile.
    t, u1 = 1e3, gaussian(n, 1.0, 1.3)
    u0 = zero(n) if u0 == "zero" else gaussian(n, 0.5, 0.8)
    seen = _contours(monkeypatch)
    got = norms.l2_norm(t, u0, u1, n) ** 2
    assert got == pytest.approx(float(mp_l2_sq(t, u0, u1)), rel=1e-10)
    if u0.amplitude:
        got = norms.energy(t, u0, u1, n)
        assert got == pytest.approx(float(mp_energy(t, u0, u1)), rel=1e-10)
    count = len(seen)
    got = norms.residual_norm(t, u0, u1, n) ** 2
    assert got == pytest.approx(float(mp_residual_sq(t, u0, u1)), rel=1e-9)
    assert len(seen) > count


@pytest.mark.parametrize("t", [30.0, 1e3])
@pytest.mark.parametrize("n", [4, 5, 8])
def test_dimensions_past_three_match_mpmath(n, t):
    # Every quantity takes n as a parameter (r^(n-1), omega_n, the data's
    # (2 pi)^(n/2) width^n); n = 1-3 are tested throughout, these
    # dimensions here.  At t = 1e3, n = 8 the energy and the squared
    # residual are about 5e-11 and 1e-11, so approx gets no absolute slack.
    u0, u1 = gaussian(n, 0.5, 0.8), gaussian(n)
    for got, ref in ((norms.l2_norm(t, u0, u1, n) ** 2, mp_l2_sq),
                     (norms.energy(t, u0, u1, n), mp_energy),
                     (norms.residual_norm(t, u0, u1, n) ** 2,
                      mp_residual_sq)):
        assert got == pytest.approx(float(ref(t, u0, u1)), rel=1e-12, abs=0)


@pytest.mark.parametrize("u0", ["zero", "gaussian"])
def test_residual_certifies_where_the_difference_hit_the_panel_cap(u0):
    # At t = 2e7 and n = 1 the difference integrand ran to the 200 000-panel
    # cap and raised; the contour route and the K-term route agree.
    t, n = 2e7, 1
    u0, u1 = (zero(n) if u0 == "zero" else gaussian(n, 2.0, 0.7)), gaussian(n)
    got = norms.residual_norm(t, u0, u1, n)
    ref = norms.residual_norm(t, u0, u1, n, method="kterms")
    assert (got / ref) ** 2 == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("t", [1e10, 1e12])
@pytest.mark.parametrize("n", [2, 3])
def test_leading_constants_at_large_t(n, t):
    # Zero u0, u1 of mass P1: ||u||^2 ~ (P1^2/8 pi)(log t + gamma + 2 log 2)
    # for n = 2, with an O(1/t) error, and ~ P1^2 (2 pi)^-3 4 pi
    # Gamma(1/2) t^(-1/2) / 4 for n = 3, with an O(1/t) relative error.
    u1 = gaussian(n)
    p1 = u1.mass()
    if n == 2:
        lead = p1 ** 2 / (8.0 * math.pi) * (math.log(t) + np.euler_gamma
                                            + 2.0 * math.log(2.0))
    else:
        lead = (p1 ** 2 * (2.0 * math.pi) ** -3 * 4.0 * math.pi
                * math.sqrt(math.pi) / (4.0 * math.sqrt(t)))
    assert norms.l2_norm(t, zero(n), u1, n) ** 2 == pytest.approx(lead,
                                                                  rel=1e-10)


@pytest.mark.parametrize("t", [1e16, 1e19])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_energy_leading_term_at_very_large_t(n, t):
    # Zero u0, unit Gaussian u1 (P1^2 = (2 pi)^n): the mean part gives
    # E ~ pi^(n/2) / (2 t^(n/2)).  Truncation radii are ~1/sqrt(t) here,
    # where u_t^2 is not O(r^2): an envelope that took (u_t^2 + r^2 u^2)
    # <= C r^2 below r = 1 stopped too early, 2.4e-10 off at t = 1e16
    # and 3e-7 at 1e19 for n = 1, and still certified 1e-10.
    lead = math.pi ** (n / 2.0) / (2.0 * t ** (n / 2.0))
    assert norms.energy(t, zero(n), gaussian(n), n) == pytest.approx(
        lead, rel=1e-10)


@pytest.mark.parametrize("t", [1e125, 1e150, 1.3e154, 1.34e154])
def test_one_dimension_certifies_up_to_the_t_cap(t):
    # Zero u0, unit Gaussian u1 (P1^2 = 2 pi): ||u||^2 ~ P1^2 t / 2, so
    # ||u|| / sqrt(t) -> sqrt(pi), and ||u - P1 phi|| t^(1/4) -> C_1 with
    # C_1^2 = (2 pi)^-1 P1^2 Gamma(5/2) / 128 = 3 sqrt(pi) / 512.  From
    # t ~ 1e125 on both raised "did not converge": the weight tail
    # coeff * top * e^(-s w) overflowed in its first factors and
    # underflowed in its last, and the envelope read NaN.
    u0, u1 = zero(1), gaussian(1)
    assert norms.l2_norm(t, u0, u1, 1) / math.sqrt(t) == pytest.approx(
        math.sqrt(math.pi), rel=1e-12)
    assert norms.residual_norm(t, u0, u1, 1) * t ** 0.25 == pytest.approx(
        math.sqrt(3.0 * math.sqrt(math.pi) / 512.0), rel=1e-9)


def _panels(monkeypatch):
    """Record the panel count of each norms.integrate call."""
    panels, integrate_ = [], norms.integrate

    def counted(f, spec):
        res = integrate_(f, spec)
        panels.append(res.panels_used)
        return res

    monkeypatch.setattr(norms, "integrate", counted)
    return panels


@pytest.mark.parametrize("n", [1, 2, 3])
def test_norm_and_energy_work_does_not_grow_with_t(monkeypatch, n):
    # Half-period panels to the truncation radius took 40 520 to 45 980
    # (l2_norm) and 39 476 (energy) panels here; the direct route now
    # stops at 16 half-periods, and a call takes about 45.
    panels = _panels(monkeypatch)
    u0, u1 = gaussian(n, 2.0, 0.7), gaussian(n)
    for fn in (norms.l2_norm, norms.energy):
        panels.clear()
        assert fn(1e8, u0, u1, n) > 0.0
        assert 0 < sum(panels) <= 1000


@pytest.mark.parametrize("n", [1, 2, 3])
def test_residual_and_M_work_does_not_grow_with_t(monkeypatch, n):
    # Half-period panels took over 200 000 (residual_norm, at the panel
    # cap) and 39 476 to 49 289 (M_integral) panels here; now a call
    # takes about 45, as l2_norm and energy do.
    panels = _panels(monkeypatch)
    u1 = gaussian(n)
    for call in (lambda: norms.residual_norm(1e8, gaussian(n, 2.0, 0.7), u1,
                                             n),
                 lambda: norms.residual_norm(1e8, zero(n), u1, n),
                 lambda: norms.M_integral(1e8, n, "sin"),
                 lambda: norms.M_integral(1e8, n, "cos")):
        panels.clear()
        assert call() > 0.0
        assert 0 < sum(panels) <= 1000


@pytest.mark.parametrize("call", [
    lambda: norms.l2_norm(1e6, zero(3), gaussian(3), 3),
    lambda: norms.energy(1e6, gaussian(3, 37.9, 1.55), gaussian(3, 0.035, 1.3),
                         3),
    lambda: norms.residual_norm(1e5, zero(3), gaussian(3), 3),
    lambda: norms.residual_norm(1e7, zero(3), gaussian(3), 3),
], ids=["l2_norm", "energy", "residual_1e5", "residual_1e7"])
def test_one_rectangle_per_split_call(monkeypatch, call):
    # Where phase 2 extended a split call, a second rectangle started at
    # r1, its left side cancelling the first one's right side: these took
    # two.  Phase 1's radius now reaches far enough for them.
    seen = _contours(monkeypatch)
    assert call() > 0.0
    assert len(seen) == 1 and seen[0] is not None


def test_contour_falls_back_where_its_bound_does_not_fit(monkeypatch):
    # At t = 2 the contour height is 1/2 and its top side is not small
    # against the mean part of data this narrow (width 0.01), so [0, R]
    # takes half-period panels; the value is the all-direct one.
    t, n = 2.0, 3
    u0, u1 = gaussian(n, 1.0, 0.01), gaussian(n, 1.0, 0.01)
    seen = _contours(monkeypatch)
    got = norms.energy(t, u0, u1, n)
    assert len(seen) == 1 and not seen[0][1] <= 1e-10 * abs(seen[0][0])
    assert got != seen[0][0]
    monkeypatch.setattr(norms, "_K", math.inf)
    assert got == pytest.approx(norms.energy(t, u0, u1, n), rel=1e-12)


_SPLIT_CALLS = [
    lambda n: norms.l2_norm(1e6, gaussian(n, 2.0, 0.7), gaussian(n), n),
    lambda n: norms.energy(1e6, gaussian(n, 2.0, 0.7), gaussian(n), n),
    lambda n: norms.residual_norm(1e6, gaussian(n, 2.0, 0.7), gaussian(n), n),
    lambda n: norms.residual_norm(1e6, zero(n), gaussian(n), n),
    lambda n: norms.M_integral(1e6, n, "sin"),
    lambda n: norms.M_integral(1e6, n, "cos"),
]
_SPLIT_IDS = ["l2_norm", "energy", "residual", "residual_zero_u0", "M_sin",
              "M_cos"]


def _cost(monkeypatch):
    """Record each norms.integrate call, and check that each rule pass of
    it makes one symbols.kernel call: on one radius per abscissa for a
    one-row integrand, and on one or two for the two-row contour piece
    (one on its direct part and on the sides that carry only the right
    side's charge, two on the other sides and the axis)."""
    integrals, kernels = [], []
    kernel, integrate_ = symbols.kernel, norms.integrate

    def counted_kernel(r):
        kernels.append(np.size(r))
        return kernel(r)

    def counted_integrate(f, spec):
        def g(x):
            before = len(kernels)
            y = f(x)
            assert len(kernels) == before + 1
            if np.ndim(y) == 1:
                assert kernels[-1] == np.size(x)
            else:
                assert np.size(x) <= kernels[-1] <= 2 * np.size(x)
            return y
        integrals.append(spec)
        return integrate_(g, spec)

    monkeypatch.setattr(symbols, "kernel", counted_kernel)
    monkeypatch.setattr(norms, "integrate", counted_integrate)
    return integrals, kernels


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("call", _SPLIT_CALLS, ids=_SPLIT_IDS)
def test_split_call_takes_one_integrate_call(monkeypatch, n, call):
    # Half-period panels on [0, delta] (none where the contour starts at
    # r = 0), the contour's sides and its axis run on one path parameter
    # in one integrate call (two calls before, and a mean estimate), and
    # each rule pass of it makes one symbols.kernel call.
    integrals, kernels = _cost(monkeypatch)
    assert call(n) > 0.0
    assert len(integrals) == 1 and integrals[0].lower == 0.0
    assert len(kernels) >= 1


_LARGE_T_CALLS = [
    lambda n, t: norms.l2_norm(t, gaussian(n, 2.0, 0.7), gaussian(n), n),
    lambda n, t: norms.energy(t, gaussian(n, 2.0, 0.7), gaussian(n), n),
    lambda n, t: norms.residual_norm(t, gaussian(n, 2.0, 0.7), gaussian(n),
                                     n),
    lambda n, t: norms.residual_norm(t, zero(n), gaussian(n), n),
    lambda n, t: norms.M_integral(t, n, "sin"),
    lambda n, t: norms.M_integral(t, n, "cos"),
]


@pytest.mark.parametrize("t", [1e9, 1e10, 1e12, 1e16])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("call", _LARGE_T_CALLS, ids=_SPLIT_IDS)
def test_split_call_takes_one_integrate_call_at_large_t(monkeypatch, t, n,
                                                        call):
    # Phase 1 stopped at 1e-40 of the envelope's scale where its bound at
    # r = 1 underflows, short of rel_tol |value| / 4 for the residual at
    # n = 2 from t = 1e10 and n = 3 from 1e9, and for l2_norm at n = 3,
    # t = 1e12: those redid the whole contour.  Phase 1 takes
    # norms._depth where that is deeper, one rule, scale W/(2t)^2, for
    # the residual and the modes; at t = 1e16 l2_norm at n = 2 took two
    # calls while W's lgamma difference lost its digits.
    integrals, _ = _cost(monkeypatch)
    assert call(n, t) > 0.0
    assert len(integrals) == 1 and integrals[0].lower == 0.0


@pytest.mark.parametrize("fn, t, n", [
    ("l2_norm", 1.0, 1), *[("l2_norm", 10.0, n) for n in (1, 2, 3)],
    *[("energy", 8.0, n) for n in (1, 2, 3)]])
def test_split_call_takes_one_integrate_call_at_small_t(monkeypatch, fn, t,
                                                        n):
    # Phase 1 stopped where the envelope bound fell to 1e-4 of its value
    # at r = 1, short of rel_tol |value| / 4 at these t, and each of these
    # calls redid the whole contour (a lemmas-mix pass took 93 integrate
    # calls for its 60 l2_norm calls and 12 for its 9 energy calls).  A
    # split call's phase 1 now goes to norms._depth where that is deeper,
    # at every t.
    integrals, _ = _cost(monkeypatch)
    for a0, w0, a1, w1 in ((2.0, 0.7, 1.0, 1.3), (0.0, 1.0, 1.7, 0.6),
                           (0.3, 1.9, 5.0, 0.5)):
        u0 = gaussian(n, a0, w0) if a0 else zero(n)
        integrals.clear()
        assert getattr(norms, fn)(t, u0, gaussian(n, a1, w1), n) > 0.0
        assert len(integrals) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("call", _SPLIT_CALLS, ids=_SPLIT_IDS)
def test_split_call_takes_two_integrate_calls(monkeypatch, n, call):
    # The rare case: where the envelope bound at phase 1's radius r1
    # still exceeds rel_tol |value| / 4, the call extends once and redoes
    # the contour piece to the new radius r2, so one rectangle remains.
    # Phase 1 is made to stop at an eighth of its radius here; the value
    # stays within its certified tolerance, and each rule pass still
    # makes one symbols.kernel call.
    expect = call(n)
    truncation_point = norms.truncation_point
    radii = []

    def short_first(tail, tol):
        radius, bound = truncation_point(tail, tol)
        if not radii:
            radius, bound = radius / 8.0, tail.bound(radius / 8.0)
        radii.append(radius)
        return radius, bound

    monkeypatch.setattr(norms, "truncation_point", short_first)
    integrals, _ = _cost(monkeypatch)
    got = call(n)
    assert len(integrals) == 2 and len(radii) == 2
    assert [spec.lower for spec in integrals] == [0.0, 0.0]
    assert integrals[0].upper < radii[1] < integrals[1].upper
    assert got == pytest.approx(expect, rel=1e-9)


_ROW_CALLS = {
    "mode": lambda t, u0, u1, n: norms.l2_norm(t, u0, u1, n),
    "energy": lambda t, u0, u1, n: norms.energy(t, u0, u1, n),
    "residual": lambda t, u0, u1, n: norms.residual_norm(t, u0, u1, n),
    "sin": lambda t, u0, u1, n: norms.M_integral(t, n, "sin"),
    "cos": lambda t, u0, u1, n: norms.M_integral(t, n, "cos"),
}


@pytest.mark.parametrize("t", [1e2, 1e6, 1e8])
@pytest.mark.parametrize("kind", list(_ROW_CALLS))
def test_contour_rows_match_mpmath_on_every_segment(monkeypatch, kind, t):
    # Both rows of the contour integrand that ``_Split.path`` writes
    # segment by segment, at three abscissae of each segment (direct,
    # sides, axis), against the same phasor formulas at 30 digits: from
    # c = delta, and where the split may start at r = 0 from c = 0 (no
    # direct part; at odd n the left side, 0, is not evaluated).  Row 0
    # on the sides is -Im h, held to the roundoff of |h|.
    for n in (1, 2, 3):
        for u0 in (zero(n), gaussian(n, 0.5, 0.8)):
            pair = norms._unit_pair(u0, gaussian(n, 1.7, 1.3), "")[:2]
            splits = []
            monkeypatch.setattr(norms, "_two_phase", lambda f, *args, **kw:
                                splits.append(f) or 1.0)
            _ROW_CALLS[kind](t, *pair, n)
            split = splits[0]
            top, hi = split.height, 4.0 * split.delta + split.height
            # c t = 8 pi: no direct abscissa sits on a zero of sin(rt).
            fs = (0.13, 0.47, 0.91)
            for c in (split.delta, 0.0)[:2 if split.origin else 1]:
                s = np.array([f * c for f in fs if c]
                             + [c + f * top for f in fs]
                             + [c + top + f * (hi - c) for f in fs])
                got = split.path(s, c, hi)
                ref, scales = mp_contour_rows(kind, t, n, *pair, s, c, top,
                                              hi)
                for j, ((r0, r1), scale) in enumerate(zip(ref, scales)):
                    tol = 1e-12 * float(abs(r0) if scale is None else scale)
                    assert abs(got[0, j] - float(r0)) <= tol, (n, c, j)
                    assert (abs(got[1, j] - float(r1))
                            <= 1e-12 * abs(float(r1)) + tol), (n, c, j)


@pytest.mark.parametrize("t", [1e2, 1e6])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_phasors_are_real_on_the_imaginary_axis(monkeypatch, n, t):
    # On r = iy, a, g and b/i are real, so every phasor X, and lambda X
    # (the energy's u_t = Re lambda X), is real to the last bit.  h(iy) =
    # X^2/2 (iy)^(n-1) is then real for odd n, and the left side of a
    # contour from c = 0 adds nothing there.
    z = 1j * np.geomspace(1e-9, symbols.STRIP_HEIGHT, 64)
    for u0 in (zero(n), gaussian(n, 0.5, 0.8)):
        pair = norms._unit_pair(u0, gaussian(n, 1.7, 1.3), "")[:2]
        for kind, call in _ROW_CALLS.items():
            splits = []
            monkeypatch.setattr(norms, "_two_phase", lambda f, *args, **kw:
                                splits.append(f) or 1.0)
            call(t, *pair, n)
            mode = modes.Mode(t, z)
            x = splits[0].phasor(mode, z)
            if kind == "energy":
                x = (-mode.a + 1j * mode.b) * x
            assert np.all(x.imag == 0.0), kind
            assert np.isfinite(x.real).all() and x.real.any(), kind


@pytest.mark.parametrize("t", [1e3, 1e6])
@pytest.mark.parametrize("kind, n", [
    ("mode", 3), ("energy", 1), ("energy", 3), ("residual", 1),
    ("residual", 3), ("sin", 3), ("cos", 1), ("cos", 3)])
def test_odd_dimensions_skip_a_left_side_that_adds_nothing(monkeypatch,
                                                          kind, n, t):
    # From c = 0 at odd n the left side is not evaluated and the sides
    # start on one panel.  Evaluated on eight, it changes the value by
    # less than the certified error (rel 1e-9 on the residual's D, 1e-10
    # on the other integrals).
    u0, u1 = gaussian(n, 0.5, 0.8), gaussian(n, 1.7, 1.3)
    skipped = _ROW_CALLS[kind](t, u0, u1, n)
    contour, seen = norms._contour, []

    def evaluated(split, *args):
        seen.append(split.real_left)
        split.real_left = False
        return contour(split, *args)

    monkeypatch.setattr(norms, "_contour", evaluated)
    got = _ROW_CALLS[kind](t, u0, u1, n)
    assert seen == [True]
    assert got == pytest.approx(skipped,
                                rel=1e-9 if kind == "residual" else 1e-10)


def test_odd_dimension_residual_takes_one_rule_pass(monkeypatch):
    # From c = 0 the contour has no direct part, and at n = 3 its sides
    # carry only the right side's charge and start on one panel: one rule
    # pass over 11 panels accepts it (41 panels from c = delta).
    integrate_, seen = norms.integrate, []

    def counted(f, spec):
        passes = []
        res = integrate_(lambda s: passes.append(s.size) or f(s), spec)
        seen.append((len(passes), res.panels_used))
        return res

    monkeypatch.setattr(norms, "integrate", counted)
    assert norms.residual_norm(1e6, zero(3), gaussian(3), 3) > 0.0
    assert len(seen) == 1 and seen[0][0] == 1 and seen[0][1] <= 11


def test_split_call_evaluates_no_transform_of_zero_data(monkeypatch):
    # Half of each benchmark grid has u0 = 0: the phasors take the scalar
    # 0.0 for it and form no term of it, so no transform of an
    # amplitude-0 datum is evaluated (each cost a complex exp per radius).
    # The split path takes the transforms from the kernel's r^2.
    seen = []
    for name in ("fourier", "fourier_minus_mass", "fourier_of_square"):
        method = getattr(InitialDataSpec, name)
        def counted(self, *args, method=method, name=name):
            seen.append((name, self.amplitude))
            return method(self, *args)
        monkeypatch.setattr(InitialDataSpec, name, counted)
    for t in (1e2, 1e6):
        for n in (1, 2, 3):
            u1 = gaussian(n, 1.7, 1.3)
            norms.l2_norm(t, zero(n), u1, n)
            norms.energy(t, zero(n), u1, n)
            norms.residual_norm(t, zero(n), u1, n)
            norms.l2_norm(t, u1, zero(n), n)
    assert {name for name, _ in seen} == {"fourier_of_square"}
    assert 0.0 not in {amplitude for _, amplitude in seen}


@pytest.mark.parametrize("call", [
    lambda: norms.l2_norm(1e6, zero(3), gaussian(3, 1.7, 1.3), 3),
    lambda: norms.energy(1e4, zero(2), gaussian(2, 1.7, 1.3), 2),
    lambda: norms.residual_norm(1e6, zero(1), gaussian(1, 1.7, 1.3), 1),
], ids=["l2_norm", "energy", "residual"])
def test_split_pass_from_the_origin_is_lean(monkeypatch, call):
    # A rule pass from c = 0 makes one symbols.kernel call on all its
    # radii and transforms only the nonzero datum, once, from the
    # kernel's r^2.  Its radii lie above G_SERIES_CUT, so g is a*a/r^2 at
    # every one of them, bit for bit: the series does not run.
    passes, transforms = [], []
    kernel, path = symbols.kernel, norms._Split.path

    def counted_kernel(r):
        out = kernel(r)
        passes[-1].append(out)
        return out

    def counted_path(self, s, c, hi):
        assert c == 0.0
        passes.append([])
        return path(self, s, c, hi)

    for name in ("fourier_of_square", "fourier_minus_mass_of_square"):
        method = getattr(InitialDataSpec, name)
        def counted(self, *args, method=method):
            transforms.append(self.amplitude)
            return method(self, *args)
        monkeypatch.setattr(InitialDataSpec, name, counted)
    monkeypatch.setattr(symbols, "kernel", counted_kernel)
    monkeypatch.setattr(norms._Split, "path", counted_path)
    assert call() > 0.0
    assert passes and all(len(kernels) == 1 for kernels in passes)
    assert len(transforms) == len(passes) and 0.0 not in transforms
    for (r, rr, a, g, big), in passes:
        assert big is None and np.abs(r).min() >= symbols.G_SERIES_CUT
        assert g.tobytes() == (a * a / rr).tobytes()


def test_residual_at_the_panel_cap_raises_by_site():
    # The K-term route keeps half-period panels to its truncation radius:
    # at t = 1e10 that is about 500 000 of them, over the 200 000-panel
    # cap, so it raises by site without evaluating the integrand.  (The
    # difference integrand of the default route stopped at the cap here,
    # unconverged, and returned 0.0018469..., 4.6e-9 off on D against its
    # certified 1e-9: ROADMAP defect 11.)
    with pytest.raises(ArithmeticError,
                       match=re.escape("residual_norm at t=10000000000.0 "
                                       "did not converge")):
        norms.residual_norm(1e10, gaussian(1, 0.5, 0.8), gaussian(1), 1,
                            method="kterms")


def test_unconverged_direct_piece_raises(monkeypatch):
    # An unconverged piece may carry an error estimate that looks small;
    # the half-line route refuses it instead of certifying its value.
    integrate_ = norms.integrate

    def unconverged(f, spec):
        res = integrate_(f, spec)
        return (dataclasses.replace(res, converged=False)
                if spec.lower == 0.0 else res)

    monkeypatch.setattr(norms, "integrate", unconverged)
    with pytest.raises(ArithmeticError,
                       match=re.escape("l2_norm at t=1000000.0 did not "
                                       "converge")):
        norms.l2_norm(1e6, gaussian(2, 2.0, 0.7), gaussian(2), 2)


@pytest.mark.parametrize("site, call", [
    ("energy at t=1000000.0", lambda: norms.energy(
        1e6, gaussian(3, 2.0, 0.7), gaussian(3), 3)),
    ("residual_norm at t=1000000.0", lambda: norms.residual_norm(
        1e6, gaussian(1, 0.5, 0.8), gaussian(1), 1)),
    ("M_integral(sin) at t=1000000.0", lambda: norms.M_integral(
        1e6, 2, "sin")),
], ids=["energy", "residual", "M_sin"])
def test_unconverged_contour_piece_raises(monkeypatch, site, call):
    # The one contour piece carries the direct part, the mean part and
    # the left side in one row: a converged=False there raises by site,
    # and no half-period fallback hides it.
    integrate_, rows = norms.integrate, []

    def unconverged(f, spec):
        def g(x):
            y = f(x)
            rows.append(np.ndim(y))
            return y
        res = integrate_(g, spec)
        return dataclasses.replace(res, converged=False)

    monkeypatch.setattr(norms, "integrate", unconverged)
    with pytest.raises(ArithmeticError,
                       match=re.escape(f"{site} did not converge")):
        call()
    assert rows and set(rows) == {2}


# Defect 11: n = 1 and 2, u0 = 0.5 G(0.8), u1 = G(1).  The difference
# integrand on [0, delta] cancelled two terms of size P1 t: at t = 1e9
# the default route was 1.8e-9 off on D (n = 1), and at 1e10 and 1e12
# it raised at the panel cap.

@pytest.mark.parametrize("n", [1, 2])
def test_residual_at_large_t_matches_the_kterm_route(n):
    u0, u1 = gaussian(n, 0.5, 0.8), gaussian(n)
    got = norms.residual_norm(1e9, u0, u1, n)
    ref = norms.residual_norm(1e9, u0, u1, n, method="kterms")
    assert (got / ref) ** 2 == pytest.approx(1.0, abs=1e-9)


def _leading_residual(n, u0, u1):
    """C_n with ||u(t) - P1 phi(t)|| t^(n/4) -> C_n, from the closed form
    C_n^2 = (2 pi)^(-n) omega_n [P0^2 Gamma(n/2)/2 - P0 P1 Gamma(n/2+1)/8
    + P1^2 Gamma(n/2+2)/128] / 2, P_i = amplitude (2 pi)^(n/2) width^n
    the data masses."""
    p0, p1 = (d.amplitude * (2.0 * math.pi) ** (n / 2.0) * d.width ** n
              for d in (u0, u1))
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    g = math.gamma(n / 2.0)
    return math.sqrt(0.5 * (2.0 * math.pi) ** -n * area * (
        p0 * p0 * g / 2.0 - p0 * p1 * g * (n / 2.0) / 8.0
        + p1 * p1 * g * (n / 2.0) * (n / 2.0 + 1.0) / 128.0))


@pytest.mark.parametrize("t", [1e10, 1e12])
@pytest.mark.parametrize("n", [1, 2])
def test_residual_direct_part_matches_mpmath_past_the_kterm_route(
        monkeypatch, n, t):
    # The K-term route raises here; the residual certifies and reads the
    # closed-form leading constant C_n.  Its contour starts at r = 0, so
    # the direct part [0, delta] is gone; the mean part its one integrate
    # call takes on the first axis panel [0, x0] in its place integrates
    # to the 30-digit mpmath value of |X|^2/2 r^(n-1) there, where the
    # phasor's terms of size P1 t cancel.
    u0, u1 = gaussian(n, 0.5, 0.8), gaussian(n)
    seen, integrate_, contour = [], norms.integrate, norms._contour

    def recorded(f, spec):
        seen.append((f, spec))
        return integrate_(f, spec)

    def recorded_contour(split, *args):
        seen.append(split)
        return contour(split, *args)

    monkeypatch.setattr(norms, "integrate", recorded)
    monkeypatch.setattr(norms, "_contour", recorded_contour)
    got = norms.residual_norm(t, u0, u1, n) * t ** (n / 4.0)
    assert got == pytest.approx(_leading_residual(n, u0, u1), rel=1e-8)
    split, (f, spec) = seen
    top = split.height
    axis = min(bp for bp in spec.breakpoints if bp > top)
    assert spec.breakpoints[0] == 0.0  # c = 0: no direct breakpoints
    mean = integrate_(lambda s: f(s)[0], QuadratureSpec(
        top, axis, rel_tol=1e-14))
    ref = float(mp_residual_mean(t, *norms._unit_pair(u0, u1, "")[:2],
                                 axis - top))
    assert mean.converged
    assert mean.value == pytest.approx(ref, rel=1e-13, abs=0)


# -- energy -------------------------------------------------------------------

def test_energy_closed_form_at_start():
    got = norms.energy(0.0, zero(1), gaussian(1), 1)
    assert got == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-10)
    g0 = gaussian(1, amp=2.0, width=0.7)
    # ||grad u0||^2 = amp^2 n / (2 w^2) (pi w^2)^(n/2), here n = 1.
    grad_sq = 2.0 ** 2 / (2.0 * 0.7 ** 2) * math.sqrt(math.pi * 0.7 ** 2)
    expect = 0.5 * (gaussian(1).l2_norm() ** 2 + grad_sq)
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


def test_high_band_residual_superpolynomial():
    # envelope C t^2 2^{-t} for the squared band mass, fitted at t = 20
    for n in (1, 2, 3):
        hb20 = norms.residual_norm(20.0, zero(n), gaussian(n), n,
                                   band="high")
        hb30 = norms.residual_norm(30.0, zero(n), gaussian(n), n,
                                   band="high")
        env = hb20 ** 2 / (20.0 ** 2 * 2.0 ** -20) * 30.0 ** 2 * 2.0 ** -30
        assert hb30 ** 2 <= env


@pytest.mark.parametrize("t, n", [(0.5, 3), (1.0, 4), (1.5, 5)])
def test_residual_outside_the_profile_domain_names_itself(t, n):
    # For P1 != 0 the profile squares like r^(n-3-2t) at large r, so it
    # is in L^2 only when 2t > n - 2; the call says so before quadrature.
    for band in ("high", "both"):
        with pytest.raises(ValueError,
                           match=rf"^residual_norm at t={t}: .* n={n} "):
            norms.residual_norm(t, zero(n), gaussian(n), n, band=band)
    # Without velocity mass the profile is zero and the residual finite.
    assert norms.residual_norm(t, gaussian(n), zero(n), n) > 0.0


@pytest.mark.parametrize("t, n", [(1.0, 3), (0.5, 2)])
def test_residual_refuses_panels_wider_than_a_half_period(t, n):
    # The profile's algebraic tail needs more half-period panels than the
    # budget.  Widened panels returned 0.650 (n = 3) and 1.315 (n = 2) as
    # certified; blockwise quadrature to r = 1e4 plus the profile tail
    # gives 1.854 and 1.906.
    with pytest.raises(ArithmeticError,
                       match=re.escape(f"residual_norm at t={t} did not "
                                       "converge")):
        norms.residual_norm(t, gaussian(n, 2.0, 0.7), gaussian(n), n)


def test_high_band_tail_is_charged_where_integration_stops():
    # At t = 5000 the envelope is 0.0 in double precision from r = 1 on,
    # so the high band is certified 0 by the bound at its lower limit,
    # with no absolute floor.
    t, u0, u1 = 5000.0, zero(3), gaussian(3)
    p1 = modes.decompose_data(u1).P1

    def f(r):
        mode = modes.Mode(t, r)
        d = mode.u(u0.fourier(r), u1.fourier(r)) - mode.profile(p1)
        return d * d * r * r

    tail = norms._envelope(t, u0, u1, 3, p1=p1)
    assert tail.bound(1.0) == 0.0
    assert norms._two_phase(f, tail, 2.0 * t, 1e-9, "high band",
                            lower=1.0) == 0.0


def test_residual_argument_validation():
    for band in ("low", "mid"):
        with pytest.raises(ValueError, match="band"):
            norms.residual_norm(1.0, zero(1), gaussian(1), 1, band=band)
    with pytest.raises(ValueError):
        norms.residual_norm(1.0, zero(1), gaussian(1), 1, method="oracle")


# -- one symbol pass per abscissa --------------------------------------------

@pytest.mark.parametrize("call, split", [
    (lambda u0, u1: norms.l2_norm(50.0, u0, u1, 2), False),
    (lambda u0, u1: norms.energy(50.0, u0, u1, 2), False),
    (lambda u0, u1: norms.residual_norm(50.0, u0, u1, 2), False),
    (lambda u0, u1: norms.residual_norm(50.0, u0, u1, 2, method="kterms"),
     False),
    (lambda u0, u1: norms.l2_norm(1e6, u0, u1, 2), True),
    (lambda u0, u1: norms.energy(1e6, u0, u1, 2), True),
    (lambda u0, u1: norms.residual_norm(1e6, u0, u1, 2), True),
    (lambda u0, u1: norms.residual_norm(1e6, u0, u1, 2, method="kterms"),
     False),
], ids=["l2_norm", "energy", "residual_difference", "residual_kterms",
        "l2_norm_split", "energy_split", "residual_split",
        "residual_kterms_1e6"])
def test_integrands_evaluate_the_damping_symbol_once(monkeypatch, call,
                                                     split):
    # A half-period panel abscissa is one radius; an abscissa of the
    # contour piece (a two-row vector integrand) is one on its direct
    # part (below the c that _Split.path is handed) and two past it: the
    # mean part and the top side, or the left and right sides (n = 2:
    # the left side is evaluated from c = 0 too).  Each radius gets the
    # damping symbol once.
    seen = {"symbol": 0, "radii": 0, "contour": 0}
    kernel, integrate_, contour = symbols.kernel, norms.integrate, \
        norms._contour

    def counted_kernel(r):
        seen["symbol"] += np.size(r)
        return kernel(r)

    def counted_contour(split, *args):
        seen["contour"] += 1
        path = split.path

        def counted_path(s, c, hi):  # the second radius past c
            seen["radii"] += np.count_nonzero(s >= c)
            return path(s, c, hi)
        split.path = counted_path
        return contour(split, *args)

    def direct(f, spec):
        def g(x):
            seen["radii"] += np.size(x)
            return f(x)
        return integrate_(g, spec)

    monkeypatch.setattr(symbols, "kernel", counted_kernel)
    monkeypatch.setattr(norms, "integrate", direct)
    monkeypatch.setattr(norms, "_contour", counted_contour)
    call(gaussian(2, 2.0, 0.7), gaussian(2))
    assert seen["radii"] > 0
    assert seen["symbol"] == seen["radii"]
    assert (seen["contour"] > 0) == split


# -- one certify path ---------------------------------------------------------

@pytest.mark.parametrize("site, t, call", [
    ("l2_norm", 5.0, lambda t: norms.l2_norm(t, zero(3), gaussian(3), 3)),
    ("energy", 5.0, lambda t: norms.energy(t, gaussian(3, 2.0, 0.7),
                                           gaussian(3), 3)),
    ("residual_norm", 5.0,
     lambda t: norms.residual_norm(t, zero(3), gaussian(3), 3)),
    ("residual_norm high band", 5.0,
     lambda t: norms.residual_norm(t, zero(3), gaussian(3), 3, band="high")),
    ("M_integral(sin)", 5.0, lambda t: norms.M_integral(t, 3, "sin")),
    ("M_integral(cos)", 5.0, lambda t: norms.M_integral(t, 3, "cos")),
    ("M_integral(sin)", 5.0, lambda t: norms.M_integral(t, 1, "sin")),
    ("M_integral(sin)", 5.0, lambda t: norms.M_integral(t, 2, "sin")),
    ("l2_norm", 1e6, lambda t: norms.l2_norm(t, zero(3), gaussian(3), 3)),
    ("energy", 1e6, lambda t: norms.energy(t, gaussian(3, 2.0, 0.7),
                                           gaussian(3), 3)),
    ("residual_norm", 1e6,
     lambda t: norms.residual_norm(t, zero(3), gaussian(3), 3)),
    ("M_integral(sin)", 1e6, lambda t: norms.M_integral(t, 1, "sin")),
], ids=["l2_norm", "energy", "residual_both", "residual_high", "M_sin",
        "M_cos", "M_sin_n1", "M_sin_n2", "l2_norm_split", "energy_split",
        "residual_split", "M_sin_split"])
def test_uncertified_quantity_raises_naming_its_site(monkeypatch, site, t,
                                                     call):
    # At t = 5 every band carries weight, and with 2 panels no call can
    # meet its tolerance.
    # At t = 1e6 the contour piece's initial panels (its 16 half-periods,
    # eight side panels and the geometric axis) do not fit in 2 panels.
    assert math.isfinite(call(t))
    integrate_ = norms.integrate
    monkeypatch.setattr(norms, "integrate", lambda f, spec: integrate_(
        f, dataclasses.replace(spec, max_panels=2)))
    with pytest.raises(ArithmeticError,
                       match=re.escape(f"{site} at t={t} did not converge")):
        call(t)


# -- named integrals ----------------------------------------------------------

def test_oscillating_integral_against_closed_form():
    got = norms.M_integral(2.0, 3, "sin")
    assert got == pytest.approx(M_SIN_3_AT_2, rel=1e-9)


@pytest.mark.parametrize("n, t", [(n, t) for n in (1, 2)
                                  for t in (1.5, 2.0, 1e2)])
def test_sine_weight_at_low_dimension_matches_oracle(n, t):
    # Quadrature to R = k pi / t, where sin(2Rt) = 0, plus the closed-form
    # mean tail: the neglected oscillating tail is below |w'(R)| / (4t^2).
    k = math.ceil((200.0 if t < 10.0 else 5.0) * t / math.pi)
    cut = k * math.pi / t

    def f(r):
        return (1 + r * r) ** (-t) * mp.sin(r * t) ** 2 * r ** (n - 3)

    ref = modes.sphere_area(n) * float(
        mp_quad_panels(f, 0, cut, omega=2.0 * t)
        + mp_weight_tail(t, n - 3, cut) / 2)
    assert norms.M_integral(t, n, "sin") == pytest.approx(ref, rel=1e-9)


def test_oscillating_integral_bands():
    for n, kind, expo in ((3, "sin", 0.5), (4, "sin", 1.0),
                          (1, "cos", 0.5), (2, "cos", 1.0)):
        vals = [norms.M_integral(t, n, kind) * t ** expo
                for t in (1e2, 1e3, 1e4)]
        assert max(vals) / min(vals) <= 1.5


def test_oscillating_integral_domain():
    with pytest.raises(ValueError):
        norms.M_integral(1.0, 1, "sin")
    with pytest.raises(ValueError):
        norms.M_integral(0.5, 3, "sin")
    with pytest.raises(ValueError):
        norms.M_integral(5.0, 1, "tan")


def test_linear_growth_integral():
    vals = {t: Q(t) for t in (1e2, 1e3, 1e4)}
    ratios = [vals[t] / t for t in vals]
    assert all(1.0 <= q <= 2.0 for q in ratios)
    assert max(ratios) / min(ratios) <= 1.2


def test_linear_growth_integral_window_witness():
    # on [5pi/4t, 7pi/4t] the squared sine is at least 1/2
    t = 100.0
    nu, nup = 5.0 * math.pi / (4.0 * t), 7.0 * math.pi / (4.0 * t)
    w = integrate(lambda r: np.exp(-t * np.log1p(r * r)) / (r * r),
                  QuadratureSpec(nu, nup, rel_tol=1e-12))
    assert 0.5 * w.value <= Q(t)
    # short-wave region alone already gives ~t/4
    wl = integrate(lambda r: np.exp(-t * np.log1p(r * r)),
                   QuadratureSpec(0.0, 1.0 / t, rel_tol=1e-12))
    assert t * t / 4.0 * wl.value <= Q(t)


def test_log_growth_integral():
    vals = {t: R(t) / math.log(t) for t in (1e3, 1e4, 1e6)}
    assert all(0.1 <= v <= 1.0 for v in vals.values())
    assert max(vals.values()) / min(vals.values()) <= 1.25
    r4 = R(1e4) / math.log(1e4)
    r6 = R(1e6) / math.log(1e6)
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
        assert R(t) >= 0.5 * total


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


def test_log_operator_norms_one_pass_against_closed_forms(monkeypatch):
    # vhat = e^{-r^2/2}, n = 1: int e^{-r^2} = sqrt(pi)/2 and
    # int r^4 e^{-r^2} = 3 sqrt(pi)/8; the log weight from mpmath.
    import mpmath as mp
    from logdamp import quadrature
    seen = {"vhat": 0, "rule": 0, "calls": 0}
    panel_rule, integrate_ = quadrature._panel_rule, norms.integrate

    def counting_integrate(f, spec):
        seen["calls"] += 1
        return integrate_(f, spec)

    def counting_rule(f, a, b):
        seen["rule"] += len(quadrature._XGK) * len(a)
        return panel_rule(f, a, b)

    def vhat(r):
        seen["vhat"] += r.size
        return np.exp(-0.5 * r * r)

    monkeypatch.setattr(quadrature, "_panel_rule", counting_rule)
    monkeypatch.setattr(norms, "integrate", counting_integrate)
    got = norms.log_operator_norms(vhat, 1, 12.0, rel_tol=1e-11)
    c1 = norms.plancherel_constant(1)
    with mp.workdps(30):
        log_w = mp.quad(lambda r: mp.log(1 + r * r) ** 2 * mp.exp(-r * r),
                        [0, 2, 12])
    exact = (math.sqrt(c1 * math.sqrt(math.pi) / 2.0),
             math.sqrt(c1 * 3.0 * math.sqrt(math.pi) / 8.0),
             math.sqrt(c1 * float(log_w)))
    for g, e in zip(got, exact):
        assert g == pytest.approx(e, rel=1e-11)
    # One shared panelling: one call, vhat once per abscissa.
    assert seen["calls"] == 1
    assert seen["vhat"] == seen["rule"] > 0


def test_log_operator_norms_refuses_uncertified():
    with pytest.raises(ArithmeticError, match="log_operator_norms"):
        norms.log_operator_norms(lambda r: np.exp(-0.5 * r * r), 3, 12.0,
                                 rel_tol=1e-30)
