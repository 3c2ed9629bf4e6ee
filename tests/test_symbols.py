"""Frequency-symbol layer: exact values, stability, and the proof bounds."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdamp import symbols
from oracles import mp_symbols

RADII = np.exp(np.random.default_rng(7).uniform(
    math.log(1e-8), math.log(1e8), 10_000))


VIEWS = (symbols.damping_a, symbols.ratio_g, symbols.oscillation_b,
         symbols.b_minus_r, symbols.inv_b_minus_inv_r)


def test_origin_values():
    assert [view(0.0) for view in VIEWS] == [0.0] * 5
    r, rr, a, g, big = symbols.kernel(0.0)
    assert r.shape == rr.shape == a.shape == g.shape == () and big is None
    assert rr == 0.0 and a == 0.0 and g == 0.0


def test_values_at_unit_radius():
    a, b = symbols.damping_a(1.0), symbols.oscillation_b(1.0)
    assert a == pytest.approx(math.log(2.0) / 2.0, rel=1e-15)
    # b(1) = sqrt(4 - log(2)^2)/2
    assert b == pytest.approx(math.sqrt(4.0 - math.log(2.0) ** 2) / 2.0,
                              rel=1e-15)
    assert b == pytest.approx(0.9380227857149578, rel=1e-14)
    ratio = (a / b) ** 2
    assert ratio == pytest.approx(0.13651, abs=1e-5)
    assert ratio <= 1.0 / 3.0
    assert all(type(view(1.0)) is float for view in VIEWS)


def test_domain_errors():
    for bad in (-1.0, math.nan, math.inf):
        for fn in (symbols.kernel, *VIEWS):
            with pytest.raises(ValueError):
                fn(bad)
            with pytest.raises(ValueError):
                fn(np.array([1.0, bad]))


@given(r=st.floats(min_value=0.0, max_value=1e8, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_pythagorean_identity(r):
    # a^2 + b^2 = r^2 is the Vieta product of the roots -a +/- ib.
    a, b = symbols.damping_a(r), symbols.oscillation_b(r)
    assert a ** 2 + b ** 2 == pytest.approx(r * r, rel=8 * 2.3e-16)


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
    _, rr, a, g, big = symbols.kernel(r)
    assert g.tobytes() == expected.tobytes() and big is None
    assert rr.tobytes() == x.tobytes()
    assert a.tobytes() == (0.5 * np.log1p(x)).tobytes()
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
        r = float(r)
        assert symbols.damping_a(r) == pytest.approx(float(a), rel=1e-14)
        assert symbols.oscillation_b(r) == pytest.approx(float(b), rel=1e-14)
        assert symbols.ratio_g(r) == pytest.approx(float(g), rel=1e-13,
                                                   abs=1e-300)
        assert symbols.b_minus_r(r) == pytest.approx(float(bmr), rel=1e-12,
                                                     abs=1e-300)
        assert symbols.inv_b_minus_inv_r(r) == pytest.approx(
            float(invd), rel=1e-12, abs=1e-300)


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
    # The kernel masks the overflowing square; ordinary arrays get None.
    assert symbols.kernel(np.array([1.0, r]))[4].tolist() == [False, True]
    assert symbols.kernel(np.array([1.0, 1e154]))[4] is None


@pytest.mark.parametrize("r", [1e200, 1e300, 1.7e308])
def test_stable_differences_where_r_squared_overflows(r):
    # b - r = -a (a/r)/2 there, and 1/b - 1/r ~ a^2/(2 r^3) underflows.
    # Resolving b - r against r takes ~2 log10(r) digits in mpmath.
    bmr, invd = (float(x) for x in mp_symbols(r, dps=700)[3:])
    assert symbols.b_minus_r(r) == pytest.approx(bmr, rel=1e-15, abs=0.0)
    assert symbols.inv_b_minus_inv_r(r) == invd == 0.0
    arr = symbols.b_minus_r(np.array([0.0, 1.0, r]))
    assert arr[1] == symbols.b_minus_r(1.0) and arr[2] == symbols.b_minus_r(r)
    arr = symbols.inv_b_minus_inv_r(np.array([0.0, 1.0, r]))
    assert arr[0] == arr[2] == 0.0
    assert arr[1] == symbols.inv_b_minus_inv_r(1.0)


# Left sides of the contour rectangles [delta, R] x [0, Y] of
# norms._contour: delta = 16 pi / (2t) for t = 1e3 ... 1e12 (and the
# 128 pi / (2t) of earlier versions).
_DELTAS = [16.0 * math.pi / (2.0 * 10.0 ** k) for k in range(3, 13)]
# Radii on the rectangles' sides, from |r| = 2e-10 to where |r^2| passes
# 1/2, where log1p takes the cancellation-free complex form.
_SIDES = np.concatenate([
    d + 1j * np.geomspace(1e-14, 0.5, 40)
    for d in (2.0e-10, 2.0e-6, 2.0e-4, 0.2, *_DELTAS)] + [
    np.geomspace(2e-10, 50.0, 60) + 1j * y for y in (2.4e-11, 2.4e-5, 0.5)])


# Radii from 1e-150 to 1e-3, on both sides of G_SERIES_CUT: real ones,
# and on rays into the strip, with r = iy (the left side of a contour
# from the origin).
_TINY = np.geomspace(1e-150, 1e-3, 60)
_TINY_STRIP = np.concatenate([_TINY * np.exp(1j * phi)
                              for phi in (0.3, -0.8, 1.2)] + [1j * _TINY])


def _check_kernel_against_mp(z):
    """a, g and b = r sqrt(1 - g) of ``kernel`` at the radii z against
    the 40-digit raw formulas: 4e-16 relative on a and b, 1e-15 on g."""
    _, _, a, g, big = symbols.kernel(z)
    assert big is None
    for zi, ai, gi in zip(z, a, g):
        ma, mb, mg = (complex(x) for x in mp_symbols(zi)[:3])
        assert abs(ai - ma) <= 4e-16 * abs(ma), zi
        assert abs(gi - mg) <= 1e-15 * abs(mg), zi
        assert abs(zi * np.sqrt(1.0 - gi) - mb) <= 4e-16 * abs(mb), zi


def test_complex_symbols_against_high_precision():
    for z in (_SIDES, _TINY, _TINY_STRIP):
        _check_kernel_against_mp(z)
    for z in (_TINY, _TINY_STRIP):
        below = np.abs(z) < symbols.G_SERIES_CUT
        assert below.sum() > 20 and (~below).sum() > 20
    # numpy's complex log1p loses 9e-7 relative here.
    z = (1e-5 + 3e-6j) ** 2
    ref = complex(mp.log1p(mp.mpc(z)))
    assert abs(symbols._log1p_complex(np.array([z]))[0] - ref) \
        <= 2e-16 * abs(ref)
    # Real radii keep the real path: the same bits as before.
    real = np.geomspace(1e-8, 1e3, 50)
    assert symbols.kernel(real)[2].dtype == float


def test_g_stays_inside_the_unit_disc_on_the_contour_strip():
    # norms._contour needs |g| < 1 on each rectangle's boundary, so that
    # (maximum modulus) sqrt(1 - g) and 1/b are analytic inside.  Every
    # rectangle has height Y <= 1/2 and left side x = delta > 0 or x = 0;
    # sample the strip 0 <= x <= 1e8, 0 <= y <= 1/2 on a log grid in x.
    # Past it |g| <= |a|^2/|r|^2 keeps falling.  There also
    # Re lambda = -Re a - Im b <= -0.75 y, the decay of the left side.
    x = np.concatenate([[0.0], np.geomspace(1e-12, 1e8, 4001), _DELTAS])
    y = np.concatenate([[0.0], np.geomspace(1e-12, 0.5, 200)])
    z = (x[None, :] + 1j * y[:, None]).ravel()
    _, _, a, g, _ = symbols.kernel(z)
    assert np.abs(g).max() < 0.17
    lam = -a + 1j * z * np.sqrt(1.0 - g)
    assert np.all(lam.real <= -0.75 * z.imag)


def test_real_radii_keep_their_bits_on_the_complex_path():
    # The contour piece sends its real radii (the direct part and the
    # axis) through the complex kernel with the complex ones: a is the
    # real path's to the bit (log1p of the real part), g within 2 ulp
    # (complex division multiplies by a reciprocal).
    r = np.concatenate([[0.0], np.geomspace(1e-300, 1e154, 20001),
                        np.geomspace(8e-12, 30.0, 2001)])
    _, _, a, g, _ = symbols.kernel(r)
    _, _, ac, gc, _ = symbols.kernel(r + 0j)
    assert np.all(ac.imag == 0.0) and np.all(gc.imag == 0.0)
    assert np.array_equal(ac.real, a)
    assert np.all(np.abs(gc.real - g) <= 2.0 * np.spacing(g))


def test_complex_domain_errors():
    # Off the strip |Im r| <= 1/2: just past its edge, a NaN imaginary
    # part (also where |r| is small, so the |r| <= 1/2 shortcut must not
    # let it through), and the old cut r = iy, |y| >= 1.
    y, nan = symbols.STRIP_HEIGHT + 1e-9, math.nan
    for bad in (-1.0 + 0.5j, 1.5j, -1.5j, 1j, -1j, 3.0 + 1j,
                complex(math.nan, 0.0), complex(1.0, math.inf),
                complex(0.3, y), complex(0.3, -y), complex(2.0, y),
                complex(0.0, y), complex(1.0, nan), complex(0.0, nan),
                complex(1e-6, nan)):
        for radii in ([bad], [1.0 + 0.1j, bad], [bad, 1e3 + 0j]):
            with pytest.raises(ValueError, match="^complex radius"):
                symbols.kernel(np.array(radii))
    assert symbols.kernel(0.5j)[2] == pytest.approx(0.5 * math.log(0.75))


def test_kernel_on_the_strip_edge():
    # Im r = +-1/2 along the whole edge, and r = iy, |y| <= 1/2 (the left
    # side of a contour from the origin), against the raw formulas; y
    # reaches 1e-150, below the series cut, as do real radii.
    h = symbols.STRIP_HEIGHT
    x = np.concatenate([[0.0], np.geomspace(1e-12, 1e3, 60)])
    y = np.concatenate([np.geomspace(1e-150, 1e-12, 30),
                        np.geomspace(1e-12, h, 60)])
    z = np.concatenate([x + 1j * h, x - 1j * h, 1j * y, -1j * y])
    assert np.abs(z.imag).max() == h
    assert (np.abs(z) < symbols.G_SERIES_CUT).sum() > 20
    _check_kernel_against_mp(z)
    _check_kernel_against_mp(y)


def test_extended_precision_mode_digits():
    import mpmath as mp
    x = 0.37
    a, b = mp_symbols(x, dps=35)[:2]
    with mp.workdps(35):
        ref = mp.log(1 + mp.mpf(x) ** 2) / 2
        assert mp.almosteq(a, ref, rel_eps=mp.mpf(10) ** -30)
        assert mp.almosteq(a ** 2 + b ** 2, mp.mpf(x) ** 2,
                           rel_eps=mp.mpf(10) ** -30)


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
