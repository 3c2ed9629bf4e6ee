"""sinc: pinned bit for bit to sin(x)/x above the cut, the series below;
expm1_i against mpmath."""

import warnings

import mpmath as mp
import numpy as np
import pytest

from logdamp.stable import expm1_i, sinc

CUT = 1e-3


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).tobytes()


def _expected(x):
    """sin(x)/x over the whole array, then the series where |x| < 1e-3."""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    series = 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = np.sin(x) / x
    return np.where(np.abs(x) < CUT, series, direct)


def _grid():
    x = np.concatenate([[0.0, CUT, np.nextafter(CUT, 0.0),
                         np.nextafter(CUT, 1.0)],
                        np.geomspace(1e-300, 1e8, 4001)])
    return np.concatenate([x, -x])


def test_sinc_is_direct_above_the_cut_and_series_below():
    x = _grid()
    got = sinc(x)
    assert _bits(got) == _bits(_expected(x))
    assert got[0] == 1.0
    assert np.all(np.abs(got) <= 1.0)


def test_sinc_raises_no_warning_at_zero():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sinc(0.0) == 1.0
        assert np.all(sinc(np.zeros(5)) == 1.0)
        assert sinc(-0.0) == 1.0


@pytest.mark.parametrize("x", [0.0, 1e-3, -1e-3, 5e-4, -2.5, 1e6, 3])
def test_sinc_of_a_scalar_is_a_float(x):
    for arg in (x, np.float64(x), np.array(x)):
        out = sinc(arg)
        assert type(out) is float
        assert _bits(out) == _bits(_expected(float(x)))


def test_sinc_of_a_view_keeps_its_shape_and_bits():
    base = _grid()[:4000].reshape(40, 100)
    for view in (base[:, ::3], base.T, base[::-1, 1::7]):
        assert not view.flags.c_contiguous
        out = sinc(view)
        assert out.shape == view.shape
        assert _bits(out) == _bits(_expected(view))
        assert _bits(out) == _bits(sinc(np.ascontiguousarray(view)))


def test_expm1_i_matches_mpmath_on_complex_arguments():
    # d = (b - r)t of a contour radius: tiny near r = 0, complex off the
    # axis.  e^{id} - 1 formed directly is off by 1e-16/|d| relative.
    ds = [s * m for s in np.geomspace(1e-300, 30.0, 61)
          for m in (1.0, -1.0, 0.6 + 0.8j, 0.3 - 2.0j, 1j)]
    got = expm1_i(np.array(ds, dtype=complex))
    for d, value in zip(ds, got):
        with mp.workdps(40):
            ref = mp.expm1(1j * mp.mpc(d))
        assert abs(value - complex(ref)) <= 4e-16 * abs(complex(ref)), d
