"""Independent reference computations used by the test suite.

Everything here deliberately avoids the package's own quadrature path:
values come from mpmath (tanh-sinh / Gauss-Legendre at >= 30 significant
digits) over explicit panels of one or a few half-periods, or from
closed forms.
"""

import mpmath as mp


def mp_quad_panels(f, a, b, omega=0.0, dps=40, half_periods=1):
    """Extended-precision quadrature with half-period panelling.

    When ``omega`` > 0 the interval is split so no panel spans more than
    ``half_periods`` half-periods pi/omega, which keeps mpmath's rules
    honest on oscillatory integrands.  Each panel uses mpmath's
    Gauss-Legendre rule, which converges fast on these smooth panels:
    it raises its degree until two degrees agree to the working
    precision.
    """
    with mp.workdps(dps):
        a, b = mp.mpf(a), mp.mpf(b)
        if omega > 0.0:
            n = int(mp.ceil((b - a) * omega / (mp.pi * half_periods)))
            n = max(n, 1)
        else:
            n = 1
        pts = [a + (b - a) * k / n for k in range(n + 1)]
        return mp.quad(f, pts, method="gauss-legendre")


def mp_weight_tail(t, p, lo, dps=40):
    """integral of (1+r^2)^(-t) r^p over [lo, inf), for 2t > p + 1.

    A closed form: with x = 1/(1+r^2) it is half the incomplete beta
    function B(1/(1+lo^2); t-(p+1)/2, (p+1)/2) (DLMF 8.17).  Quadrature
    to infinity loses ~1e-11 relative on the slow algebraic tails near
    2t = p + 1.
    """
    with mp.workdps(dps):
        t, p, lo = mp.mpf(t), mp.mpf(p), mp.mpf(lo)
        return mp.betainc(t - (p + 1) / 2, (p + 1) / 2,
                          0, 1 / (1 + lo * lo)) / 2


def mp_symbols(r, dps=40):
    """High-precision (a, b, g, b - r, 1/b - 1/r) from the raw formulas.

    A complex r takes the principal branches of log and sqrt."""
    with mp.workdps(dps):
        rm = mp.mpmathify(r)
        lg = mp.log(1 + rm * rm)
        a = lg / 2
        g = lg * lg / (4 * rm * rm)
        b = rm * mp.sqrt(1 - g)
        return a, b, g, b - rm, 1 / b - 1 / rm


def mp_energy(t, u0, u1, dps=30):
    """Energy of the damped wave at time t for radial Gaussian/zero data."""
    return _mp_squared_mode(t, u0, u1, True, dps)


def mp_l2_sq(t, u0, u1, dps=30):
    """||u(t)||^2 for radial Gaussian/zero data, by the route of mp_energy."""
    return _mp_squared_mode(t, u0, u1, False, dps)


def mp_residual_sq(t, u0, u1, dps=30):
    """||u(t) - P1 phi(t)||^2, the mode of mp_l2_sq minus the profile
    P1 e^{-at} sin(rt)/r (P1 the mass of u1), on the same panels."""
    return _mp_squared_mode(t, u0, u1, False, dps, profile=True)


def mp_residual_piece(t, u0, u1, hi, dps=30):
    """The radial integral of (u_hat - P1 phi)^2 r^(n-1) over [0, hi],
    the integrand of mp_residual_sq, on one Gauss-Legendre panel per
    half-period of the 2t oscillation.  u_hat and the profile cancel to
    about 1/(P1 t) relative there, which 30 digits absorb."""
    with mp.workdps(dps):
        f = _mp_mode_integrand(t, u0, u1, False, True)
        return mp_quad_panels(f, 0, hi, omega=2.0 * float(t), dps=dps)


def _mp_mode_integrand(t, u0, u1, energy, profile):
    """u_hat^2 r^(n-1), (u_hat - P1 phi)^2 r^(n-1) with the ``profile``,
    or (u_t^2 + r^2 u_hat^2) r^(n-1) / 2 for the energy, at the working
    precision.

    Each mode is built from the characteristic roots l_pm = -a +/- ib of
    v'' + 2a v' + r^2 v = 0 in complex arithmetic, so none of the
    package's real-form rewrites enter.
    """
    n = u0.dimension
    tm = mp.mpf(t)

    def transform(d, r):
        if d.family == "zero":
            return mp.mpf(0)
        w = mp.mpf(d.width)
        return (mp.mpf(d.amplitude) * (2 * mp.pi) ** (mp.mpf(n) / 2)
                * w ** n * mp.exp(-(w * r) ** 2 / 2))

    def f(r):
        a = mp.log(1 + r * r) / 2
        lp = mp.mpc(-a, mp.sqrt(r * r - a * a))
        lm = mp.conj(lp)
        ep, em = mp.exp(lp * tm), mp.exp(lm * tm)
        dl = lp - lm
        v0, v1 = transform(u0, r), transform(u1, r)
        u = ((lp * em - lm * ep) * v0 + (ep - em) * v1) / dl
        if profile:
            u -= transform(u1, 0) * mp.exp(-a * tm) * mp.sin(r * tm) / r
        if not energy:
            return abs(u) ** 2 * r ** (n - 1)
        ut = (lp * lm * (em - ep) * v0 + (lp * ep - lm * em) * v1) / dl
        return (abs(ut) ** 2 + r * r * abs(u) ** 2) * r ** (n - 1) / 2
    return f


def _mp_squared_mode(t, u0, u1, energy, dps, profile=False):
    """(2 pi)^(-n) omega_n times the radial integral of the integrand of
    ``_mp_mode_integrand``.

    The radial integral stops where the Gaussian (not with the profile,
    which has none) and damping factors are below e^-80.  Its
    Gauss-Legendre panels span 16 half-periods of the 2t oscillation:
    one Gauss-Legendre degree serves a panel of many half-periods, so at
    t = 1e3 this takes a fifth of the evaluations of one panel per
    half-period, and the two agree to 30 digits.
    """
    n = u0.dimension
    with mp.workdps(dps):
        tm = mp.mpf(t)
        f = _mp_mode_integrand(t, u0, u1, energy, profile)
        wmin = 0 if profile else min(d.width for d in (u0, u1)
                                     if d.family != "zero")
        cut = 1e-3
        while (wmin * cut) ** 2 + tm * mp.log(1 + cut * cut) < 80:
            cut *= 1.1
        val = mp_quad_panels(f, 0, cut, omega=2.0 * float(t), dps=dps,
                             half_periods=16)
        area = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        return val * area / (2 * mp.pi) ** n
