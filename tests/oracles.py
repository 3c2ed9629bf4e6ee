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

    A complex r takes the principal branches of log and sqrt.  log(1 +
    r^2) is mpmath's log1p, which keeps its digits where r^2 is below
    the working precision (1 + r^2 rounds to 1 from |r| ~ 1e-20 at 40
    digits)."""
    with mp.workdps(dps):
        rm = mp.mpmathify(r)
        lg = mp.log1p(rm * rm)
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


def _mp_phasor(kind, t, u0, u1):
    """r -> (X, a, lambda) at the working precision for the phasor X of
    ``kind``: "mode" or "energy", X = Z e^{lambda t}; "residual", X =
    e^{(ir - a)t} (Z e^{i(b - r)t} + i P1/r); "sin", X = -i e^{(ir - a)t}/r;
    "cos", X = e^{(ir - a)t}.  Z = u0 - i(u1 + a u0)/b and lambda = -a +
    ib with b = sqrt(r^2 - a^2) (the roots' form; the package takes
    r sqrt(1 - g)), in complex arithmetic."""
    tm = mp.mpf(t)
    p1 = mp.mpf(u1.mass())

    def transform(d, r):
        if d.amplitude == 0.0:
            return mp.mpf(0)
        w = mp.mpf(d.width)
        return mp.mpf(d.mass()) * mp.exp(-(w * r) ** 2 / 2)

    def phasor(r):
        r = mp.mpmathify(r)
        a = mp.log(1 + r * r) / 2
        b = mp.sqrt(r * r - a * a)
        lam = -a + 1j * b
        if kind in ("sin", "cos"):
            x = mp.exp(tm * (1j * r - a))
            return (-1j * x / r if kind == "sin" else x), a, lam
        v0, v1 = transform(u0, r), transform(u1, r)
        z = v0 - 1j * (v1 + a * v0) / b
        if kind == "residual":
            x = mp.exp(tm * (1j * r - a)) * (
                z * mp.exp(1j * (b - r) * tm) + 1j * p1 / r)
        else:
            x = z * mp.exp(lam * tm)
        return x, a, lam
    return phasor


def mp_residual_mean(t, u0, u1, hi, dps=30):
    """The integral of |X|^2/2 r^(n-1) over [0, hi] for the residual
    phasor X of ``_mp_phasor``, the mean part of the residual's split, on
    one Gauss-Legendre panel (it does not oscillate).  Its terms of size
    P1/r cancel to about r relative near r = 0, which 30 digits absorb."""
    n = u0.dimension
    with mp.workdps(dps):
        phasor = _mp_phasor("residual", t, u0, u1)
        return mp_quad_panels(lambda r: abs(phasor(r)[0]) ** 2 / 2
                              * r ** (n - 1), 0, hi, dps=dps)


def mp_contour_rows(kind, t, n, u0, u1, s, c, top, hi, dps=30):
    """The two rows of ``norms._contour``'s integrand at the path
    parameters s, from the phasor X of ``_mp_phasor`` (``kind``).

    Row 0 is (Re X)^2 r^(n-1) (the energy ((Re lambda X)^2 +
    r^2 (Re X)^2) r^(n-1)) below c, -Im h(c + iy) for y = s - c < top
    and the mean at x = s - top past that, with h = X^2/2 r^(n-1)
    (-a lambda X^2 r^(n-1)) and the mean |X|^2/2 r^(n-1)
    (r^2 |X|^2 r^(n-1)); row 1 adds |h(hi + iy)| on the sides and
    |h(x + i top)| on the axis.  Also returns |h| where row 0 is -Im h,
    the scale of its roundoff.
    """
    with mp.workdps(dps):
        energy = kind == "energy"
        phasor = _mp_phasor(kind, t, u0, u1)

        def h(r):
            x, a, lam = phasor(r)
            w = -a * lam if energy else mp.mpf(1) / 2
            return w * x * x * mp.mpmathify(r) ** (n - 1)

        rows, scales = [], []
        for si in s:
            si = mp.mpf(si)
            if si < c:
                x, a, lam = phasor(si)
                v = mp.re(x) ** 2
                if energy:
                    v = mp.re(lam * x) ** 2 + si * si * v
                v, extra, scale = v * si ** (n - 1), 0, None
            elif si < c + top:
                y = si - c
                left = h(mp.mpc(c, y))
                v, extra = -mp.im(left), abs(h(mp.mpc(hi, y)))
                scale = abs(left)
            else:
                x = si - top
                xv = phasor(x)[0]
                w = x * x if energy else mp.mpf(1) / 2
                v = w * abs(xv) ** 2 * x ** (n - 1)
                extra, scale = abs(h(mp.mpc(x, top))), None
            rows.append((v, v + extra))
            scales.append(scale)
        return rows, scales


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


def mp_residual_sq_small_t(t, u0, u1, cut=40, dps=30):
    """||u(t) - P1 phi(t)||^2 where the profile's tail is algebraic (small
    t): the integrand of ``mp_residual_sq`` on [0, cut], plus the profile
    term alone past ``cut``, where data of width >= 1 have transforms
    below e^-800,

        P1^2/2 int_cut^inf (1+r^2)^(-t) r^(n-3) (1 - cos 2rt) dr,

    its mean part the incomplete beta of ``mp_weight_tail`` and its
    oscillating part by ``mp.quadosc``.
    """
    n = u0.dimension
    with mp.workdps(dps):
        tm = mp.mpf(t)
        f = _mp_mode_integrand(t, u0, u1, False, True)
        near = mp_quad_panels(f, 0, cut, omega=2.0 * float(t), dps=dps,
                              half_periods=4)
        osc = mp.quadosc(lambda r: (1 + r * r) ** -tm * r ** (n - 3)
                         * mp.cos(2 * r * tm), [cut, mp.inf],
                         omega=2 * tm)
        p1 = mp.mpf(u1.mass())
        far = p1 * p1 / 2 * (mp_weight_tail(t, n - 3, cut, dps) - osc)
        area = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        return (near + far) * area / (2 * mp.pi) ** n
