"""Correctness gate: each call's value against a reference from another route.

Routes, by ``Call.ref``:

* ``mp_I``, ``mp_J``, ``mp_middle``: the weight integrals as (incomplete)
  beta functions in mpmath at 40 digits, or mpmath quadrature on [0, 1]
  where the beta parameter is too small for the beta route;
* ``mp_gamma``: Gamma(t - 1/2)/Gamma(t) from mpmath log-gamma at 50 digits;
* ``gauss_moments``: ||v|| and ||Av|| of a Gaussian-bump profile as
  closed-form truncated Gaussian moments at 30 digits; ||Lv|| is held
  to the bounds ||Lv|| <= ||Av|| and ||Lv|| <= (2/e)(||v|| + ||Av||);
* ``m_table``: M_integral values tabulated once by ``m_integral_mp``;
* ``mp_energy``: the energy from the defining mode formulas, integrated in
  mpmath with 12-point Gauss-Legendre panels no wider than a half-period;
* ``linearity``: the unit-amplitude l2_norm times the amplitude scale;
* ``self_consistency``: the same function recomputed at rel_tol 1e-12;
  this checks the quadrature, not the formulas;
* ``kterms``: residual_norm by its K-term integrand.

A call fails when it raises, returns a non-finite value or misses the
reference by more than its certified tolerance plus the reference's
own.  Values below 1e-300 are certified only absolutely, because that
is the engine's default absolute tolerance.
"""

from __future__ import annotations

import math

import mpmath as mp
from mpmath.calculus.quadrature import GaussLegendre

from logdamp import norms

from workloads import BumpProfile

class ReferenceFailed(Exception):
    """The reference route itself could not produce a value."""


EPS = 2.0 ** -52
ABS_FLOOR = 1e-300

# Functions whose value is a square root of the certified integral; the
# gate compares their squares.
_SQRT_VALUED = {"l2_norm", "residual_norm", "log_operator_norms"}

# (defect, predicate) pairs: a failing call matched here is a known
# defect of the library and leaves ``correct`` true; any other failure
# makes the run incorrect.
KNOWN_DEFECTS = (
    ("J_p_direct cannot split panels near t = 1",
     lambda c: c.fn == "J_p_direct" and c.args[0] < 2.0),
    ("gamma_ratio loses eps * lgamma(t)",
     lambda c: c.fn == "gamma_ratio"),
    ("l2_norm is not scale-safe beyond amplitude 1e+-100",
     lambda c: c.ref == "linearity"
     and abs(math.log10(c.ref_args[0])) > 100.0),
    ("middle_band and log_operator_norms ignore converged",
     lambda c: c.fn in ("middle_band", "log_operator_norms")),
    ("residual_norm difference integrand hits the panel cap",
     lambda c: c.fn == "residual_norm" and c.args[0] >= 5e6),
)

# M_integral(t, n, kind) from ``m_integral_mp`` at 30 digits.
M_TABLE = {
    (100.0, 3, "sin"): "0.5589318557029633437252439",
    (1000.0, 3, "sin"): "0.1761520589456787655641719",
    (10000.0, 3, "sin"): "0.05568536820007800652466458",
    (100.0, 4, "sin"): "0.05009702503908618037528237",
    (1000.0, 4, "sin"): "0.0049422130539837253840918",
    (10000.0, 4, "sin"): "0.0004935542507247991736871632",
    (100.0, 1, "cos"): "0.0889567676866525864534297",
    (1000.0, 1, "cos"): "0.02803547091701969663286949",
    (10000.0, 1, "cos"): "0.00886260160693465333214671",
    (100.0, 2, "cos"): "0.01578688078883159517793026",
    (1000.0, 2, "cos"): "0.001571582116271169883535162",
    (10000.0, 2, "cos"): "0.000157087487053685156522584",
}


def known_defect(call) -> str | None:
    for name, matches in KNOWN_DEFECTS:
        if matches(call):
            return name
    return None


# -- weight integrals -------------------------------------------------------

def _beta_ab(t, p):
    """Beta parameters of the weight after x = 1/(1 + r^2)."""
    return t - (p + 1) / 2, (p + 1) / 2


def _quad_weight(t, p, lo, hi):
    return mp.quad(lambda r: mp.exp(-t * mp.log1p(r * r)) * r ** p, [lo, hi])


def mp_weight(t: float, p: float, eta: float = 0.0, upper=None):
    """integral_eta^upper (1+r^2)^(-t) r^p dr; upper None means infinity.

    With x = 1/(1 + r^2) the integral is half an incomplete beta
    function B(x; a, b) with a = t - (p+1)/2 and b = (p+1)/2.
    """
    with mp.workdps(40):
        t, p, eta = mp.mpf(t), mp.mpf(p), mp.mpf(eta)
        a, b = _beta_ab(t, p)
        x_lo = mp.mpf(0) if upper is None else 1 / (1 + mp.mpf(upper) ** 2)
        x_hi = 1 / (1 + eta * eta)
        if upper is not None and a <= 0.5:
            return _quad_weight(t, p, eta, mp.mpf(upper))
        # Below 1e-310 the value is an absolute-floor comparison anyway.
        if a * mp.log(x_hi) < -720:
            return mp.mpf(0)
        return mp.betainc(a, b, x_lo, x_hi) / 2


def mp_I(t: float, p: float):
    with mp.workdps(40):
        a, _ = _beta_ab(mp.mpf(t), mp.mpf(p))
        if a <= 0.5:
            return _quad_weight(mp.mpf(t), mp.mpf(p), 0, 1)
        whole = mp.beta(a, (mp.mpf(p) + 1) / 2) / 2
        return whole - mp_weight(t, p, eta=1.0)


def mp_gamma(t: float):
    with mp.workdps(50):
        t = mp.mpf(t)
        return mp.exp(mp.loggamma(t - mp.mpf(1) / 2) - mp.loggamma(t))


# -- Gaussian-bump profiles -------------------------------------------------

def _trunc_moments(qs, mu, sig, radius):
    """integral_0^radius r^q exp(-(r - mu)^2 / (2 sig^2)) dr for q in qs.

    With r = mu + sig x the integrand is a polynomial in x times the
    normal density, whose moments T_k over [x0, x1] obey
    T_k = [-x^(k-1) e^(-x^2/2)] + (k - 1) T_(k-2).
    """
    x0, x1 = -mu / sig, (radius - mu) / sig
    e0, e1 = mp.exp(-x0 * x0 / 2), mp.exp(-x1 * x1 / 2)
    root2 = mp.sqrt(2)
    ts = [mp.sqrt(mp.pi / 2) * (mp.erf(x1 / root2) - mp.erf(x0 / root2)),
          e0 - e1]
    for k in range(2, max(qs) + 1):
        ts.append(x0 ** (k - 1) * e0 - x1 ** (k - 1) * e1
                  + (k - 1) * ts[k - 2])
    return [sig * mp.fsum(math.comb(q, k) * mu ** (q - k) * sig ** k * ts[k]
                          for k in range(q + 1)) for q in qs]


def gauss_moments(profile: BumpProfile, n: int, radius: float):
    """(||v||^2, ||Av||^2) over [0, radius] for the bump profile v."""
    with mp.workdps(30):
        bumps = [(mp.mpf(c), mp.mpf(m), mp.mpf(s)) for c, m, s
                 in zip(profile.cs, profile.mus, profile.sigmas)]
        radius = mp.mpf(radius)
        v2 = av2 = mp.mpf(0)
        for i, (ci, mi, si) in enumerate(bumps):
            for j, (cj, mj, sj) in enumerate(bumps[i:], i):
                ss = si * si + sj * sj
                sig = si * sj / mp.sqrt(ss)
                mu = (mi * sj * sj + mj * si * si) / ss
                k = (1 if i == j else 2) * ci * cj \
                    * mp.exp(-(mi - mj) ** 2 / (2 * ss))
                m_v, m_av = _trunc_moments((n - 1, n + 3), mu, sig, radius)
                v2 += k * m_v
                av2 += k * m_av
        cn = (2 * mp.pi) ** (-n) * _sphere(n)
        return cn * v2, cn * av2


# -- oscillatory integrals on Gauss-Legendre panels -------------------------

def _gl_panels(f, radius, width, degree: int = 3):
    """Composite Gauss-Legendre (3 * 2^(degree-1) nodes) on [0, radius]."""
    nodes = GaussLegendre(mp.mp).calc_nodes(degree, mp.mp.prec)
    npan = max(1, int(mp.ceil(radius / width)))
    h = radius / npan
    total = mp.mpf(0)
    for k in range(npan):
        c = h * (k + mp.mpf(1) / 2)
        total += mp.fsum(w * f(c + h / 2 * x) for x, w in nodes)
    return total * h / 2


def _sphere(n):
    return 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)


def m_integral_mp(t: float, n: int, kind: str):
    """M_integral at 30 digits on half-period panels.

    The panels reach the radius where (1+r^2)^(-t) drops below e^-75.
    """
    with mp.workdps(30):
        t = mp.mpf(t)
        radius = mp.sqrt(mp.expm1(75 / t))
        if kind == "sin":
            def f(r):
                return mp.exp(-t * mp.log1p(r * r)) * mp.sin(r * t) ** 2 \
                    * r ** (n - 3)
        else:
            def f(r):
                return mp.exp(-t * mp.log1p(r * r)) * mp.cos(r * t) ** 2 \
                    * r ** (n - 1)
        return _sphere(n) * _gl_panels(f, radius, mp.pi / (2 * t), degree=4)


def _mp_transform(d, n, r):
    if d.family == "zero":
        return mp.mpf(0)
    w = mp.mpf(d.width)
    return mp.mpf(d.amplitude) * (2 * mp.pi) ** (mp.mpf(n) / 2) * w ** n \
        * mp.exp(-(w * r) ** 2 / 2)


def energy_mp(t: float, u0, u1, n: int):
    """E(t) from the mode formulas with a^2 + b^2 = r^2, at 30 digits."""
    with mp.workdps(30):
        t = mp.mpf(t)

        def f(r):
            a = mp.log1p(r * r) / 2
            b = mp.sqrt(r * r - a * a)
            s = mp.sin(b * t) / b if b else t
            c = mp.cos(b * t)
            v0, v1 = _mp_transform(u0, n, r), _mp_transform(u1, n, r)
            env = mp.exp(-a * t)
            u = env * (v0 * c + (v1 + a * v0) * s)
            ut = env * (v1 * c - (a * v1 + r * r * v0) * s)
            return (ut * ut + (r * u) ** 2) * r ** (n - 1)

        wmin = min(d.width for d in (u0, u1) if d.family != "zero")
        # Data decay exp(-w^2 r^2) and damping (1+r^2)^(-t) below e^-90.
        radius = mp.sqrt(90) / wmin
        if t > 0:
            radius = min(radius, mp.sqrt(mp.expm1(90 / t)))
        width = min(mp.mpf(1) / 2, mp.pi / (2 * t) if t > 0 else 1)
        cn = (2 * mp.pi) ** (-n) * _sphere(n)
        return cn * _gl_panels(f, radius, width) / 2


# -- the gate -----------------------------------------------------------------

def _reference(call):
    """(reference value, reference tolerance) for one call."""
    fn, args, kind = call.fn, call.args, call.ref
    if kind == "mp_I":
        return mp_I(args[0], args[1]), 0.0
    if kind == "mp_J":
        return mp_weight(args[0], args[1], eta=1.0), 0.0
    if kind == "mp_middle":
        eta, p, t = args
        return mp_weight(t, p, eta=eta, upper=1.0), 0.0
    if kind == "mp_gamma":
        return mp_gamma(args[0]), 0.0
    if kind == "m_table":
        return mp.mpf(M_TABLE[(args[0], args[1], args[2])]), 0.0
    if kind == "mp_energy":
        return energy_mp(*args), 0.0
    if kind == "gauss_moments":
        return gauss_moments(args[0], args[1], args[2]), 0.0
    func = getattr(norms, fn)
    if kind == "linearity":
        scale, u0, u1 = call.ref_args
        return scale * func(call.args[0], u0, u1, call.args[3]), call.tol
    if kind == "self_consistency":
        return func(*args, **{**call.kwargs, "rel_tol": 1e-12}), 1e-12
    if kind == "kterms":
        return func(*args, **{**call.kwargs, "method": "kterms"}), call.tol
    raise ValueError(f"unknown reference route {kind!r}")


def _close(fn, got: float, ref, tol: float) -> bool:
    ref = float(ref)
    if fn in _SQRT_VALUED:
        if ref == 0.0:
            return got == 0.0
        return abs((got / ref) ** 2 - 1.0) <= tol + 4 * EPS
    return abs(got - ref) <= (tol + 4 * EPS) * abs(ref) + ABS_FLOOR


def check_call(call, value) -> str | None:
    """None when the call meets its reference, else the reason it fails."""
    if isinstance(value, BaseException):
        return f"raised {type(value).__name__}: {value}"
    values = value if isinstance(value, tuple) else (value,)
    if not all(math.isfinite(v) for v in values):
        return f"non-finite value {value!r}"
    try:
        ref, ref_tol = _reference(call)
    except Exception as exc:  # the gate reports it; the run goes on
        raise ReferenceFailed(f"reference {call.ref} failed: "
                              f"{type(exc).__name__}: {exc}") from exc
    tol = call.tol + ref_tol
    if call.ref == "gauss_moments":
        nv, nav, nlv = value
        v2, av2 = ref
        for name, got, r2 in (("||v||", nv, v2), ("||Av||", nav, av2)):
            if not _close(call.fn, got, mp.sqrt(r2), tol):
                return f"{name} = {got!r}, reference {float(mp.sqrt(r2))!r}"
        cap = min(mp.sqrt(av2), 2 / mp.e * (mp.sqrt(v2) + mp.sqrt(av2)))
        if nlv > float(cap) * (1 + tol + 4 * EPS):
            return f"||Lv|| = {nlv!r} above its bound {float(cap)!r}"
        return None
    if not _close(call.fn, value, ref, tol):
        return f"value {value!r}, reference {float(ref)!r} ({call.ref})"
    return None
