"""L^2 norms, energies and oscillatory decay integrals.

All physical-space norms are computed spectrally: for radial data,

    ||u(t)||^2 = (2 pi)^(-n) * omega_n * integral_0^inf u_hat(t,r)^2 r^(n-1) dr

with omega_n the unit-sphere area.  Each semi-infinite integral is
truncated where its analytic tail envelope meets the tolerance, and the
envelope there is charged to the error (``_two_phase``), or the call
raises ArithmeticError naming its site and t.  Mode integrands oscillate
like sin(b(r) t), so their squares carry frequency 2t, and half-period
panels cost ~sqrt(t) per call.  l2_norm, energy, residual_norm and
M_integral each integrate (Re X)^2 r^(n-1) for an analytic X (the
mode's phasor, the residual phasor of ``Mode.residual_phasor``, or the
weight's e^{(ir - a)t}) as a mean part plus the real part of an
analytic function, whose integral Cauchy's theorem moves onto a
contour where it decays like e^{-2ty}.  The split starts at r = 0,
where both parts are bounded, except where X has a pole at 0 (l2_norm
and the sine weight for n <= 2): there the first 16 half-periods are
integrated directly and the split starts past them.  One ``integrate``
call takes all the pieces on one path parameter (``_contour``), so the
cost does not grow with t;
residual_norm(method="kterms") keeps half-period panels throughout as
the cross-check route.  The data pair is first scaled by a power of two
to a unit transform sup, so every amplitude in the double range is
computed alike; zero data have a zero envelope and give 0.0.  A t that
is not finite, or whose square is not a double, is a ValueError by site.
"""

from __future__ import annotations

import math

import numpy as np

from . import modes
from .modes import InitialDataSpec, sphere_area
from .quadrature import (Envelope, QuadratureSpec, integrate,
                         truncation_point)
from .stable import sinc  # noqa: F401  (bench/tracer.py wraps norms.sinc)
from .symbols import STRIP_HEIGHT

__all__ = [
    "BAND_SPLIT",
    "l2_norm", "residual_norm", "energy", "M_integral",
    "log_operator_norms", "data_constant",
]


def plancherel_constant(n: int) -> float:
    """(2 pi)^(-n) * omega_n, the radial-reduction prefactor."""
    return (2.0 * math.pi) ** (-n) * sphere_area(n)


# Lower limit of residual_norm's high band, the natural boundary between
# the peak and tail integral families.  A split at the smallest radius
# where g reaches 1/2 would never apply: g peaks near 0.162.
BAND_SPLIT = 1.0


def _check_time(t: float, site: str) -> None:
    """ValueError naming the site unless t^2 is a double: the envelopes
    square t, and a mode integrand reaches t^2 sup|u1_hat|^2."""
    if not math.isfinite(t * t):
        raise ValueError(f"{site}: t must be finite with t^2 a double "
                         f"(|t| <= 1.34e154)")


# -- two-phase semi-infinite quadrature -------------------------------------

def _halves(lo: float, hi: float, omega: float) -> int:
    """Panels no wider than a half-period pi/omega on [lo, hi], so a
    symmetric cancellation cannot fool the embedded error estimate."""
    return math.ceil((hi - lo) / (math.pi / omega)) if omega else 1


def _two_phase(f, tail, omega: float, rel_tol: float, site: str,
               lower: float = 0.0) -> float:
    """Integral of f over [lower, inf): the one half-line route.

    It integrates to a truncation radius r1 of the tail envelope, and
    extends once where the bound there exceeds rel_tol |value| / 4.  The
    bound where integration stops (``lower`` itself when the envelope is
    already small there) is charged to the error; the value is certified
    only where error plus bound is at most rel_tol |value|.  Phase 1
    stops where the bound falls to 1e-4 of its value at r = 1, or, where
    that underflows, to 1e-40 of the envelope's scale; a ``_Split`` goes
    on to ``_depth`` where that is smaller.  A ``_Split`` f whose
    [lower, R] spans more than _DIRECT half-periods takes one
    ``_contour`` call to R (an extension redoes it), and half-period
    panels where its bounds do not fit; any other f takes half-period
    panels, and an extension adds [r1, R].  Returns the value, or raises
    ArithmeticError("<site> did not converge"), also where a piece does
    not converge, or "<site>: the result underflows" where the
    uncertified value is subnormal.
    """
    scale = tail.scale
    if scale == 0.0:
        return 0.0

    b_at_1 = tail.bound(max(1.0, lower * 1.0000001))
    tau1 = 1e-4 * b_at_1 if 0.0 < b_at_1 < math.inf else 1e-40 * scale
    if isinstance(f, _Split):
        tau1 = min(tau1, _depth(f, scale, rel_tol))
    r1, bound = truncation_point(tail, tau1)
    if r1 < lower:
        r1, bound = lower, tail.bound(lower)

    def direct(lo, hi, abs_tol):
        if hi <= lo:
            return 0.0, 0.0
        res = integrate(f, QuadratureSpec(
            lo, hi, abs_tol=abs_tol, rel_tol=0.5 * rel_tol,
            min_panels=_halves(lo, hi, omega), max_panels=200_000))
        if not res.converged:
            raise ArithmeticError(f"{site} did not converge")
        return res.value, res.error_estimate

    def contour(hi):  # None where half-period panels serve
        if (isinstance(f, _Split) and hi > max(lower, f.delta)
                and _halves(lower, hi, omega) > _DIRECT):
            return _contour(f, lower, hi, omega, rel_tol, site)
        return None

    radius, found = r1, contour(r1)
    value, err = found or direct(lower, r1, 1e-300)
    tau2 = 0.25 * rel_tol * abs(value)
    if bound > tau2 > 0.0:
        r2, bound2 = truncation_point(tail, tau2)
        if r2 > r1:
            radius, bound, found = r2, bound2, contour(r2)
            if found:
                value, err = found
            else:
                v, e = direct(r1, r2, tau2)
                value, err = value + v, err + e

    def certified():
        return err + bound <= rel_tol * abs(value)

    if not certified() and 0.0 < abs(value) < 2.0 ** -1022:
        raise ArithmeticError(f"{site}: the result underflows")
    if found and not certified():
        value, err = direct(lower, radius, 1e-300)
    # Nonzero data have a positive integrand, so 0.0 over [lower, R]
    # means that no abscissa saw it (a transform narrower than a panel).
    if not certified() or (value == 0.0 and radius > lower):
        raise ArithmeticError(f"{site} did not converge")
    return value


def _depth(split, scale: float, rel_tol: float) -> float:
    """Phase 1's tolerance for a split call at t > n/2, one rule for
    every split: 1e-3 rel_tol scale W/(2t)^2, W = Gamma(n/2)
    Gamma(t - n/2) / (2 Gamma(t)) the integral of the weight envelope
    (1+r^2)^(-t) r^(n-1) over [0, inf).  The residual integrates to
    1.2e-2 ... 0.12 scale W/(2t)^2 (n = 1-3, t = 1e2 ... 1e12, u1 = G(1),
    u0 zero or 0.5 G(0.8)), a mode to at least scale W/t.  In logs and
    clamped above 0, with Gamma(t - m)/Gamma(t) ~ t/(t - m)
    (t + (1 - m)/2)^(-m), m = n/2 (DLMF 5.11.13; 0.61 to 1.03 times it
    for n <= 8, 1 + O(t^-2)): the lgamma difference lost every digit
    from t ~ 1e15."""
    t, m = split.t, split.n / 2.0
    if not t > m:
        return math.inf
    log_w = (math.lgamma(m) - math.log(2.0) + math.log(t / (t - m))
             - m * math.log(t + 0.5 * (1.0 - m)))
    return math.exp(max(math.log(1e-3 * rel_tol * scale) + log_w
                        - 2.0 * math.log(2.0 * t), -708.0))


# -- the split: mean part and contour ---------------------------------------

# Half-periods of cos(2bt) on the direct part of a contour piece that
# does not start at r = 0: [0, delta] with delta = _K pi / (2t).
_K = 16
# A piece of at most _DIRECT half-periods takes half-period panels: on
# real radii they cost a third of the contour's complex ones (at t = 100,
# 85 half-periods, the contour took twice the time).
_DIRECT = 128
# t Y for the contour height Y: |e^{2 lambda t}| <= e^{-1.5 t y} on the
# strip 0 <= y <= STRIP_HEIGHT, so it is at most e^{-36} on the top side.
# The side offsets y = s - c of ``_contour`` are exact: at c = delta as
# Y < delta, and at c = 0 trivially.  On r = iy every phasor X is real
# (a, g and b/i are), so h(iy) = X^2/2 (iy)^(n-1) (energy: -a lambda X^2
# (iy)^(n-1), a lambda real too) is real for odd n: there the left side
# from c = 0 adds nothing.
_TY = 24.0
# The axis from c = 0 starts with [0, x0], x0 = _KAPPA / sqrt(t) (at
# most hi/2), on the weight's own scale t^(-1/2), then sqrt(2)-geometric
# breakpoints.  Over the residual, l2_norm and energy calls of t = 1e2
# ... 1e8, 1/2 took one rule pass per call, 1 up to 1.03 and 2 up to
# 1.88 (x0 = max(delta, 1/(2 sqrt(t))) took a second pass on 5 of 96
# l2_norm and energy calls at t = 250 ... 630).
_KAPPA = 0.5
# Initial y panels of the sides where the left side is integrated (four
# took 1.33 rule passes per l2_norm and energy call, eight 1.00); one
# where it adds nothing (odd n from c = 0) and the sides carry only the
# right side's charge.
_SIDES = 8


class _Split:
    """(Re X)^2 r^(n-1), X = phasor(mode, r) analytic where ``_contour``
    needs it (e.g. X = Mode.phasor): on [c, inf) as mean(x) + Re h(x)
    (x real), h analytic on the rectangles [c, R] x [0, height], and
    directly on [0, c].  c is 0 where h and the mean are bounded at
    r = 0 (``origin``: X is, or X ~ 1/r, a ``pole``, and n >= 3), and
    delta otherwise.

    On real radii (Re X)^2 = |X|^2/2 + Re(X^2)/2, so the mean is
    |X|^2/2 r^(n-1) and h = X^2/2 r^(n-1).  ``energy`` splits
    ((Re lambda X)^2 + r^2 (Re X)^2) r^(n-1), the energy integrand of a
    mode X: |lambda|^2 = r^2 on real radii and lambda^2 + r^2 =
    -2 a lambda (the mode equation) give the mean r^2 |X|^2 r^(n-1) and
    h = -a lambda X^2 r^(n-1).  The mean carries no e^{2ibt} and h is
    analytic, so neither needs half-period panels past c.  The
    height min(``STRIP_HEIGHT``, _TY/t, 1/w), w the widest nonzero datum
    of ``data``, keeps the contour in ``symbols.kernel``'s domain, tY <=
    24 and |e^{-w^2 r^2/2}| <= e^{w^2 Y^2/2} <= e^{1/2}.  At t = 0 delta
    is inf: the whole half-line is direct.

    Called on real radii it is the direct integrand; ``path`` gives the
    two rows of ``_contour`` from one ``Mode`` on all their radii.
    """

    def __init__(self, t: float, n: int, phasor, data=(), energy=False,
                 pole=False):
        self.t, self.n, self.phasor, self.energy = t, n, phasor, energy
        # h and the mean are bounded at r = 0, so the contour may start
        # there: X is, or X ~ 1/r (``pole``) and r^(n-1) absorbs X^2.
        # h(iy) is real for odd n (see _TY), so from there its left side
        # adds nothing.
        self.origin, self.real_left = not pole or n >= 3, n % 2 == 1
        widths = [d.width for d in data if d.amplitude != 0.0] or [1.0]
        self.delta = _K * math.pi / (2.0 * t) if t else math.inf
        self.height = min(STRIP_HEIGHT, _TY / max(t, 1.0), 1.0 / max(widths))

    def __call__(self, x):
        """The integrand on real radii x."""
        mode = modes.Mode(self.t, x)
        return self._direct(x, mode.a, mode.b, self.phasor(mode, x))

    def _direct(self, x, a, b, q):
        """The integrand on real radii x from the real a, b and X there
        (u_t = Re(lambda X), lambda = -a + ib, for the energy)."""
        direct = q.real * q.real
        if self.energy:
            ut = -a * q.real - b * q.imag
            direct = ut * ut + x * x * direct
        return direct * x ** (self.n - 1) if self.n > 1 else direct

    def path(self, s, c: float, hi: float):
        """``_contour``'s rows at the ascending path parameters s: the
        integrand on s < c, -Im h(c + iy) on the sides (y = s - c < Y),
        the mean at x = s - Y on the axis; row 1 adds |h(hi + iy)| and
        |h(x + iY)|.  One ``Mode`` takes the radii of the segments in
        the order [direct | axis | left side | right side | top], so the
        mean and h each take one slice, and each row segment is written
        once.  From c = 0 there is no direct segment, and at odd n the
        left side is 0 and takes no radii."""
        top, n = self.height, self.n
        k, m = s.searchsorted((c, c + top))
        x, ax = s[:k], s[m:] - top
        iy = 1j * (s[k:m] - c if c else s[k:m])
        if c:
            left = c + iy
        else:
            left = iy[:0] if self.real_left else iy
        j, ns = k + ax.size, left.size
        z = np.concatenate([x, ax, left, hi + iy, ax + 1j * top])
        mode = modes.Mode(self.t, z)
        a, b, p = mode.a, mode.b, self.phasor(mode, z)
        out = np.empty((2, s.size))
        if k:
            out[0, :k] = self._direct(x, a[:k].real, b[:k].real, p[:k])
        q = p[k:j]  # the mean |X|^2/2 (energy r^2 |X|^2) on the axis
        if n >= 4:  # r^(n-1) in X, as |X|^2 ~ t times r^(n-1) underflows
            q = q * ax ** ((n - 1) / 2)
        mean = (q * q.conj()).real
        mean = ax * ax * mean if self.energy else 0.5 * mean
        out[0, m:] = mean * ax ** (n - 1) if 1 < n < 4 else mean
        a, b, p, z = a[j:], b[j:], p[j:], z[j:]
        # r^i between X's factors: X ~ 1/y, so X^2 overflows, at r = iy
        i = max(0, n // 2 - 1)
        h = (a * (a - 1j * b) if self.energy else 0.5) * p
        h = (h * z ** i if i else h) * p
        if n > 1 + i:
            h = h * z ** (n - 1 - i)
        out[0, k:m] = -h[:ns].imag if ns else 0.0
        out[1] = out[0]
        out[1, k:] += np.abs(h[ns:])
        return out


def _geometric(lo: float, hi: float) -> list:
    """Breakpoints lo 2^(k/2) inside (lo, hi), where a mean part runs."""
    return [lo * 2.0 ** (k / 2)
            for k in range(1, math.ceil(2.0 * math.log2(hi / lo)))]


def _contour(split: _Split, lo: float, hi: float, omega: float,
             rel_tol: float, site: str):
    """(value, error) of the integral of f over [lo, hi] in one
    ``integrate`` call, or ArithmeticError naming ``site`` where that
    does not converge or hi^2 is not a double (t near n/2).  c is 0 from
    lo = 0 where ``split.origin``, else max(lo, split.delta) > 0; hi > c.

    f is integrated directly on [lo, c] (half-period panels pi/omega;
    none from c = 0).
    Past c, f = mean + Re h, and on the rectangle [c, hi] x [0, Y]
    Cauchy's theorem gives

        int_c^hi h dx = i int_0^Y h(c + iy) dy + int_c^hi h(x + iY) dx
                        - i int_0^Y h(hi + iy) dy.

    The left side decays like e^{-2ty} and is integrated; the top and
    right sides are bounded by the integrals of |h| and charged to the
    error, as the envelope tail is.  The path parameter s runs over
    [lo, hi + Y]: along the axis to c, f(s); down the sides to c + Y,
    y = s - c, -Im h(c + iy), charging |h(hi + iy)|; then along the axis,
    x = s - Y, mean(x), charging |h(x + iY)|.  Row 0 is the value, and
    row 1 is row 0 plus the charged part, so ``integrate`` holds both to
    the value's tolerance (a row of the charged part alone would be held
    to its own); with e0, e1 their error estimates the error is
    2 e0 + e1 + (row 1 - row 0).  c and c + Y are breakpoints, so no
    panel straddles a segment, and ``integrate`` hands each rule pass
    its abscissae in ascending order: ``_Split.path`` cuts them into the
    three segments by two searches, and one ``Mode`` takes one radius
    per direct abscissa and two per other.  The sides start on _SIDES
    equal y panels, the axis on the breakpoints c 2^(k/2) (both take
    fewer waves than halving from one panel).  From c = 0 the axis
    starts with [0, x0], x0 = min(_KAPPA / sqrt(t), hi/2), on the
    weight's scale t^(-1/2), then x0 2^(k/2); at odd n h(iy) is real
    (see _TY), so the left side is 0: its radii are not evaluated, and
    the sides, which carry only the right side's charge, start on one
    panel.

    h is analytic there: 1 + r^2 has real part >= 3/4 for y <=
    ``STRIP_HEIGHT`` = 1/2, so a = log1p(r^2)/2 is, and so is g =
    a^2/r^2 for r != 0.  |g| <= 0.17 on the boundary of [lo, hi] x
    [0, 1/2] (0.169 at r = 1.71 + 0.5i; tests/test_symbols.py samples
    the strip), so by the maximum-modulus principle also inside it,
    which holds every rectangle of height Y <= 1/2.  Hence Re(1 - g) >
    0, sqrt(1 - g) and b = r sqrt(1 - g) are analytic, and b != 0, so
    1/b is too; the data transforms are entire, and the powers r^k
    (k < 0 too) are analytic where Re r >= c > 0.  From c = 0, h is
    bounded at r = 0 (``_Split.origin``), so its singularity there is
    removable: the residual phasor's 1/b and 1/r carry factors that
    vanish there, lambda/b -> i, and X ~ 1/r meets r^(n-1), n >= 3.
    """
    if not math.isfinite(hi * hi):
        raise ArithmeticError(f"{site}: the tail runs past r = 1.34e154")
    top = split.height
    c = 0.0 if lo == 0.0 and split.origin else max(lo, split.delta)
    x0 = c or min(_KAPPA / math.sqrt(split.t), 0.5 * hi)
    halves = _halves(lo, c, omega)
    sides = 1 if c == 0.0 and split.real_left else _SIDES

    res = integrate(lambda s: split.path(s, c, hi), QuadratureSpec(
        lo, hi + top, abs_tol=1e-300, rel_tol=0.25 * rel_tol,
        max_panels=200_000, breakpoints=(
            *[lo + (c - lo) * j / halves for j in range(1, halves)], c,
            *[c + top * j / sides for j in range(1, sides + 1)],
            *[top + x for x in (x0, *_geometric(x0, hi))])))
    if not res.converged:
        raise ArithmeticError(f"{site} did not converge")
    value, (e0, e1) = float(res.value[0]), res.error_estimate.tolist()
    return value, 2.0 * e0 + e1 + (float(res.value[1]) - value)


def _check_pair(u0: InitialDataSpec, u1: InitialDataSpec, n: int) -> None:
    if not u0.dimension == u1.dimension == n:
        raise ValueError(f"n={n} and the data pair ({u0.dimension}, "
                         f"{u1.dimension}) must share a dimension")


def _unit_pair(u0: InitialDataSpec, u1: InitialDataSpec, site: str):
    """(u0, u1, k): the pair scaled by 2^-k to a larger transform sup in
    [1/4, 1/2).  u is linear in the data and the scaling is exact, so the
    norms of the pair are 2^k (the energy 2^2k) times those of the
    scaled pair, which stays clear of under- and overflow: the
    residual's envelope coefficient 2 (1.58 B0 + t B1)^2 is below t^2/2
    plus O(t), a double wherever t^2 is.  Where the scaling takes a
    nonzero amplitude below 2^-1034 (to 0, or to a subnormal with fewer
    than 40 bits, 5e-13 relative), as width^n past about 1e308 times
    the amplitude's own scale does, or past the doubles, as a subnormal
    transform sup does, ArithmeticError names the site."""
    k = math.frexp(max(u0.fourier_sup(), u1.fourier_sup()))[1] + 1
    # amplitude 2^-k = m 2^e, m in [1/2, 1), is at least 2^-1034 and a
    # double exactly where -1034 < e <= 1024.
    if any(d.amplitude
           and not -1034 < math.frexp(d.amplitude)[1] - k <= 1024
           for d in (u0, u1)):
        raise ArithmeticError(f"{site}: the data underflow when scaled "
                              f"to a unit transform sup")
    return (*(d.scaled(-k) for d in (u0, u1)), k)


def _rescaled(d: float, c: float, k: int, site: str,
              root: bool = True) -> float:
    """sqrt(c d) 2^k (``root``) or c d 2^k, d >= 0, with d's binary
    exponent moved into k first, so no product or root passes through a
    subnormal; or ArithmeticError naming the site where a nonzero result
    would leave the normal doubles (inf, 0.0 or a subnormal)."""
    m, e = math.frexp(max(d, 0.0))
    value, k = ((math.sqrt(c * math.ldexp(m, e % 2)), k + e // 2) if root
                else (c * m, k + e))
    e = math.frexp(value)[1] + k
    if value and not -1021 <= e <= 1024:
        raise ArithmeticError(f"{site}: the result "
                              f"{'overflows' if e > 0 else 'underflows'}")
    return math.ldexp(value, k)


def _envelope(t: float, u0, u1, n: int, energy: bool = False,
              p1: float | None = None) -> Envelope:
    """Tail envelope of a mode integrand, from B_i = sup |data transform|
    and the narrowest data width w: the first term's weight
    (1+r^2)^(-t) r^p may also be replaced by exp(-w^2 r^2) times r^q for
    r >= 1 and r^(n-1) below, the power of the integrand there (so a
    wide datum, whose transform lies far inside [0, 1], truncates at a
    radius of order 1/w).

    u_hat(t,.)^2 r^(n-1): |u_hat| <= e^{-at}(1.58 B0 + min(t, 1.1/r) B1)
    <= e^{-at}(1.58 B0 + t B1) (a/b <= 3^(-1/2), 1/b <= 1.1/r,
    |sin(bt)/b| <= t), so the term is (1.58 B0 + t B1)^2 (1+r^2)^(-t)
    r^(n-1), q = n - 1; the B1 part vanishes at t = 0.

    ``energy``: |u_t| <= e^{-at}(1.58 B1 + 1.1 r B0) and
    r |u_hat| <= e^{-at}(1.58 r B0 + 1.1 B1), so
    (u_t^2 + r^2 u^2) r^(n-1) <= 5.2 (B0 + B1)^2 (1+r^2)^(-t) r^(n+1) for
    r >= 1 and with r^(n-1) for r < 1 (the weight (t, n + 1, n - 1)),
    q = n + 3.  ``p1`` (the residual against the mass-p1 profile
    P): (u_hat - P)^2 <= 2 u_hat^2 + 2 P^2, a second term from
    P^2 r^(n-1) <= p1^2 (1+r^2)^(-t) r^(n-3).
    """
    b0, b1 = u0.fourier_sup(), u1.fourier_sup()
    if energy:
        coeff, weight, q = 5.2 * (b0 + b1) ** 2, (t, n + 1.0, n - 1.0), n + 3.0
    else:
        coeff, weight, q = (1.58 * b0 + t * b1) ** 2, (t, n - 1.0), n - 1.0
    if p1 is not None:
        coeff *= 2.0
    widths = [d.width for d in (u0, u1) if d.amplitude != 0.0]
    data = (min(widths) ** 2, q, n - 1.0) if widths else None
    profile = [(2.0 * p1 * p1, (t, n - 3.0), None)] if p1 and t > 0.0 else []
    return Envelope((coeff, weight, data), *profile)


def _mode_split(t: float, u0, u1, n: int, energy: bool) -> _Split:
    """The ``_Split`` of l2_norm (u^2 r^(n-1)) or of energy
    ((u_t^2 + r^2 u^2) r^(n-1)), X = Mode.phasor: u = Re X and
    u_t = Re(lambda X)."""
    return _Split(t, n, lambda mode, r: mode.phasor(u0, u1), (u0, u1),
                  energy, pole=not energy)


def l2_norm(t: float, u0: InitialDataSpec, u1: InitialDataSpec, n: int,
            rel_tol: float = 1e-10) -> float:
    """||u(t, .)||_{L^2} for the given data pair, by radial quadrature.

    Raises ArithmeticError if the quadrature cannot certify rel_tol.
    """
    _check_pair(u0, u1, n)
    t = float(t)
    site = f"l2_norm at t={t}"
    _check_time(t, site)
    u0, u1, k = _unit_pair(u0, u1, site)
    val = _two_phase(_mode_split(t, u0, u1, n, energy=False),
                     _envelope(t, u0, u1, n), 2.0 * t, rel_tol, site)
    return _rescaled(val, plancherel_constant(n), k, site)


def energy(t: float, u0: InitialDataSpec, u1: InitialDataSpec, n: int,
           rel_tol: float = 1e-10) -> float:
    """E(t) = (||u_t||^2 + ||grad u||^2) / 2, computed spectrally."""
    _check_pair(u0, u1, n)
    t = float(t)
    site = f"energy at t={t}"
    _check_time(t, site)
    u0, u1, k = _unit_pair(u0, u1, site)
    val = _two_phase(_mode_split(t, u0, u1, n, energy=True),
                     _envelope(t, u0, u1, n, energy=True), 2.0 * t,
                     rel_tol, site)
    return _rescaled(val, 0.5 * plancherel_constant(n), 2 * k, site,
                     root=False)


def residual_norm(t: float, u0: InitialDataSpec, u1: InitialDataSpec,
                  n: int, band: str = "both",
                  method: str = "difference") -> float:
    """L^2 distance between u_hat(t) and the mass profile, to 1e-9.

    ``band`` is "both" ([0, inf)) or "high" ([BAND_SPLIT, inf)).
    ``method`` "difference" integrates (Re X)^2 r^(n-1) for the residual
    phasor X of ``Mode.residual_phasor`` (u - profile = Re X without
    cancellation), split from r = 0 (see ``_Split``); "kterms" sums
    the five remainder terms on half-period panels throughout, the
    independent cross-check route.
    The two integrands agree to roundoff by the closure identity.
    For n >= 3 and P1 != 0 the profile is in L^2 only when 2t > n - 2;
    below that the call raises ValueError naming t and n, before any
    quadrature.

    The 1e-9 is relative, on the radial integral D of (u_hat -
    profile)^2 r^(n-1) (the squared norm before the factor (2 pi)^(-n)
    omega_n), at every t; where D is a subnormal that cannot be
    certified, ArithmeticError says that the result underflows.
    """
    _check_pair(u0, u1, n)
    if band not in ("both", "high"):
        raise ValueError("band must be 'both' or 'high'")
    if method not in ("difference", "kterms"):
        raise ValueError("method must be 'difference' or 'kterms'")
    t = float(t)
    if band == "high":
        lower, site = BAND_SPLIT, f"residual_norm high band at t={t}"
    else:
        lower, site = 0.0, f"residual_norm at t={t}"
    _check_time(t, site)
    u0, u1, k = _unit_pair(u0, u1, site)
    p1 = u1.mass()
    if p1 != 0.0 and 0.0 < 2.0 * t <= n - 2.0:
        raise ValueError(f"residual_norm at t={t}: the profile is not in L^2"
                         f" for n={n} (needs 2t > n - 2)")

    if method == "difference":
        f = _Split(t, n, lambda mode, r: mode.residual_phasor(u0, u1),
                   (u0, u1))
    else:
        def f(r):
            mode = modes.Mode(t, r)
            d = sum(mode.k_terms(u0.fourier(r), u1.fourier(r), p1))
            return d * d * r ** (n - 1)

    val = _two_phase(f, _envelope(t, u0, u1, n, p1=p1), 2.0 * max(t, 1.0),
                     1e-9, site, lower=lower)
    return _rescaled(val, plancherel_constant(n), k, site)


# -- named decay integrals ---------------------------------------------------

def M_integral(t: float, n: int, kind: str) -> float:
    """omega_n * integral_0^inf (1+r^2)^(-t) w(r) r^(n-1) dr, to 1e-10.

    kind='sin' uses w = sin^2(rt)/r^2, kind='cos' uses w = cos^2(rt);
    both take any n >= 1 and need t > 1.  The sine weight grows like t
    for n = 1, like log t for n = 2 and decays like t^(-(n-2)/2) for n >= 3.
    """
    t = float(t)
    if kind not in ("sin", "cos"):
        raise ValueError("kind must be 'sin' or 'cos'")
    site = f"M_integral({kind}) at t={t}"
    _check_time(t, site)
    if t <= 1.0:
        raise ValueError("M_integral requires t > 1")

    def phasor(mode, r):  # (1+r^2)^(-t) w = (Re X)^2 on real radii
        x = np.exp(t * (1j * r - mode.a))
        return -1j * x / r if kind == "sin" else x

    tail = Envelope((1.0, (t, n - (3.0 if kind == "sin" else 1.0)), None))
    split = _Split(t, n, phasor, pole=kind == "sin")
    return sphere_area(n) * _two_phase(split, tail, 2.0 * t, 1e-10, site)


# -- spectral operator norms (log-damping relative bound) -------------------

def log_operator_norms(vhat, n: int, radius: float, breakpoints=(),
                       rel_tol: float = 1e-11):
    """(||v||, ||Av||, ||Lv||) for a compact spectral profile vhat.

    A has symbol r^2 and L has symbol log(1+r^2); all three norms are
    radial quadratures of vhat^2 against the symbol squares on
    [0, radius], outside which vhat must be negligible.  They share one
    panelling, so vhat is evaluated once per abscissa, and each meets
    rel_tol on its own.  Raises ArithmeticError if one does not.
    """
    def f(r):
        v = vhat(r)
        w = v * v * r ** (n - 1)
        return np.array([w, r ** 4 * w, np.log1p(r * r) ** 2 * w])

    spec = QuadratureSpec(0.0, float(radius), rel_tol=rel_tol,
                          breakpoints=tuple(breakpoints), min_panels=32)
    res = integrate(f, spec)
    if not res.converged:
        raise ArithmeticError(
            f"log_operator_norms quadrature did not converge, n={n}")
    cn = plancherel_constant(n)
    return tuple(math.sqrt(cn * max(v, 0.0)) for v in res.value.tolist())


def data_constant(u0: InitialDataSpec, u1: InitialDataSpec) -> float:
    """||u0|| + ||u1|| + ||u0||_1 + ||(1+|x|) u1||_1 (closed forms)."""
    return (u0.l2_norm() + u1.l2_norm()
            + u0.l1_norm() + u1.weighted_l1_norm())
