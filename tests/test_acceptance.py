"""Acceptance suite: every headline property at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all); tolerances are pinned here, not configurable.
"""

import math

import numpy as np
import pytest

from logdamp import norms, special, symbols
from logdamp.modes import InitialDataSpec, remainder_terms
from oracles import mp_energy


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def gaussian(n, amp=1.0, width=1.0):
    return InitialDataSpec("gaussian", amp, width, n)


def zero(n):
    return InitialDataSpec("zero", dimension=n)


def test_01_mode_closure_identity():
    u0 = gaussian(1, amp=2.0, width=0.7)
    u1 = gaussian(1)
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(100):
        t = rng.uniform(0.0, 1e3)
        r = np.exp(rng.uniform(math.log(1e-6), math.log(1e3), 100))
        md = remainder_terms(t, r, u0, u1)
        scale = (np.abs(md.u_hat) + np.abs(md.profile)
                 + sum(np.abs(k) for k in md.K))
        excess = md.closure_residual - 1e-10 * scale - 1e-300
        worst = max(worst, float(np.max(excess)))
    report("mode closure identity (1e4 points, rel 1e-10)",
           worst <= 0.0, f"worst excess {worst:.3e}")


def test_02_l2_decay_rates():
    # C1 F_n <= ||u||^2 <= C2 F_n: F_1 = t, F_3 = t^(-1/2), and F_2 the
    # log t of the paper with its constant, log 4t + Euler's gamma.
    rates = {1: lambda t: t,
             2: lambda t: math.log(4.0 * t) + 0.5772156649015329,
             3: lambda t: t ** -0.5}
    ts = np.logspace(2, 5, 20)
    details = []
    ok = True
    for n, rate in rates.items():
        scaled = [norms.l2_norm(t, zero(n), gaussian(n), n, rel_tol=1e-9) ** 2
                  / rate(t) for t in ts]
        ratio = max(scaled) / min(scaled)
        ok = ok and ratio <= 1.25
        details.append(f"n={n} band {ratio:.4f}")
    report("two-sided decay rates (max/min of ||u||^2/F_n <= 1.25)", ok,
           "; ".join(details))


def test_03_profile_residual_rate():
    details = []
    ok = True
    for n in (1, 2, 3):
        scaled = [norms.residual_norm(t, zero(n), gaussian(n), n)
                  * t ** (n / 4.0) for t in np.logspace(2, 4, 9)]
        ratio = max(scaled) / min(scaled)
        ok = ok and ratio <= 3.0
        details.append(f"n={n} ratio {ratio:.3f}")
    report("profile residual rate t^(-n/4) (max/min <= 3)", ok,
           "; ".join(details))


def test_04_peak_integral_band_and_exact_values():
    ok_exact_1 = abs(special.I_p(1.0, 0.0) - math.pi / 4.0) <= 1e-12
    ok_exact_2 = abs(special.I_p(3.0, 2.0) - math.pi / 32.0) <= 1e-12
    worst = 1.0
    for p in (0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0):
        scaled = [special.I_p(t, p) * t ** ((p + 1.0) / 2.0)
                  for t in (1e2, 1e3, 1e4, 1e5, 1e6)]
        worst = max(worst, max(scaled) / min(scaled))
    ok = ok_exact_1 and ok_exact_2 and worst <= 1.2
    report("peak integral scaling t^(-(p+1)/2)", ok,
           f"band variation {worst:.4f} (<=1.2), exact checks "
           f"{ok_exact_1 and ok_exact_2}")


def test_05_recurrence_against_quadrature():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        p = rng.uniform(2.0, 8.0)
        t = rng.uniform(p + 2.0, 200.0)
        direct = special.I_p(t, p)
        stepped = special.I_p_recurrence(t, p, special.I_p(t, p - 2.0))
        worst = max(worst, abs(stepped - direct) / direct)
    report("two-step recurrence vs quadrature (rel 1e-10)",
           worst <= 1e-10, f"worst rel {worst:.3e}")


def test_06_tail_integral_sandwich():
    worst = -math.inf
    for p in (-1.0, 0.0, 1.0, 3.0):
        for t in (10.0, 20.0, 50.0):
            scaled = special.J_p(t, p) * (t - 1.0) * 2.0 ** t
            lo, hi = special.j_sandwich_bounds(t, p)
            worst = max(worst, (lo - scaled) / hi, (scaled - hi) / hi)
    report("tail integral two-sided sandwich", worst <= 1e-9,
           f"worst violation {worst:.3e}")


def test_07_half_line_identity_and_gamma_ratio():
    worst = 0.0
    for t in (2.0, 5.0, 20.0, 100.0):
        h0 = special.I_p(t, 0.0) + special.J_p(t, 0.0)
        ref = 0.5 * math.sqrt(math.pi) * special.gamma_ratio(t)
        worst = max(worst, abs(h0 - ref) / ref)
    grid = np.logspace(math.log10(50.0), 6.0, 40)
    scaled = [special.gamma_ratio(t) * math.sqrt(t) for t in grid]
    ok = worst <= 1e-10 and min(scaled) >= 0.99 and max(scaled) <= 1.01
    report("half-line identity and Gamma-ratio limit", ok,
           f"identity rel {worst:.3e}, ratio range "
           f"[{min(scaled):.5f}, {max(scaled):.5f}]")


def test_08_symbol_ratio_bounds():
    r = np.exp(np.random.default_rng(8).uniform(
        math.log(1e-8), math.log(1e8), 10_000))
    a, b = symbols.damping_a(r), symbols.oscillation_b(r)
    v1 = int(np.sum((a / b) ** 2 > 1.0 / 3.0 + 1e-12))
    v2 = int(np.sum(((b - r) / b) ** 2 > 28.0 / 3.0 + 1e-9))
    report("symbol ratio bounds 1/3 and 28/3", v1 == 0 and v2 == 0,
           f"violations {v1}+{v2} of {r.size}")


def test_09_linear_and_log_growth():
    # Q and R are the sine weight M(sin) at n = 1 and n = 2.
    q = {t: norms.M_integral(t, 1, "sin") / 2.0 / t for t in (1e2, 1e3, 1e4)}
    q_ok = (all(1.0 <= v <= 2.0 for v in q.values())
            and max(q.values()) / min(q.values()) <= 1.2)
    r = {t: norms.M_integral(t, 2, "sin") / (2.0 * math.pi) / math.log(t)
         for t in (1e3, 1e4, 1e6)}
    r_ok = max(r.values()) / min(r.values()) <= 1.25
    report("linear/log growth of the profile integrals", q_ok and r_ok,
           f"Q/t in [{min(q.values()):.3f}, {max(q.values()):.3f}], "
           f"R/log t spread {max(r.values()) / min(r.values()):.4f}")


def test_10_oscillating_integral_bands():
    worst = 1.0
    for n, kind, expo in ((3, "sin", 0.5), (4, "sin", 1.0),
                          (1, "cos", 0.5), (2, "cos", 1.0)):
        vals = [norms.M_integral(t, n, kind) * t ** expo
                for t in (1e2, 1e3, 1e4)]
        worst = max(worst, max(vals) / min(vals))
    report("oscillating integral factor-1.5 bands", worst <= 1.5,
           f"worst band factor {worst:.4f}")


def test_11_energy_decay_and_conservation():
    ok = True
    details = []
    for n in (1, 2, 3):
        for pair in ((gaussian(n), gaussian(n)),
                     (zero(n), gaussian(n)),
                     (gaussian(n), zero(n))):
            es = [norms.energy(t, *pair, n)
                  for t in np.linspace(0.0, 40.0, 20)]
            ok = ok and all(b <= a * (1.0 + 1e-12)
                            for a, b in zip(es, es[1:]))
    dev = 0.0
    for t in (5.0, 17.0, 33.0):
        ref = float(mp_energy(t, gaussian(1), gaussian(1)))
        dev = max(dev, abs(norms.energy(t, gaussian(1), gaussian(1), 1)
                           - ref) / ref)
    ok = ok and dev <= 1e-10
    details.append(f"deviation from 30-digit oracle {dev:.3e}")
    report("energy never increases; matches root-form oracle", ok,
           "; ".join(details))


def test_12_log_operator_bound_and_phi_maximum():
    rng = np.random.default_rng(12)
    worst = -math.inf
    for _ in range(1000):
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
        rhs = 2.0 / math.e * (nv + nav)
        if rhs > 0.0:
            worst = max(worst, nlv / rhs - 1.0)
    lo, hi = symbols.locate_phi_max()
    mid = 0.5 * (lo + hi)
    loc_ok = abs(mid - (math.e - 1.0)) <= 1e-6
    val_ok = abs(symbols.phi(mid) - 1.0 / math.e) <= 1e-12
    report("log-operator relative bound and phi maximum",
           worst <= 0.0 and loc_ok and val_ok,
           f"worst ratio excess {worst:.3e}, maximizer off by "
           f"{abs(mid - (math.e - 1.0)):.2e}")


def test_13_high_band_superpolynomial_decay():
    ok = True
    details = []
    for n in (1, 2, 3):
        hb20 = norms.residual_norm(20.0, zero(n), gaussian(n), n,
                                   band="high")
        hb40 = norms.residual_norm(40.0, zero(n), gaussian(n), n,
                                   band="high")
        env = hb20 ** 2 / (20.0 ** 2 * 2.0 ** -20) * 40.0 ** 2 * 2.0 ** -40
        ok = ok and hb40 ** 2 <= env
        details.append(f"n={n} margin {env / hb40 ** 2:.2f}x")
    report("high-band decay under the t^2 2^(-t) envelope", ok,
           "; ".join(details))
