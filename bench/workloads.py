"""Seeded inputs for the three benchmark workloads.

Each workload is a fixed list of library calls: the t grids and call
counts are constants, and the seed draws only data widths in [0.5, 2],
amplitudes, a small jitter of the lemmas-mix t grid, the scale-probe
exponents and the random bump profiles.  So the seed changes which
inputs are checked, not how much work a pass does.  The program under
test receives only these inputs.

A ``Call`` names a public function of ``logdamp.norms`` or
``logdamp.special`` and the reference the correctness gate checks its
value against (see ``reference.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from logdamp.modes import InitialDataSpec

WORKLOADS = ("lemmas-mix", "decay-1e8", "profile-1e7")

# Weight-integral exponents of ``logdamp special``.
SPECIAL_PS = (0.0, 0.5, 1.0, 2.0, 3.0)
# middle_band lower limits.
MIDDLE_ETAS = (0.1, 0.5)
# M_integral (kind, dimension) pairs of the lemmas oscillating-band suite.
M_CASES = (("sin", 3), ("sin", 4), ("cos", 1), ("cos", 2))
M_TIMES = (1e2, 1e3, 1e4)
ENERGY_TIMES = (0.0, 8.0, 40.0)
PROBE_TIMES = (1.0, 10.0, 100.0)


@dataclass(frozen=True)
class FromCall:
    """An argument that is the output of an earlier call of the pass."""

    index: int


@dataclass
class Call:
    """One library call and the reference it must meet.

    ``ref`` names the reference route in ``reference.py`` and
    ``ref_args`` holds any inputs it needs beyond the call's own; ``tol``
    is the relative tolerance the call certifies or documents.
    """

    module: str
    fn: str
    args: tuple
    kwargs: dict = field(default_factory=dict)
    ref: str = ""
    tol: float = 0.0
    label: str = ""
    ref_args: tuple = ()

    def resolve(self, outputs) -> tuple:
        """The arguments, with earlier outputs in place of ``FromCall``."""
        return tuple(outputs[a.index] if isinstance(a, FromCall) else a
                     for a in self.args)


def _data(kind: str, amplitude: float, width: float, n: int):
    return InitialDataSpec(kind, amplitude, width, n)


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _grid_pairs(rng, ts, dims):
    """Data pairs for each (n, t): u1 Gaussian, u0 zero on odd grid points.

    Widths are stratified across the dimensions at each grid point (one
    draw from each third of [0.5, 2] on a log scale), so the costly top
    of a grid always sees a spread of widths and the pass cost does not
    swing with the seed.
    """
    pairs = {}
    for i, t in enumerate(ts):
        strata = rng.permutation(len(dims))
        for n, s in zip(dims, strata):
            frac = (s + rng.uniform()) / len(dims)
            w1 = float(0.5 * 4.0 ** frac)
            u1 = _data("gaussian", _log_uniform(rng, 1e-3, 1e3), w1, n)
            if i % 2:
                u0 = _data("zero", 1.0, 1.0, n)
            else:
                u0 = _data("gaussian", _log_uniform(rng, 1e-3, 1e3),
                           float(rng.uniform(0.5, 2.0)), n)
            pairs[(n, float(t))] = (u0, u1)
    return pairs


def _pair_label(t, u0, u1, n) -> str:
    def one(d):
        if d.family == "zero":
            return "0"
        return f"G({d.amplitude:.6g},{d.width:.6g})"
    return f"t={t:.6g} n={n} u0={one(u0)} u1={one(u1)}"


class BumpProfile:
    """A spectral profile sum_i c_i exp(-(r - m_i)^2 / (2 s_i^2)).

    The parameters stay readable so the gate can form the Gaussian
    moments of the profile in closed form.
    """

    def __init__(self, cs, mus, sigmas):
        self.cs = tuple(float(c) for c in cs)
        self.mus = tuple(float(m) for m in mus)
        self.sigmas = tuple(float(s) for s in sigmas)

    def __call__(self, r):
        acc = np.zeros_like(r)
        for c, m, s in zip(self.cs, self.mus, self.sigmas):
            acc = acc + c * np.exp(-0.5 * ((r - m) / s) ** 2)
        return acc


def lemmas_mix(rng, tiny: bool = False) -> list[Call]:
    calls: list[Call] = []
    nprof = 8 if tiny else 1000
    for i in range(nprof):
        # The same draws as the log-operator suite of ``logdamp lemmas``.
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        cs = rng.uniform(-1.0, 1.0, k)
        mus = rng.uniform(0.0, 5.0, k)
        sigmas = rng.uniform(0.1, 2.0, k)
        radius = float(np.max(mus + 14.0 * sigmas))
        calls.append(Call(
            "norms", "log_operator_norms",
            (BumpProfile(cs, mus, sigmas), n, radius),
            {"breakpoints": tuple(np.sort(mus)), "rel_tol": 1e-9},
            ref="gauss_moments", tol=1e-9,
            label=f"profile#{i} n={n} bumps={k}"))

    halves = 5 if tiny else 13
    jitter = np.exp(rng.uniform(-0.01, 0.01, halves))
    ts = [10.0 ** (j / 2.0) * float(x) for j, x in enumerate(jitter)]
    for t in ts:
        # Its docstring promises ulp accuracy: allow 4 ulps.
        calls.append(Call("special", "gamma_ratio", (t,), ref="mp_gamma",
                          tol=4 * 2.0 ** -52, label=f"t={t:.6g}"))
    index_of_ip = {}
    for p in SPECIAL_PS:
        for t in ts:
            lab = f"t={t:.6g} p={p:g}"
            index_of_ip[(p, t)] = len(calls)
            calls.append(Call("special", "I_p", (t, p), ref="mp_I",
                              tol=1e-12, label=lab))
            if t > (p + 3.0) / 2.0:
                calls.append(Call("special", "J_p", (t, p), ref="mp_J",
                                  tol=1e-12, label=lab))
            if 2.0 * t - p - 1.0 >= 0.25:
                calls.append(Call("special", "J_p_direct", (t, p),
                                  ref="mp_J", tol=1e-10, label=lab))
            if p >= 2.0 and t > (p + 1.0) / 2.0:
                # The lemmas recurrence suite's tolerance.
                calls.append(Call(
                    "special", "I_p_recurrence",
                    (t, p, FromCall(index_of_ip[(p - 2.0, t)])),
                    ref="mp_I", tol=1e-10, label=lab))
            for eta in MIDDLE_ETAS:
                calls.append(Call("special", "middle_band", (eta, p, t),
                                  ref="mp_middle", tol=1e-12,
                                  label=f"{lab} eta={eta:g}"))

    for kind, n in M_CASES[:1] if tiny else M_CASES:
        for t in M_TIMES[:1] if tiny else M_TIMES:
            calls.append(Call("norms", "M_integral", (t, n, kind),
                              ref="m_table", tol=1e-10,
                              label=f"t={t:g} n={n} kind={kind}"))

    for n in (1, 2, 3):
        for t in ENERGY_TIMES[:2] if tiny else ENERGY_TIMES:
            u0 = _data("gaussian", _log_uniform(rng, 1e-3, 1e3),
                       float(rng.uniform(0.5, 2.0)), n)
            u1 = _data("gaussian", _log_uniform(rng, 1e-3, 1e3),
                       float(rng.uniform(0.5, 2.0)), n)
            calls.append(Call("norms", "energy", (t, u0, u1, n),
                              ref="mp_energy", tol=1e-10,
                              label=_pair_label(t, u0, u1, n)))

    # Probe i draws its decade k from the i-th of nprobe equal strata of
    # [-300, 300], so every seed covers the whole range as evenly.
    nprobe = 6 if tiny else 60
    for i in range(nprobe):
        n = 1 + i % 3
        t = PROBE_TIMES[(i // 3) % 3]
        scale = 10.0 ** (-300.0 + 600.0 * (i + rng.uniform()) / nprobe)
        unit = [_data("gaussian", _log_uniform(rng, 0.1, 10.0),
                      float(rng.uniform(0.5, 2.0)), n) for _ in range(2)]
        u0, u1 = (_data(d.family, scale * d.amplitude, d.width, n)
                  for d in unit)
        calls.append(Call("norms", "l2_norm", (t, u0, u1, n),
                          ref="linearity", tol=1e-10,
                          ref_args=(scale, *unit),
                          label=f"scale={scale:.3e} "
                                + _pair_label(t, *unit, n)))
    return calls


def decay_1e8(rng, tiny: bool = False) -> list[Call]:
    ts = np.logspace(2, 3 if tiny else 8, 4 if tiny else 16)
    dims = (1, 2, 3)
    pairs = _grid_pairs(rng, ts, dims)
    calls = []
    for n in dims:
        for t in ts:
            u0, u1 = pairs[(n, float(t))]
            lab = _pair_label(t, u0, u1, n)
            for fn in ("l2_norm", "energy"):
                calls.append(Call("norms", fn, (float(t), u0, u1, n),
                                  ref="self_consistency", tol=1e-10,
                                  label=lab))
    return calls


def profile_1e7(rng, tiny: bool = False) -> list[Call]:
    t_max = 1e3 if tiny else 2e7
    ts = np.logspace(2, math.log10(t_max), 4 if tiny else 8)
    dims = (1, 2, 3)
    pairs = _grid_pairs(rng, ts, dims)
    calls = []
    for n in dims:
        for t in ts:
            u0, u1 = pairs[(n, float(t))]
            calls.append(Call("norms", "residual_norm",
                              (float(t), u0, u1, n), ref="kterms",
                              tol=1e-9, label=_pair_label(t, u0, u1, n)))
    return calls


_BUILDERS = {
    "lemmas-mix": lemmas_mix,
    "decay-1e8": decay_1e8,
    "profile-1e7": profile_1e7,
}


def build(workload: str, seed: int, tiny: bool = False) -> list[Call]:
    """The workload's calls for ``seed``; the same seed gives the same calls.

    ``tiny`` shrinks every grid and count for the benchmark's own tests.
    """
    rng = np.random.default_rng(seed)
    return _BUILDERS[workload](rng, tiny)
