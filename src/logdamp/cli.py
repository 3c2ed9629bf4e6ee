"""Command-line front end: verification suites with CSV/report output.

Subcommands and the options each reads
--------------------------------------
special : weight integrals, scalings, identities; --t-min, --t-max,
          --t-points, --log-grid/--linear-grid, --tol
lemmas  : inequality suites with PASS/FAIL lines; --dim, --seed,
          --samples and the data keys
decay   : ||u(t)||^2 over its optimal rate F_n(t); --dim, the grid
          flags, --tol and the data keys
profile : scaled distance to the mass profile; the options of decay
          plus --i0-multiple

Every command also takes --out and --config.  The data keys (u0_family,
u0_amplitude, u0_width, and the same for u1) have no flags; a config
file ("key = value" lines) sets any option.  Precedence is CLI flag >
config file > default.  An option the command does not read is a usage
error.  CSV output starts with comment lines carrying a hash over the
resolved option values, so a run's hash depends only on what it computes.

Exit codes: 0 all checks pass, 1 a check failed or a quantity could not
be certified, 2 usage or domain error (such as a profile not in L^2, or
a t that is not finite or whose square is not a double).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from types import SimpleNamespace

import numpy as np

from . import modes, norms, quadrature, special, symbols
from .modes import InitialDataSpec

E_CHECK_FAILED = 1
E_USAGE = 2


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


# -- configuration -----------------------------------------------------------

def _checked(kind, test, need: str):
    """Parser that converts with ``kind`` and requires ``test``."""
    def parse(value):
        value = kind(value)
        if not test(value):
            raise ValueError(need)
        return value
    return parse


def _dims(value) -> tuple[int, ...]:
    return tuple(int(d) for d in str(value).replace(",", " ").split())


def _boolean(value) -> bool:
    if isinstance(value, bool):
        return value
    if value.lower() in ("1", "true", "yes", "on"):
        return True
    if value.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean")


# Every option and its parser.
_OPTIONS = {
    "dim": _checked(_dims, lambda d: d and min(d) >= 1,
                    "need one or more integers >= 1"),
    "t_min": float, "t_max": float,
    "t_points": _checked(int, lambda k: k >= 2, "need at least 2 grid points"),
    "log_grid": _boolean,
    "tol": _checked(float, lambda x: x >= 0.0, "must be >= 0"),
    "seed": _checked(int, lambda k: k >= 0, "must be >= 0"),
    "samples": _checked(int, lambda k: k >= 1, "must be >= 1"),
    "i0_multiple": _checked(float, lambda x: x > 0.0, "must be > 0"),
    # The data keys, set in a config file only; InitialDataSpec checks them.
    "u0_family": str, "u0_amplitude": float, "u0_width": float,
    "u1_family": str, "u1_amplitude": float, "u1_width": float,
}
_DATA = {"u0_family": "zero", "u0_amplitude": 1.0, "u0_width": 1.0,
         "u1_family": "gaussian", "u1_amplitude": 1.0, "u1_width": 1.0}
_HELP = {"dim": "dimension(s), e.g. 3 or 1,2,3"}


class RunConfig(SimpleNamespace):
    """The command, the output path, and the resolved value of each
    option the command reads (``cfg.tol``); no other option is set."""

    def t_grid(self) -> np.ndarray:
        if self.log_grid:
            return np.logspace(math.log10(self.t_min),
                               math.log10(self.t_max), self.t_points)
        return np.linspace(self.t_min, self.t_max, self.t_points)

    def data_pair(self, n: int) -> tuple[InitialDataSpec, InitialDataSpec]:
        v = vars(self)
        try:
            return tuple(InitialDataSpec(v[f"{u}_family"], v[f"{u}_amplitude"],
                                         v[f"{u}_width"], n)
                         for u in ("u0", "u1"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def config_hash(self) -> str:
        # The output path does not affect any computed value.
        text = "\n".join(f"{k}={v!r}" for k, v in sorted(vars(self).items())
                         if k not in ("command", "out"))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def _parse_config_file(path: str, keys) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'key = value'")
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in keys:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return values


def resolve_config(command: str, args: argparse.Namespace) -> RunConfig:
    merged = {**_COMMANDS[command][2], "out": None}
    if args.config:
        merged.update(_parse_config_file(args.config, merged))
    for key in merged:
        if getattr(args, key, None) is not None:
            merged[key] = getattr(args, key)
    cfg = RunConfig(command=command, out=merged.pop("out"))
    for key, value in merged.items():
        try:
            setattr(cfg, key, _OPTIONS[key](value))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    if "t_min" in merged and not 0.0 < cfg.t_min < cfg.t_max < math.inf:
        raise ConfigError("t_min/t_max: need finite 0 < t_min < t_max")
    if "u0_family" in merged:
        # Fail fast on bad data fields even before a command needs them.
        cfg.data_pair(cfg.dim[0])
    return cfg


# -- output ------------------------------------------------------------------

class Report:
    def __init__(self, cfg: RunConfig, *header: str):
        self.lines: list[str] = [f"# command={cfg.command}",
                                 f"# config={cfg.config_hash()}"]
        self.out = cfg.out
        self.row(*header)

    def comment(self, text: str):
        self.lines.append(f"# {text}")

    def row(self, *cells):
        self.lines.append(",".join(str(c) for c in cells))

    def finish(self, failures) -> int:
        """Write one FAIL line per failure and the verdict, emit the
        report, and return the exit code."""
        for msg in failures:
            self.comment(f"FAIL {msg}")
        self.comment(f"checks={'FAIL' if failures else 'PASS'}")
        text = "\n".join(self.lines) + "\n"
        sys.stdout.write(text)
        if self.out:
            with open(self.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return E_CHECK_FAILED if failures else 0


def _fmt(x: float) -> str:
    return format(x, ".12e")


# -- special -----------------------------------------------------------------

def cmd_special(cfg: RunConfig) -> int:
    ps = (0.0, 0.5, 1.0, 2.0, 3.0)
    ts = cfg.t_grid()
    rep = Report(cfg, "p", "t", "I_p", "I_p_scaled", "J_p", "J_p_scaled",
                 "gamma_ratio", "h0_identity_relerr")

    def j_value(fn, t: float, p: float) -> float:
        return fn(t, p) if 2.0 * t > p + 1.0 else math.nan

    failures = []
    h0_relerr: dict[float, float] = {}
    for t in ts:
        j0 = j_value(special.J_p, t, 0.0)
        h0 = special.I_p(t, 0.0) + j0
        ref = 0.5 * math.sqrt(math.pi) * special.gamma_ratio(t)
        h0_relerr[t] = abs(h0 - ref) / ref
        if h0_relerr[t] >= cfg.tol:
            failures.append(f"h0 identity at t={t:g}: {h0_relerr[t]:.3e}")

    scaled_by_p: dict[float, list[float]] = {p: [] for p in ps}
    for p in ps:
        for t in ts:
            ival = special.I_p(t, p)
            # nan where I_p underflows to 0.0 and t^s overflows.
            with np.errstate(over="ignore", invalid="ignore"):
                iscaled = ival * t ** ((p + 1.0) / 2.0)
            jval = j_value(special.J_p, t, p)
            jscaled = j_value(special.J_p_scaled, t, p) if t > 1.0 \
                else math.nan
            rep.row(p, t, _fmt(ival), _fmt(iscaled), _fmt(jval),
                    _fmt(jscaled), _fmt(special.gamma_ratio(t)),
                    _fmt(h0_relerr[t]))
            # I_p holds its value to max(1e-300, 1e-12 I_p), so to 1e-12
            # relative only from 1e-288 on (then I_p t^s is finite).
            if not ival >= 1e-288:
                failures.append(f"peak-integral p={p} t={t:g}: I_p="
                                f"{ival:.3e} is certified only to 1e-300 "
                                f"absolute")
            elif t >= 100.0:
                scaled_by_p[p].append(iscaled)
            if t >= 5.0:
                lo, hi = special.j_sandwich_bounds(t, p)
                if not (lo * (1 - 1e-9) <= jscaled <= hi * (1 + 1e-9)):
                    failures.append(
                        f"tail sandwich p={p} t={t:g}: {jscaled:.6f} "
                        f"outside [{lo:.6f}, {hi:.6f}]")

    for p, vals in scaled_by_p.items():
        if len(vals) >= 2:
            ratio = max(vals) / min(vals)
            if ratio > 1.2 or min(vals) < 0.05 or max(vals) > 5.0:
                failures.append(f"peak-integral band p={p}: ratio {ratio:.3f},"
                                f" range [{min(vals):.3f}, {max(vals):.3f}]")

    return rep.finish(failures)


# -- lemmas ------------------------------------------------------------------

def _zero_data(*data: InitialDataSpec) -> bool:
    """True when every datum vanishes, so every norm of u is exactly 0
    and ratio checks would divide 0 by 0."""
    return all(d.amplitude == 0.0 for d in data)


def _suite_lines(cfg: RunConfig):
    """Run every inequality suite; yield (name, samples, margin, ok).

    ``margin`` is slack on the natural scale of each check (positive
    means the property holds with room to spare).
    """
    rng = np.random.default_rng(cfg.seed)

    r = np.exp(rng.uniform(math.log(1e-8), math.log(1e8), 10_000))
    a, b = symbols.damping_a(r), symbols.oscillation_b(r)
    worst = float(np.max((a / b) ** 2))
    yield ("damping_ratio_bound", r.size, 1.0 / 3.0 - worst,
           worst <= 1.0 / 3.0 + 1e-12)
    worst = float(np.max((symbols.b_minus_r(r) / b) ** 2))
    yield ("dispersion_shift_bound", r.size, 28.0 / 3.0 - worst,
           worst <= 28.0 / 3.0 + 1e-9)
    worst = float(np.max(2.0 * symbols.ratio_g(r)))
    yield ("log_symbol_bound", r.size, 1.0 - worst, worst <= 1.0 + 1e-12)

    ps = rng.uniform(2.0, 8.0, 50)
    ts = np.array([rng.uniform(p + 2.0, 200.0) for p in ps])
    worst = 0.0
    for p, t in zip(ps, ts):
        direct = special.I_p(t, p)
        stepped = special.I_p_recurrence(t, p, special.I_p(t, p - 2.0))
        worst = max(worst, abs(direct - stepped) / direct)
    yield ("recurrence_consistency", 50, 1e-10 - worst, worst <= 1e-10)

    worst = -math.inf
    count = 0
    for p in (-1.0, 0.0, 1.0, 3.0):
        for t in (10.0, 20.0, 50.0):
            scaled = special.J_p_scaled(t, p)
            lo, hi = special.j_sandwich_bounds(t, p)
            viol = max(lo - scaled, scaled - hi) / hi
            worst = max(worst, viol)
            count += 1
    yield ("tail_sandwich", count, 1e-9 - worst, worst <= 1e-9)

    worst = -math.inf
    count = 0
    for eta in (0.1, 0.3, 0.5, 0.9):
        for p in (0.0, 1.0, 3.0):
            for t in (0.0, 5.0, 20.0):
                bound = math.exp(-t * math.log1p(eta * eta))
                ratio = special.middle_band(eta, p, t) / bound
                worst = max(worst, ratio - 1.0)
                count += 1
    yield ("mid_band_bound", count, -worst, worst <= 1e-12)

    u1 = cfg.data_pair(cfg.dim[0])[1]
    dec = modes.decompose_data(u1)
    w11 = u1.weighted_l1_norm()
    if w11 > 0.0:
        xi = np.exp(rng.uniform(math.log(1e-6), math.log(1e3), 2000))
        ratio = np.abs(dec.A1(xi)) / (xi * w11)
        worst = float(np.max(ratio))
    else:
        worst = 0.0
    yield ("velocity_moment_bound", 2000, 1.0 - worst, worst <= 1.0)

    for kind, dims, expo in (("sin", (3, 4), lambda n: (n - 2) / 2.0),
                             ("cos", (1, 2), lambda n: n / 2.0)):
        worst = 1.0
        count = 0
        for n in dims:
            vals = [norms.M_integral(t, n, kind) * t ** expo(n)
                    for t in (1e2, 1e3, 1e4)]
            worst = max(worst, max(vals) / min(vals))
            count += 3
        yield (f"oscillating_band_{kind}", count, 1.5 - worst, worst <= 1.5)

    worst = -math.inf
    checked = 0
    for n in cfg.dim:
        u0, u1 = cfg.data_pair(n)
        if _zero_data(u0, u1):
            continue
        hb20 = norms.residual_norm(20.0, u0, u1, n, band="high")
        hb40 = norms.residual_norm(40.0, u0, u1, n, band="high")
        env = hb20 ** 2 / (20.0 ** 2 * 2.0 ** -20) * 40.0 ** 2 * 2.0 ** -40
        worst = max(worst, hb40 ** 2 / env - 1.0)
        checked += 1
    yield ("high_band_envelope", checked, -worst, worst <= 0.0)

    worst = -math.inf
    nprof = cfg.samples
    for _ in range(nprof):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        cs = rng.uniform(-1.0, 1.0, k)
        mus = rng.uniform(0.0, 5.0, k)
        sigmas = rng.uniform(0.1, 2.0, k)

        def vhat(rr, cs=cs, mus=mus, sigmas=sigmas):
            acc = np.zeros_like(rr)
            for c, m, s in zip(cs, mus, sigmas):
                acc = acc + c * np.exp(-0.5 * ((rr - m) / s) ** 2)
            return acc

        radius = float(np.max(mus + 14.0 * sigmas))
        nv, nav, nlv = norms.log_operator_norms(
            vhat, n, radius, breakpoints=tuple(np.sort(mus)), rel_tol=1e-9)
        rhs = 2.0 / math.e * (nv + nav)
        if rhs > 0.0:
            worst = max(worst, nlv / rhs - 1.0)
    yield ("log_operator_relative_bound", nprof, -worst, worst <= 0.0)

    left, right = symbols.locate_phi_max()
    xstar = 0.5 * (left + right)
    loc_err = abs(xstar - (math.e - 1.0))
    val_err = abs(symbols.phi(xstar) - 1.0 / math.e)
    ok = loc_err <= 1e-6 and val_err <= 1e-12
    yield ("phi_maximum", 1, 1e-6 - loc_err, ok)

    worst = -math.inf
    checked = 0
    for n in cfg.dim:
        u0, u1 = cfg.data_pair(n)
        if _zero_data(u0, u1):
            continue
        es = [norms.energy(t, u0, u1, n) for t in np.linspace(0.0, 40.0, 20)]
        worst = max(worst, max((b - a) / es[0]
                               for a, b in zip(es, es[1:])))
        checked += 1
    yield ("energy_monotone", 20 * checked, -worst, worst <= 1e-12)

    u0, u1 = cfg.data_pair(cfg.dim[0])
    worst = 0.0
    for _ in range(100):
        t = rng.uniform(0.0, 1e3)
        rr = np.exp(rng.uniform(math.log(1e-6), math.log(1e3), 100))
        md = modes.remainder_terms(t, rr, u0, u1)
        scale = (np.abs(md.u_hat) + np.abs(md.profile)
                 + sum(np.abs(k) for k in md.K))
        resid = md.closure_residual
        ok_pts = resid <= 1e-10 * scale + 1e-300
        if not np.all(ok_pts):
            worst = max(worst, float(np.max(resid - 1e-10 * scale)))
    yield ("mode_closure_identity", 10_000, 1e-300 - worst, worst <= 1e-300)


def cmd_lemmas(cfg: RunConfig) -> int:
    rep = Report(cfg, "name", "samples", "margin", "status")
    failures = []
    for name, count, margin, ok in _suite_lines(cfg):
        rep.row(name, count, format(margin, ".6e"), "PASS" if ok else "FAIL")
        if not ok:
            failures.append(name)
    return rep.finish(failures)


# -- decay and profile -------------------------------------------------------

def _band(rep: Report, failures: list, n: int, label: str, values,
          limit: float, power: int = 1) -> None:
    """Comment the max/min ratio of the positive values (if any), raised
    to ``power``, and add a FAIL message, naming the label in words,
    where it exceeds limit."""
    positive = [v for v in values if v > 0.0]
    if positive:
        ratio = (max(positive) / min(positive)) ** power
        rep.comment(f"n={n} {label} ratio={ratio:.4f} limit={limit:g}")
        if ratio > limit:
            failures.append(f"n={n} {label.replace('-', ' ')} ratio "
                            f"{ratio:.4f}")


def _rate(n: int, t: float) -> float:
    """F_n(t), the paper's optimal rate: C1 F_n <= ||u(t)||^2 <= C2 F_n
    for a velocity of mass P1 != 0, with F_1 = t, F_2 = log t and
    F_n = t^(-(n-2)/2) for n >= 3.  As u_hat ~ P1 e^{-at} sin(rt)/r,
    ||u||^2 ~ (2 pi)^(-n) P1^2 M(t, n, "sin"); for n = 2, r = s/sqrt(t)
    makes that integral (pi/2)(log 4t + gamma) + o(1), gamma Euler's
    constant, so F_2 = log 4t + gamma keeps the band flat (0.12 % over
    t = 1e2 ... 1e12, where ||u||^2 / log t falls by a factor 1.33)."""
    if n == 1:
        return t
    if n == 2:
        return math.log(4.0 * t) + 0.5772156649015329
    return t ** (-(n - 2) / 2.0)


def cmd_decay(cfg: RunConfig) -> int:
    ts = cfg.t_grid()
    rep = Report(cfg, "n", "t", "norm", "scaled")
    failures = []
    for n in cfg.dim:
        u0, u1 = cfg.data_pair(n)
        vals = [norms.l2_norm(t, u0, u1, n, rel_tol=1e-9) for t in ts]
        # ||u|| / sqrt(F_n): its square underflows for tiny data.
        scaled = [v / math.sqrt(_rate(n, t)) for v, t in zip(vals, ts)]
        for t, v, s in zip(ts, vals, scaled):
            rep.row(n, t, _fmt(v), _fmt(s))
        if _zero_data(u0, u1):
            rep.comment(f"n={n} zero data: no rate to check")
        else:
            _band(rep, failures, n, "squared-norm/rate", scaled, cfg.tol,
                  power=2)
    return rep.finish(failures)


def cmd_profile(cfg: RunConfig) -> int:
    ts = cfg.t_grid()
    rep = Report(cfg, "n", "t", "residual", "scaled", "I0")
    failures = []
    for n in cfg.dim:
        u0, u1 = cfg.data_pair(n)
        i0 = norms.data_constant(u0, u1)
        vals = [norms.residual_norm(t, u0, u1, n) for t in ts]
        scaled = [v * t ** (n / 4.0) for v, t in zip(vals, ts)]
        for t, v, s in zip(ts, vals, scaled):
            rep.row(n, t, _fmt(v), _fmt(s), _fmt(i0))
        _band(rep, failures, n, "scaled-residual", scaled, cfg.tol)
        if i0 == math.inf:  # a first moment outside the doubles
            rep.comment(f"n={n} I0 check not applicable (I0 = inf)")
        elif i0 > 0.0 and max(scaled) > cfg.i0_multiple * i0:
            failures.append(
                f"n={n} scaled residual {max(scaled):.4f} exceeds "
                f"{cfg.i0_multiple:g} * I0 = {cfg.i0_multiple * i0:.4f}")
    return rep.finish(failures)


# -- entry point --------------------------------------------------------------

# Each command: its function, its help line, the options it reads with
# their defaults, and what its --tol bounds (None if it reads no --tol).
_COMMANDS = {
    "special": (cmd_special, "weight integrals, scalings, identities",
                {"t_min": 1.0, "t_max": 1000.0, "t_points": 4,
                 "log_grid": True, "tol": 1e-10},
                "limit on the relative error of the h0 identity"),
    "lemmas": (cmd_lemmas, "inequality suites with PASS/FAIL lines",
               {"dim": "1,2,3", "seed": 12345, "samples": 1000, **_DATA},
               None),
    "decay": (cmd_decay, "squared L2 norm over its optimal rate",
              {"dim": "1,2,3", "t_min": 1e2, "t_max": 1e5, "t_points": 20,
               "log_grid": True, "tol": 1.25, **_DATA},
              "limit on the max/min ratio of the squared norm over its "
              "rate"),
    "profile": (cmd_profile, "scaled distance to the mass profile",
                {"dim": "1,2,3", "t_min": 1e2, "t_max": 1e4, "t_points": 9,
                 "log_grid": True, "tol": 3.0, "i0_multiple": 1.0, **_DATA},
                "limit on the max/min ratio of the scaled residual"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logdamp",
        description="verification runs for the log-damped wave equation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, defaults, tol_help) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        helps = {**_HELP, "tol": tol_help}
        for key in defaults:
            if key == "log_grid":
                p.add_argument("--log-grid", dest=key, action="store_const",
                               const=True)
                p.add_argument("--linear-grid", dest=key,
                               action="store_const", const=False)
            elif key not in _DATA:
                p.add_argument("--" + key.replace("_", "-"), dest=key,
                               help=helps.get(key))
        p.add_argument("--out", help="also write the CSV/report to this path")
        p.add_argument("--config", help="flat key = value config file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.command, args)
        return _COMMANDS[args.command][0](cfg)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return E_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return E_USAGE
    except (ArithmeticError, quadrature.EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return E_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
