"""Interleaved A/B timing of two checkouts on one benchmark workload.

Usage (from the repository root):

    python3 scripts/bench_ab.py --workload decay-1e8 --rounds 9 \\
        --parent ../logdamp-parent

The workload's calls are built once by this checkout's unchanged
``bench/workloads.py``.  Each checkout's ``src/logdamp`` is loaded under
a package name of its own into this one process, and every datum of a
call is rebuilt as that checkout's ``InitialDataSpec``.  In each round
every call runs once on each checkout, the two runs back to back and in
alternating order, so a drift of the host's speed over seconds or
minutes falls on both sides alike; separate ``bench/run.py`` processes
see it as noise of the size of the gain.

For each call kind (``module.fn``) it prints the number of calls, the
sum over those calls of each call's minimum wall time on each side,
their ratio, whether every value of the kind matched bit for bit in
every round (exceptions match by type and message), and the largest
relative difference of a value between the sides.  The last line is the
same report as JSON.  ``--tiny`` uses the benchmark's shrunken
workloads.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("lemmas-mix", "decay-1e8", "profile-1e7")


def load(root: Path, name: str) -> dict:
    """``root``'s ``src/logdamp`` imported as the package ``name``: its
    ``norms``, ``special`` and ``modes`` modules by their short names."""
    pkg = root / "src" / "logdamp"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {short: importlib.import_module(f"{name}.{short}")
            for short in ("norms", "special", "modes")}


def _localize(value, modes):
    """``value`` with every ``InitialDataSpec`` rebuilt by ``modes``."""
    if type(value).__name__ == "InitialDataSpec":
        return modes.InitialDataSpec(value.family, value.amplitude,
                                     value.width, value.dimension)
    if isinstance(value, tuple):
        return tuple(_localize(v, modes) for v in value)
    return value


def _rel_diff(a, b) -> float:
    """Largest relative difference of two results' values (0 for
    exceptions, which ``bench/run.py``'s ``_same`` compares)."""
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return 0.0
    if isinstance(a, tuple):
        return max((_rel_diff(x, y) for x, y in zip(a, b)), default=0.0)
    a, b = float(a), float(b)
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


def _timed(fn, args, kwargs):
    start = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # a failed call is a value to compare
        out = exc
    return time.perf_counter() - start, out


def compare(calls, sides, rounds: int) -> dict:
    """Per call kind: calls, summed per-call minimum seconds of each
    side, whether every value matched bit for bit, and the largest
    relative difference of a value from the parent's."""
    from run import _same

    prepared = [[(getattr(s[call.module], call.fn),
                  _localize(call.args, s["modes"]), call.kwargs)
                 for call in calls] for s in sides]
    best = [[math.inf] * len(calls) for _ in sides]
    match = [True] * len(calls)
    diff = [0.0] * len(calls)
    for rnd in range(rounds):
        outputs = [[] for _ in sides]
        for i, call in enumerate(calls):
            for j in ((0, 1) if (rnd + i) % 2 else (1, 0)):
                fn, args, kwargs = prepared[j][i]
                args = tuple(outputs[j][a.index]
                             if type(a).__name__ == "FromCall" else a
                             for a in args)
                wall, out = _timed(fn, args, kwargs)
                best[j][i] = min(best[j][i], wall)
                outputs[j].append(out)
            match[i] = match[i] and _same(outputs[0][i], outputs[1][i])
            diff[i] = max(diff[i], _rel_diff(outputs[0][i], outputs[1][i]))
        del outputs
        gc.collect()
    kinds: dict[str, dict] = {}
    for i, call in enumerate(calls):
        kind = kinds.setdefault(f"{call.module}.{call.fn}", {
            "calls": 0, "parent_s": 0.0, "change_s": 0.0, "match": True,
            "max_rel_diff": 0.0})
        kind["calls"] += 1
        kind["max_rel_diff"] = max(kind["max_rel_diff"], diff[i])
        kind["parent_s"] += best[0][i]
        kind["change_s"] += best[1][i]
        kind["match"] = kind["match"] and match[i]
    total = {"calls": len(calls),
             "parent_s": sum(k["parent_s"] for k in kinds.values()),
             "change_s": sum(k["change_s"] for k in kinds.values()),
             "match": all(match), "max_rel_diff": max(diff, default=0.0)}
    for row in (*kinds.values(), total):
        row["speedup"] = row["parent_s"] / row["change_s"]
    return {"kinds": kinds, "total": total}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--parent", type=Path, required=True,
                        help="the checkout to compare this one against")
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    if not (args.parent / "src" / "logdamp" / "__init__.py").is_file():
        parser.error(f"no src/logdamp package under {args.parent}")

    for path in (str(ROOT / "bench"), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from workloads import build

    calls = build(args.workload, args.seed, args.tiny)
    sides = [load(args.parent.resolve(), "logdamp_parent"),
             load(ROOT, "logdamp_change")]
    report = compare(calls, sides, args.rounds)
    print(f"# {args.workload} seed={args.seed} rounds={args.rounds}"
          f"{' tiny' if args.tiny else ''}: sum of per-call minimum wall "
          f"times")
    print(f"{'kind':28} {'calls':>5} {'parent_s':>10} {'change_s':>10} "
          f"{'speedup':>7}  match  max_rel_diff")
    for name, row in (*report["kinds"].items(), ("total", report["total"])):
        print(f"{name:28} {row['calls']:5d} {row['parent_s']:10.6f} "
              f"{row['change_s']:10.6f} {row['speedup']:7.3f}  "
              f"{row['match']!s:5}  {row['max_rel_diff']:.2e}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": args.rounds, "tiny": args.tiny, **report},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
