"""Record the benchmark of one checkout in a ``BENCH_<pr>.json`` file.

Usage (from the repository root):

    python3 scripts/bench_record.py --out BENCH_27.json --label change
    python3 scripts/bench_record.py --out BENCH_27.json --label parent \\
        --root ../logdamp-parent

It runs the checkout's own ``bench/run.py``, unchanged, as a subprocess
for every workload and seed: once with ``--trace 0`` (the end-to-end
metrics) and once with ``--trace 1`` (the per-layer metrics).  Each run
is kept with its result line, its wall time and its child CPU time
(user plus system from ``getrusage(RUSAGE_CHILDREN)``, which includes
the set-up probes ``bench/run.py`` starts).  The record's header is the
``# env`` line of the first run (machine, Python, numpy, git commit,
``src_lines``) plus the settings used.  Records under other labels in
``--out`` are kept, so one file holds the parent's and the change's.

``--tiny`` runs the benchmark's shrunken workloads, to check the
schema quickly; such a record says so in its header.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("lemmas-mix", "decay-1e8", "profile-1e7")
SCHEMA = 1


def _child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(root: Path, workload: str, seed: int, trace: int,
             seconds: float, tiny: bool) -> tuple[dict, dict]:
    """One ``bench/run.py`` run: (its record, its ``# env`` header)."""
    cmd = [sys.executable, str(root / "bench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    cpu, wall = _child_cpu(), time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root)
    wall, cpu = time.perf_counter() - wall, _child_cpu() - cpu
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), {})
    record = {"workload": workload, "seed": seed, "trace": trace,
              "wall_s": wall, "child_cpu_s": cpu,
              "result": json.loads(lines[-1])}
    return record, env


def record(root: Path, workloads, seeds, seconds: float,
           tiny: bool) -> dict:
    runs, header = [], None
    for workload in workloads:
        for seed in seeds:
            for trace in (0, 1):
                run, env = run_once(root, workload, seed, trace, seconds,
                                    tiny)
                runs.append(run)
                header = header or env
    return {"header": {**(header or {}), "seconds": seconds, "tiny": tiny,
                       "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                 time.gmtime())},
            "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--label", required=True,
                        help="the record's key in --out, e.g. parent")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="the checkout to measure (default: this one)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")
    seeds = [int(s) for s in args.seeds.split(",")]

    out = {"schema": SCHEMA, "records": {}}
    if args.out.is_file():
        out = json.loads(args.out.read_text(encoding="utf-8"))
    out["records"][args.label] = record(args.root.resolve(), workloads,
                                        seeds, args.seconds, args.tiny)
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
