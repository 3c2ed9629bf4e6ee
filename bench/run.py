"""The logdamp benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 bench/run.py --workload lemmas-mix --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` next to this directory and driven
through the public functions of ``logdamp.norms`` and ``logdamp.special``
by one closed-loop caller: one process, one thread, one call in flight,
``LOGDAMP_THREADS`` unset.  Complete passes over the workload's calls
are timed until ``--seconds`` have passed; every pass must return the
same values bit for bit, and the values of a pass are then checked
outside the timed region by ``reference.py``.

With ``--trace 0`` the result holds the end-to-end metrics; set-up time
is the median over fresh processes that each import the library,
generate the inputs and make one warm-up call.  With ``--trace 1`` the
untraced passes are followed by one traced pass, and the result holds
the per-layer metrics of ``tracer.py``.

The last line of standard output is the result; the lines before it
are the environment header (``# env``) and one ``# FAIL`` line per
failed call.  Exit code 0 means a result was printed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
# A single-threaded caller: no BLAS or OpenMP worker threads either.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# -- environment --------------------------------------------------------------

def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    value = _read(git / ref)
    if value:
        return value
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(threads_env: str | None) -> dict:
    import numpy

    cpu = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.partition(":")[2].strip()
            break
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level = _read(index / "level")
        if level in ("2", "3") and _read(index / "type") != "Instruction":
            caches[f"L{level}"] = _read(index / "size")
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "cpu": cpu, "nproc": os.cpu_count(), **caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": _git_commit(), "src_lines": src_lines,
        "LOGDAMP_THREADS": threads_env,
    }


# -- running the calls --------------------------------------------------------

def _library():
    for path in (str(BENCH_DIR), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import logdamp
    if Path(logdamp.__file__).resolve().parent != SRC / "logdamp":
        raise BenchError(f"imported logdamp from {logdamp.__file__}")
    from logdamp import norms, special
    return {"norms": norms, "special": special}


def run_call(modules, call, outputs):
    fn = getattr(modules[call.module], call.fn)
    try:
        return fn(*call.resolve(outputs), **call.kwargs)
    except Exception as exc:  # a failed call is a result, not a crash
        return exc


def run_pass(modules, calls):
    outputs = []
    start = time.perf_counter()
    for call in calls:
        outputs.append(run_call(modules, call, outputs))
    return time.perf_counter() - start, outputs


def _same(a, b) -> bool:
    """Bit-identical values, or exceptions of one type and message."""
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    if isinstance(a, tuple):
        return (isinstance(b, tuple) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    return float(a).hex() == float(b).hex()


def timed_passes(modules, calls, seconds: float):
    """Complete passes until ``seconds`` are used; (walls, outputs, ok)."""
    walls, first, stable = [], None, True
    begin = time.perf_counter()
    while True:
        wall, outputs = run_pass(modules, calls)
        walls.append(wall)
        if first is None:
            first = outputs
        else:
            stable = stable and all(map(_same, first, outputs))
        del outputs
        # Each pass starts from the same heap, so peak memory does not
        # grow with the number of passes a run fits in.
        gc.collect()
        elapsed = time.perf_counter() - begin
        # Stop when another pass would end further past the budget than
        # stopping now falls short of it.
        if elapsed + 0.5 * statistics.median(walls) >= seconds:
            return walls, first, stable


def setup_seconds(workload: str, seed: int, tiny: bool) -> float:
    """Median time from process start to the first timed call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic_ns()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        ready = int(proc.stdout.split()[-1])
        times.append((ready - start) / 1e9)
    return statistics.median(times)


def probe(workload: str, seed: int, tiny: bool) -> int:
    modules = _library()
    from workloads import build

    calls = build(workload, seed, tiny)
    run_call(modules, calls[0], [])
    print("ready", time.monotonic_ns())
    return 0


# -- the gate and the result --------------------------------------------------

def gate(calls, outputs):
    """Failed calls as (call, reason, known defect or None).

    A reference that cannot be computed is a failure no known defect
    covers, so it makes the run incorrect.
    """
    from reference import ReferenceFailed, check_call, known_defect

    failures = []
    for call, value in zip(calls, outputs):
        try:
            reason = check_call(call, value)
        except ReferenceFailed as exc:
            failures.append((call, str(exc), None))
            continue
        if reason is not None:
            failures.append((call, reason, known_defect(call)))
    return failures


def traced_pass(modules, calls):
    """One pass with every layer traced: (wall, outputs, tracer)."""
    from tracer import Tracer

    tracer = Tracer()
    with tracer.installed():
        wall, outputs = run_pass(modules, calls)
    return wall, outputs, tracer


def _per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args) -> tuple[dict, list[str]]:
    if not (SRC / "logdamp" / "__init__.py").is_file():
        raise BenchError(f"no logdamp package under {SRC}")
    threads_env = os.environ.pop("LOGDAMP_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    setup_s = None
    if not args.trace:
        setup_s = setup_seconds(args.workload, args.seed, args.tiny)
    modules = _library()
    from workloads import build

    calls = build(args.workload, args.seed, args.tiny)
    run_call(modules, calls[0], [])
    walls, outputs, stable = timed_passes(modules, calls, args.seconds)
    wall = statistics.median(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    lines = ["# env " + json.dumps(environment(threads_env))]
    lines.append(f"# passes={len(walls)} median_pass_s={wall!r} "
                 f"pass_s={[round(w, 4) for w in walls]}")
    if args.trace:
        traced_wall, traced_out, tracer = traced_pass(modules, calls)
        stable = stable and all(map(_same, outputs, traced_out))
        spans_path = BENCH_DIR / "out" / (
            f"spans-{args.workload}-{args.seed}.jsonl")
        spans_path.parent.mkdir(exist_ok=True)
        tracer.write(spans_path)
        lines.append(f"# spans={len(tracer.spans)} written to "
                     f"{spans_path.relative_to(ROOT)}")

    start = time.perf_counter()
    failures = gate(calls, outputs)
    lines.append(f"# gate_s={time.perf_counter() - start!r}")
    unknown = [f for f in failures if f[2] is None]
    for call, reason, defect in failures:
        lines.append(f"# FAIL {args.workload} {call.fn}({call.label}): "
                     f"{reason}" + (f" [known: {defect}]" if defect else ""))
    if not stable:
        lines.append("# FAIL outputs differ between passes")

    attempted, failed = len(calls), len(failures)
    if args.trace:
        from tracer import layer_metrics

        traced = layer_metrics(tracer.spans)
        traced["trace.overhead_frac"] = traced_wall / wall - 1.0
        traced["failed_frac"] = failed / attempted
        traced["special.failed"] = sum(c.module == "special"
                                       for c, _, _ in failures)
        units = _per_layer_units()
        metrics = {name: metric(value, units[name])
                   for name, value in sorted(traced.items())}
    else:
        metrics = {
            "results_per_s": metric((attempted - failed) / wall, "1/s"),
            "certified_frac": metric(1.0 - failed / attempted, "ratio"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    result = {"correct": stable and not unknown, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("lemmas-mix", "decay-1e8", "profile-1e7"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (the benchmark's tests)")
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.probe:
            return probe(args.workload, args.seed, args.tiny)
        result, lines = measure(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
