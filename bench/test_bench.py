"""Tests of the benchmark itself, at the ``--tiny`` size.

Run from the repository root with ``python -m pytest bench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import mpmath as mp  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from logdamp import quadrature  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _restore_environment(monkeypatch):
    # run.measure() pins the thread variables and unsets LOGDAMP_THREADS.
    for var in (*run.THREAD_VARS, "LOGDAMP_THREADS"):
        monkeypatch.setenv(var, "1")


def bench(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds",
                     "0.1", "--trace", str(trace), "--tiny"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0].startswith("# env ")
    return json.loads(out[-1])


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"),
                                         (1, "per_layer")])
def test_every_metric_prints_with_its_unit(capsys, trace, group):
    result = bench(capsys, "lemmas-mix", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[group]}


def test_off_by_design_reference_is_counted_failed(capsys, monkeypatch):
    base = bench(capsys, "lemmas-mix", 1)
    calls = workloads.build("lemmas-mix", 3, tiny=True)
    shifted = sum(c.ref == "mp_I" for c in calls)
    assert shifted > 0
    true_I = reference.mp_I
    monkeypatch.setattr(reference, "mp_I",
                        lambda t, p: true_I(t, p) * (1 + mp.mpf("1e-6")))
    result = bench(capsys, "lemmas-mix", 1)
    assert result["failed"] == base["failed"] + shifted
    assert result["metrics"]["failed_frac"]["value"] == pytest.approx(
        result["failed"] / result["attempted"])
    # No known defect covers I_p, so the run is no longer correct.
    assert base["correct"] is True and result["correct"] is False


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_evals_equal_engine_abscissae(monkeypatch, workload):
    engine = {"abscissae": 0}
    panel_rule = quadrature._panel_rule

    def counting_rule(f, a, b):
        engine["abscissae"] += len(quadrature._XGK) * len(a)
        return panel_rule(f, a, b)

    monkeypatch.setattr(quadrature, "_panel_rule", counting_rule)
    modules = run._library()
    calls = workloads.build(workload, 5, tiny=True)
    tracer = Tracer()
    with tracer.installed():
        run.run_pass(modules, calls)
    metrics = layer_metrics(tracer.spans)
    assert engine["abscissae"] > 0
    assert metrics["quadrature.evals"] == engine["abscissae"]


def test_same_seed_same_inputs():
    def labels(seed):
        return [(c.fn, c.label) for w in workloads.WORKLOADS
                for c in workloads.build(w, seed, tiny=True)]
    assert labels(8) == labels(8)
    assert labels(8) != labels(9)


@pytest.mark.parametrize("kind,n", workloads.M_CASES)
def test_m_table_matches_its_generator(kind, n):
    t = workloads.M_TIMES[0]
    table = mp.mpf(reference.M_TABLE[(t, n, kind)])
    assert abs(reference.m_integral_mp(t, n, kind) / table - 1) < 1e-20


def test_refuses_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decay-1e8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
