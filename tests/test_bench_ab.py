"""scripts/bench_ab.py: one tiny workload against itself and a changed copy."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _report(parent: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_ab.py"),
         "--workload", "profile-1e7", "--rounds", "2", "--tiny",
         "--parent", str(parent)],
        check=True, capture_output=True, text=True, timeout=300)
    return json.loads(proc.stdout.splitlines()[-1])


def test_bench_ab_times_both_checkouts_and_matches_bits(tmp_path):
    report = _report(ROOT)
    assert report["workload"] == "profile-1e7" and report["tiny"]
    assert set(report["kinds"]) == {"norms.residual_norm"}
    row = report["kinds"]["norms.residual_norm"]
    assert row["calls"] == report["total"]["calls"] > 0
    assert row["parent_s"] > 0.0 and row["change_s"] > 0.0
    assert row["speedup"] == row["parent_s"] / row["change_s"]
    assert row["match"] and row["max_rel_diff"] == 0.0

    # A parent whose residual_norm is off by 2 ulps is reported.
    shutil.copytree(ROOT / "src", tmp_path / "src")
    with open(tmp_path / "src" / "logdamp" / "norms.py", "a") as fh:
        fh.write("\n_exact = residual_norm\n\n\n"
                 "def residual_norm(*args, **kwargs):\n"
                 "    return _exact(*args, **kwargs) * (1.0 + 2.0 ** -51)\n")
    row = _report(tmp_path)["kinds"]["norms.residual_norm"]
    assert not row["match"] and 1e-16 < row["max_rel_diff"] < 1e-15
