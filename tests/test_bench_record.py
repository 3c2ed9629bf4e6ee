"""scripts/bench_record.py: one tiny workload, and the record's schema."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_record_writes_both_traces_and_keeps_other_labels(tmp_path):
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"schema": 1, "records": {"parent": {}}}))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_record.py"),
         "--out", str(out), "--label", "change", "--workloads",
         "profile-1e7", "--seeds", "1", "--seconds", "0.05", "--tiny"],
        check=True, cwd=tmp_path, timeout=300)
    data = json.loads(out.read_text())
    assert data["schema"] == 1 and set(data["records"]) == {"parent",
                                                            "change"}
    rec = data["records"]["change"]
    header = rec["header"]
    for key in ("cpu", "nproc", "python", "numpy", "git_commit",
                "src_lines"):
        assert key in header
    assert header["tiny"] is True and header["seconds"] == 0.05
    assert header["src_lines"] > 0
    runs = rec["runs"]
    assert [(r["workload"], r["seed"], r["trace"]) for r in runs] == [
        ("profile-1e7", 1, 0), ("profile-1e7", 1, 1)]
    for run in runs:
        assert run["child_cpu_s"] > 0.0 and run["wall_s"] > 0.0
        assert run["result"]["correct"] and run["result"]["failed"] == 0
    end_to_end, per_layer = (r["result"]["metrics"] for r in runs)
    assert {"results_per_s", "certified_frac", "setup_s",
            "peak_rss_mb"} <= set(end_to_end)
    assert end_to_end["certified_frac"]["value"] == 1.0
    assert per_layer["quadrature.panels"]["value"] > 0
    assert per_layer["norms.panels_per_result"]["unit"] == "ratio"
