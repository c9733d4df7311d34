"""Smoke test of the benchmark harness: ``python3 -m pytest perf/test_smoke.py``.

Lives under ``perf/`` so tier-1 (``testpaths = tests, benchmarks``) does not
collect it.  Runs the whole suite in ``--quick`` mode and checks the metric
names and units against BENCHMARK.json, that no op failed, and that the run
left the working tree as it found it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent


def _git_status() -> "str | None":
    status = subprocess.run(
        ["git", "-C", str(ROOT), "status", "--porcelain"],
        capture_output=True, text=True, check=False,
    )
    return status.stdout if status.returncode == 0 else None


def test_quick_suite_reports_every_metric_and_leaves_the_tree_clean():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    before = _git_status()
    out = PERF / "out" / "quick.json"
    suite = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--quick", "--out", str(out)],
        capture_output=True, text=True, check=False, timeout=300,
    )
    assert suite.returncode == 0, suite.stdout + suite.stderr
    row = json.loads(out.read_text(encoding="utf-8"))
    expected = {metric["name"]: metric["unit"] for metric in contract["end_to_end"]}
    assert set(row["workloads"]) == {w["name"] for w in contract["workloads"]}
    for name, result in row["workloads"].items():
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1, name
        units = {metric: value["unit"] for metric, value in result["metrics"].items()}
        assert units == expected, name
        assert all(value["value"] > 0 for value in result["metrics"].values()), name
    assert _git_status() == before


def test_traced_run_reports_every_per_layer_metric():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {metric["name"]: metric["unit"] for metric in contract["per_layer"]}
    for workload in ("batch_plan", "stream_drift"):
        run = subprocess.run(
            [sys.executable, str(PERF / "run.py"), "--workload", workload,
             "--quick", "--trace", "1"],
            capture_output=True, text=True, check=False, timeout=300,
        )
        assert run.returncode == 0, run.stdout + run.stderr
        result = json.loads(run.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        units = {metric: value["unit"] for metric, value in result["metrics"].items()}
        assert units == expected
        assert (PERF / "out" / f"{workload}.spans.jsonl").stat().st_size > 0
        assert (PERF / "out" / f"{workload}.trace.json").stat().st_size > 0
