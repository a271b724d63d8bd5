"""Smoke tests for the benchmark, so it cannot rot.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import LAYER_METRICS  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:] + proc.stdout[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in LAYER_METRICS]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_reports_every_end_to_end_metric(workload):
    result = last_json(run_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    for metric in BENCH["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert value["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke_reports_every_layer_metric_and_repeats_counts(workload):
    first = last_json(run_bench(workload, 1))
    second = last_json(run_bench(workload, 1))
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    counts = [name for name, unit, _, _ in LAYER_METRICS if unit == "count"]
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["oracle.step_limit_hits"]["value"] == 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("fuzz-check", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
