"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from hraidlab import sweep  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--tiny", "--seed", "2", "--seconds", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return result


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_emits_every_end_to_end_metric(workload):
    done = run_bench(ROOT, "--workload", workload, "--trace", "0")
    result = last_json(done)
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert f"{workload}: error_rate " in done.stdout
    # only the two edge probes of scale_crosscheck may fail
    assert result["failed"] <= (2 if workload == "scale_crosscheck" else 0)


def test_traced_run_emits_every_per_layer_metric():
    result = last_json(run_bench(ROOT, "--workload", "paper_grid", "--trace", "1"))
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_paper_grid_assembly_equals_sweep():
    """The per-cell spans time exactly what ``sweep`` runs."""
    ck = harness.Checks()
    grid = harness.PaperGrid(2, harness.TINY, harness.NULL_TRACER, ck)
    result, _ = grid.run_pass(harness.NULL_TRACER)
    reference = sweep(12, 12, grid.RATES, harness.TINY.grid_trials, 2, threads=1)
    assert result.to_csv() == reference.to_csv()
    assert ck.failed == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "paper_grid", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
