"""The benchmark's calls into hraidlab still work: a change to a public name
or signature the benchmark uses fails here, not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

from hraidlab import sweep

HARNESS = Path(__file__).resolve().parent.parent / "bench" / "harness.py"


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("bench_harness", HARNESS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("workload", ["paper_grid", "scale_crosscheck", "codec_rebuild"])
def test_workload_warm_up_passes_every_check(harness, workload, tmp_path):
    ck = harness.Checks()
    work = harness.make_workload(workload, 2, harness.TINY, harness.NULL_TRACER, ck, tmp_path)
    work.warm_up()
    assert ck.attempted > 0
    assert ck.failed == 0, ck.notes


def test_paper_grid_assembly_equals_sweep(harness):
    """The benchmark's per-cell assembly of the 16-cell grid is exactly what
    ``sweep`` runs, so its timed passes measure the sweep."""
    ck = harness.Checks()
    grid = harness.PaperGrid(2, harness.TINY, harness.NULL_TRACER, ck)
    result, _ = grid.run_pass(harness.NULL_TRACER)
    reference = sweep(12, 12, grid.RATES, harness.TINY.grid_trials, 2, threads=1)
    assert result == reference
    assert result.to_csv() == reference.to_csv()
    assert ck.failed == 0, ck.notes
