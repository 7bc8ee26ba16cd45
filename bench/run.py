"""hraidlab benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload paper_grid --seed 2 --seconds 30 --trace 0

``--trace 0`` times repeated untraced passes of the workload and reports
the end-to-end metrics (``setup_s``, ``wall_s``, ``cpu_s``,
``peak_rss_mb``).  ``--trace 1`` runs the traced layer suite instead and
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are the run record and a readable
summary that also gives ``error_rate``.  See bench/NOTES.md.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here, before any import below

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hraidlab  # noqa: E402
import harness  # noqa: E402

if Path(hraidlab.__file__).resolve().parent != ROOT / "src" / "hraidlab":
    sys.exit(f"hraidlab must come from {ROOT / 'src'}, found {hraidlab.__file__}")

#: Timed passes per run, at least, however short ``--seconds`` is.
MIN_PASSES = 3

#: Set-ups per run (this process plus fresh child processes); setup_s is
#: their median.
SETUP_RUNS = 5

#: Scratch space for the strip-tree round trip and the span dump.
TMP_DIR = ROOT / ".bench_tmp"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _cpu_info() -> dict:
    info = {"model": platform.processor() or "unknown", "caches": {}}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return info


def run_record(args, sizes: harness.Sizes) -> dict:
    threads = {
        "paper_grid": harness.PaperGrid.THREADS,
        "scale_crosscheck": harness.ScaleCrosscheck.THREADS,
        "codec_rebuild": 1,
    }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "hraidlab": hraidlab.__version__,
        "cpu": _cpu_info(),
        "threads": threads if args.trace else threads[args.workload],
        "sizes": dataclasses.asdict(sizes),
    }


def setup(args, sizes: harness.Sizes, ck: harness.Checks):
    """Build the workload's inputs and warm it up; return it."""
    wl = harness.make_workload(args.workload, args.seed, sizes, harness.NULL_TRACER, ck, TMP_DIR)
    wl.warm_up()
    return wl


def child_setup_seconds(args) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def timed_run(args, sizes: harness.Sizes, ck: harness.Checks) -> dict:
    wl = setup(args, sizes, ck)
    own_setup = time.perf_counter() - _T0

    walls, cpus = [], []
    t_start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - t_start < args.seconds:
        w0, c0 = time.perf_counter(), time.process_time()
        wl.run_pass(harness.NULL_TRACER)
        cpus.append(time.process_time() - c0)
        walls.append(time.perf_counter() - w0)
    wl.after_passes(harness.NULL_TRACER)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    del wl
    gc.collect()

    setups = [own_setup] + [child_setup_seconds(args) for _ in range(SETUP_RUNS - 1)]
    print(f"passes: {len(walls)}; wall_s per pass: {[round(w, 4) for w in walls]}")
    print(f"setup_s per set-up: {[round(s, 4) for s in setups]}")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss_mb,
    }


def traced_run(args, sizes: harness.Sizes, ck: harness.Checks) -> dict:
    metrics, tracer = harness.trace_suite(args.seed, sizes, ck, TMP_DIR)
    dump = TMP_DIR / f"spans-seed{args.seed}.json"
    dump.write_text(json.dumps(tracer.as_records()))
    print(f"spans: {len(tracer.spans)} written to {dump.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sizes = harness.TINY if args.tiny else harness.FULL
    TMP_DIR.mkdir(exist_ok=True)
    ck = harness.Checks()

    if args.setup_only:
        setup(args, sizes, ck)
        print(time.perf_counter() - _T0)
        return 0

    print("run record: " + json.dumps(run_record(args, sizes)))
    if args.trace:
        values = traced_run(args, sizes, ck)
    else:
        measured = timed_run(args, sizes, ck)
        values = {name: (v, END_TO_END_UNITS[name]) for name, v in measured.items()}
    for note in ck.notes:
        print(note)
    error_rate = ck.failed / ck.attempted
    print(f"{args.workload}: error_rate {error_rate:.6g} ({ck.failed} failed of {ck.attempted})")
    for name, (value, unit) in values.items():
        print(f"{args.workload}: {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": ck.wrong == 0,
        "attempted": ck.attempted,
        "failed": ck.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
