import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from hraidlab import (
    FailureModel,
    HraidConfig,
    MttdlEstimate,
    RunResult,
    SweepCell,
    ValidationError,
    cell_seed,
    d_max,
    d_min,
    estimate_mttdl,
    generate_layout,
    random_payloads,
    resolve_thread_count,
    run_trials,
    sweep,
    trace_trials,
)
from hraidlab import simulator as simulator_module
from hraidlab.config import class_events
from hraidlab.simulator import CHUNK_TRIALS, MAX_TRIALS, THREADS_ENV_VAR

import scalar_reference
from scalar_reference import TrialStream, simulate_trial, trace_jsonl_line

DISK_ONLY = FailureModel(disk_rate=1e-6)
WITH_CONTROLLERS = FailureModel(disk_rate=1e-6, controller_rate=2e-7)


@pytest.mark.parametrize(
    "cfg,rates",
    [
        (HraidConfig(2, 2, 0, 0), DISK_ONLY),
        (HraidConfig(4, 4, 1, 1), DISK_ONLY),
        (HraidConfig(3, 5, 2, 1), DISK_ONLY),
        (HraidConfig(4, 4, 1, 1), WITH_CONTROLLERS),
        (HraidConfig(2, 3, 1, 0), WITH_CONTROLLERS),
        (HraidConfig(9, 6, 2, 2), WITH_CONTROLLERS),
        (HraidConfig(1, 5, 0, 3), DISK_ONLY),
        (HraidConfig(12, 12, 3, 3), DISK_ONLY),
        # gamma > 0 whose gamma/delta underflows to 0.0, and one left subnormal
        (HraidConfig(4, 4, 1, 1), FailureModel(disk_rate=1e30, controller_rate=1e-300)),
        (HraidConfig(4, 4, 1, 1), FailureModel(disk_rate=1e10, controller_rate=1e-300)),
        # N = k + 1 with l >= 1: every node is dead when a trial is absorbed
        (HraidConfig(4, 8, 3, 3), DISK_ONLY),
        (HraidConfig(4, 8, 3, 3), WITH_CONTROLLERS),
        (HraidConfig(2, 3, 1, 1), WITH_CONTROLLERS),
        # gamma/delta = 1e60, the top of the rate domain: every trial loses
        # k + 1 controllers, so all trials are absorbed on the same step
        (HraidConfig(4, 4, 1, 1), FailureModel(disk_rate=1e-30, controller_rate=1e30)),
        (HraidConfig(3, 5, 2, 1), FailureModel(disk_rate=1e-30, controller_rate=1e30)),
    ],
)
def test_scalar_and_batch_engines_are_bit_identical(cfg, rates):
    seed, trials = 2024, 257
    batch = run_trials(cfg, rates, trials, seed)
    for i in range(trials):
        event = simulate_trial(cfg, rates, TrialStream(seed, i))
        assert event.time_hours == batch.times_hours[i], i
        assert event.disk_failures == batch.disk_failures[i], i
        expected_cause = 1 if event.cause == "controller" else 0
        assert batch.causes[i] == expected_cause, i


@pytest.mark.parametrize(
    "cfg,rates",
    [
        (HraidConfig(2, 2, 0, 0), DISK_ONLY),
        (HraidConfig(9, 6, 2, 2), WITH_CONTROLLERS),
        (HraidConfig(4, 8, 3, 3), WITH_CONTROLLERS),
        (HraidConfig(4, 4, 1, 1), FailureModel(disk_rate=1e-30, controller_rate=1e30)),
    ],
)
@pytest.mark.parametrize("seed", [0, 2024])
def test_a_single_trial_run_is_bit_identical_to_the_scalar_engine(cfg, rates, seed):
    # the run ends on the one trial's absorption
    batch = run_trials(cfg, rates, 1, seed)
    event = simulate_trial(cfg, rates, TrialStream(seed, 0))
    assert batch.times_hours.tobytes() == np.float64(event.time_hours).tobytes()
    assert batch.disk_failures.tolist() == [event.disk_failures]
    assert batch.causes.tolist() == [1 if event.cause == "controller" else 0]


#: sha256 of the times_hours, disk_failures and causes bytes of 2,000
#: trials at seed 2 for each case of the test below, as the per-step argmax
#: engine produced them before the batch engine became table-driven.
#: Unlike the scalar-vs-batch check, it catches both engines drifting together.
GOLDEN_DIGEST = "8aa970b190dcf27742987622e2bb7055a3a1921619714017e60bfdf67aa9e785"


def test_batch_engine_matches_golden_digest():
    cases = [(HraidConfig(12, 12, k, ell), DISK_ONLY) for k in range(4) for ell in range(4)]
    cases.append((HraidConfig(48, 12, 3, 3), FailureModel(1e-6, 1e-7)))
    digest = hashlib.sha256()
    for cfg, rates in cases:
        res = run_trials(cfg, rates, 2000, seed=2)
        for values in (res.times_hours, res.disk_failures, res.causes):
            digest.update(values.tobytes())
    assert digest.hexdigest() == GOLDEN_DIGEST


def test_results_do_not_depend_on_thread_count():
    cfg = HraidConfig(4, 4, 1, 1)
    trials = CHUNK_TRIALS + 1200  # force several chunks
    base = run_trials(cfg, DISK_ONLY, trials, seed=7, threads=1)
    for threads in (2, 4, 8):
        other = run_trials(cfg, DISK_ONLY, trials, seed=7, threads=threads)
        assert np.array_equal(base.times_hours, other.times_hours)
        assert np.array_equal(base.disk_failures, other.disk_failures)
        assert np.array_equal(base.causes, other.causes)


@pytest.mark.parametrize(
    "cfg,rates",
    [
        (HraidConfig(4, 4, 1, 1), DISK_ONLY),
        (HraidConfig(9, 6, 2, 2), WITH_CONTROLLERS),
        (HraidConfig(5, 4, 2, 0), DISK_ONLY),
        (HraidConfig(5, 4, 2, 0), WITH_CONTROLLERS),
        # N = k + 1 with l >= 1: every node is dead when a trial is absorbed
        (HraidConfig(4, 8, 3, 3), DISK_ONLY),
        (HraidConfig(4, 8, 3, 3), WITH_CONTROLLERS),
    ],
)
def test_results_do_not_depend_on_chunk_size(monkeypatch, cfg, rates):
    trials, seed = 1200, 13
    base = run_trials(cfg, rates, trials, seed)
    for size in (1, 3, 64, 1000):
        monkeypatch.setattr(simulator_module, "CHUNK_TRIALS", size)
        other = run_trials(cfg, rates, trials, seed)
        for name in ("times_hours", "disk_failures", "causes"):
            assert getattr(other, name).tobytes() == getattr(base, name).tobytes(), (size, name)


def test_repeat_runs_are_identical():
    cfg = HraidConfig(3, 4, 1, 1)
    a = run_trials(cfg, WITH_CONTROLLERS, 500, seed=11)
    b = run_trials(cfg, WITH_CONTROLLERS, 500, seed=11)
    assert np.array_equal(a.times_hours, b.times_hours)
    c = run_trials(cfg, WITH_CONTROLLERS, 500, seed=12)
    assert not np.array_equal(a.times_hours, c.times_hours)


@pytest.mark.parametrize(
    "cfg", [HraidConfig(4, 4, 1, 1), HraidConfig(6, 6, 2, 3), HraidConfig(5, 4, 3, 0)]
)
def test_trace_replays_per_node(cfg):
    # the lumped state, expanded back to nodes by the trace labels, is a
    # valid per-node history
    n, k, ell = cfg.n, cfg.k, cfg.ell
    for i, line in enumerate(trace_trials(cfg, WITH_CONTROLLERS, 200, seed=13)):
        events = json.loads(line)["events"]
        failed = [0] * n
        alive = [True] * n
        for e in events:
            node = e["node"] - 1
            assert alive[node], (i, e)
            if e["kind"] == "disk":
                failed[node] += 1
                assert failed[node] <= ell + 1, (i, e)
                alive[node] = failed[node] <= ell
            else:
                assert e["kind"] == "controller", (i, e)
                alive[node] = False
        assert alive.count(False) == k + 1, i
        assert not alive[events[-1]["node"] - 1]


@pytest.mark.parametrize("rates", [DISK_ONLY, WITH_CONTROLLERS])
def test_largest_second_uniform_picks_last_bin(monkeypatch, rates):
    # every event draws u2 = 1 - 2**-53, the largest uniform a stream can
    # produce; x = u2 * total must still land in a bin: the last nonempty
    # one, so disk-only trials fail one node's disks in turn and
    # controller trials lose k+1 controllers
    top = 1.0 - 2.0**-53
    uniform_at, uniforms_at = scalar_reference.uniform_at, simulator_module.uniforms_at
    monkeypatch.setattr(
        scalar_reference,
        "uniform_at",
        lambda key, counter: top if counter % 2 == 0 else uniform_at(key, counter),
    )
    monkeypatch.setattr(
        simulator_module,
        "uniforms_at",
        lambda keys, counter: (
            np.full(keys.shape, top) if counter % 2 == 0 else uniforms_at(keys, counter)
        ),
    )
    for cfg in [HraidConfig(4, 4, 1, 1), HraidConfig(12, 12, 3, 3), HraidConfig(1, 5, 0, 3)]:
        batch = run_trials(cfg, rates, 20, seed=8)
        controllers = rates.controller_rate > 0
        per_node = 1 if controllers else cfg.ell + 1
        expected_nodes = [node for node in range(1, cfg.k + 2) for _ in range(per_node)]
        expected_disk = 0 if controllers else len(expected_nodes)
        assert np.all(batch.disk_failures == expected_disk)
        assert np.all(batch.causes == int(controllers))
        for i in range(20):
            event = simulate_trial(cfg, rates, TrialStream(8, i))
            assert event.time_hours == batch.times_hours[i]
            assert event.disk_failures == expected_disk
            assert [e.node for e in event.trace] == expected_nodes


def test_trace_is_ordered_and_consistent():
    cfg = HraidConfig(4, 4, 1, 1)
    (line,) = trace_trials(cfg, WITH_CONTROLLERS, 1, seed=3)
    obj = json.loads(line)
    times = [e["time_hours"] for e in obj["events"]]
    assert times == sorted(times)
    assert obj["time_hours"] == times[-1]
    (again,) = trace_trials(cfg, WITH_CONTROLLERS, 1, seed=3)
    assert again == line


def test_zero_tolerance_trial_shape():
    # k=3, l=0 and no controller failures: each disk failure kills a node,
    # loss at exactly the fourth
    cfg = HraidConfig(12, 12, 3, 0)
    results = run_trials(cfg, DISK_ONLY, 400, seed=5)
    assert np.all(results.disk_failures == 4)
    events = json.loads(next(trace_trials(cfg, DISK_ONLY, 1, seed=5)))["events"]
    assert len(events) == 4
    assert all(e["kind"] == "disk" for e in events)
    dead_nodes = [e["node"] for e in events]
    assert len(set(dead_nodes)) == 4


def test_disk_failure_counts_bracketed_by_analytic_bounds():
    for cfg in [HraidConfig(4, 4, 1, 1), HraidConfig(3, 5, 0, 2), HraidConfig(5, 3, 2, 0)]:
        results = run_trials(cfg, DISK_ONLY, 2000, seed=17)
        assert results.disk_failures.min() >= d_min(cfg)
        # one failure beyond the survivable maximum ends the trial
        assert results.disk_failures.max() <= d_max(cfg) + 1


def test_mean_matches_exponential_closed_form():
    # N=12, M=12, k=l=0: a single exponential with rate 144 delta
    cfg = HraidConfig(12, 12, 0, 0)
    est = estimate_mttdl(cfg, DISK_ONLY, trials=20_000, seed=1)
    true_mean = 1.0 / (144 * 1e-6)
    se = est.std_dev_hours / np.sqrt(est.trials)
    assert abs(est.mean_hours - true_mean) < 3.5 * se
    assert est.ci95_low < true_mean < est.ci95_high


def test_causes_reflect_rates():
    cfg = HraidConfig(2, 4, 1, 0)
    quiet = run_trials(cfg, DISK_ONLY, 300, seed=9)
    assert not quiet.causes.any()
    stormy = run_trials(
        cfg, FailureModel(disk_rate=1e-6, controller_rate=1e-4), 300, seed=9
    )
    assert stormy.causes.mean() > 0.5


def test_times_scale_exactly_with_power_of_two_rates():
    # rho is unchanged, so unit times are bit-identical and the final
    # division by a power of two is exact
    cfg = HraidConfig(3, 3, 1, 1)
    slow = run_trials(cfg, FailureModel(1e-6, 5e-7), 300, seed=21)
    fast = run_trials(cfg, FailureModel(1e-6 * 1024, 5e-7 * 1024), 300, seed=21)
    assert np.array_equal(slow.times_hours, fast.times_hours * 1024.0)


def test_estimate_single_trial_degenerates():
    est = MttdlEstimate.from_times(np.array([123.0]), seed=0)
    assert est.trials == 1
    assert est.mean_hours == 123.0
    assert est.std_dev_hours == 0.0
    assert est.ci95_low == est.ci95_high == 123.0


def test_estimate_interval_brackets_mean():
    est = estimate_mttdl(HraidConfig(2, 2, 0, 0), DISK_ONLY, trials=100, seed=3)
    assert est.ci95_low < est.mean_hours < est.ci95_high
    assert est.std_dev_hours > 0.0


def test_run_rejects_bad_trials():
    with pytest.raises(ValidationError):
        run_trials(HraidConfig(2, 2, 0, 0), DISK_ONLY, 0, seed=0)
    with pytest.raises(ValidationError):
        MttdlEstimate.from_times(np.empty(0), seed=0)
    with pytest.raises(ValidationError, match="numpy array of real numbers, got list"):
        MttdlEstimate.from_times([1.0, 2.0], seed=0)
    with pytest.raises(ValidationError, match="loss times must be finite, got nan"):
        MttdlEstimate.from_times(np.array([1.0, np.nan]), seed=0)
    with pytest.raises(ValidationError, match="loss times must be finite, got inf"):
        MttdlEstimate.from_times(np.array([np.inf, 1.0]), seed=0)


@pytest.mark.parametrize(
    "times, refused",
    [
        (np.array([1.0, 2.0], dtype=np.float32), None),
        (np.array([1.0, 2.0], dtype=np.float16), None),
        (np.array([1e300, 0.0]), "1e+300"),  # its spread would overflow
        (np.array([-1.0, 2.0]), "-1.0"),
    ],
    ids=["float32", "float16", "overflow", "negative"],
)
def test_estimate_is_float64_of_times_in_range(times, refused):
    # narrow floats are widened before the mean and spread, and a time below
    # 0 or past MAX_LOSS_HOURS (1e144 h) is refused
    if refused is None:
        est = MttdlEstimate.from_times(times, seed=0)
        assert est == MttdlEstimate.from_times(times.astype(np.float64), seed=0)
        assert est.std_dev_hours == 0.7071067811865476
    else:
        match = rf"^loss times must lie in \[0, 1e\+144\] hours, got {re.escape(refused)}$"
        with pytest.raises(ValidationError, match=match):
            MttdlEstimate.from_times(times, seed=0)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_seeds_outside_64_bits_are_rejected(seed):
    cfg = HraidConfig(3, 3, 1, 1)
    calls = [
        lambda: run_trials(cfg, DISK_ONLY, 4, seed),
        lambda: sweep(3, 3, DISK_ONLY, 4, seed),
        lambda: trace_trials(cfg, DISK_ONLY, 4, seed),
        lambda: random_payloads(generate_layout(cfg), seed, 1),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match=r"seed must be in \[0, 2\*\*64\)"):
            call()


@pytest.mark.parametrize("value", [4.5, True, "4", None])
def test_non_integer_trials_and_seeds_are_rejected(value):
    cfg = HraidConfig(3, 3, 1, 1)
    calls = {
        "trials": [
            lambda: run_trials(cfg, DISK_ONLY, value, 0),
            lambda: estimate_mttdl(cfg, DISK_ONLY, value, 0),
            lambda: sweep(3, 3, DISK_ONLY, value, 0),
            lambda: trace_trials(cfg, DISK_ONLY, value, 0),
        ],
        "seed": [
            lambda: run_trials(cfg, DISK_ONLY, 4, value),
            lambda: estimate_mttdl(cfg, DISK_ONLY, 4, value),
            lambda: sweep(3, 3, DISK_ONLY, 4, value),
            lambda: trace_trials(cfg, DISK_ONLY, 4, value),
            lambda: random_payloads(generate_layout(cfg), value, 1),
        ],
    }
    for name, name_calls in calls.items():
        for call in name_calls:
            message = re.escape(f"{name} must be an integer, got {value!r}")
            with pytest.raises(ValidationError, match=message):
                call()


def test_numpy_integer_trials_and_seeds_are_accepted():
    cfg = HraidConfig(3, 3, 1, 1)
    for seed in (np.uint64(2**64 - 1), np.int64(2**63 - 1)):
        expected = estimate_mttdl(cfg, DISK_ONLY, 9, int(seed))
        assert estimate_mttdl(cfg, DISK_ONLY, np.int64(9), seed).mean_hours == expected.mean_hours
        grid = sweep(3, 3, DISK_ONLY, np.int64(9), seed)
        assert grid.cells == sweep(3, 3, DISK_ONLY, 9, int(seed)).cells


def test_trial_count_bound(monkeypatch):
    def no_chunk(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(simulator_module, "_simulate_chunk", no_chunk)
    cfg = HraidConfig(12, 12)
    calls = [
        lambda trials: run_trials(cfg, DISK_ONLY, trials, 0),
        lambda trials: estimate_mttdl(cfg, DISK_ONLY, trials, 0),
        lambda trials: sweep(12, 12, DISK_ONLY, trials, 0),  # before any cell runs
    ]
    for call in calls:
        for trials in (MAX_TRIALS + 1, 10**30):
            with pytest.raises(ValidationError, match=f"trials must be at most {MAX_TRIALS}, got"):
                call(trials)
    # the bound itself is admitted: read at run time, it can be lowered to a cheap count
    monkeypatch.undo()
    monkeypatch.setattr(simulator_module, "MAX_TRIALS", 5)
    assert run_trials(cfg, DISK_ONLY, 5, 0).trials == 5
    with pytest.raises(ValidationError, match="trials must be at most 5, got 6"):
        run_trials(cfg, DISK_ONLY, 6, 0)


def test_largest_seed_is_accepted():
    assert run_trials(HraidConfig(2, 2, 0, 0), DISK_ONLY, 4, 2**64 - 1).trials == 4


def test_overflowing_total_rate_is_rejected():
    with pytest.raises(ValidationError, match=r"controller_rate must be in \[0, 1e\+30\]"):
        FailureModel(disk_rate=1e-10, controller_rate=1e300)
    # at the edge rates gamma / delta = 1e60, so the total event rate
    # N M + rho N overflows only near N = 10**249, far past the count bound
    # N M < 2**53 that refuses it first, before any per-trial or per-node
    # allocation
    cfg = HraidConfig(10**249, 4, 1, 1)
    rates = FailureModel(disk_rate=1e-30, controller_rate=1e30)
    bound = r"must be below 2\*\*53 for the simulator and the exact chain, got N\*M of 250 digits$"
    with pytest.raises(ValidationError, match=bound):
        run_trials(cfg, rates, 4, seed=0)
    with pytest.raises(ValidationError, match=bound):
        trace_trials(cfg, rates, 4, seed=0)


def test_resolve_thread_count(monkeypatch):
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    assert resolve_thread_count() == 1
    assert resolve_thread_count(3) == 3
    monkeypatch.setenv(THREADS_ENV_VAR, "5")
    assert resolve_thread_count() == 5
    monkeypatch.setenv(THREADS_ENV_VAR, "0")
    assert resolve_thread_count() >= 1
    monkeypatch.setenv(THREADS_ENV_VAR, "soon")
    with pytest.raises(ValidationError):
        resolve_thread_count()
    with pytest.raises(ValidationError):
        resolve_thread_count(-2)


@pytest.mark.parametrize("threads", [2.5, True, "2"])
def test_thread_count_must_be_an_integer(threads, monkeypatch):
    # 2.5 and True once ran, and "2" raised a TypeError
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    bound = rf"^threads must be an integer, got {re.escape(repr(threads))}$"
    with pytest.raises(ValidationError, match=bound):
        resolve_thread_count(threads)
    with pytest.raises(ValidationError, match=bound):
        run_trials(HraidConfig(4, 4, 1, 1), DISK_ONLY, 8, seed=0, threads=threads)


@pytest.mark.parametrize(
    "seed,k,ell,bound",
    [
        # a seed past 2**64 once aliased seed 5, and -1 and 2.5 gave keys
        (2**64 + 5, 1, 1, r"seed must be in \[0, 2\*\*64\), got 18446744073709551621"),
        (-1, 0, 0, r"seed must be in \[0, 2\*\*64\), got -1"),
        (2.5, 0, 0, r"seed must be an integer, got 2\.5"),
        # l = 65536 once gave cell (1, 0)'s seed
        (5, 0, 65536, r"ell must be in 0\.\.3, got 65536"),
        (5, 4, 0, r"k must be in 0\.\.3, got 4"),
        (5, -1, 0, r"k must be in 0\.\.3, got -1"),
        (5, True, 0, r"k must be an integer, got True"),
        (5, 0, 1.0, r"ell must be an integer, got 1\.0"),
    ],
    ids=["seed-past-64-bits", "negative-seed", "float-seed", "ell-65536", "k-4", "negative-k",
         "bool-k", "float-ell"],
)
def test_cell_seed_refuses_values_outside_its_domain(seed, k, ell, bound):
    with pytest.raises(ValidationError, match=rf"^{bound}$"):
        cell_seed(seed, k, ell)


def test_sweep_cells_match_standalone_runs():
    res = sweep(3, 3, DISK_ONLY, trials=64, seed=99)
    for c in res.cells:
        cfg = HraidConfig(3, 3, c.k, c.ell)
        standalone = estimate_mttdl(
            cfg, DISK_ONLY, trials=64, seed=cell_seed(99, c.k, c.ell)
        )
        assert c.estimate == standalone


def test_sweep_skips_invalid_cells():
    res = sweep(4, 4, DISK_ONLY, trials=16, seed=0)
    assert len(res.cells) == 10
    pairs = {(c.k, c.ell) for c in res.cells}
    assert (3, 0) in pairs and (0, 3) in pairs
    assert (3, 1) not in pairs and (2, 2) not in pairs
    with pytest.raises(KeyError):
        res.cell(3, 1)


def test_smallest_sweep_is_the_one_unprotected_cell():
    res = sweep(1, 1, DISK_ONLY, trials=16, seed=4)
    standalone = estimate_mttdl(HraidConfig(1, 1), DISK_ONLY, 16, cell_seed(4, 0, 0))
    assert res.cells == (SweepCell(k=0, ell=0, estimate=standalone),)


def test_sweep_csv_round_trip():
    res = sweep(3, 3, DISK_ONLY, trials=32, seed=1)
    lines = res.to_csv().strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "n", "m", "k", "ell", "delta_per_hour", "gamma_per_hour",
        "trials", "seed", "mttdl_hours", "std_hours", "ci95_low", "ci95_high",
    ]
    assert len(lines) == 1 + len(res.cells)
    row = dict(zip(header, lines[1].split(",")))
    first = res.cells[0]
    assert (int(row["n"]), int(row["m"])) == (3, 3)
    assert (int(row["k"]), int(row["ell"])) == (first.k, first.ell)
    assert float(row["mttdl_hours"]) == first.estimate.mean_hours
    assert float(row["ci95_low"]) == first.estimate.ci95_low
    assert int(row["seed"]) == 1


def test_sweep_json_round_trip():
    res = sweep(3, 3, DISK_ONLY, trials=32, seed=1)
    obj = json.loads(res.to_json())
    assert obj["n"] == 3 and obj["trials"] == 32 and obj["seed"] == 1
    assert len(obj["cells"]) == len(res.cells)
    assert obj["cells"][0]["mttdl_hours"] == res.cells[0].estimate.mean_hours


def test_sweep_table_marks_invalid_cells():
    res = sweep(4, 4, DISK_ONLY, trials=16, seed=0)
    table = res.format_table()
    lines = table.splitlines()
    assert "thousands of hours" in lines[0]
    assert "k=0" in lines[1] and "k=3" in lines[1]
    # the l=3 row only supports k=0; the other columns are dashes
    last = lines[-1]
    assert last.startswith("l=3")
    assert last.count("-") == 3


def test_trace_jsonl_line_is_valid_json():
    # the line is one JSON object, with no newline, of the trial it names
    cfg = HraidConfig(2, 2, 0, 1)
    *_, line = trace_trials(cfg, DISK_ONLY, 8, seed=0)
    assert "\n" not in line
    obj = json.loads(line)
    assert list(obj) == ["trial", "time_hours", "cause", "events"]
    assert obj["trial"] == 7
    assert obj["time_hours"] == run_trials(cfg, DISK_ONLY, 8, seed=0).times_hours[7]
    assert obj["cause"] == "disk_cascade"
    assert len(obj["events"]) == len(simulate_trial(cfg, DISK_ONLY, TrialStream(0, 7)).trace)


def test_engines_share_the_exact_count_bound():
    # float64 class counts are exact only below 2**53: past it c_0 - 1 == c_0
    for n in (10**16, 10**400):
        cfg = HraidConfig(n, 12, 1, 0)
        for run in (
            lambda: run_trials(cfg, DISK_ONLY, 3, seed=0),
            lambda: trace_trials(cfg, DISK_ONLY, 3, seed=0),
            lambda: sweep(n, 12, DISK_ONLY, trials=3, seed=0),
        ):
            with pytest.raises(ValidationError, match=r"below 2\*\*53"):
                run()
    # just below the bound a trial still answers: l = 0 takes k + 1 events
    n = 2**53 // 12 - 1
    assert run_trials(HraidConfig(n, 12, 1, 0), DISK_ONLY, 3, seed=0).times_hours.min() > 0


def test_trial_event_bound():
    # a trial may take l N + k + 1 events; the bound is checked before any runs
    cfg = HraidConfig(simulator_module.MAX_TRIAL_EVENTS, 12, 1, 1)
    for run, events in (
        (lambda: run_trials(cfg, DISK_ONLY, 3, seed=0), cfg.n + 2),
        (lambda: trace_trials(cfg, DISK_ONLY, 3, seed=0), cfg.n + 2),
        # the sweep names its first oversized cell, 0/1
        (lambda: sweep(cfg.n, 12, DISK_ONLY, trials=3, seed=0), cfg.n + 1),
    ):
        with pytest.raises(ValidationError) as excinfo:
            run()
        assert str(excinfo.value) == (
            f"a trial may take l*N + k + 1 = {events} events and the simulator takes "
            f"at most {simulator_module.MAX_TRIAL_EVENTS}"
        )


@pytest.mark.parametrize(
    "cfg,rates",
    [
        (HraidConfig(6, 6, 2, 2), DISK_ONLY),
        (HraidConfig(9, 6, 2, 2), WITH_CONTROLLERS),
        (HraidConfig(5, 8, 3, 3), FailureModel(disk_rate=1e-6, controller_rate=1e-6)),
    ],
)
def test_trace_labels_the_lowest_node_of_the_class(cfg, rates):
    # test-local O(N) reference: per-node classes, -1 once dead
    for i, line in enumerate(trace_trials(cfg, rates, 64, seed=31)):
        node_class = [0] * cfg.n
        for e in json.loads(line)["events"]:
            node = e["node"] - 1
            f = node_class[node]
            assert f >= 0 and node_class.index(f) == node, (i, e)
            dies = e["kind"] == "controller" or f == cfg.ell
            node_class[node] = -1 if dies else f + 1


def test_trace_labels_at_huge_node_counts():
    # the labels cost O(events), so a trace at N = 10**12 answers at once
    (line,) = trace_trials(HraidConfig(10**12, 12, 3, 0), WITH_CONTROLLERS, 1, seed=1)
    assert [e["node"] for e in json.loads(line)["events"]] == [1, 2, 3, 4]


@pytest.mark.parametrize(
    "cfg,rates",
    [
        (HraidConfig(4, 4, 1, 1), WITH_CONTROLLERS),
        (HraidConfig(12, 12, 3, 3), DISK_ONLY),
        (HraidConfig(48, 12, 3, 3), FailureModel(1e-6, 1e-7)),
        (HraidConfig(1, 5, 0, 3), DISK_ONLY),
        # json.dumps prints the reference's np.float64 times as float.__repr__
        (HraidConfig(12, 12, 1, 1), FailureModel(np.float64(1e-6), np.float64(2e-7))),
    ],
)
def test_batch_trace_matches_scalar_reference_across_chunks(monkeypatch, cfg, rates):
    # chunks of 2 trials, and of 1 once a chunk's event budget is below one
    # trial's bound; every line equals json.dumps of the scalar reference's
    # trial, byte for byte
    events = cfg.ell * cfg.n + cfg.k + 1
    spans = []
    simulate_chunk = simulator_module._simulate_chunk

    def spy(config, rho, seed, start, count, record=None):
        spans.append((start, count))
        return simulate_chunk(config, rho, seed, start, count, record)

    monkeypatch.setattr(simulator_module, "_simulate_chunk", spy)
    seed, trials = 6, 7
    for budget, per_chunk in ((3 * events - 1, 2), (events - 1, 1)):
        monkeypatch.setattr(simulator_module, "TRACE_CHUNK_EVENTS", budget)
        spans.clear()
        traced = trace_trials(cfg, rates, trials, seed)
        for i, line in enumerate(traced):
            expected = simulate_trial(cfg, rates, TrialStream(seed, i))
            assert line == trace_jsonl_line(i, expected), i
        assert i == trials - 1
        starts = range(0, trials, per_chunk)
        assert spans == [(start, min(per_chunk, trials - start)) for start in starts]


def test_trace_memory_does_not_grow_with_trials(monkeypatch):
    # 200 x 12 HRAID 3/3 takes about 216 events a trial and at most 604, so
    # chunks of 2**14 (trial, step) entries hold 27 trials.  One chunk, or
    # five, peaks near 0.34 MiB; all 135 trials in one chunk would peak near
    # 1.3 MiB.
    monkeypatch.setattr(simulator_module, "TRACE_CHUNK_EVENTS", 2**14)
    cfg = HraidConfig(200, 12, 3, 3)
    for trials in (27, 135):
        tracemalloc.start()
        try:
            traced = trace_trials(cfg, DISK_ONLY, trials, seed=0)
            events = sum(len(json.loads(line)["events"]) for line in traced)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert events > 200 * trials
        assert peak < 2**19, (trials, peak)


@pytest.mark.parametrize(
    "geometry,rates,seed",
    [
        ((2, 2), FailureModel(), np.uint64(5)),
        ((np.int64(3), np.int64(4), np.int64(1), np.int64(1)), FailureModel(), 5),
        ((2, 2), FailureModel(np.float64(1e-6), np.float64(2e-7)), 5),
    ],
)
def test_run_record_prints_numpy_scalars_as_python_values(geometry, rates, seed):
    plain = (
        HraidConfig(*map(int, geometry)),
        FailureModel(float(rates.disk_rate), float(rates.controller_rate)),
        int(seed),
    )
    runs = []
    for cfg, model, run_seed in ((HraidConfig(*geometry), rates, seed), plain):
        estimate = estimate_mttdl(cfg, model, 10, run_seed)
        runs.append(RunResult(cfg, model, run_seed, estimate))
        runs.append(sweep(cfg.n, cfg.m, model, 10, run_seed))
    for given, expected in zip(runs[:2], runs[2:]):
        assert given.to_csv() == expected.to_csv()
        assert json.loads(given.to_json()) == json.loads(expected.to_json())


@pytest.mark.parametrize("m, ell", [(12, 0), (12, 1), (12, 2), (12, 3), (2, 1), (4, 3)])
@pytest.mark.parametrize("rho", [0.0, 0.3])
def test_bin_tables_follow_the_event_table(m, ell, rho):
    weights, step, tally_step, ctrl = simulator_module._bin_tables(m, ell, rho)
    nb = ell + 1
    rows = class_events(m, ell)[: 2 * nb if rho else nb]  # no controller bins at rho = 0
    unit = np.eye(nb + 1)  # row l + 1, death, is no class of the step
    assert step.shape == (nb, len(rows)) and tally_step.shape == ctrl.shape == (len(rows),)
    for b, (f, disks, target) in enumerate(rows):
        assert step[:, b].tolist() == (unit[target] - unit[f])[:nb].tolist()
        assert tally_step[b] == int(target > ell) << 60 | int(disks > 0)
        assert ctrl[b] == (disks == 0)
    # cumulative disk weights of the disk bins, cumulative node counts of the
    # controller bins
    lower = np.tri(nb)
    expected = np.vstack((lower * [m - f for f in range(nb)], lower))[: len(rows)]
    assert weights.dtype == np.float64 and weights.tolist() == expected.tolist()
