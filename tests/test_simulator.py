import hashlib
import json

import numpy as np
import pytest

from hraidlab import (
    EventKind,
    FailureModel,
    HraidConfig,
    MttdlEstimate,
    TrialStream,
    ValidationError,
    cell_seed,
    d_max,
    d_min,
    estimate_mttdl,
    generate_layout,
    random_payloads,
    resolve_thread_count,
    run_trials,
    simulate_trial,
    sweep,
    trace_jsonl_line,
)
from hraidlab import simulator as simulator_module
from hraidlab import stream as stream_module
from hraidlab.simulator import CHUNK_TRIALS, THREADS_ENV_VAR

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
    ],
)
def test_scalar_and_batch_engines_are_bit_identical(cfg, rates):
    seed, trials = 2024, 257
    batch = run_trials(cfg, rates, trials, seed)
    for i in range(trials):
        event = simulate_trial(cfg, rates, TrialStream(seed, i))
        assert event.time_hours == batch.times_hours[i], i
        assert event.disk_failures == batch.disk_failures[i], i
        expected_cause = 1 if event.cause.value == "controller" else 0
        assert batch.causes[i] == expected_cause, i


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
    for i in range(200):
        event = simulate_trial(cfg, WITH_CONTROLLERS, TrialStream(13, i))
        failed = [0] * n
        alive = [True] * n
        for e in event.trace:
            node = e.node - 1
            assert alive[node], (i, e)
            if e.kind is EventKind.DISK:
                failed[node] += 1
                assert failed[node] <= ell + 1, (i, e)
                alive[node] = failed[node] <= ell
            else:
                alive[node] = False
        assert alive.count(False) == k + 1, i
        assert not alive[event.trace[-1].node - 1]


@pytest.mark.parametrize("rates", [DISK_ONLY, WITH_CONTROLLERS])
def test_largest_second_uniform_picks_last_bin(monkeypatch, rates):
    # every event draws u2 = 1 - 2**-53, the largest uniform a stream can
    # produce; x = u2 * total must still land in a bin: the last nonempty
    # one, so disk-only trials fail one node's disks in turn and
    # controller trials lose k+1 controllers
    top = 1.0 - 2.0**-53
    uniform_at, uniforms_at = stream_module.uniform_at, simulator_module.uniforms_at
    monkeypatch.setattr(
        stream_module,
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
    event = simulate_trial(cfg, WITH_CONTROLLERS, TrialStream(3, 0))
    times = [e.time_hours for e in event.trace]
    assert times == sorted(times)
    assert event.time_hours == times[-1]
    again = simulate_trial(cfg, WITH_CONTROLLERS, TrialStream(3, 0))
    assert again.trace == event.trace


def test_zero_tolerance_trial_shape():
    # k=3, l=0 and no controller failures: each disk failure kills a node,
    # loss at exactly the fourth
    cfg = HraidConfig(12, 12, 3, 0)
    results = run_trials(cfg, DISK_ONLY, 400, seed=5)
    assert np.all(results.disk_failures == 4)
    event = simulate_trial(cfg, DISK_ONLY, TrialStream(5, 0))
    assert len(event.trace) == 4
    assert all(e.kind is EventKind.DISK for e in event.trace)
    dead_nodes = [e.node for e in event.trace]
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


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_seeds_outside_64_bits_are_rejected(seed):
    cfg = HraidConfig(3, 3, 1, 1)
    calls = [
        lambda: run_trials(cfg, DISK_ONLY, 4, seed),
        lambda: sweep(3, 3, DISK_ONLY, 4, seed),
        lambda: TrialStream(seed),
        lambda: random_payloads(generate_layout(cfg), seed, 1),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match=r"seed must be in \[0, 2\*\*64\)"):
            call()


def test_largest_seed_is_accepted():
    assert run_trials(HraidConfig(2, 2, 0, 0), DISK_ONLY, 4, 2**64 - 1).trials == 4


def test_overflowing_total_rate_is_rejected():
    with pytest.raises(ValidationError, match=r"controller_rate must be in \[0, 1e\+30\]"):
        FailureModel(disk_rate=1e-10, controller_rate=1e300)
    # at the edge rates gamma / delta = 1e60, so the total event rate
    # N M + rho N overflows only near N = 10**249; the check raises before
    # any per-trial or per-node allocation
    cfg = HraidConfig(10**249, 4, 1, 1)
    rates = FailureModel(disk_rate=1e-30, controller_rate=1e30)
    with pytest.raises(ValidationError, match="total event rate finite"):
        run_trials(cfg, rates, 4, seed=0)
    with pytest.raises(ValidationError, match="total event rate finite"):
        simulate_trial(cfg, rates, TrialStream(0, 0))


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


def test_sweep_with_no_cell_is_rejected():
    with pytest.raises(ValidationError, match="no \\(k, l\\) cell"):
        sweep(2, 2, DISK_ONLY, trials=4, seed=0, k_range=range(2, 4))


def test_sweep_cells_independent_of_ranges():
    full = sweep(3, 3, DISK_ONLY, trials=64, seed=5)
    narrow = sweep(3, 3, DISK_ONLY, trials=64, seed=5, k_range=range(1, 2))
    assert narrow.cell(1, 0) == full.cell(1, 0)
    assert narrow.cell(1, 1) == full.cell(1, 1)


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


def test_sweep_keep_trials_exposes_raw_results():
    res = sweep(2, 2, DISK_ONLY, trials=16, seed=4, k_range=range(1), l_range=range(1))
    assert res.cells[0].trial_results is None
    kept = sweep(
        2, 2, DISK_ONLY, trials=16, seed=4, k_range=range(1), l_range=range(1),
        keep_trials=True,
    )
    tr = kept.cells[0].trial_results
    assert tr is not None and tr.trials == 16
    assert tr.times_hours.shape == (16,)


def test_trace_jsonl_line_is_valid_json():
    event = simulate_trial(HraidConfig(2, 2, 0, 1), DISK_ONLY, TrialStream(0, 0))
    obj = json.loads(trace_jsonl_line(7, event))
    assert obj["trial"] == 7
    assert obj["time_hours"] == event.time_hours
    assert obj["cause"] == "disk_cascade"
    assert len(obj["events"]) == len(event.trace)
