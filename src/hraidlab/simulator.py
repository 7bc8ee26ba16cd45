"""Event-driven Monte Carlo estimation of mean time to data loss.

Each trial plays the failure process forward with competing exponentials
(Gillespie's direct method): the total rate of the surviving components
sets the inter-event time, and the failing component is chosen with
probability proportional to its rate.  Restriping is instantaneous and
nodes are exchangeable, so a trial's state is the lumped state of
``oracle.markov_mttdl``: the counts c_0..c_l of alive nodes with 0..l
failed disks, plus the dead-node count.  The events, with the class each
sends its node to, are the rows of ``config.class_events``, the table the
exact chain reads too: class f fails a disk at rate c_f (M-f) delta and a
controller at rate c_f gamma; the trial ends once k + 1 nodes are dead.

Internally time advances in units of the inverse disk rate (rates divide
out), and hours emerge from one final division by delta.  Every trial
draws from its own counter-based stream keyed by (seed, trial index), so
results are bit-identical for any execution order, thread count and chunk
size.

The engine is table-driven, with one bin per row of the run's table,
``class_events`` at rho = gamma/delta.  A trial's state is ``weights @ c``
of its class counts c in float64 (N M below 2**53 keeps them exact
integers): the disk bins' thresholds and the cumulative node counts that
give the controller bins'.  The bin is the count of thresholds at or below
the draw.  Two per-bin tables apply it, ``weights @ step`` and the change
to one int64 tally (dead nodes above disk events); absorbed trials restart
as sink trials.  ``trace_trials`` runs the same engine with a recorder of
each step's bins and times, and labels them with node ids afterwards, so
a trace is the very trial the estimate holds; each trial is one JSON
text, formatted from fixed templates.

This module holds only the engine and the runs built on it.  The records
it returns (``MttdlEstimate``, ``SweepResult``) and their table, CSV and
JSON views live in ``records``.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import (
    MAX_TOLERANCE, FailureModel, HraidConfig, ValidationError, check_exact_counts, check_integer,
    check_tolerance, class_events,
)
from . import records
from .stream import check_seed, trial_keys, uniforms_at

#: Trials per work unit.  Chunking only batches the vectorized engine;
#: results are independent of it because streams are keyed by absolute
#: trial index.
CHUNK_TRIALS = 16384

#: Longest trial the engines take, in events.  A trial takes at most
#: l N + k + 1 events (a node absorbs at most l disk failures, and the
#: (k+1)-th death ends it), and the batch engine steps until its longest
#: trial ends.
MAX_TRIAL_EVENTS = 2**20

#: Most trials one run takes.  The raw per-trial arrays and the estimate's
#: temporaries cost about 24 B a trial.  At the bound ``simulate --n 12 --m 12``
#: took 1.8 s and 432 MB peak RSS at HRAID 0/0, and 15 s and 434 MB at 3/3, on
#: one thread of 2 shared cores with Python 3.11.7 and numpy 2.4.6.
MAX_TRIALS = 2**24

#: Most (trial, step) entries one traced chunk records: ``trace_trials``
#: puts this many over the event bound l N + k + 1 trials in a chunk (at
#: least one), so its memory does not grow with the trial count.
TRACE_CHUNK_EVENTS = 2**20

#: Environment variable capping worker threads (0 means one per CPU).
THREADS_ENV_VAR = "HRAID_LAB_THREADS"

_DEAD_SHIFT = 60  # tally bits: dead nodes (at most k + 1 = 4) above, disk events below

#: A trace line and one of its events, in the layout ``json.dumps`` gives
#: the same objects; a controller event (no disks in its ``class_events``
#: row) picks the second kind and, on a trial's last event, the second cause.
_TRIAL_LINE = '{"trial": %d, "time_hours": %s, "cause": "%s", "events": [%s]}'
_EVENT_LINE = '{"time_hours": %s, "node": %d, "kind": "%s"}'
_KINDS = ("disk", "controller")
_CAUSES = ("disk_cascade", "controller")


@dataclass(frozen=True)
class TrialResults:
    """Raw per-trial outcomes of one batch run."""

    times_hours: np.ndarray
    disk_failures: np.ndarray
    causes: np.ndarray  # 0 = disk cascade, 1 = controller

    @property
    def trials(self) -> int:
        return self.times_hours.size


def resolve_thread_count(threads: int | None = None) -> int:
    """Worker count: explicit argument, else the environment cap, else 1."""
    if threads is None:
        raw = os.environ.get(THREADS_ENV_VAR)
        if raw is None:
            return 1
        try:
            threads = int(raw)
        except ValueError as exc:
            raise ValidationError(
                f"{THREADS_ENV_VAR} must be an integer, got {raw!r}"
            ) from exc
    check_integer("threads", threads)
    if threads == 0:
        return os.cpu_count() or 1
    if threads < 0:
        raise ValidationError(f"thread count must be >= 0, got {threads}")
    return threads


def _trial_events(config: HraidConfig) -> int:
    """The event bound of one trial, l N + k + 1."""
    return config.ell * config.n + config.k + 1


def _unit_rho(config: HraidConfig, rates: FailureModel) -> float:
    """The controller rate in units of the disk rate, rho = gamma / delta,
    once both engines' bounds hold.

    Raises ValidationError when N M is not below 2**53 or when a trial may
    take more than ``MAX_TRIAL_EVENTS`` events.  Within the count bound and
    the rate domain (rho <= 1e60) the total event rate N M + rho N stays
    below 1e76, a finite float.
    """
    check_exact_counts(config)
    events = _trial_events(config)
    if events > MAX_TRIAL_EVENTS:
        raise ValidationError(
            f"a trial may take l*N + k + 1 = {events} events and the simulator takes "
            f"at most {MAX_TRIAL_EVENTS}"
        )
    return rates.controller_rate / rates.disk_rate


def _bin_tables(m: int, ell: int, rho: float) -> tuple[np.ndarray, ...]:
    """Per-bin tables for ``_simulate_chunk``, one bin per row of the run's
    table, ``class_events(m, ell, rho)``.  ``weights @ c`` gives the disk bins'
    cumulative disk weights, then the controller bins' cumulative node counts;
    by bin, ``step[:, b]`` is the class-count change, ``tally_step[b]`` the
    tally's and ``ctrl[b]`` the cause.
    """
    cls, disks, target = map(np.array, zip(*class_events(m, ell, rho)))
    bins, ctrl, dies = np.arange(cls.size), disks == 0, target > ell
    own = np.where(ctrl, 1.0, disks)[:, None] * (cls[:, None] == np.arange(ell + 1))
    weights = np.vstack((own[~ctrl].cumsum(axis=0), own[ctrl].cumsum(axis=0)))
    step = np.zeros((ell + 1, bins.size))
    step[cls, bins] = -1.0
    step[target[~dies], bins[~dies]] = 1.0  # a death adds to no class
    tally_step = dies.astype(np.int64) << _DEAD_SHIFT | ~ctrl
    return weights, step, tally_step, ctrl


def _simulate_chunk(
    config: HraidConfig,
    rho: float,
    seed: int,
    start: int,
    count: int,
    record: list | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized engine: unit-time losses, disk-event counts, causes.

    An absorbed trial is written out and restarts from N nodes in class 0 as
    a sink trial with index ``count`` (a spare output slot); its draws are
    keyed by (key, counter), so it changes no other trial's bits.  Sink trials
    are dropped once they are a quarter of the per-trial arrays; the loop ends
    once every real trial is written.  A ``record`` list gets one (chunk trial
    indices, bins, unit times) entry per step, real trials only.
    """
    n, k, nb = config.n, config.k, config.ell + 1
    weights, step, tally_step, ctrl_bin = _bin_tables(config.m, config.ell, rho)
    lead = weights.shape[0] - nb  # cumulative node counts: nb rows at rho > 0
    weights = np.roll(weights, lead, axis=0)  # those rows first, then the disk bins'
    wstep, origin = weights @ step, n * weights[:, 0]
    keys, trial = trial_keys(seed, start, count), np.arange(count)
    # weights @ c, then the controller thresholds: the thresholds are the rows from lead on
    state = np.empty((lead + weights.shape[0], count))
    state[: lead + nb] = origin[:, None]
    t_unit, tally = np.zeros(count), np.zeros(count, dtype=np.int64)  # see _DEAD_SHIFT
    out_t, out_tally = np.empty(count + 1), np.empty(count + 1, dtype=np.int64)
    out_bin = np.empty(count + 1, dtype=np.int8)  # the bin of a trial's last event
    it, sinks, left = 0, 0, count  # left: the real trials not yet written
    while left:
        it += 1
        u1, u2 = uniforms_at(keys, 2 * it - 1), uniforms_at(keys, 2 * it)
        if lead:  # wtot + rho * cum_c, the float order of total
            ctrl = np.multiply(state[:nb], rho, out=state[2 * nb :])
            ctrl += state[2 * nb - 1]
        total = state[-1]
        np.log1p(np.negative(u1, out=u1), out=u1)  # in place: a fresh array is cold
        t_unit -= np.divide(u1, total, out=u1)
        # u2 <= 1 - 2**-53, so x = u2 * total < total, the last threshold, under round-to-
        # nearest; the thresholds never decrease, so counting the others <= x finds x's bin.
        u2 *= total
        b = np.add.reduce((u2 >= state[lead:-1]).view(np.int8), axis=0, dtype=np.int8)
        if record is not None:
            record.append((trial[real := trial < count], b[real], t_unit[real]))
        state[: lead + nb] += wstep.take(b, axis=1)
        tally += tally_step.take(b)
        done = np.flatnonzero(tally >= (k + 1) << _DEAD_SHIFT)  # absorbed
        if not done.size:
            continue
        out = trial.take(done)
        out_t[out], out_tally[out], out_bin[out] = t_unit.take(done), tally.take(done), b.take(done)
        written = np.count_nonzero(out < count)  # real trials; a sink stays one
        left, sinks = left - written, sinks + written
        trial[done], tally[done], t_unit[done] = count, 0, 0.0
        for row, value in zip(state, origin):
            row[done] = value
        if 4 * sinks >= trial.size:
            live = np.flatnonzero(trial < count)
            trial, keys, state = trial.take(live), keys.take(live), state.take(live, axis=1)
            tally, t_unit, sinks = tally.take(live), t_unit.take(live), 0
    out_disk = out_tally[:count] & ((1 << _DEAD_SHIFT) - 1)
    return out_t[:count], out_disk, ctrl_bin.take(out_bin[:count]).view(np.uint8)


def _check_run(trials: int, seed: int) -> None:
    check_integer("trials", trials)
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise ValidationError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    check_seed(seed)


def run_trials(
    config: HraidConfig,
    rates: FailureModel,
    trials: int,
    seed: int,
    threads: int | None = None,
) -> TrialResults:
    """Run ``trials`` independent lifetimes; deterministic in (config, rates,
    trials, seed) regardless of thread count.  ``trials`` is an integer in
    1..``MAX_TRIALS``."""
    _check_run(trials, seed)
    delta = rates.disk_rate
    rho = _unit_rho(config, rates)
    times = np.empty(trials, dtype=np.float64)
    dcounts = np.empty(trials, dtype=np.int64)
    causes = np.empty(trials, dtype=np.uint8)

    spans = [
        (start, min(CHUNK_TRIALS, trials - start))
        for start in range(0, trials, CHUNK_TRIALS)
    ]

    def work(span: tuple[int, int]) -> None:
        start, count = span
        t_unit, de, cz = _simulate_chunk(config, rho, seed, start, count)
        times[start : start + count] = t_unit / delta
        dcounts[start : start + count] = de
        causes[start : start + count] = cz

    workers = resolve_thread_count(threads)
    if workers <= 1 or len(spans) == 1:
        for span in spans:
            work(span)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, spans))
    return TrialResults(times_hours=times, disk_failures=dcounts, causes=causes)


def estimate_mttdl(
    config: HraidConfig,
    rates: FailureModel,
    trials: int,
    seed: int,
    threads: int | None = None,
) -> records.MttdlEstimate:
    """Monte Carlo MTTDL with a 95% confidence interval."""
    results = run_trials(config, rates, trials, seed, threads)
    return records.MttdlEstimate.from_times(results.times_hours, seed)


def cell_seed(seed: int, k: int, ell: int) -> int:
    """The seed of cell (k, l) in a sweep at ``seed``: the stream key of
    trial 65536 k + l.  ``seed`` is in [0, 2**64) and k, l in
    0..``MAX_TOLERANCE``, so no two cells share a seed."""
    check_seed(seed)
    check_tolerance("k", k)
    check_tolerance("ell", ell)
    return int(trial_keys(seed, (k << 16) | ell, 1)[0])


def sweep(
    n: int,
    m: int,
    rates: FailureModel,
    trials: int,
    seed: int,
    threads: int | None = None,
) -> records.SweepResult:
    """Estimate MTTDL for every apportionment of an N x M array.

    The cells are every (k, l) with 0 <= k, l <= ``MAX_TOLERANCE`` that
    ``HraidConfig`` admits (k < N and k + l < M), k-major; cell (0, 0)
    always fits.  Cell (k, l) is ``estimate_mttdl`` at the seed
    ``cell_seed(seed, k, l)``, the run ``simulate --seed`` makes at that
    seed.  Every cell's bounds are checked before any cell runs.
    """
    HraidConfig(n, m)  # N and M alone must be a valid geometry
    check_seed(seed)  # before any cell runs
    tolerances = range(MAX_TOLERANCE + 1)
    configs = [
        HraidConfig(n, m, k, ell)
        for k in tolerances
        for ell in tolerances
        if k < n and k + ell < m
    ]
    for config in configs:  # refuse an oversized cell before running any
        _unit_rho(config, rates)
    cells = tuple(
        records.SweepCell(
            c.k, c.ell, estimate_mttdl(c, rates, trials, cell_seed(seed, c.k, c.ell), threads)
        )
        for c in configs
    )
    return records.SweepResult(n=n, m=m, rates=rates, trials=trials, seed=seed, cells=cells)


def trace_trials(
    config: HraidConfig, rates: FailureModel, trials: int, seed: int
) -> Iterator[str]:
    """Trials 0..``trials``-1 of ``run_trials(config, rates, trials, seed)``
    with their event traces, one JSON text (no newline) at a time.  Bounds
    are checked on the call; each chunk runs when its first trial is taken."""
    _check_run(trials, seed)
    rho = _unit_rho(config, rates)
    per_chunk = max(1, min(CHUNK_TRIALS, TRACE_CHUNK_EVENTS // _trial_events(config)))
    events = class_events(config.m, config.ell, rho)

    def traced(start: int) -> Iterator[str]:
        count = min(per_chunk, trials - start)
        steps: list = []
        _simulate_chunk(config, rho, seed, start, count, steps)
        trial, bins, t_unit = (np.concatenate(column) for column in zip(*steps))
        del steps
        order = np.argsort(trial, kind="stable")  # by trial, each in step order
        bins, hours = bins.take(order), t_unit.take(order) / rates.disk_rate
        ends = np.cumsum(np.bincount(trial, minlength=count)).tolist()
        for i, (lo, hi) in enumerate(zip([0] + ends, ends)):
            yield _label_trial(start + i, events, bins[lo:hi].tolist(), hours[lo:hi].tolist())

    return (line for start in range(0, trials, per_chunk) for line in traced(start))


def _label_trial(trial: int, events: tuple, bins: list[int], hours: list[float]) -> str:
    """One trial's bins and times as its JSON text, each event (bin b is row b
    of ``events``, the ``class_events``) labelled with the lowest-index alive
    node of its class.  A class-0 pick is then always the lowest untouched
    node, so the labels cost O(events) whatever N is.  An event appends its
    node to its target's FIFO queue, and every in-level target is f + 1, so
    class f >= 1 is fed only by class f - 1's pops.  Class-0 picks rise, and
    a FIFO fed in rising order pops in rising order, so every class is fed,
    and pops, in rising order: a queue's front is its lowest-index node.
    ``hours`` must be Python floats, which ``%s`` prints as ``json.dumps`` does."""
    untouched = 0  # the nodes from this index on are in class 0
    touched: list[deque[int]] = [deque() for _ in range(max(t for *_, t in events) + 1)]  # by class
    lines = []
    for b, h in zip(bins, hours):
        f, disks, target = events[b]
        if f:
            node = touched[f].popleft()
        else:
            node, untouched = untouched, untouched + 1
        touched[target].append(node)
        lines.append(_EVENT_LINE % (h, node + 1, _KINDS[not disks]))
    return _TRIAL_LINE % (trial, h, _CAUSES[not disks], ", ".join(lines))
