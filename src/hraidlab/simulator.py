"""Event-driven Monte Carlo estimation of mean time to data loss.

Each trial plays the failure process forward with competing exponentials
(Gillespie's direct method): the total rate of the surviving components
sets the inter-event time, and the failing component is chosen with
probability proportional to its rate.  Restriping is instantaneous and
nodes are exchangeable, so a trial's state is the lumped state of
``oracle.markov_mttdl``: the counts c_0..c_l of alive nodes with 0..l
failed disks, plus the dead-node count.  Class f fails a disk at rate
c_f (M-f) delta and a controller at rate c_f gamma; the trial ends when
more than k nodes have died.

Internally time advances in units of the inverse disk rate (rates divide
out), and hours emerge from one final division by delta.  Every trial
draws from its own counter-based stream keyed by (seed, trial index), so
results are bit-identical for any execution order, thread count, chunk
size, and for the scalar and vectorized engines (the scalar engine calls
numpy's log1p on purpose: its last-ulp rounding can differ from the C
library's).

The vectorized engine is table-driven over compacted live trials.  It
holds the class counts as one float64 (l+1, live) array of exact small
integers; one matmul against a fixed weight matrix gives the cumulative
disk weights and the cumulative counts, from which the 2(l+1) event
thresholds follow; the bin is the count of thresholds at or below the
draw; and three per-bin tables apply the class-count change, the
dead-node increment and the event kind.  Absorbed trials are written out
and dropped from every per-trial array after each step.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .config import FailureModel, HraidConfig, ValidationError
from .stream import TrialStream, check_seed, trial_key, trial_keys, uniforms_at

#: Trials per work unit.  Chunking only batches the vectorized engine;
#: results are independent of it because streams are keyed by absolute
#: trial index.
CHUNK_TRIALS = 16384

#: Environment variable capping worker threads (0 means one per CPU).
THREADS_ENV_VAR = "HRAID_LAB_THREADS"

_F64 = np.float64


class EventKind(Enum):
    DISK = "disk"
    CONTROLLER = "controller"


class LossCause(Enum):
    DISK_CASCADE = "disk_cascade"
    CONTROLLER = "controller"


class TraceEvent(NamedTuple):
    time_hours: float
    node: int  # 1-based
    kind: EventKind


@dataclass(frozen=True)
class DataLossEvent:
    """One simulated lifetime: loss time, cause, and the event trace."""

    time_hours: float
    cause: LossCause
    trace: tuple[TraceEvent, ...]

    @property
    def disk_failures(self) -> int:
        return sum(1 for e in self.trace if e.kind is EventKind.DISK)


@dataclass(frozen=True)
class MttdlEstimate:
    """Aggregate of per-trial loss times with a normal-theory 95% interval."""

    trials: int
    mean_hours: float
    std_dev_hours: float
    ci95_low: float
    ci95_high: float
    seed: int

    @classmethod
    def from_times(cls, times_hours: np.ndarray, seed: int) -> "MttdlEstimate":
        trials = times_hours.size
        if trials < 1:
            raise ValidationError("estimate needs at least one trial")
        mean = float(np.mean(times_hours))
        if trials == 1:
            # dispersion is undefined from one sample; report a degenerate CI
            return cls(1, mean, 0.0, mean, mean, seed)
        std = float(np.std(times_hours, ddof=1))
        half = 1.96 * std / math.sqrt(trials)
        return cls(trials, mean, std, mean - half, mean + half, seed)

    def fields(self) -> dict[str, float]:
        """The estimate's output fields, in CSV column order."""
        return {
            "mttdl_hours": self.mean_hours,
            "std_hours": self.std_dev_hours,
            "ci95_low": self.ci95_low,
            "ci95_high": self.ci95_high,
        }


@dataclass(frozen=True)
class RunResult:
    """One Monte Carlo run and its estimate.  ``seed`` is the requested seed:
    in a sweep that is the sweep seed, and ``estimate.seed`` the cell seed."""

    config: HraidConfig
    rates: FailureModel
    seed: int
    estimate: MttdlEstimate

    def row(self) -> dict:
        """The run keyed by CSV column: a CSV row, or a flat JSON object."""
        return {
            "n": self.config.n,
            "m": self.config.m,
            "k": self.config.k,
            "ell": self.config.ell,
            "delta_per_hour": self.rates.disk_rate,
            "gamma_per_hour": self.rates.controller_rate,
            "trials": self.estimate.trials,
            "seed": self.seed,
            **self.estimate.fields(),
        }

    def to_csv(self) -> str:
        return format_csv([self.row()])

    def to_json(self) -> str:
        return json.dumps(self.row(), indent=2)

    def format_table(self) -> str:
        """The estimate with its interval, in hours."""
        config, rates, est = self.config, self.rates, self.estimate
        return (
            f"MTTDL estimate for HRAID {config.k}/{config.ell}: N={config.n}, "
            f"M={config.m}, delta={rates.disk_rate:g}/h, "
            f"gamma={rates.controller_rate:g}/h, trials={est.trials}, seed={self.seed}\n"
            f"  mean    : {est.mean_hours:.3f} h ({est.mean_hours / 1000.0:.1f} thousand hours)\n"
            f"  std dev : {est.std_dev_hours:.3f} h\n"
            f"  95% CI  : [{est.ci95_low:.3f}, {est.ci95_high:.3f}] h"
        )


def format_csv(rows: list[dict]) -> str:
    """Header from the first row's keys, then one repr-exact line per row."""
    lines = [",".join(rows[0])] + [",".join(map(repr, row.values())) for row in rows]
    return "\n".join(lines) + "\n"


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
    if threads == 0:
        return os.cpu_count() or 1
    if threads < 0:
        raise ValidationError(f"thread count must be >= 0, got {threads}")
    return threads


def _unit_rho(config: HraidConfig, rates: FailureModel) -> float:
    """The controller rate in units of the disk rate, rho = gamma / delta.

    Raises ValidationError when the total event rate N M + rho N is not a
    finite float: no event could then be drawn.
    """
    rho = rates.controller_rate / rates.disk_rate
    if not math.isfinite(config.n * config.m + rho * config.n):
        raise ValidationError(
            f"controller_rate / disk_rate must keep the total event rate finite, got {rho}"
        )
    return rho


def simulate_trial(
    config: HraidConfig, rates: FailureModel, stream: TrialStream
) -> DataLossEvent:
    """Play one lifetime to data loss, recording the full event trace.

    This scalar engine is the readable reference; ``run_trials`` produces
    bit-identical times without traces.  The event is drawn over the same
    2(l+1) bins in the same order: disk failures in classes 0..l, then
    controller failures in classes 0..l.  Trace node ids go to the
    lowest-index alive node of the chosen class.
    """
    n, m, k, ell = config.n, config.m, config.k, config.ell
    delta = rates.disk_rate
    rho = _unit_rho(config, rates)
    counts = [n] + [0] * ell  # c_f: alive nodes with f failed disks
    dead = 0
    node_class = [0] * n  # per-node class, -1 once dead; labels the trace only
    t_unit = 0.0
    trace: list[TraceEvent] = []
    while True:
        cum_w = list(accumulate(c * (m - f) for f, c in enumerate(counts)))
        cum_c = list(accumulate(counts))
        wtot = float(cum_w[-1])
        total = wtot + rho * float(cum_c[-1])
        thresholds = [float(w) for w in cum_w] + [wtot + rho * float(c) for c in cum_c]
        u1 = stream.next_uniform()
        u2 = stream.next_uniform()
        t_unit += float(-np.log1p(_F64(-u1))) / total
        x = u2 * total
        b = next(i for i, thr in enumerate(thresholds) if x < thr)
        kind = EventKind.DISK if b <= ell else EventKind.CONTROLLER
        f = b % (ell + 1)

        node = node_class.index(f)
        counts[f] -= 1
        if kind is EventKind.DISK and f < ell:
            counts[f + 1] += 1
            node_class[node] += 1
        else:
            node_class[node] = -1
            dead += 1
        trace.append(TraceEvent(t_unit / delta, node + 1, kind))
        if dead > k:
            cause = (
                LossCause.DISK_CASCADE if kind is EventKind.DISK else LossCause.CONTROLLER
            )
            return DataLossEvent(
                time_hours=t_unit / delta, cause=cause, trace=tuple(trace)
            )


def _bin_tables(m: int, ell: int) -> tuple[np.ndarray, ...]:
    """Fixed tables of the 2(l+1) event bins for ``_simulate_chunk``.

    ``weights @ c`` gives the cumulative disk weights, then the cumulative
    class counts.  Indexed by bin: ``step[:, b]`` is the class-count change,
    ``kills[b]`` the dead-node increment, ``is_disk[b]`` the event kind.
    """
    nb = ell + 1
    lower = np.tri(nb)
    weights = np.vstack((lower * (m - np.arange(nb)), lower))
    step = np.zeros((nb, 2 * nb))
    step[np.arange(2 * nb) % nb, np.arange(2 * nb)] = -1.0
    step[np.arange(1, nb), np.arange(ell)] = 1.0
    kills = (np.arange(2 * nb) >= ell).astype(np.int64)
    is_disk = (np.arange(2 * nb) < nb).astype(np.int64)
    return weights, step, kills, is_disk


def _simulate_chunk(
    config: HraidConfig,
    rho: float,
    seed: int,
    start: int,
    count: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized engine: unit-time losses, disk-event counts, causes.

    Every per-trial array holds only the live trials; absorbed trials are
    written out and dropped after each step.
    """
    n, k, ell = config.n, config.k, config.ell
    nb = ell + 1
    weights, step, kills, is_disk = _bin_tables(config.m, ell)
    keys = trial_keys(seed, start, count)
    trial = np.arange(count)
    c = np.zeros((nb, count))  # c_f per live trial; exact small integers
    c[0] = n
    dead = np.zeros(count, dtype=np.int64)
    t_unit = np.zeros(count)
    disk_events = np.zeros(count, dtype=np.int64)
    out_t = np.empty(count)
    out_disk = np.empty(count, dtype=np.int64)
    out_cause = np.empty(count, dtype=np.uint8)
    it = 0
    while trial.size:
        it += 1
        u1 = uniforms_at(keys, 2 * it - 1)
        u2 = uniforms_at(keys, 2 * it)
        # integer partial sums below 2**53, so the matmul is exact
        thr = weights @ c
        ctrl = thr[nb:]
        ctrl *= rho
        ctrl += thr[ell]  # wtot + rho * cum_c, the float order of total
        total = thr[-1]
        t_unit += -np.log1p(-u1) / total
        # Some bin always holds x = u2 * total: u2 <= 1 - 2**-53, so under
        # round-to-nearest x < total, and the last threshold is total itself.
        # The thresholds never decrease, so counting those <= x finds the bin.
        b = (u2 * total >= thr).sum(axis=0)
        c += step.take(b, axis=1)
        dead += kills.take(b)
        disk_events += is_disk.take(b)

        absorbed = dead > k
        if not absorbed.any():
            continue
        done = np.flatnonzero(absorbed)
        out = trial.take(done)
        out_t[out] = t_unit.take(done)
        out_disk[out] = disk_events.take(done)
        out_cause[out] = 1 - is_disk.take(b.take(done))
        # take keeps c C-contiguous: a boolean column index would return an
        # F-ordered array, which makes the next matmul far slower
        live = np.flatnonzero(~absorbed)
        trial, keys, c = trial.take(live), keys.take(live), c.take(live, axis=1)
        dead, t_unit, disk_events = dead.take(live), t_unit.take(live), disk_events.take(live)
    return out_t, out_disk, out_cause


def run_trials(
    config: HraidConfig,
    rates: FailureModel,
    trials: int,
    seed: int,
    threads: int | None = None,
) -> TrialResults:
    """Run ``trials`` independent lifetimes; deterministic in (config, rates,
    trials, seed) regardless of thread count."""
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    check_seed(seed)
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
) -> MttdlEstimate:
    """Monte Carlo MTTDL with a 95% confidence interval."""
    results = run_trials(config, rates, trials, seed, threads)
    return MttdlEstimate.from_times(results.times_hours, seed)


def cell_seed(seed: int, k: int, ell: int) -> int:
    """Per-cell seed for sweeps, independent of the ranges swept."""
    return trial_key(seed, (k << 16) | ell)


@dataclass(frozen=True)
class SweepCell:
    k: int
    ell: int
    estimate: MttdlEstimate
    trial_results: TrialResults | None = None


@dataclass(frozen=True)
class SweepResult:
    """MTTDL estimates over a (k, l) grid at fixed N, M, and rates."""

    n: int
    m: int
    rates: FailureModel
    trials: int
    seed: int
    cells: tuple[SweepCell, ...]

    def cell(self, k: int, ell: int) -> SweepCell:
        for c in self.cells:
            if c.k == k and c.ell == ell:
                return c
        raise KeyError(f"no cell (k={k}, l={ell}) in this sweep")

    def to_csv(self) -> str:
        runs = [
            RunResult(HraidConfig(self.n, self.m, c.k, c.ell), self.rates, self.seed, c.estimate)
            for c in self.cells
        ]
        return format_csv([run.row() for run in runs])

    def to_json(self) -> str:
        obj = {
            "n": self.n,
            "m": self.m,
            "delta_per_hour": self.rates.disk_rate,
            "gamma_per_hour": self.rates.controller_rate,
            "trials": self.trials,
            "seed": self.seed,
            "cells": [
                {"k": c.k, "ell": c.ell, **c.estimate.fields()} for c in self.cells
            ],
        }
        return json.dumps(obj, indent=2)

    def format_table(self) -> str:
        """Grid of mean MTTDL in thousands of hours, one decimal."""
        ks = sorted({c.k for c in self.cells})
        ells = sorted({c.ell for c in self.cells})
        lines = [
            f"MTTDL in thousands of hours: N={self.n}, M={self.m}, "
            f"delta={self.rates.disk_rate:g}/h, gamma={self.rates.controller_rate:g}/h, "
            f"trials={self.trials}, seed={self.seed}"
        ]
        lines.append("      " + "".join(f"{f'k={k}':>10}" for k in ks))
        by_pos = {(c.k, c.ell): c for c in self.cells}
        for ell in ells:
            row = [f"l={ell:<4}"]
            for k in ks:
                c = by_pos.get((k, ell))
                row.append(f"{c.estimate.mean_hours / 1000.0:>10.1f}" if c else f"{'-':>10}")
            lines.append("".join(row))
        return "\n".join(lines)


def sweep(
    n: int,
    m: int,
    rates: FailureModel,
    trials: int,
    seed: int,
    k_range: range = range(4),
    l_range: range = range(4),
    threads: int | None = None,
    keep_trials: bool = False,
) -> SweepResult:
    """Estimate MTTDL over the (k, l) grid.

    Every cell derives its own seed from (seed, k, l), so a cell's numbers
    match a standalone run with that derived seed and do not depend on
    which other cells are swept.  Grid cells that violate the geometry
    bounds (k >= N or k + l >= M) are skipped; a sweep with no cell left
    is rejected.
    """
    HraidConfig(n, m)  # N and M alone must be a valid geometry
    check_seed(seed)  # cell_seed would map any integer into range
    cells = []
    for k in k_range:
        for ell in l_range:
            if k >= n or k + ell >= m:
                continue
            config = HraidConfig(n, m, k, ell)
            cseed = cell_seed(seed, k, ell)
            results = run_trials(config, rates, trials, cseed, threads)
            est = MttdlEstimate.from_times(results.times_hours, cseed)
            cells.append(
                SweepCell(
                    k=k,
                    ell=ell,
                    estimate=est,
                    trial_results=results if keep_trials else None,
                )
            )
    if not cells:
        raise ValidationError(f"no (k, l) cell of the swept ranges fits N={n}, M={m}")
    return SweepResult(
        n=n, m=m, rates=rates, trials=trials, seed=seed, cells=tuple(cells)
    )


def trace_jsonl_line(trial_index: int, event: DataLossEvent) -> str:
    """One JSON line describing a traced trial, for the debug dump."""
    return json.dumps(
        {
            "trial": trial_index,
            "time_hours": event.time_hours,
            "cause": event.cause.value,
            "events": [
                {"time_hours": e.time_hours, "node": e.node, "kind": e.kind.value}
                for e in event.trace
            ],
        }
    )
