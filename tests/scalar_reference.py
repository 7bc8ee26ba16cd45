"""Scalar reference engine: one trial at a time, one uniform at a time.

It plays the same lumped state, thresholds, bin order and labels as the
batch engine in ``hraidlab.simulator`` with plain Python lists, and draws
its uniforms one by one from the same counter-based (seed, trial index)
streams through a scalar SplitMix64 (``mix64``, ``trial_key``), the
reference for ``hraidlab.stream``'s array mixer.  Its trials are event
records, and ``trace_jsonl_line`` writes one with ``json.dumps``.  Tests
compare the batch engine and its trace lines against it bit for bit and
byte for byte; it calls numpy's log1p on purpose, since the C library's
last-ulp rounding can differ.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from hraidlab import FailureModel, HraidConfig
from hraidlab.simulator import _unit_rho
from hraidlab.stream import _GOLDEN, _MASK64, _MIX_A, _MIX_B, check_seed


class TraceEvent(NamedTuple):
    time_hours: float
    node: int  # 1-based
    kind: str  # "disk" or "controller"


@dataclass(frozen=True)
class DataLossEvent:
    """One simulated lifetime: loss time, cause, and the event trace."""

    time_hours: float
    cause: str  # "disk_cascade" or "controller"
    trace: tuple[TraceEvent, ...]

    @property
    def disk_failures(self) -> int:
        return sum(1 for e in self.trace if e.kind == "disk")


def trace_jsonl_line(trial_index: int, event: DataLossEvent) -> str:
    """The ``simulate --trace`` line of one trial, through ``json.dumps``."""
    return json.dumps(
        {
            "trial": trial_index,
            "time_hours": event.time_hours,
            "cause": event.cause,
            "events": [
                {"time_hours": e.time_hours, "node": e.node, "kind": e.kind}
                for e in event.trace
            ],
        }
    )


def mix64(z: int) -> int:
    """SplitMix64 finalizer: bijective avalanche mix of one 64-bit word."""
    z = int(z) & _MASK64  # a numpy integer seed would wrap or overflow below
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def trial_key(seed: int, index: int) -> int:
    """64-bit stream key for trial ``index`` under ``seed``."""
    return mix64((mix64(seed) + index) & _MASK64)


def uniform_at(key: int, counter: int) -> float:
    """The ``counter``-th uniform in [0, 1) of the stream ``key``.

    Counters start at 1; the top 53 bits of the mixed word form the float.
    """
    z = mix64((key + counter * _GOLDEN) & _MASK64)
    return (z >> 11) * 2.0**-53


class TrialStream:
    """Stateful scalar view over one trial's uniforms."""

    __slots__ = ("key", "counter")

    def __init__(self, seed: int, index: int = 0) -> None:
        check_seed(seed)
        self.key = trial_key(seed, index)
        self.counter = 0

    def next_uniform(self) -> float:
        self.counter += 1
        return uniform_at(self.key, self.counter)


def simulate_trial(
    config: HraidConfig, rates: FailureModel, stream: TrialStream
) -> DataLossEvent:
    """Play one lifetime to data loss, recording the full event trace.

    The event is drawn over the batch engine's 2(l+1) bins in the same
    order: disk failures in classes 0..l, then controller failures in
    classes 0..l.  Trace node ids go to the lowest-index alive node of the
    chosen class.  A class-0 pick is then always the lowest untouched node,
    so the untouched nodes are a suffix, and the labels cost O(events)
    memory whatever N is.
    """
    n, m, k, ell = config.n, config.m, config.k, config.ell
    delta = rates.disk_rate
    rho = _unit_rho(config, rates)
    counts = [n] + [0] * ell  # c_f: alive nodes with f failed disks
    dead = 0
    # trace labels only: the nodes from index ``untouched`` on are in class
    # 0, and touched[f] is a heap of the alive nodes in class f >= 1
    untouched = 0
    touched: list[list[int]] = [[] for _ in range(ell + 1)]
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
        t_unit += float(-np.log1p(np.float64(-u1))) / total
        x = u2 * total
        b = next(i for i, thr in enumerate(thresholds) if x < thr)
        kind = "disk" if b <= ell else "controller"
        f = b % (ell + 1)

        if f:
            node = heapq.heappop(touched[f])
        else:
            node, untouched = untouched, untouched + 1
        counts[f] -= 1
        if kind == "disk" and f < ell:
            counts[f + 1] += 1
            heapq.heappush(touched[f + 1], node)
        else:
            dead += 1
        trace.append(TraceEvent(t_unit / delta, node + 1, kind))
        if dead > k:
            cause = "disk_cascade" if kind == "disk" else "controller"
            return DataLossEvent(
                time_hours=t_unit / delta, cause=cause, trace=tuple(trace)
            )
