"""Result records and their views: the table, CSV and JSON texts a run prints.

This module owns every result record and the serializers they share:
``MttdlEstimate`` (an estimate from per-trial loss times), ``RunResult``
(one run), ``SweepCell`` and ``SweepResult`` (the (k, l) grid),
``format_hours``, ``format_csv`` and ``run_header``, the one spelling of
a run's N, M and rates.  It computes nothing: the engines that produce
the numbers (``simulator`` for Monte Carlo, ``oracle`` and ``analytic``
for the exact answers) hand them here to be printed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import FailureModel, HraidConfig, ValidationError


def run_header(n: int, m: int, rates: FailureModel) -> str:
    """A run's geometry and rates, as every text view heads them."""
    return f"N={n}, M={m}, delta={rates.disk_rate!r}/h, gamma={rates.controller_rate!r}/h"


#: Longest loss time an estimate takes, in hours: the engines' stay below
#: 4e37 h (2**20 events of at most 36.7 / delta h, delta >= 1e-30), and
#: below it n t**2 is finite for any n < 2**63, so the spread stays finite.
MAX_LOSS_HOURS = 1e144


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
        """The estimate, in float64, of a numpy array of loss times in [0, MAX_LOSS_HOURS]."""
        if not isinstance(times_hours, np.ndarray) or times_hours.dtype.kind not in "iuf":
            got = getattr(times_hours, "dtype", type(times_hours).__name__)
            raise ValidationError(f"loss times must be a numpy array of real numbers, got {got}")
        times = np.asarray(times_hours, dtype=np.float64)
        trials = times.size
        if trials < 1:
            raise ValidationError("estimate needs at least one trial")
        if not np.isfinite(times).all():
            bad = times[~np.isfinite(times)].flat[0]
            raise ValidationError(f"loss times must be finite, got {bad}")
        bad = times[(times < 0.0) | (times > MAX_LOSS_HOURS)]
        if bad.size:
            raise ValidationError(f"loss times must lie in [0, {MAX_LOSS_HOURS:g}] hours, got {bad[0]}")
        mean = float(np.mean(times))
        if trials == 1:
            # dispersion is undefined from one sample; report a degenerate CI
            return cls(1, mean, 0.0, mean, mean, seed)
        std = float(np.std(times, ddof=1))
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
        """The run keyed by CSV column: a CSV row, or a flat JSON object.
        A numpy trial count or seed becomes a Python int, which both views print."""
        return {
            **asdict(self.config),
            "delta_per_hour": self.rates.disk_rate,
            "gamma_per_hour": self.rates.controller_rate,
            "trials": int(self.estimate.trials),
            "seed": int(self.seed),
            **self.estimate.fields(),
        }

    def to_csv(self) -> str:
        return format_csv([self.row()])

    def to_json(self) -> str:
        return json.dumps(self.row(), indent=2)

    def format_table(self) -> str:
        """The estimate with its interval, in hours."""
        config, est = self.config, self.estimate
        return (
            f"MTTDL estimate for HRAID {config.k}/{config.ell}: "
            f"{run_header(config.n, config.m, self.rates)}, trials={est.trials}, seed={self.seed}\n"
            f"  mean    : {format_hours(est.mean_hours)} h "
            f"({format_hours(est.mean_hours, 1000.0, '.1f')} thousand hours)\n"
            f"  std dev : {format_hours(est.std_dev_hours)} h\n"
            f"  95% CI  : [{format_hours(est.ci95_low)}, {format_hours(est.ci95_high)}] h"
        )


def format_hours(hours: float, unit: float = 1.0, spec: str = ".3f") -> str:
    """``hours`` in units of ``unit`` hours, formatted by ``spec``.  A nonzero
    value gets 3 significant digits instead where ``spec`` would print it as
    all zeros, and in hours below 1 h, so it never prints as zero."""
    value = hours / unit
    text = format(value, spec)
    if value and (not text.strip("-0.") or unit == 1.0 and abs(value) < 1.0):
        return format(value, "#.3g")
    return text


def format_csv(rows: list[dict]) -> str:
    """Header from the first row's keys, then one repr-exact line per row."""
    lines = [",".join(rows[0])] + [",".join(map(repr, row.values())) for row in rows]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SweepCell:
    k: int
    ell: int
    estimate: MttdlEstimate


@dataclass(frozen=True)
class SweepResult:
    """MTTDL estimates over the (k, l) grid at fixed N, M, and rates."""

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

    def _rows(self) -> list[dict]:
        """One ``RunResult.row()`` per cell, k-major."""
        return [
            RunResult(
                HraidConfig(self.n, self.m, c.k, c.ell), self.rates, self.seed, c.estimate
            ).row()
            for c in self.cells
        ]

    def to_csv(self) -> str:
        return format_csv(self._rows())

    def to_json(self) -> str:
        """The run key shared by every cell, then each cell's k, l and estimate."""
        rows = self._rows()
        per_cell = {"k", "ell", *self.cells[0].estimate.fields()}
        obj = {key: value for key, value in rows[0].items() if key not in per_cell}
        obj["cells"] = [{key: row[key] for key in row if key in per_cell} for row in rows]
        return json.dumps(obj, indent=2)

    def format_table(self) -> str:
        """Grid of mean MTTDL in thousands of hours, one decimal."""
        ks = sorted({c.k for c in self.cells})
        ells = sorted({c.ell for c in self.cells})
        lines = [
            f"MTTDL in thousands of hours: {run_header(self.n, self.m, self.rates)}, "
            f"trials={self.trials}, seed={self.seed}"
        ]
        lines.append("      " + "".join(f"{f'k={k}':>10}" for k in ks))
        by_pos = {(c.k, c.ell): c for c in self.cells}
        for ell in ells:
            row = [f"l={ell:<4}"]
            for k in ks:
                c = by_pos.get((k, ell))
                cell = format_hours(c.estimate.mean_hours, 1000.0, ".1f") if c else "-"
                row.append(f"{cell:>10}")
            lines.append("".join(row))
        return "\n".join(lines)
