"""Shared parameter types: array geometry and component failure rates."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass


class ValidationError(ValueError):
    """A parameter violates one of the documented model bounds."""


class UnsupportedCodecError(ValidationError):
    """The requested redundancy level has no implemented codec."""


class JsonTextError(ValidationError):
    """``json.loads`` refused a text."""


def load_json(text: str):
    """``json.loads``, raising JsonTextError for every text it refuses: bad
    syntax, an integer past Python's digit limit for string conversion, or
    nesting past the recursion limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise JsonTextError(str(exc)) from exc


#: Largest inter- and intra-node tolerance an ``HraidConfig`` admits: the
#: apportionments k, l in 0..3 of the paper's MTTDL table.
MAX_TOLERANCE = 3


def check_integer(name: str, value) -> None:
    """Raise ValidationError unless ``value`` is an integer; a bool is not."""
    if type(value) is int:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def check_real(name: str, value):
    """Return ``value`` if it is a finite real number, else raise
    ValidationError; a bool is not one.  An integer or fraction is finite
    however large, and comes back as it is; a float of any width comes back
    as a Python float, so comparing it with a Python float casts nothing."""
    if type(value) is int or (type(value) is float and math.isfinite(value)):
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        isinstance(value, numbers.Rational) or math.isfinite(value)
    ):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return value if isinstance(value, numbers.Rational) else float(value)


def check_tolerance(name: str, value) -> None:
    """Raise ValidationError unless ``value`` is an integer in 0..``MAX_TOLERANCE``."""
    check_integer(name, value)
    if not 0 <= value <= MAX_TOLERANCE:
        raise ValidationError(f"{name} must be in 0..{MAX_TOLERANCE}, got {value}")


@dataclass(frozen=True)
class HraidConfig:
    """Geometry and redundancy apportionment of an HRAID k/l array.

    The array has ``n`` (N) storage nodes of ``m`` (M) disks each.  Every
    node runs an intra-node code tolerating ``ell`` (l) failed disks, and
    the array runs an inter-node code tolerating ``k`` failed nodes.  A node
    fails when its controller fails or when its (l+1)-th disk fails; data is
    lost once more than k nodes have failed.  The fields are stored as
    Python ints, whatever integer type the caller passes.
    """

    n: int
    m: int
    k: int = 0
    ell: int = 0

    def __post_init__(self) -> None:
        for name in ("n", "m", "k", "ell"):
            value = getattr(self, name)
            check_integer(name, value)
            object.__setattr__(self, name, int(value))
        n, m, k, ell = self.n, self.m, self.k, self.ell
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        if m < 1:
            raise ValidationError(f"m must be >= 1, got {m}")
        check_tolerance("k", k)
        check_tolerance("ell", ell)
        if k >= n:
            raise ValidationError(f"k must be below n, got k={k} with N={n}")
        if k + ell >= m:
            # each node row needs k+l check strips plus at least one data strip
            raise ValidationError(f"k + ell must be below m, got k={k}, l={ell} with M={m}")

    @property
    def total_disks(self) -> int:
        return self.n * self.m


def class_events(m: int, ell: int) -> tuple[tuple[int, int, int], ...]:
    """The lumped failure process's events as rows (f, disks, target), in the
    engines' bin order: the disk failure of an alive node with f = 0..l failed
    disks, at rate (M - f) delta, then its controller failure, with disks 0,
    at rate gamma.  The event moves the node to class target, l + 1 being
    death.  The simulator and the exact chain both read this table."""
    classes = range(ell + 1)
    return tuple((f, m - f, f + 1) for f in classes) + tuple((f, 0, ell + 1) for f in classes)


#: Size bound of the counting engines (the simulator and the exact chain):
#: N M must be below 2**53, so that every class count and disk-weight sum
#: is an exact float64 integer.
MAX_EXACT_COUNT = 2**53


def check_exact_counts(config: HraidConfig) -> None:
    """Raise ValidationError unless N M is below ``MAX_EXACT_COUNT``."""
    if config.total_disks >= MAX_EXACT_COUNT:
        raise ValidationError(
            f"n * m must be below 2**53 for the simulator and the exact chain, "
            f"got N*M of {len(str(config.total_disks))} digits"
        )


#: Rate domain per hour for every engine: 1e-30 <= delta <= 1e30 and
#: 0 <= gamma <= 1e30, so loss times and their squares stay normal floats.
MIN_DISK_RATE, MAX_RATE = 1e-30, 1e30


@dataclass(frozen=True)
class FailureModel:
    """Exponential lifetime rates per hour for disks and node controllers.

    The defaults model disks with a mean time to failure of 1e6 hours and
    controllers that never fail.  Rates must lie in the domain above.
    """

    disk_rate: float = 1e-6
    controller_rate: float = 0.0

    def __post_init__(self) -> None:
        for name, low in (("disk_rate", MIN_DISK_RATE), ("controller_rate", 0.0)):
            value = check_real(name, getattr(self, name))
            if not low <= value <= MAX_RATE:
                raise ValidationError(
                    f"{name} must be in [{low:g}, {MAX_RATE:g}] per hour, got {value}"
                )
            object.__setattr__(self, name, float(value))

    @property
    def disk_mttf_hours(self) -> float:
        return 1.0 / self.disk_rate
