"""Shared parameter types: array geometry and component failure rates."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


class ValidationError(ValueError):
    """A parameter violates one of the documented model bounds."""


class UnsupportedCodecError(ValidationError):
    """The requested redundancy level has no implemented codec."""


@dataclass(frozen=True)
class HraidConfig:
    """Geometry and redundancy apportionment of an HRAID k/l array.

    The array has N storage nodes of M disks each.  Every node runs an
    intra-node code tolerating ``intra_tolerance`` (l) failed disks, and
    the array runs an inter-node code tolerating ``inter_tolerance`` (k)
    failed nodes.  A node fails when its controller fails or when its
    (l+1)-th disk fails; data is lost once more than k nodes have failed.
    """

    n_nodes: int
    disks_per_node: int
    inter_tolerance: int = 0
    intra_tolerance: int = 0

    def __post_init__(self) -> None:
        for name in ("n_nodes", "disks_per_node", "inter_tolerance", "intra_tolerance"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        n, m = self.n_nodes, self.disks_per_node
        k, ell = self.inter_tolerance, self.intra_tolerance
        if n < 1:
            raise ValidationError(f"n_nodes must be >= 1, got {n}")
        if m < 1:
            raise ValidationError(f"disks_per_node must be >= 1, got {m}")
        if not 0 <= k <= 3:
            raise ValidationError(f"inter_tolerance must be in 0..3, got {k}")
        if not 0 <= ell <= 3:
            raise ValidationError(f"intra_tolerance must be in 0..3, got {ell}")
        if k >= n:
            raise ValidationError(
                f"inter_tolerance must be below n_nodes, got k={k} with N={n}"
            )
        if k + ell >= m:
            # each node row needs k+l check strips plus at least one data strip
            raise ValidationError(
                f"inter_tolerance + intra_tolerance must be below disks_per_node, "
                f"got k={k}, l={ell} with M={m}"
            )

    @property
    def n(self) -> int:
        return self.n_nodes

    @property
    def m(self) -> int:
        return self.disks_per_node

    @property
    def k(self) -> int:
        return self.inter_tolerance

    @property
    def ell(self) -> int:
        return self.intra_tolerance

    @property
    def total_disks(self) -> int:
        return self.n_nodes * self.disks_per_node


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
            value = getattr(self, name)
            if isinstance(value, bool) or not (
                isinstance(value, numbers.Real) and math.isfinite(value)
            ):
                raise ValidationError(f"{name} must be a finite number, got {value!r}")
            if not low <= value <= MAX_RATE:
                raise ValidationError(
                    f"{name} must be in [{low:g}, {MAX_RATE:g}] per hour, got {value}"
                )

    @property
    def disk_mttf_hours(self) -> float:
        return 1.0 / self.disk_rate
