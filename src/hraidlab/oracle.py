"""Ground-truth engines: exact combinatorial reliability and exact MTTDL.

``exact_reliability_enum`` counts, for every failure cardinality d, how
many d-subsets of the N*M disks cause data loss (more than k nodes each
holding more than l failed disks), by dynamic programming over per-node
failure counts with exact big integers.

``markov_mttdl`` computes the exact mean time to data loss of the failure
process with instantaneous restriping: states count alive nodes by failed
disks (symmetry lumping), failures only accumulate, so expected absorption
times evaluate in one bottom-up pass over dead-node levels, without a
linear solver.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import product
from math import comb

from .analytic import check_eps
from .config import FailureModel, HraidConfig, ValidationError

#: Enumeration cap: per-node DP keeps cost polynomial, but coefficient
#: tables beyond 64 disks serve no validation purpose here.
MAX_ENUM_DISKS = 64


@dataclass(frozen=True)
class UnreliabilityPolynomial:
    """Fatal-configuration counts by failure cardinality.

    ``fatal_counts[d]`` is the exact number of d-subsets of the N*M disks
    whose simultaneous failure loses data.  Reliability at any eps follows
    by weighting subsets with eps^d (1-eps)^(NM-d).
    """

    config: HraidConfig
    total_disks: int
    fatal_counts: tuple[int, ...]

    def unreliability(self, eps: float) -> float:
        check_eps(eps)
        r = 1.0 - eps
        nm = self.total_disks
        # smallest terms first: iterate from d = NM down to d_min
        return sum(
            self.fatal_counts[d] * eps**d * r ** (nm - d)
            for d in range(nm, -1, -1)
            if self.fatal_counts[d]
        )

    def reliability(self, eps: float) -> float:
        check_eps(eps)
        r = 1.0 - eps
        nm = self.total_disks
        return sum(
            (comb(nm, d) - self.fatal_counts[d]) * eps**d * r ** (nm - d)
            for d in range(nm, -1, -1)
            if comb(nm, d) - self.fatal_counts[d]
        )

    def to_csv(self) -> str:
        """Rows ``d,total_subsets,fatal_count`` for d = 0..NM."""
        out = io.StringIO()
        out.write("d,total_subsets,fatal_count\n")
        for d in range(self.total_disks + 1):
            out.write(f"{d},{comb(self.total_disks, d)},{self.fatal_counts[d]}\n")
        return out.getvalue()


def exact_reliability_enum(config: HraidConfig) -> UnreliabilityPolynomial:
    """Count fatal disk subsets of every size by per-node dynamic programming.

    Processing nodes one at a time, the DP state is (disk failures used so
    far, number of nodes already past their intra tolerance, saturated at
    k+1); a node with f failed disks contributes weight C(M, f).  Cost is
    O(N^2 M^2 k), not 2^(NM).
    """
    n, m, k, ell = config.n, config.m, config.k, config.ell
    nm = n * m
    if nm > MAX_ENUM_DISKS:
        raise ValidationError(
            f"enumeration supports at most {MAX_ENUM_DISKS} disks, got {nm}"
        )
    binom_m = [comb(m, f) for f in range(m + 1)]
    cap = k + 1  # "cap" nodes past tolerance means data already lost

    # dp[b][d] = weighted count of ways over processed nodes
    dp = [[0] * (nm + 1) for _ in range(cap + 1)]
    dp[0][0] = 1
    for _ in range(n):
        ndp = [[0] * (nm + 1) for _ in range(cap + 1)]
        for b in range(cap + 1):
            row = dp[b]
            for d in range(nm + 1):
                w = row[d]
                if not w:
                    continue
                for f in range(m + 1):
                    nb = b + (1 if f > ell else 0)
                    if nb > cap:
                        nb = cap
                    ndp[nb][d + f] += w * binom_m[f]
        dp = ndp
    fatal = tuple(dp[cap][d] for d in range(nm + 1))
    return UnreliabilityPolynomial(config=config, total_disks=nm, fatal_counts=fatal)


def markov_mttdl(config: HraidConfig, rates: FailureModel) -> float:
    """Exact expected hours to data loss under instantaneous restriping.

    The lumped state holds (c_0..c_l, dead): c_f alive nodes with f failed
    disks and the dead-node count.  From a state, class f suffers disk
    failures at rate c_f (M-f) delta (moving one node to class f+1, or
    killing it when f = l) and controller failures at rate c_f gamma
    (killing the node).  Data is lost when dead = k+1.  Failures only
    accumulate, so the chain is acyclic and expected absorption times evaluate
    bottom-up, one dead-node level at a time, from dead = k down to 0.
    """
    n, m, k, ell = config.n, config.m, config.k, config.ell
    delta = rates.disk_rate
    gamma = rates.controller_rate
    below: dict[tuple[int, ...], float] = {}  # past k every state is lost: 0 h
    for dead in range(k, -1, -1):
        alive = n - dead
        level: dict[tuple[int, ...], float] = {}
        # (c_l..c_1) falls lexicographically, so a disk move's target is in level
        for high in product(range(alive, -1, -1), repeat=ell):
            if sum(high) > alive:
                continue
            counts = (alive - sum(high),) + high[::-1]
            moves: list[tuple[float, float]] = []
            total = 0.0
            for f in range(ell + 1):
                c = counts[f]
                if not c:
                    continue
                disk = c * (m - f) * delta  # m > f while the node is alive
                killed = below.get(counts[:f] + (c - 1,) + counts[f + 1 :], 0.0)
                if f < ell:
                    up = counts[:f] + (c - 1, counts[f + 1] + 1) + counts[f + 2 :]
                    moves.append((disk, level[up]))
                else:
                    moves.append((disk, killed))
                total += disk
                if gamma > 0.0:
                    ctrl = c * gamma
                    moves.append((ctrl, killed))
                    total += ctrl
            # at least one alive node with a live disk remains before absorption
            level[counts] = 1.0 / total + sum((rate / total) * e for rate, e in moves)
        below = level
    return below[(n,) + (0,) * ell]
