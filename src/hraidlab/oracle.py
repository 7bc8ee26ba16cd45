"""Ground-truth engines: exact combinatorial reliability and exact MTTDL.

``exact_reliability_enum`` counts, for every failure cardinality d, how
many d-subsets of the N*M disks cause data loss (more than k nodes each
holding more than l failed disks), by dynamic programming over nodes with
exact big integers: each DP state's count polynomial is packed in one
integer, one (NM+1)-bit slot per cardinality, so a node step is a few
big-integer multiplies, and no carry crosses a slot because every count
is below 2**(NM).

``markov_mttdl`` computes the exact mean time to data loss of the failure
process with instantaneous restriping: states count alive nodes by failed
disks (symmetry lumping), failures only accumulate, so expected absorption
times evaluate in one bottom-up pass over dead-node levels, without a
linear solver.  The pass is vectorized with numpy: a state is ranked by
the colex rank of its partial class sums, which is the same at every
level, so every event's target is an index array; a level is evaluated in
waves of equal failed-disk total, from the highest down, each wave a few
gathers from finished waves and the level below.  The chain's states and
waves are bounded by ``MAX_CHAIN_STATES`` and ``MAX_CHAIN_WAVES``.  The
ranks, event targets and wave order are built once for the top level and
sliced for each level below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .analytic import check_eps
from .config import FailureModel, HraidConfig, ValidationError, check_exact_counts
from .simulator import format_csv

#: Enumeration cap: per-node DP keeps cost polynomial, but coefficient
#: tables beyond 64 disks serve no validation purpose here.
MAX_ENUM_DISKS = 64

#: Chain size bounds for ``markov_mttdl``: states summed over the k+1
#: dead-node levels, and waves (one per failed-disk total per level).
MAX_CHAIN_STATES = 2**21
MAX_CHAIN_WAVES = 2**17


@dataclass(frozen=True)
class UnreliabilityPolynomial:
    """Fatal-configuration counts by failure cardinality.

    ``fatal_counts[d]`` is the exact number of d-subsets of the N*M disks
    whose simultaneous failure loses data.  Reliability at any eps follows
    by weighting subsets with eps^d (1-eps)^(NM-d).
    """

    config: HraidConfig
    fatal_counts: tuple[int, ...]

    @property
    def total_disks(self) -> int:
        return self.config.total_disks

    def unreliability(self, eps: float) -> float:
        return self._weighted_sum(self.fatal_counts, eps)

    def reliability(self, eps: float) -> float:
        nm = self.total_disks
        return self._weighted_sum(
            tuple(comb(nm, d) - fatal for d, fatal in enumerate(self.fatal_counts)), eps
        )

    def _weighted_sum(self, counts: tuple[int, ...], eps: float) -> float:
        """sum_d counts[d] eps^d (1-eps)^(NM-d), smallest terms first."""
        check_eps(eps)
        r = 1.0 - eps
        nm = self.total_disks
        return sum(counts[d] * eps**d * r ** (nm - d) for d in range(nm, -1, -1) if counts[d])

    def to_csv(self) -> str:
        """Rows ``d,total_subsets,fatal_count`` for d = 0..NM."""
        return format_csv(
            [
                {"d": d, "total_subsets": comb(self.total_disks, d), "fatal_count": fatal}
                for d, fatal in enumerate(self.fatal_counts)
            ]
        )


def exact_reliability_enum(config: HraidConfig) -> UnreliabilityPolynomial:
    """Count fatal disk subsets of every size by per-node dynamic programming.

    Processing nodes one at a time, the DP state is b, the number of nodes
    already past their intra tolerance, saturated at k+1; a node with f
    failed disks contributes weight C(M, f).  Each state's polynomial
    sum_d count_d x^d is packed in one integer, d's count in bits
    [dw, (d+1)w) with w = NM + 1 (Kronecker substitution), so a node step
    is 2k+3 big-integer multiplies:

        dp'[b]   = dp[b] S + dp[b-1] U      for b <= k (no dp[-1] term)
        dp'[k+1] = dp[k+1] (S + U) + dp[k] U

    with S = sum_{f<=l} C(M, f) x^f and U = sum_{f>l} C(M, f) x^f.  No
    carry crosses a slot: every coefficient of every product and sum counts
    distinct disk subsets of the nodes processed so far, so it is below
    2**(NM).  Cost is N(2k+3) multiplies, each of an integer of at most
    (NM+1)**2 bits by one of (M+1)(NM+1) bits, not 2^(NM) subsets.
    """
    n, m, k, ell = config.n, config.m, config.k, config.ell
    nm = n * m
    if nm > MAX_ENUM_DISKS:
        raise ValidationError(
            f"enumeration supports at most {MAX_ENUM_DISKS} disks, got {nm}"
        )
    w = nm + 1
    safe = sum(comb(m, f) << (w * f) for f in range(ell + 1))
    over = sum(comb(m, f) << (w * f) for f in range(ell + 1, m + 1))
    cap = k + 1  # "cap" nodes past tolerance means data already lost
    dp = [1] + [0] * cap
    for _ in range(n):
        dp = [
            dp[0] * safe,
            *(dp[b] * safe + dp[b - 1] * over for b in range(1, cap)),
            dp[cap] * (safe + over) + dp[cap - 1] * over,
        ]
    slot = (1 << w) - 1
    fatal = tuple((dp[cap] >> (w * d)) & slot for d in range(nm + 1))
    return UnreliabilityPolynomial(config=config, fatal_counts=fatal)


def _binom(x: np.ndarray, r: int) -> np.ndarray:
    """C(x, r) elementwise for int64 x >= 0 (any x when r = 0), exact:
    C(x, i) (x - i) / (i + 1) is an integer at every step."""
    out = np.ones_like(x)
    for i in range(r):
        out = out * (x - i) // (i + 1)
    return out


def _colex_states(n: int, ell: int) -> np.ndarray:
    """Every (T_1..T_l) with 0 <= T_1 <= ... <= T_l <= n as the columns of an
    (l, C(n+l, l)) int32 array, in rank order.

    Rank j coordinates at a time: the states with T_j = v follow those with
    T_j < v, and are the first C(v+j-1, j-1) states of j-1 coordinates (those
    with T_{j-1} <= v), each extended by T_j = v.
    """
    t = np.zeros((0, 1), dtype=np.int32)
    for j in range(1, ell + 1):
        values = np.arange(n + 1)
        sizes = _binom(values + j - 1, j - 1)
        col = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        t = np.vstack((t[:, col], np.repeat(values, sizes)), dtype=np.int32)
    return t


def _chain_tables(n: int, ell: int) -> tuple[np.ndarray, ...]:
    """The top level's tables, which every level slices to its prefix of
    states, since neither ranks nor targets depend on ``alive``.

    Returns the states T (``_colex_states``); the target rank of a kill in
    class f = 0..l (in the level below) and of a disk move out of class
    f = 0..l-1 (in the same level), as int32 rows; each state's failed-disk
    total D; and the ranks in wave order, D falling and rank rising.  Where
    a class is empty its targets are meaningless and never read.
    """
    t = _colex_states(n, ell)
    s = t.shape[1]
    rank = np.arange(s)

    def step(j: int, down: int) -> np.ndarray:
        """The rank change when T_j rises by one (down = 0) or falls by one
        (down = 1): C(T_j + j - 1 - down, j - 1)."""
        return _binom(t[j - 1].astype(np.int64) + (j - 1 - down), j - 1)

    kill = np.empty((ell + 1, s), dtype=np.int32)
    kill[0] = rank  # a class-0 kill leaves T unchanged
    drop = 0
    for f in range(ell, 0, -1):
        drop = drop + step(f, 1)  # a kill in class f >= 1 lowers T_f..T_l
        kill[f] = rank - drop
    move = np.empty((ell, s), dtype=np.int32)
    for f in range(ell):
        # out of class 0 every T_j rises; out of class f >= 1 T_f falls
        if f == 0:
            move[f] = rank + sum(step(j, 0) for j in range(1, ell + 1))
        else:
            move[f] = rank - step(f, 1)
    # a disk move raises D = sum_f f c_f by one, so waves of high D go first
    d = ell * t[-1] - t[:-1].sum(axis=0, dtype=np.int32) if ell else np.zeros(s, dtype=np.int32)
    order = np.argsort(-d, kind="stable").astype(np.int32)
    return t, kill, move, d, order


def _level(
    tables: tuple[np.ndarray, ...], alive: int, m: int, delta: float, gamma: float,
    below: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """One dead-node level's terms, given the top level's ``_chain_tables``
    and ``below``, the expected hours of the level with one more dead node,
    by rank.

    Returns the states' rank order by wave, the wave ends, and in that order
    each state's 1/total plus its kills' share of ``below``, and its disk
    moves' rate/total and target rank (class f = 0..l-1).
    """
    t, kill, move, d, order = tables
    ell = t.shape[0]
    s = comb(alive + ell, ell)
    t = t[:, :s]

    def count(f: int) -> np.ndarray:
        """c_f of every state: c_0 = alive - T_l, c_f = T_f - T_{f-1}."""
        if f == 0:
            c = alive - t[-1] if ell else np.full(s, alive)
        else:
            c = t[f - 1] - t[f - 2] if f > 1 else t[0]
        return c.astype(np.float64)

    inv = 1.0 / sum(count(f) * ((m - f) * delta + gamma) for f in range(ell + 1))
    head = inv.copy()
    for f in range(ell, -1, -1):
        share = count(f) * (gamma + (m - ell) * delta if f == ell else gamma) * inv
        if share.any():
            head += share * below[np.where(share > 0, kill[f, :s], 0)]

    # the top level's stable order, restricted to this level, is this level's
    order = order[order < s].astype(np.intp)
    ends = np.cumsum(np.bincount(d[:s])[::-1])
    moves = np.empty((ell, s))
    to = np.empty((ell, s), dtype=np.int32)
    for f in range(ell):
        share = count(f) * ((m - f) * delta) * inv
        moves[f] = share[order]
        to[f] = np.where(share > 0, move[f, :s], 0)[order]
    return order, ends, head[order], moves, to


def _waves(
    order: np.ndarray, ends: np.ndarray, head: np.ndarray, moves: np.ndarray, to: np.ndarray
) -> np.ndarray:
    """Expected hours from every state of a level, by rank, one wave at a time."""
    e = np.zeros(order.size)
    start = 0
    for end in ends:
        wave = slice(start, end)
        e[order[wave]] = head[wave] + (moves[:, wave] * e[to[:, wave]]).sum(axis=0)
        start = end
    return e


def markov_mttdl(config: HraidConfig, rates: FailureModel) -> float:
    """Exact expected hours to data loss under instantaneous restriping.

    The lumped state holds (c_0..c_l, dead): c_f alive nodes with f failed
    disks and the dead-node count.  From a state, class f suffers disk
    failures at rate c_f (M-f) delta (moving one node to class f+1, or
    killing it when f = l) and controller failures at rate c_f gamma
    (killing the node).  Data is lost when dead = k+1.  Failures only
    accumulate, so the chain is acyclic and expected absorption times evaluate
    bottom-up, one dead-node level at a time, from dead = k down to 0:
    E = 1/total + sum over events of (rate/total) E(target).

    A level's state is stored as its partial sums T_j = c_1 + ... + c_j,
    0 <= T_1 <= ... <= T_l <= alive, and ranked by the colex rank
    sum_j C(T_j + j - 1, j).  The rank does not depend on ``alive``, so each
    level's states are a prefix of the next level's, and the ranks, event
    targets and wave order are built once for the top level
    (``_chain_tables``) and sliced for each level.  Within a level the
    states are evaluated in waves of equal failed-disk total
    D = sum_f f c_f, from the highest down: a disk move raises D by one, so
    a wave reads only finished waves and the level below.

    The work is (k+1) C(N+l, l) states in (k+1)(lN+1) waves, bounded by
    ``MAX_CHAIN_STATES`` and ``MAX_CHAIN_WAVES``; past either, or when N M
    is not below 2**53, this raises ValidationError.  The largest admitted
    chain of each (k, l) answered in at most 1.5 s and 309 MB peak RSS
    (0/3 at N = 230 is the largest: 1.0 s, 309 MB; 3/3 at N = 144: 0.6 s,
    126 MB; l = 1 at the wave bound, one state per wave, is the slowest:
    0.9-1.4 s), on 2 shared cores with Python 3.11.7 and numpy 2.4.6.
    """
    check_exact_counts(config)
    n, m, k, ell = config.n, config.m, config.k, config.ell
    states = (k + 1) * comb(n + ell, ell)
    waves = (k + 1) * (ell * n + 1)
    if states > MAX_CHAIN_STATES or waves > MAX_CHAIN_WAVES:
        raise ValidationError(
            f"the exact chain takes at most {MAX_CHAIN_STATES} states and "
            f"{MAX_CHAIN_WAVES} waves, got {states} states and {waves} waves for "
            f"N={n}, k={k}, l={ell}; the closed forms (hraidlab analytic) take larger arrays"
        )
    tables = _chain_tables(n, ell)
    below = np.zeros(comb(n - k - 1 + ell, ell))  # past k dead every state is lost: 0 h
    for dead in range(k, -1, -1):
        terms = _level(tables, n - dead, m, rates.disk_rate, rates.controller_rate, below)
        below = _waves(*terms)
    return float(below[0])
