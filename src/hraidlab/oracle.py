"""Ground-truth engines: exact combinatorial reliability and exact MTTDL.

``exact_reliability_enum`` counts, for every failure cardinality d, how
many d-subsets of the N*M disks cause data loss (more than k nodes each
holding more than l failed disks), from the node generating functions
with exact big integers: each count polynomial is packed in one integer,
one 64-bit slot per cardinality, so the counts cost three big-integer
powers, (1+x)^M, (1+x)^(NM) and S^(N-k) for S the surviving node's
polynomial, plus 2k + 1 products, and no carry crosses a slot because
every count is below C(64, 32) < 2**63 under ``MAX_ENUM_DISKS``.

``markov_mttdl`` computes the exact mean time to data loss of the failure
process with instantaneous restriping: states count alive nodes by failed
disks (symmetry lumping), and the events, their rates and target classes
are the rows of ``config.class_events``, the table the simulator reads
too.  Failures only accumulate, so expected absorption times evaluate in
one bottom-up pass over dead-node levels, without a linear solver.  The
pass is vectorized with numpy: a state is ranked by the colex rank of its
partial class sums, which is the same at every level, and placed by wave,
equal failed-disk total from the highest down, so each (class, target)
pair's targets are one index array; a level is evaluated in one pass over
blocks of positions, each block's terms built and then its pieces of
waves evaluated, each piece a few gathers from earlier waves and the
level below.  The states, event targets and wave bounds are built once, for
the top level, and every level reads them: one pass unranks the states
greedily from a table of Pascal rows and keys their waves by lN - D in the
narrowest unsigned dtype, one stable sort of the keys orders the waves, and
each target is the position of its target state's colex rank.
Besides them a level keeps only one block's terms and two levels' values:
at l = 3 the chain holds 43 bytes a state at gamma > 0 and 35 at gamma = 0.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from math import comb

import numpy as np

from .analytic import check_eps
from .config import FailureModel, HraidConfig, ValidationError, check_exact_counts, class_events
from .records import format_csv

#: Enumeration cap: coefficient tables beyond 64 disks serve no validation
#: purpose here, and it bounds every count by C(64, 32) < 2**63, so one
#: 64-bit slot holds each coefficient of the packed polynomials.
MAX_ENUM_DISKS = 64

#: Chain size bounds for ``markov_mttdl``: states summed over the k+1
#: dead-node levels, and waves (one per failed-disk total per level).
MAX_CHAIN_STATES = 2**21
MAX_CHAIN_WAVES = 2**17

#: States per block when ``markov_mttdl`` builds its tables and a level's
#: terms: besides the ones kept, only the wave order's arrays are of a whole
#: level's size.
_BLOCK = 8192


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
        """sum_d counts[d] eps^d (1-eps)^(NM-d) by Horner's rule in a ratio
        q <= 1, so the sum stays below 2^NM: for eps <= 1/2,
        (1-eps)^NM sum_d counts[d] q^d with q = eps/(1-eps), otherwise
        eps^NM sum_d counts[d] q^(NM-d) with q = (1-eps)/eps."""
        eps = check_eps(eps)
        r = 1.0 - eps
        acc = 0.0
        if eps <= 0.5:
            q = eps / r
            for count in reversed(counts):
                acc = acc * q + count
            return acc * r**self.total_disks
        q = r / eps
        for count in counts:
            acc = acc * q + count
        return acc * eps**self.total_disks

    def to_csv(self) -> str:
        """Rows ``d,total_subsets,fatal_count`` for d = 0..NM."""
        return format_csv(
            [
                {"d": d, "total_subsets": comb(self.total_disks, d), "fatal_count": fatal}
                for d, fatal in enumerate(self.fatal_counts)
            ]
        )


def exact_reliability_enum(config: HraidConfig) -> UnreliabilityPolynomial:
    """Count fatal disk subsets of every size from binomial powers.

    A node with f failed disks contributes C(M, f) x^f, so the surviving
    (at most l failed) and failed (more than l) nodes have generating
    functions S = sum_{f<=l} C(M, f) x^f and U = (1+x)^M - S, and the
    fatal counts are the coefficients of

        F(x) = (1+x)^(NM) - S^(N-k) sum_{j=0..k} C(N,j) U^j S^(k-j),

    the sum taken by Horner's rule in U/S.  Each polynomial is packed in one
    integer, d's coefficient in bits [64d, 64(d+1)) (Kronecker substitution,
    x = 2**64), so the cost is the binomial power (1+x)^M and its N-th
    power, S^(N-k), 2k + 1 products and one ``struct.unpack``, not N node
    steps or 2^(NM) subsets.

    No carry or borrow crosses a slot.  Since S has constant term 1, every
    coefficient of U^j or of the j-th Horner partial sum is at most the
    same coefficient of its product with S^(N-j), which counts distinct
    disk subsets (those with at most j nodes past tolerance), so it is
    below C(NM, NM/2) <= C(64, 32) < 2**63: the slot width is tied to
    ``MAX_ENUM_DISKS``.
    """
    n, m, k, ell = config.n, config.m, config.k, config.ell
    nm = n * m
    if nm > MAX_ENUM_DISKS:
        raise ValidationError(
            f"enumeration supports at most {MAX_ENUM_DISKS} disks, got {nm}"
        )
    node = pow((1 << 64) + 1, m)
    safe = sum(comb(m, f) << (64 * f) for f in range(ell + 1))
    over = node - safe
    # survivable: sum_{j<=k} C(N,j) U^j S^(N-j), with j nodes past tolerance
    over_j, acc = 1, 1
    for j in range(1, k + 1):
        over_j *= over
        acc = acc * safe + comb(n, j) * over_j
    fatal = pow(node, n) - acc * pow(safe, n - k)
    counts = struct.unpack(f"<{nm + 1}Q", fatal.to_bytes(8 * (nm + 1), "little"))
    return UnreliabilityPolynomial(config=config, fatal_counts=counts)


def _blocks(lo: int, hi: int) -> list[slice]:
    """[lo, hi) in ``_BLOCK``-sized slices."""
    return [slice(b, min(b + _BLOCK, hi)) for b in range(lo, hi, _BLOCK)]


def _chain_tables(n: int, ell: int, pairs: list[tuple[int, int]]) -> tuple:
    """The top level's tables in wave order, which every level shares,
    since neither ranks nor targets depend on ``alive``.

    The chain's only binomials are the int64 Pascal rows ``pascal[j, v]`` =
    C(v+j-1, j), v = 0..n+1 (none at l = 0): row 0 is all ones, and row j
    the running sum of row j-1 after a 0.  One pass over blocks of colex
    ranks unranks each state greedily, T_j = max{v : pascal[j, v] <= rank}
    and the rank less pascal[j, T_j] for j = l down to 1, and keys its wave
    by lN - D, D = l T_l - sum_{j<l} T_j its failed-disk total, in the
    smallest unsigned dtype that holds lN.  One stable sort of the keys
    gives the positions: D falling, rank rising within a wave.

    Returns, by position, the states T, in the smallest unsigned dtype that
    holds n; by pair (a, b) of ``pairs``, one node out of class a into class
    b (l + 1 is death), the int32 positions of its targets, in this level
    for a move and in the level below for a death; and the wave bounds, D =
    lN down to 0.  One pass places the states by position, and a second,
    over blocks of positions, gives every target by one rule: the pair
    changes T_j by v_j, +1 for j >= b and -1 for j >= a >= 1 (0 where both
    or neither apply), and the target is the position of the colex rank
    sum_j pascal[j, T_j + v_j], the rank that orders the states.  A class-0
    death changes no T_j and gets no table: its target is the state's own
    position.  An entry whose class a is empty reads some state in range
    (its rank is clamped to s - 1), whose value its zero share multiplies.
    """
    s = comb(n + ell, ell)
    pascal = np.zeros((ell + 1, n + 2 if ell else 0), dtype=np.int64)
    pascal[0] = 1
    for j in range(1, ell + 1):
        np.cumsum(pascal[j - 1, 1:], out=pascal[j, 1:])
    t = np.empty((ell, s), dtype=np.min_scalar_type(n))
    key = np.empty(s, dtype=np.min_scalar_type(ell * n))
    for r in _blocks(0, s):
        rank = np.arange(r.start, r.stop)
        wave = np.zeros(rank.size, dtype=np.int64)  # l (N - T_l) + sum_{j<l} T_j
        for j in range(ell, 0, -1):  # row 1 is C(v, 1) = v: T_1 is the rank left
            v = np.searchsorted(pascal[j], rank, "right") - 1 if j > 1 else rank
            rank = rank - pascal[j, v]
            t[j - 1, r] = v
            wave += ell * (n - v) if j == ell else v
        key[r] = wave
    pos = np.empty(s, dtype=np.int32)
    pos[np.argsort(key, kind="stable")] = np.arange(s, dtype=np.int32)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(key, minlength=ell * n + 1))))
    del key
    waved = np.empty_like(t)  # t is kept: freed here, it raised a long-lived process's peak RSS
    for r in _blocks(0, s):
        waved[:, pos[r]] = t[:, r]
    # each pair's change to T_1..T_l: 1 rises, -1 falls, 0 keeps
    signs = {(a, b): [(b <= j) - (0 < a <= j) for j in range(1, ell + 1)] for a, b in pairs}
    target = {pair: np.empty(s, dtype=np.int32) for pair, sign in signs.items() if any(sign)}
    for p in _blocks(0, s):
        tp = waved[:, p].astype(np.intp)  # so that T_j + 1 cannot wrap
        for pair, table in target.items():
            rank = sum(pascal[j + 1][tp[j] + v] for j, v in enumerate(signs[pair]))
            table[p] = pos[np.minimum(rank, s - 1)]
    return waved, target, bounds


def _level(tables: tuple, alive: int, total: list, events: list, below: np.ndarray) -> np.ndarray:
    """Expected hours from every state of one dead-node level, by position,
    given the top level's ``_chain_tables``, each class's total rate, the
    ((a, b), rate) events in the terms' float order, and ``below``, the
    level with one more dead node.

    The level's states are those with T_l <= alive; its waves are the last
    l alive + 1 of the top level's, D = l alive down to 0.  They are
    evaluated in one pass over blocks of positions: a block's terms, each
    state's 1/total plus its deaths' share of ``below`` and its moves'
    rate/total, are built when the pass enters it, and then the pieces of
    waves inside it are evaluated, a wave that a block edge cuts as two
    slices.  A piece reads only earlier waves and ``below``.  A position of
    those waves that is not in the level (T_l > alive) is evaluated as if
    c_0 were 0: its value is finite and never read by a state of the level.
    """
    t, target, bounds = tables
    ell, s = t.shape
    e = np.zeros(s)
    for p in _blocks(int(bounds[-(ell * alive + 2)]), s):
        tp = t[:, p].astype(np.int64)
        # c_0 = alive - T_l, c_f = T_f - T_{f-1}
        c0 = np.maximum(alive - tp[-1], 0) if ell else np.full(tp.shape[1], alive)
        count = [c.astype(np.float64) for c in (c0, *tp[:1], *np.diff(tp, axis=0))]
        inv = 1.0 / sum(count[f] * total[f] for f in range(ell + 1))
        head = inv.copy()
        moves = []
        for (a, b), rate in events:
            share, to = count[a] * rate * inv, target.get((a, b))
            if b <= ell:
                moves.append((share, to))
            else:
                head += share * below[p if to is None else to[p]]
        # the block's pieces of waves, each one wave's states in it
        inside = bounds[np.searchsorted(bounds, p.start, "right") : np.searchsorted(bounds, p.stop)]
        cuts = [p.start, *inside.tolist(), p.stop]
        for lo, hi in zip(cuts, cuts[1:]):
            w = slice(lo - p.start, hi - p.start)
            e[lo:hi] = head[w] + sum(share[w] * e[to[lo:hi]] for share, to in moves)
    return e


def markov_mttdl(config: HraidConfig, rates: FailureModel) -> float:
    """Exact expected hours to data loss under instantaneous restriping.

    The lumped state holds (c_0..c_l, dead): c_f alive nodes with f failed
    disks and the dead-node count.  From a state, each row (f, disks, target)
    of ``config.class_events`` moves one node of class f to class target,
    l + 1 being death, at rate c_f disks delta, or c_f gamma for a controller
    row (disks 0, listed only at gamma > 0).  Data is lost when dead = k+1.
    Failures only accumulate, so the chain is acyclic and expected absorption
    times evaluate bottom-up, one dead-node level at a time, from dead = k
    down to 0: E = 1/total + sum over events of (rate/total) E(target).

    A level's state is stored as its partial sums T_j = c_1 + ... + c_j,
    0 <= T_1 <= ... <= T_l <= alive, and ranked by the colex rank
    sum_j C(T_j + j - 1, j).  The rank does not depend on ``alive``, so each
    level's states are a prefix of the next level's, and the states, event
    targets and wave order are built once for the top level
    (``_chain_tables``).  The states are evaluated in waves of equal
    failed-disk total D = sum_f f c_f, from the highest down: a move raises
    D, so a wave reads only finished waves and the level below.  A level's
    waves are the top level's of D <= l alive; it evaluates their states
    that it lacks too, and never reads them.  A level is one pass over
    blocks of positions (``_level``), so it keeps one block's terms.

    The work is (k+1) C(N+l, l) states in (k+1)(lN+1) waves, bounded by
    ``MAX_CHAIN_STATES`` and ``MAX_CHAIN_WAVES``; past either, or when N M is
    not below 2**53, this raises ValidationError.  At l = 3 a state costs 43
    bytes at gamma > 0 and 35 at gamma = 0.  The largest chain of each (k, l)
    answered in at most 0.6 s and 104 MB peak RSS (0/3 at N = 230, the largest:
    0.40-0.47 s and 104 MB at gamma = 1e-7, 0.34-0.37 s and 88 MB at gamma = 0;
    3/3 at N = 144: 0.20-0.22 s and 54 MB, 0.17-0.19 s and 50 MB; l = 1 at the
    wave bound, one state per wave, is the slowest: 0.46-0.57 s), each in a
    fresh process on 2 shared cores, Python 3.11.7, numpy 2.4.6.
    """
    check_exact_counts(config)
    n, m, k, ell = config.n, config.m, config.k, config.ell
    states = (k + 1) * comb(n + ell, ell)
    waves = (k + 1) * (ell * n + 1)
    if states > MAX_CHAIN_STATES or waves > MAX_CHAIN_WAVES:
        raise ValidationError(
            f"the exact chain takes at most {MAX_CHAIN_STATES} states and "
            f"{MAX_CHAIN_WAVES} waves, got {states} states and {waves} waves for "
            f"N={n}, k={k}, l={ell}"
        )
    # each class's and each (class, target) pair's rate, summed from 0.0 in
    # row order; the terms' float order: moves by rising target, deaths by falling class
    total, rate = [0.0] * (ell + 1), {}
    for f, disks, to in class_events(m, ell, rates.controller_rate):
        r = disks * rates.disk_rate if disks else rates.controller_rate
        total[f] += r
        rate[f, to] = rate.get((f, to), 0.0) + r
    events = sorted(rate.items(), key=lambda item: (item[0][1], -item[0][0]))
    tables = _chain_tables(n, ell, list(rate))
    below = np.zeros(tables[0].shape[1])  # past k dead every state is lost: 0 h
    for dead in range(k, -1, -1):
        below = _level(tables, n - dead, total, events, below)
    return float(below[-1])  # no failed disk (rank 0) is the last wave
