import math
import tracemalloc
from itertools import accumulate, combinations, combinations_with_replacement, product
from math import comb

import numpy as np
import pytest

from hraidlab import (
    FailureModel,
    HraidConfig,
    ValidationError,
    d_min,
    exact_reliability_enum,
    hraid_unreliability,
    markov_mttdl,
)
from hraidlab import oracle
from hraidlab.config import class_events
from hraidlab.oracle import MAX_CHAIN_STATES, MAX_CHAIN_WAVES


def brute_force_fatal_counts(config):
    """Independent O(2^(NM)) reference: test every disk subset directly."""
    n, m, k, ell = config.n, config.m, config.k, config.ell
    nm = n * m
    counts = [0] * (nm + 1)
    fatal_sets = []
    for mask in range(1 << nm):
        dead = 0
        for node in range(n):
            failures = bin((mask >> (node * m)) & ((1 << m) - 1)).count("1")
            if failures > ell:
                dead += 1
        if dead > k:
            counts[bin(mask).count("1")] += 1
            fatal_sets.append(mask)
    return counts, fatal_sets


def test_mirrored_pair_hand_count():
    poly = exact_reliability_enum(HraidConfig(2, 2, 1, 0))
    assert poly.fatal_counts == (0, 0, 4, 4, 1)
    assert poly.total_disks == 4


def test_single_parity_pair_hand_count():
    # N=2, M=2, k=0, l=1: fatal iff some node loses both disks
    poly = exact_reliability_enum(HraidConfig(2, 2, 0, 1))
    assert poly.fatal_counts == (0, 0, 2, 4, 1)


def test_all_disks_failed_is_always_fatal():
    for cfg in [
        HraidConfig(2, 3, 1, 1),
        HraidConfig(4, 4, 0, 2),
        HraidConfig(3, 5, 2, 0),
    ]:
        poly = exact_reliability_enum(cfg)
        assert poly.fatal_counts[cfg.total_disks] == 1
        assert poly.fatal_counts[0] == 0


@pytest.mark.parametrize(
    "cfg",
    [
        HraidConfig(3, 3, 0, 0),
        HraidConfig(3, 3, 1, 0),
        HraidConfig(3, 3, 0, 1),
        HraidConfig(3, 3, 1, 1),
        HraidConfig(3, 3, 2, 0),
        HraidConfig(3, 3, 0, 2),
    ],
)
def test_dp_matches_brute_force(cfg):
    expected, _ = brute_force_fatal_counts(cfg)
    poly = exact_reliability_enum(cfg)
    assert list(poly.fatal_counts) == expected


def test_fatal_sets_are_upward_closed():
    cfg = HraidConfig(3, 3, 1, 1)
    _, fatal_sets = brute_force_fatal_counts(cfg)
    fatal = set(fatal_sets)
    nm = cfg.total_disks
    for mask in fatal:
        for bit in range(nm):
            assert (mask | (1 << bit)) in fatal


def _reference_enum(config):
    """Independent reference: the same DP over nodes with one list of
    per-cardinality counts per state, filled coefficient by coefficient."""
    n, m, k, ell = config.n, config.m, config.k, config.ell
    nm = n * m
    binom_m = [comb(m, f) for f in range(m + 1)]
    cap = k + 1
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
    return tuple(dp[cap][d] for d in range(nm + 1))


def _packed_node_dp(config):
    """Independent reference: fatal counts by dynamic programming over nodes,
    each state's count polynomial packed in one integer with one (NM+1)-bit
    slot per cardinality, the state being the number of nodes past tolerance
    saturated at k+1."""
    n, m, k, ell = config.n, config.m, config.k, config.ell
    nm = n * m
    w = nm + 1
    safe = sum(comb(m, f) << (w * f) for f in range(ell + 1))
    over = sum(comb(m, f) << (w * f) for f in range(ell + 1, m + 1))
    cap = k + 1
    dp = [1] + [0] * cap
    for _ in range(n):
        dp = [
            dp[0] * safe,
            *(dp[b] * safe + dp[b - 1] * over for b in range(1, cap)),
            dp[cap] * (safe + over) + dp[cap - 1] * over,
        ]
    slot = (1 << w) - 1
    return tuple((dp[cap] >> (w * d)) & slot for d in range(nm + 1))


#: Every valid config with k, l <= 3 and NM <= 64, as in the benchmark's sweep.
ENUM_CONFIGS = [
    HraidConfig(n, m, k, ell)
    for n in range(1, 65) for m in range(1, 64 // n + 1)
    for k in range(min(4, n)) for ell in range(4)
    if k + ell < m
]


def test_enum_matches_reference_dp():
    assert len(ENUM_CONFIGS) == 1736
    for edge in (HraidConfig(1, 64, 0, 3), HraidConfig(64, 1, 0, 0), HraidConfig(8, 8, 3, 3)):
        assert edge in ENUM_CONFIGS
    for cfg in ENUM_CONFIGS:
        counts = exact_reliability_enum(cfg).fatal_counts
        assert counts == _reference_enum(cfg) == _packed_node_dp(cfg), cfg


def test_min_fatal_size_is_product_of_tolerances():
    for n in range(2, 5):
        for m in range(2, 5):
            for k in range(0, 3):
                for ell in range(0, 3):
                    if k < n and k + ell < m:
                        cfg = HraidConfig(n, m, k, ell)
                        counts = exact_reliability_enum(cfg).fatal_counts
                        smallest = next(d for d, count in enumerate(counts) if count)
                        assert smallest == (k + 1) * (ell + 1)
                        assert smallest == d_min(cfg)


def test_polynomial_agrees_with_closed_form():
    for cfg in [HraidConfig(4, 4, 1, 1), HraidConfig(3, 5, 2, 1), HraidConfig(5, 3, 0, 2)]:
        poly = exact_reliability_enum(cfg)
        for eps in (1e-2, 1e-3):
            assert poly.unreliability(eps) == pytest.approx(
                hraid_unreliability(cfg, eps), rel=1e-12
            )
            assert poly.reliability(eps) + poly.unreliability(eps) == pytest.approx(
                1.0, rel=1e-12
            )


def test_enum_size_cap():
    with pytest.raises(ValidationError, match="64"):
        exact_reliability_enum(HraidConfig(9, 8, 1, 1))


def test_polynomial_csv_shape():
    poly = exact_reliability_enum(HraidConfig(2, 2, 1, 0))
    lines = poly.to_csv().strip().splitlines()
    assert lines[0] == "d,total_subsets,fatal_count"
    assert lines[1] == "0,1,0"
    assert lines[3] == "2,6,4"
    assert lines[5] == "4,1,1"


def test_markov_mirrored_pair_hand_value():
    # N=2, M=2, k=0, l=1 at delta=1e-6: 1/(4d) + 2/(3d) = 11/(12d)
    rates = FailureModel(disk_rate=1e-6)
    value = markov_mttdl(HraidConfig(2, 2, 0, 1), rates)
    assert value == pytest.approx(11.0 / 12.0 * 1e6, rel=1e-12)


def test_markov_node_mirror_hand_value():
    # N=2, M=2, k=1, l=0: 1/(4d) + 1/(2d)
    rates = FailureModel(disk_rate=1e-6)
    value = markov_mttdl(HraidConfig(2, 2, 1, 0), rates)
    assert value == pytest.approx(0.75e6, rel=1e-12)


def test_markov_zero_intra_tolerance_closed_form():
    # with l=0 every disk failure kills its node, so the chain visits
    # j = 0..k dead nodes and MTTDL = sum 1/((N-j) M delta)
    rates = FailureModel(disk_rate=2e-6)
    for n, m, k in [(4, 3, 2), (5, 2, 0), (6, 4, 3)]:
        expected = sum(1.0 / ((n - j) * m * rates.disk_rate) for j in range(k + 1))
        got = markov_mttdl(HraidConfig(n, m, k, 0), rates)
        assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("gamma", [0.0, 1e-7])
@pytest.mark.parametrize("n", [12, 1000])
def test_markov_single_parity_matches_independent_recurrence(n, gamma):
    # k=0, l=1: the only state variable is j, the number of nodes one
    # failure short of death; E_j = 1/T_j + (N-j) M delta / T_j * E_{j+1}
    # with T_j = ((N - j) M + j (M - 1)) delta + N gamma, since at k=0
    # every controller failure loses data.  N=1000 is a chain deeper than
    # the interpreter's default recursion limit.
    m = 12
    delta = 1e-6
    e_next = 0.0
    for j in range(n, -1, -1):
        t_j = ((n - j) * m + j * (m - 1)) * delta + n * gamma
        e_next = 1.0 / t_j + ((n - j) * m * delta / t_j) * e_next
    got = markov_mttdl(
        HraidConfig(n, m, 0, 1), FailureModel(disk_rate=delta, controller_rate=gamma)
    )
    assert got == pytest.approx(e_next, rel=1e-10)
    if n == 12 and gamma == 0.0:
        assert got == pytest.approx(36534.3, rel=1e-4)


def test_markov_monotone_in_tolerances():
    rates = FailureModel(disk_rate=1e-6)
    base = markov_mttdl(HraidConfig(6, 6, 1, 1), rates)
    assert markov_mttdl(HraidConfig(6, 6, 2, 1), rates) > base
    assert markov_mttdl(HraidConfig(6, 6, 1, 2), rates) > base
    assert markov_mttdl(HraidConfig(6, 6, 0, 1), rates) < base
    assert markov_mttdl(HraidConfig(6, 6, 1, 0), rates) < base


def test_markov_controller_failures_reduce_mttdl():
    cfg = HraidConfig(4, 4, 1, 1)
    quiet = markov_mttdl(cfg, FailureModel(disk_rate=1e-6, controller_rate=0.0))
    noisy = markov_mttdl(cfg, FailureModel(disk_rate=1e-6, controller_rate=1e-7))
    noisier = markov_mttdl(cfg, FailureModel(disk_rate=1e-6, controller_rate=1e-6))
    assert noisy < quiet
    assert noisier < noisy


def test_markov_scales_inversely_with_rate():
    cfg = HraidConfig(3, 4, 1, 1)
    slow = markov_mttdl(cfg, FailureModel(disk_rate=1e-7))
    fast = markov_mttdl(cfg, FailureModel(disk_rate=1e-6))
    assert slow == pytest.approx(10.0 * fast, rel=1e-12)


def test_markov_controller_only_limit():
    # pure controller failures make each node an exponential clock;
    # N=2, k=1: E = 1/(2g) + 1/g
    cfg = HraidConfig(2, 4, 1, 0)
    rates = FailureModel(disk_rate=1e-30, controller_rate=1e-6)
    got = markov_mttdl(cfg, rates)
    assert got == pytest.approx(1.5e6, rel=1e-3)


def _reference_chain(config, rates):
    """Independent reference: the same lumped chain keyed by class-count
    tuples, one dict per dead-node level, filled state by state."""
    n, m, k, ell = config.n, config.m, config.k, config.ell
    delta, gamma = rates.disk_rate, rates.controller_rate
    below = {}  # past k every state is lost: 0 h
    for dead in range(k, -1, -1):
        alive = n - dead
        level = {}
        # (c_l..c_1) falls lexicographically, so a disk move's target is in level
        for high in product(range(alive, -1, -1), repeat=ell):
            if sum(high) > alive:
                continue
            counts = (alive - sum(high),) + high[::-1]
            moves = []
            total = 0.0
            for f in range(ell + 1):
                c = counts[f]
                if not c:
                    continue
                disk = c * (m - f) * delta
                killed = below.get(counts[:f] + (c - 1,) + counts[f + 1 :], 0.0)
                if f < ell:
                    up = counts[:f] + (c - 1, counts[f + 1] + 1) + counts[f + 2 :]
                    moves.append((disk, level[up]))
                else:
                    moves.append((disk, killed))
                total += disk
                if gamma > 0.0:
                    moves.append((c * gamma, killed))
                    total += c * gamma
            level[counts] = 1.0 / total + sum((rate / total) * e for rate, e in moves)
        below = level
    return below[(n,) + (0,) * ell]


@pytest.mark.parametrize("ell", range(4))
@pytest.mark.parametrize("k", range(4))
def test_markov_matches_reference_chain(k, ell):
    for n, m, gamma in product({k + 1, 5, 12, 24}, {k + ell + 1, 12}, (0.0, 1e-7, 1e-6)):
        cfg = HraidConfig(n, m, k, ell)
        rates = FailureModel(disk_rate=1e-6, controller_rate=gamma)
        want = _reference_chain(cfg, rates)
        assert markov_mttdl(cfg, rates) == pytest.approx(want, rel=1e-13), (cfg, gamma)


def test_markov_pinned_at_the_largest_probe():
    # the reference chain's value, computed once (about 15 s there)
    got = markov_mttdl(HraidConfig(128, 12, 3, 3), FailureModel(1e-6, 1e-7))
    assert got == pytest.approx(96023.71422471823, rel=1e-12)


def test_markov_size_bound():
    # (k+1) C(N+l, l) states in (k+1)(lN+1) waves
    assert 4 * comb(131, 3) <= MAX_CHAIN_STATES and 4 * (1000 + 1) <= MAX_CHAIN_WAVES
    rates = FailureModel(disk_rate=1e-6)
    for cfg in (HraidConfig(100_000, 12, 3, 3), HraidConfig(10**6, 12, 0, 1)):
        bound = r"exact chain takes at most 2097152 states and 131072 waves, got .* waves"
        with pytest.raises(ValidationError, match=rf"{bound} for N=\d+, k=\d, l=\d$"):
            markov_mttdl(cfg, rates)
    # l = 0 keeps one state per level, so any N below the count bound answers
    n = 10**12
    expected = sum(1.0 / ((n - j) * 12 * rates.disk_rate) for j in range(4))
    assert markov_mttdl(HraidConfig(n, 12, 3, 0), rates) == pytest.approx(expected, rel=1e-12)
    # the count bound names only itself: the closed forms give no MTTDL
    bound = (
        r"^n \* m must be below 2\*\*53 for the simulator and the "
        r"exact chain, got N\*M of {} digits$"
    )
    for n in (2**53 // 12 + 1, 10**400):
        with pytest.raises(ValidationError, match=bound.format(len(str(n * 12)))):
            markov_mttdl(HraidConfig(n, 12, 3, 0), rates)


def test_markov_pinned_bit_for_bit():
    # the values of the chain before its tables were built once per call
    rates = FailureModel(1e-6, 1e-7)
    pinned = {
        (12, 3): 259667.4760380747, (24, 3): 188973.89652085624,
        (48, 3): 142158.46394855087, (96, 3): 107891.20397070269,
        (12, 0): 31847.399615994655, (24, 0): 14728.80335618388,
        (48, 0): 7113.329069009836, (96, 0): 3498.675082687916,
        (128, 3): 96023.71422471784,
    }
    for (n, ell), want in pinned.items():
        assert markov_mttdl(HraidConfig(n, 12, 3, ell), rates) == want, (n, ell)
    # at gamma = 0, where the table has no controller rows, read before the
    # chain stopped building their targets
    pinned = {12: 267828.3729432654, 24: 197793.197725972, 48: 152305.91423705444,
              96: 120122.31000810512}
    for n, want in pinned.items():
        assert markov_mttdl(HraidConfig(n, 12, 3, 3), FailureModel(1e-6, 0.0)) == want, n
    # the largest 3/3 chain, and l = 2 and 1 on either side of the uint8
    # state dtype's edge (N = 255 and 256), read before each target was
    # ranked by the rank that orders the states
    pinned = {
        (144, 3, 3, 1e-7): 91466.40825486586, (144, 3, 3, 0.0): 105343.5772466282,
        (255, 0, 2, 1e-7): 17964.49056034669, (256, 0, 2, 1e-7): 17925.31347667984,
        (255, 1, 1, 0.0): 10718.973842914169, (256, 1, 1, 0.0): 10697.06296569818,
    }
    for (n, k, ell, gamma), want in pinned.items():
        got = markov_mttdl(HraidConfig(n, 12, k, ell), FailureModel(1e-6, gamma))
        assert got == want, (n, k, ell, gamma)


@pytest.mark.parametrize("block, max_n", [(1, 24), (7, 48)])
def test_markov_block_edges(monkeypatch, block, max_n):
    # the default block holds a whole level at small N; with blocks of 1
    # state (N <= 24, as N = 48 takes 8 s) and of an odd 7 states, these
    # chains cross block edges in every table and every level
    monkeypatch.setattr(oracle, "_BLOCK", block)
    rates = FailureModel(1e-6, 1e-7)
    pinned = {  # test_markov_pinned_bit_for_bit's values for N <= 48
        (12, 3): 259667.4760380747, (24, 3): 188973.89652085624,
        (48, 3): 142158.46394855087, (12, 0): 31847.399615994655,
        (24, 0): 14728.80335618388, (48, 0): 7113.329069009836,
    }
    for (n, ell), want in pinned.items():
        if n <= max_n:
            assert markov_mttdl(HraidConfig(n, 12, 3, ell), rates) == want, (n, ell)
    # 24x12 k = 1 at l = 1 and 2, the values before a level's terms were built
    # beside its waves: at l = 2 blocks of 7 cut waves into two pieces, and at
    # l = 1, one state per wave, block edges fall on wave bounds
    pinned = {
        (1, 0.0): 38894.57370349289, (1, 1e-6): 29852.79612234117,
        (2, 0.0): 87139.80783332011, (2, 1e-6): 53491.47081966699,
    }
    for (ell, gamma), want in pinned.items():
        rates = FailureModel(disk_rate=1e-6, controller_rate=gamma)
        assert markov_mttdl(HraidConfig(24, 12, 1, ell), rates) == want, (ell, gamma)
    for ell, gamma in product(range(4), (0.0, 1e-6)):
        for n, k in ((5, 1), (12, 3)):
            cfg = HraidConfig(n, 12, k, ell)
            rates = FailureModel(disk_rate=1e-6, controller_rate=gamma)
            want = _reference_chain(cfg, rates)
            assert markov_mttdl(cfg, rates) == pytest.approx(want, rel=1e-13), (cfg, gamma)


@pytest.mark.parametrize("block", [8192, 7])
def test_chain_tables_match_brute_force(monkeypatch, block):
    # every state (T_1..T_l), 0 <= T_1 <= ... <= T_l <= N, ranked by colex
    # rank and sorted by failed-disk total D falling, rank rising; each
    # (a, b) pair's target is the state whose class counts have one node
    # moved from class a to class b (b = l + 1 is death); at N = 255 and 256
    # a rise of T_j crosses the uint8 state dtype's edge
    monkeypatch.setattr(oracle, "_BLOCK", block)
    edges = [(1, 255), (1, 256), (2, 255), (2, 256)]
    for ell, n in [*product(range(4), range(1, 13)), *edges]:
        states = list(combinations_with_replacement(range(n + 1), ell))
        rank = {t: sum(comb(v + j, j + 1) for j, v in enumerate(t)) for t in states}

        def failed(t):
            return sum(f * (b - a) for f, (a, b) in enumerate(zip((0, *t), t), 1))

        columns = sorted(states, key=lambda t: (-failed(t), rank[t]))
        d = np.array([failed(t) for t in states])
        want = np.array(columns, dtype=np.min_scalar_type(n)).reshape(len(states), ell).T
        # every pair of the event table at gamma > 0, and the jumps of more than one
        # class that a burst row would add
        rows = {(f, to) for f, _, to in class_events(12, ell, 1e-7)}
        jumps = {(a, b) for a, b in ((0, 2), (1, 3), (0, 3)) if a <= ell and b <= ell + 1}
        moves = sorted(rows | jumps)
        waved, target, bounds = oracle._chain_tables(n, ell, moves)
        assert np.array_equal(waved, want), (ell, n)
        sizes = [int((d == v).sum()) for v in range(ell * n, -1, -1)]
        assert bounds.tolist() == [0, *np.cumsum(sizes).tolist()], (ell, n)
        # only a class-0 death leaves T as it is, and it gets no table
        assert sorted(target) == [pair for pair in moves if pair != (0, ell + 1)], (ell, n)
        at = {tuple(col): p for p, col in enumerate(waved.T.tolist())}
        for p, t in enumerate(waved.T.tolist()):
            c = [n - t[-1] if ell else n, *(b - a for a, b in zip((0, *t), t))]
            for a, b in moves:
                if c[a]:
                    after = c.copy()
                    after[a] -= 1
                    if b <= ell:
                        after[b] += 1
                    got = target[a, b][p] if (a, b) in target else p
                    assert got == at[tuple(accumulate(after[1:]))], (ell, n, t, a, b)


@pytest.mark.parametrize("n, ell", [(230, 3), (2046, 2), (131_071, 1)])
def test_pascal_rows_end_at_the_state_count(n, ell):
    # each l's largest chain that markov_mttdl admits at k = 0: its Pascal
    # rows end at the state count C(N + l, l), within int64, and unranking
    # reaches every state, from (0, ..., 0, N) at D = lN to all zeros at D = 0
    states = comb(n + ell, ell)
    assert states <= MAX_CHAIN_STATES and ell * n + 1 <= MAX_CHAIN_WAVES
    assert comb(n + 1 + ell, ell) > MAX_CHAIN_STATES or ell * (n + 1) + 1 > MAX_CHAIN_WAVES
    waved, _, bounds = oracle._chain_tables(n, ell, [])
    assert waved.shape == (ell, states) and int(bounds[-1]) == states
    assert waved[:, 0].tolist() == [0] * (ell - 1) + [n]
    assert waved[:, -1].tolist() == [0] * ell


@pytest.mark.parametrize(
    "n, ell, key",
    [(85, 3, np.uint8), (86, 3, np.uint16), (65_535, 1, np.uint16), (65_536, 1, np.uint32)],
)
def test_wave_key_dtype_boundaries(n, ell, key):
    # the wave key lN - D takes the smallest unsigned dtype that holds lN:
    # lN = 255, 258, 65535 and 65536 sit on either side of a dtype edge
    assert np.min_scalar_type(ell * n) == key
    waved, _, bounds = oracle._chain_tables(n, ell, [])
    t = waved.astype(np.int64)
    d = ell * t[-1] - t[:-1].sum(axis=0)
    rank = np.zeros(t.shape[1], dtype=np.int64)
    for j, tj in enumerate(t, 1):  # C(T_j + j - 1, j), one exact factor at a time
        c = np.ones_like(tj)
        for i in range(j):
            c = c * (tj + i) // (i + 1)
        rank += c
    assert (np.diff(d) <= 0).all()
    same = np.diff(d) == 0
    assert (np.diff(rank)[same] > 0).all()
    assert np.array_equal(np.sort(rank), np.arange(comb(n + ell, ell)))
    sizes = np.bincount(ell * n - d, minlength=ell * n + 1)
    assert bounds.tolist() == [0, *np.cumsum(sizes).tolist()]


def test_markov_memory_bound():
    # at l = 3 and gamma > 0 the chain holds 43 B a state: its tables (3 B of
    # uint8 states and 24 B of int32 targets) and two levels' values (16 B),
    # 6.4 MiB for 96x12 3/3's 156,849 states and 15.0 MiB for 128x12 3/3's
    # 366,145 (the benchmark's probe); each bound leaves room for blocks of
    # states but not for a whole level's terms (32 B a state).  At gamma = 0
    # the table has no controller rows, and the chain builds no targets for
    # them: 35 B a state (16 B of targets), 5.2 MiB for 96x12 3/3, whose 7 MiB
    # bound the 43 B layout (a 7.7 MiB peak) exceeds.  At l = 1 it holds 28 B
    # a state (4 B uint32 states, 8 B targets, 16 B values), 3.5 MiB for 0/1
    # at N = 131,071, where the table build sets the peak: besides its states,
    # positions and targets it holds 2 MiB of int64 Pascal rows, the int64
    # wave bounds (one per state at l = 1) and the states in rank order
    for cfg, gamma, mib in (
        (HraidConfig(96, 12, 3, 3), 1e-7, 10),
        (HraidConfig(128, 12, 3, 3), 1e-7, 21),
        (HraidConfig(131_071, 12, 0, 1), 1e-7, 7),
        (HraidConfig(96, 12, 3, 3), 0.0, 7),
    ):
        tracemalloc.start()
        try:
            markov_mttdl(cfg, FailureModel(1e-6, gamma))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20, (cfg, gamma, peak)


def test_enum_slot_width_holds_every_count():
    assert comb(oracle.MAX_ENUM_DISKS, oracle.MAX_ENUM_DISKS // 2) < 2**63


def _rounded_weighted_sum(counts, eps):
    """sum_d counts[d] eps^d (1-eps)^(NM-d), rounded once: with eps = a/b
    it is sum_d counts[d] a^d (b-a)^(NM-d) over b^NM, and int / int rounds
    the exact quotient."""
    a, b = eps.as_integer_ratio()
    numerator, a_d = 0, 1
    for count in counts:
        numerator = numerator * (b - a) + count * a_d
        a_d *= a
    return numerator / b ** (len(counts) - 1)


@pytest.mark.parametrize(
    "eps", [1e-300, 1e-9, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1 - 2**-53]
)
def test_weighted_sums_match_exact_rationals(eps):
    # Horner's rule in the ratio of the likelier side: finite at both ends
    # of (0, 1), and within a few ulps of the exact sums
    for cfg in ENUM_CONFIGS[::3]:
        poly = exact_reliability_enum(cfg)
        nm = cfg.total_disks
        survivable = tuple(comb(nm, d) - c for d, c in enumerate(poly.fatal_counts))
        for got, counts in (
            (poly.unreliability(eps), poly.fatal_counts),
            (poly.reliability(eps), survivable),
        ):
            want = _rounded_weighted_sum(counts, eps)
            assert math.isfinite(got), (cfg, eps)
            assert abs(got - want) <= 1e-14 * want, (cfg, eps, got, want)
