"""End-to-end acceptance checks for the whole laboratory.

Each criterion is one test (two are split into a/b halves where they bundle
two distinct requirements), so a verbose run reads as a pass/fail checklist.
Tolerances are pinned; the Monte Carlo seed is pinned so every interval
check is deterministic.

The reference MTTDL grid below (thousands of hours, N = M = 12, disk rate
1e-6/h, no controller failures) is the table this configuration is expected
to reproduce.  Its (k=0, l=2) entry once read 118.9; it is now the exact
82.0, which `exact_integral_khours` derives without any hraidlab code.
"""

import time
from fractions import Fraction
from itertools import product
from math import comb, expm1, sqrt
from types import SimpleNamespace

import numpy as np
import pytest

from hraidlab import (
    FailureModel,
    HraidConfig,
    MttdlEstimate,
    Ordering,
    cell_seed,
    compare_apportionments,
    disk_cells,
    encode_stripes,
    estimate_mttdl,
    exact_reliability_enum,
    generate_layout,
    hraid_reliability,
    hraid_unreliability,
    markov_mttdl,
    node_cells,
    random_payloads,
    recover,
    run_trials,
    sweep,
)
from hraidlab.cli import main
from hraidlab.simulator import THREADS_ENV_VAR

RATES = FailureModel(disk_rate=1e-6, controller_rate=0.0)
PINNED_SEED = 2
TRIALS = 100_000

#: MTTDL in thousands of hours; rows l = 0..3, columns k = 0..3.
REFERENCE_GRID_KHOURS = {
    (0, 0): 6.9, (1, 0): 14.6, (2, 0): 23.0, (3, 0): 32.0,
    (0, 1): 36.9, (1, 1): 58.9, (2, 1): 78.4, (3, 1): 97.7,
    # (0, 2) read 118.9 (source unknown: PAPER.md holds only the abstract),
    # beside the 118.8 of (1, 2); 82.0 is the exact integral 81.970, rounded
    (0, 2): 82.0, (1, 2): 118.8, (2, 2): 148.7, (3, 2): 176.8,
    (0, 3): 139.6, (1, 3): 191.5, (2, 3): 231.8, (3, 3): 268.1,
}

GOLDEN_4X4 = {
    1: ["DDPQ", "DPQD", "PQDD", "QDDP"],
    2: ["DPQD", "PQDD", "QDDP", "DDPQ"],
    3: ["PQDD", "QDDP", "DDPQ", "DPQD"],
    4: ["QDDP", "DDPQ", "DPQD", "PQDD"],
}


def chain_khours(k: int, ell: int) -> float:
    return markov_mttdl(HraidConfig(12, 12, k, ell), RATES) / 1000.0


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_pow(a: list[int], e: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out = _poly_mul(out, a)
    return out


def exact_integral_khours(k: int, ell: int) -> float:
    """MTTDL of the N = M = 12 grid cell as an exact integral, no hraidlab code.

    With no controller failures every disk fails independently at rate
    delta, so P(no loss by t) is the static array reliability R at disk
    survival x = exp(-delta t).  R is an integer polynomial sum c_a x^a with
    c_0 = 0, so MTTDL = integral of R(exp(-delta t)) dt = sum c_a / (a delta),
    summed exactly in Fractions.
    """
    n = m = 12
    node_up = [0] * (m + 1)  # at most l of the M disks failed
    for j in range(ell + 1):
        term = [0] * (m - j) + _poly_pow([1, -1], j)  # x^(M-j) (1-x)^j
        for a, c in enumerate(term):
            node_up[a] += comb(m, j) * c
    node_down = [1 - node_up[0]] + [-c for c in node_up[1:]]
    array_up = [0] * (n * m + 1)  # at most k of the N nodes dead
    for i in range(k + 1):
        term = _poly_mul(_poly_pow(node_down, i), _poly_pow(node_up, n - i))
        for a, c in enumerate(term):
            array_up[a] += comb(n, i) * c
    assert array_up[0] == 0 and sum(array_up) == 1
    per_delta = sum(Fraction(c, a) for a, c in enumerate(array_up) if a)
    hours = per_delta * 10**6  # delta = 1e-6 per hour
    return float(hours / 1000)


@pytest.fixture(scope="module")
def table_sweep():
    """The full 16-cell sweep shared by criteria 1, 2a, and 8."""
    t0 = time.perf_counter()
    result = sweep(12, 12, RATES, trials=TRIALS, seed=PINNED_SEED, threads=1)
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(result=result, elapsed=elapsed)


def test_criterion_1_zero_intra_row_and_runtime(table_sweep):
    # l=0 row: mean within 2% of the closed form sum 1/((12-i) 12 delta),
    # within 2% of the reference row (1% at k=1), under 30 s single-threaded
    closed = [
        sum(1.0 / ((12 - i) * 12 * 1e-6) for i in range(k + 1)) for k in range(4)
    ]
    lines = []
    for k in range(4):
        mc = table_sweep.result.cell(k, 0).estimate.mean_hours
        dev_closed = abs(mc - closed[k]) / closed[k]
        ref = REFERENCE_GRID_KHOURS[(k, 0)] * 1000.0
        dev_ref = abs(mc - ref) / ref
        ref_limit = 0.01 if k == 1 else 0.02
        lines.append(
            f"k={k}: mc={mc:.1f} closed={closed[k]:.1f} "
            f"dev={100 * dev_closed:.2f}%/{100 * dev_ref:.2f}%"
        )
        assert dev_closed < 0.02, f"k={k}: {mc} vs closed form {closed[k]}"
        assert dev_ref < ref_limit, f"k={k}: {mc} vs reference {ref}"
    assert table_sweep.elapsed < 30.0, f"sweep took {table_sweep.elapsed:.1f} s"
    print(
        f"criterion 1 PASS: l=0 row {'; '.join(lines)}; "
        f"runtime {table_sweep.elapsed:.1f} s"
    )


def test_std_dev_of_exponential_loss_time():
    # at k = l = 0 and gamma = 0 the loss time is exponential with rate
    # N M delta, so sigma = mu = 1/(N M delta); the sample sigma has
    # standard error ~ sigma sqrt(2/n)
    est = estimate_mttdl(HraidConfig(12, 12, 0, 0), RATES, TRIALS, PINNED_SEED)
    sigma = 1.0 / (12 * 12 * RATES.disk_rate)
    se = sigma * sqrt(2.0 / TRIALS)
    z = (est.std_dev_hours - sigma) / se
    assert abs(z) < 5.0, f"std {est.std_dev_hours:.1f} h vs exact {sigma:.1f} h, z = {z:.2f}"


def _loss_time_cdf(cfg: HraidConfig, rates: FailureModel, hours: np.ndarray) -> np.ndarray:
    """P(loss by t) from node independence, in numpy: every disk has failed
    by t with probability eps = 1 - exp(-delta t), independently, so a node
    is past l failed disks with probability u, the binomial tail; it is dead
    by t with probability q = 1 - exp(-gamma t) + exp(-gamma t) u, which is
    u itself at gamma = 0, and data is lost when more than k nodes are dead.
    At gamma = 0 it is the array unreliability at eps."""
    n, m, k, ell = cfg.n, cfg.m, cfg.k, cfg.ell
    eps = -np.expm1(-rates.disk_rate * hours)
    u = sum(comb(m, f) * eps**f * (1 - eps) ** (m - f) for f in range(ell + 1, m + 1))
    q = -np.expm1(-rates.controller_rate * hours) + np.exp(-rates.controller_rate * hours) * u
    return sum(comb(n, j) * q**j * (1 - q) ** (n - j) for j in range(k + 1, n + 1))


def _mean_of_cdf(cfg: HraidConfig, rates: FailureModel) -> float:
    """The integral of 1 - U(t) over t from 1e-6 to 1e9 h, by 20-point
    Gauss-Legendre panels of width 0.25 in ln t."""
    x, w = np.polynomial.legendre.leggauss(20)
    edges = np.arange(np.log(1e-6), np.log(1e9) + 0.25, 0.25)
    hours = np.exp((edges[1:, None] + edges[:-1, None]) / 2 + 0.125 * x)  # a panel a row
    # dt = t d(ln t), and each panel's half-width 0.125 scales its weights
    return float(0.125 * np.sum(w * hours * (1 - _loss_time_cdf(cfg, rates, hours))))


@pytest.mark.parametrize(
    "n, gamma", [(12, 0.0), (12, 3e-6), (48, 1e-7)], ids=["12x12-g0", "12x12-g3e-6", "48x12-g1e-7"]
)
def test_loss_times_follow_the_exact_distribution(n, gamma):
    # Kolmogorov-Smirnov over the 16 cells of Nx12 at one gamma: a shape
    # error that keeps the mean fails it.  2.01 is the Kolmogorov critical
    # value for a family-wise alpha = 0.01 over a family's 16 cells,
    # 2 exp(-2 x^2) = 0.01 / 16, fixed before each family's first run; the
    # seeds are the sweep's
    rates = FailureModel(disk_rate=RATES.disk_rate, controller_rate=gamma)
    trials, worst = 32_768, 0.0
    # the empirical CDF steps from (i - 1)/T to i/T at the i-th time
    ranks = np.arange(trials + 1) / trials
    for k, ell in product(range(4), range(4)):
        cfg = HraidConfig(n, 12, k, ell)
        run = run_trials(cfg, rates, trials, cell_seed(PINNED_SEED, k, ell), threads=1)
        times = np.sort(run.times_hours)
        cdf = _loss_time_cdf(cfg, rates, times)
        if gamma == 0.0:
            for i in (0, trials // 4, trials // 2, 3 * trials // 4, trials - 1):
                want = hraid_unreliability(cfg, -expm1(-RATES.disk_rate * times[i]))
                assert cdf[i] == pytest.approx(want, rel=1e-9, abs=1e-12), (k, ell, times[i])
        else:
            want = markov_mttdl(cfg, rates)
            assert _mean_of_cdf(cfg, rates) == pytest.approx(want, rel=1e-8), (k, ell)
        distance = sqrt(trials) * max((ranks[1:] - cdf).max(), (cdf - ranks[:-1]).max())
        assert distance < 2.01, (k, ell, distance)
        worst = max(worst, distance)
    print(f"loss-time CDF PASS: worst sqrt(T) sup|F - U| = {worst:.2f} over 16 cells")


def test_criterion_2a_intervals_contain_exact_chain(table_sweep):
    # hard requirement: the 95% CI of every cell with l >= 1 contains the
    # exact chain value
    worst = 0.0
    for ell in range(1, 4):
        for k in range(4):
            est = table_sweep.result.cell(k, ell).estimate
            exact = chain_khours(k, ell) * 1000.0
            assert est.ci95_low <= exact <= est.ci95_high, (
                f"(k={k}, l={ell}): CI [{est.ci95_low:.1f}, {est.ci95_high:.1f}] "
                f"misses exact {exact:.1f}"
            )
            half = (est.ci95_high - est.ci95_low) / 2.0
            worst = max(worst, abs(est.mean_hours - exact) / (half / 1.96))
    print(f"criterion 2a PASS: 12 intervals contain the chain value, worst |z| = {worst:.2f}")


def test_criterion_2b_exact_chain_vs_reference_grid():
    # every cell with l >= 1: the chain equals the hraidlab-free integral
    # and lies within 10% of the reference grid
    failures = []
    for ell in range(1, 4):
        for k in range(4):
            chain = chain_khours(k, ell)
            exact = exact_integral_khours(k, ell)
            ref = REFERENCE_GRID_KHOURS[(k, ell)]
            dev = (chain - ref) / ref
            if chain != pytest.approx(exact, rel=1e-12) or abs(dev) > 0.10:
                failures.append(
                    f"(k={k}, l={ell}): chain {chain:.6f}k, exact integral "
                    f"{exact:.6f}k, reference {ref}k ({100 * dev:+.1f}%)"
                )
    assert not failures, "exact chain vs reference grid:\n  " + "\n  ".join(failures)
    # the corrected entry is the exact value rounded to one decimal
    exact_02 = exact_integral_khours(0, 2)
    assert abs(REFERENCE_GRID_KHOURS[(0, 2)] - exact_02) <= 0.05, exact_02
    # the reference rows increase in k, as more inter-node redundancy must
    for ell in range(4):
        row = [REFERENCE_GRID_KHOURS[(k, ell)] for k in range(4)]
        assert all(a < b for a, b in zip(row, row[1:])), f"l={ell}: {row}"
    print(
        "criterion 2b PASS: chain equals the exact integral and is within 10% "
        f"of the reference grid; (k=0, l=2) exact {exact_02:.3f}k"
    )


def test_criterion_3_single_parity_chain_value():
    # independent recurrence for k=0, l=1: with j nodes one failure from
    # death, E_j = 1/T_j + (12-j) 12 d / T_j * E_{j+1}, T_j = (144 - j) d
    delta = 1e-6
    e_next = 0.0
    for j in range(12, -1, -1):
        t_j = (144 - j) * delta
        e_next = 1.0 / t_j + ((12 - j) * 12 * delta / t_j) * e_next
    value = markov_mttdl(HraidConfig(12, 12, 0, 1), RATES)
    assert value == pytest.approx(e_next, rel=1e-10)
    ref = 36.9e3
    dev = abs(value - ref) / ref
    assert dev < 0.015, f"{value:.1f} h vs {ref:.1f} h: {100 * dev:.2f}%"
    print(
        f"criterion 3 PASS: exact chain {value / 1000.0:.2f}k matches the "
        f"recurrence and is {100 * dev:.2f}% from the reference 36.9k"
    )


def _small_configs():
    for n in range(1, 6):
        for m in range(1, 6):
            for k in range(0, 3):
                for ell in range(0, 3):
                    if k < n and k + ell < m:
                        yield HraidConfig(n, m, k, ell)


def test_criterion_4a_minimal_fatal_coefficients():
    checked = 0
    for cfg in _small_configs():
        poly = exact_reliability_enum(cfg)
        dmin = (cfg.k + 1) * (cfg.ell + 1)
        expected = comb(cfg.n, cfg.k + 1) * comb(cfg.m, cfg.ell + 1) ** (cfg.k + 1)
        assert poly.fatal_counts[dmin] == expected, cfg
        checked += 1
    print(
        f"criterion 4a PASS: fatal_counts[d_min] = C(N,k+1) C(M,l+1)^(k+1) "
        f"for {checked} configurations"
    )


def test_criterion_4b_two_one_denominator_discrepancy():
    # the (k=2, l=1) minimal-fatal count is C(N,3) C(M,2)^3
    # = N(N-1)(N-2) M^3 (M-1)^3 / 48; the /24 variant of that closed form
    # counts every pattern exactly twice
    for n, m in [(4, 4), (5, 4), (4, 5), (5, 5)]:
        count = exact_reliability_enum(HraidConfig(n, m, 2, 1)).fatal_counts[6]
        form48 = n * (n - 1) * (n - 2) * m**3 * (m - 1) ** 3 // 48
        form24 = n * (n - 1) * (n - 2) * m**3 * (m - 1) ** 3 // 24
        assert count == comb(n, 3) * comb(m, 2) ** 3
        assert count == form48, f"N={n}, M={m}: enumeration {count} vs /48 {form48}"
        assert form24 == 2 * count, (
            f"N={n}, M={m}: the /24 form {form24} is exactly twice the "
            f"enumerated count {count}"
        )
    print(
        "criterion 4b PASS: enumeration pins the (2,1) coefficient at the /48 "
        "form; the /24 variant double-counts (verified exactly 2x on four sizes)"
    )


def test_criterion_5_closed_form_matches_enumeration():
    worst = 0.0
    checked = 0
    for cfg in _small_configs():
        poly = exact_reliability_enum(cfg)
        for eps in (1e-2, 1e-3):
            a = hraid_reliability(cfg, eps)
            b = poly.reliability(eps)
            rel = abs(a - b) / abs(b)
            worst = max(worst, rel)
            assert rel <= 1e-12, (cfg, eps, a, b)
            checked += 1
    print(
        f"criterion 5 PASS: closed form vs enumeration, {checked} comparisons, "
        f"worst relative gap {worst:.2e}"
    )


def test_criterion_6_apportionment_ordering():
    # leading terms for every square size 4..12
    for size in range(4, 13):
        cmp_res = compare_apportionments(size, size)
        assert cmp_res.ordering is Ordering.ONE_TWO_BETTER, size
        assert cmp_res.coeff_12 < cmp_res.coeff_21, size
        assert size > cmp_res.threshold_n, size
    # exact evaluation on the enumerable square sizes
    for size in range(4, 9):
        u12 = exact_reliability_enum(HraidConfig(size, size, 1, 2)).unreliability(1e-3)
        u21 = exact_reliability_enum(HraidConfig(size, size, 2, 1)).unreliability(1e-3)
        assert u12 < u21, size
    # exact chain MTTDL at the table size
    m12 = markov_mttdl(HraidConfig(12, 12, 1, 2), RATES)
    m21 = markov_mttdl(HraidConfig(12, 12, 2, 1), RATES)
    assert m12 > m21
    print(
        f"criterion 6 PASS: 1/2 beats 2/1 by leading terms (sizes 4..12), by "
        f"enumeration (sizes 4..8), and by exact MTTDL at 12 "
        f"({m12 / 1000.0:.2f}k > {m21 / 1000.0:.2f}k)"
    )


def test_criterion_7_layout_golden_and_codec_recovery():
    config = HraidConfig(4, 4, 1, 1)
    grid = generate_layout(config)
    for node, rows in GOLDEN_4X4.items():
        for row_idx, letters in enumerate(rows, start=1):
            assert grid.node_row_letters(row_idx, node) == letters, (row_idx, node)

    scenarios = [disk_cells(config, n, j) for n in range(1, 5) for j in range(1, 5)]
    scenarios += [node_cells(config, n) for n in range(1, 5)]
    recoveries = 0
    for seed in range(100):
        payloads = random_payloads(grid, seed=seed, strip_size=32)
        content = encode_stripes(payloads, config, grid)
        for cells in scenarios:
            result = recover(content, cells)
            assert not result.data_loss
            assert np.array_equal(result.content.strips, content.strips)
            recoveries += 1
    print(
        f"criterion 7 PASS: golden 4x4 grid matches; {recoveries} erasure "
        f"recoveries (16 disks + 4 nodes, 100 payload sets) all bit-exact"
    )


def test_criterion_8_no_loss_below_minimum_failures(table_sweep):
    minima = {}
    for cell in table_sweep.result.cells:
        dmin = (cell.k + 1) * (cell.ell + 1)
        # the sweep cell's own trials: same config, rates, count and seed
        cfg = HraidConfig(12, 12, cell.k, cell.ell)
        cseed = cell_seed(PINNED_SEED, cell.k, cell.ell)
        results = run_trials(cfg, RATES, TRIALS, cseed, threads=1)
        assert MttdlEstimate.from_times(results.times_hours, cseed) == cell.estimate
        observed = int(results.disk_failures.min())
        minima[(cell.k, cell.ell)] = observed
        assert observed >= dmin, (
            f"(k={cell.k}, l={cell.ell}): a trial lost data after {observed} "
            f"disk failures, below d_min = {dmin}"
        )
    print(
        f"criterion 8 PASS: over {TRIALS} trials x 16 cells no loss below "
        f"(k+1)(l+1) failures; observed minima {minima}"
    )


def test_criterion_9_thread_count_determinism(tmp_path, monkeypatch):
    outputs = []
    for threads in (1, 4, 8):
        monkeypatch.setenv(THREADS_ENV_VAR, str(threads))
        out = tmp_path / f"sweep_t{threads}.csv"
        rc = main(
            [
                "sweep", "--n", "12", "--m", "12", "--trials", "20000",
                "--seed", "3", "--format", "csv", "--out", str(out),
            ]
        )
        assert rc == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].startswith(b"n,m,k,ell,")
    print(
        "criterion 9 PASS: sweep CSVs byte-identical at 1, 4, and 8 worker "
        "threads (20000 trials, 16 cells)"
    )
