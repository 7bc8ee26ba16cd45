import math
from itertools import combinations

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
