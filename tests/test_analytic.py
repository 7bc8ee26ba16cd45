import math
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from hraidlab import (
    HraidConfig,
    Ordering,
    ValidationError,
    compare_apportionments,
    conditional_sixth_failure,
    d_max,
    d_min,
    exact_mds_reliability,
    exact_mds_unreliability,
    exact_reliability_enum,
    hraid_reliability,
    hraid_unreliability,
    leading_term,
    raid_series_approx,
)


def valid_small_configs(max_nm=5, max_kl=2):
    for n in range(1, max_nm + 1):
        for m in range(1, max_nm + 1):
            for k in range(0, max_kl + 1):
                for ell in range(0, max_kl + 1):
                    if k < n and k + ell < m:
                        yield HraidConfig(n, m, k, ell)


def test_mds_two_disks_one_tolerance_is_one_minus_eps_squared():
    for eps in (0.5, 0.1, 1e-3, 1e-6):
        assert exact_mds_reliability(2, 1, eps) == pytest.approx(
            1 - eps**2, rel=1e-14
        )


def test_mds_single_tolerance_matches_direct_expression():
    eps, r = 0.01, 0.99
    expected = r**12 + 12 * eps * r**11
    assert exact_mds_reliability(12, 1, eps) == pytest.approx(expected, rel=1e-15)


def test_mds_full_tolerance_is_certain():
    for eps in (0.1, 0.9):
        assert exact_mds_reliability(4, 4, eps) == pytest.approx(1.0, rel=1e-12)


def test_mds_reliability_plus_unreliability_is_one():
    for m, t in [(5, 1), (12, 2), (8, 0)]:
        for eps in (0.3, 1e-2, 1e-5):
            r = exact_mds_reliability(m, t, eps)
            u = exact_mds_unreliability(m, t, eps)
            assert r + u == pytest.approx(1.0, rel=1e-14)


def test_mds_validation():
    with pytest.raises(ValidationError):
        exact_mds_reliability(4, 5, 0.1)
    with pytest.raises(ValidationError):
        exact_mds_reliability(4, 1, 0.0)
    with pytest.raises(ValidationError):
        exact_mds_reliability(4, 1, 1.0)


def test_series_coefficients_for_twelve_disks():
    eps = 1e-2
    assert raid_series_approx(12, 1, eps) == pytest.approx(
        66 * eps**2 - 440 * eps**3, rel=1e-15
    )


def test_series_at_full_tolerance_is_zero():
    assert raid_series_approx(5, 5, 1e-3) == 0.0


def test_series_refuses_a_negative_tolerance():
    with pytest.raises(ValidationError, match=r"^tolerance must be >= 0, got -1$"):
        raid_series_approx(12, -1, 1e-3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: exact_mds_reliability(12.5, 1, 0.1), "disk count m must be an integer"),
        (lambda: exact_mds_reliability(12, 1.5, 0.1), "tolerance t must be an integer"),
        (lambda: raid_series_approx(12, 1.5, 0.1), "tolerance t must be an integer"),
        (lambda: raid_series_approx(-3, 1, 0.1), r"0 <= t <= m, got t=1, m=-3"),
        (lambda: hraid_unreliability(HraidConfig(4, 4, 1, 1), "x"),
         r"^disk unreliability must be a finite number, got 'x'$"),
        (lambda: leading_term(HraidConfig(4, 4, 1, 1)).evaluate(math.nan), r"got nan"),
    ],
    ids=["mds-m", "mds-t", "series-t", "series-m", "eps-str", "lead-nan"],
)
def test_library_refuses_malformed_arguments(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


@pytest.mark.parametrize(
    "eps", [Decimal("0.1"), Decimal("0.5"), "0.5", math.nan],
    ids=["decimal-0.1", "decimal-0.5", "str-0.5", "nan"],
)
@pytest.mark.parametrize(
    "evaluate",
    [
        lambda eps: hraid_unreliability(HraidConfig(4, 4, 1, 1), eps),
        lambda eps: exact_reliability_enum(HraidConfig(4, 4, 1, 1)).unreliability(eps),
    ],
    ids=["closed-form", "enumeration"],
)
def test_eps_names_the_bound_it_breaks(evaluate, eps):
    # a Decimal or a string inside (0, 1) is refused for its type, not its value
    message = f"^disk unreliability must be a finite number, got {re.escape(repr(eps))}$"
    with pytest.raises(ValidationError, match=message):
        evaluate(eps)


def test_certain_node_loss_gives_zero_reliability():
    # a node of 10**6 l = 0 disks at eps = 0.9 survives with probability
    # 0.1**(10**6), which rounds to zero: every node is lost
    cfg = HraidConfig(3, 10**6, 1, 0)
    assert hraid_reliability(cfg, 0.9) == 0.0
    assert hraid_unreliability(cfg, 0.9) == 1.0


def test_series_truncation_error_against_exact_rational():
    # exact unreliability via rational arithmetic, independent of the
    # float implementation under test
    m, t = 12, 1
    eps_frac = Fraction(1, 1000)
    r_frac = 1 - eps_frac
    exact_u = 1 - sum(
        math.comb(m, i) * eps_frac**i * r_frac ** (m - i) for i in range(t + 1)
    )
    series = Fraction(66, 10**6) - Fraction(440, 10**9)
    diff = abs(series - exact_u)
    # the two-term truncation leaves the eps^4 and higher terms behind:
    # about 1.5e-9 absolute here, 2.3e-5 relative
    assert diff < Fraction(2, 10**9)
    assert diff / exact_u < Fraction(3, 10**5)
    got = raid_series_approx(m, t, 1e-3)
    assert got == pytest.approx(float(series), rel=1e-12)
    assert abs(got - float(exact_u)) < 2e-9


def test_hraid_no_redundancy_is_product_of_disks():
    cfg = HraidConfig(3, 4, 0, 0)
    for eps in (0.2, 1e-3):
        assert hraid_reliability(cfg, eps) == pytest.approx(
            (1 - eps) ** 12, rel=1e-12
        )


def test_hraid_mirrored_nodes_hand_value():
    # N=2, M=2, k=1, l=0 at eps=0.5: R_0 = 0.25, R = R_0^2 + 2(1-R_0)R_0
    cfg = HraidConfig(2, 2, 1, 0)
    assert hraid_reliability(cfg, 0.5) == pytest.approx(0.4375, rel=1e-14)
    poly = exact_reliability_enum(cfg)
    assert poly.reliability(0.5) == pytest.approx(0.4375, rel=1e-14)


def test_hraid_leading_behaviour_at_small_eps():
    # N=M=12, k=0, l=1: unreliability ~ NM(M-1)/2 eps^2 = 792 eps^2
    cfg = HraidConfig(12, 12, 0, 1)
    eps = 1e-3
    u = hraid_unreliability(cfg, eps)
    assert u == pytest.approx(792e-6, rel=0.02)


def test_reliability_and_unreliability_are_complements():
    cfg = HraidConfig(4, 4, 1, 1)
    for eps in (0.3, 1e-2, 1e-3):
        assert hraid_reliability(cfg, eps) + hraid_unreliability(
            cfg, eps
        ) == pytest.approx(1.0, rel=1e-12)


def test_small_eps_path_keeps_relative_precision():
    # past the median the reliability is the complement of the summed tail
    cfg = HraidConfig(5, 5, 1, 1)
    eps = 1e-5
    u = hraid_unreliability(cfg, eps)
    lead = leading_term(cfg)
    assert u == pytest.approx(lead.evaluate(eps), rel=0.01)
    assert hraid_reliability(cfg, eps) == 1.0 - u


def test_leading_term_examples():
    lt = leading_term(HraidConfig(12, 12, 0, 1))
    assert (lt.power, lt.coefficient) == (2, 792)
    lt = leading_term(HraidConfig(12, 12, 1, 0))
    assert (lt.power, lt.coefficient) == (2, 9504)
    lt = leading_term(HraidConfig(12, 12, 1, 2))
    assert (lt.power, lt.coefficient) == (6, 3_194_400)
    assert lt.coefficient == 12 * 11 * 144 * 121 * 100 // 72


def test_leading_term_matches_enumeration_at_d_min():
    for cfg in valid_small_configs():
        poly = exact_reliability_enum(cfg)
        lt = leading_term(cfg)
        assert poly.fatal_counts[lt.power] == lt.coefficient, cfg


def test_unreliability_ratio_approaches_leading_term():
    for cfg in valid_small_configs():
        lt = leading_term(cfg)
        for eps in (1e-4, 1e-5):
            ratio = hraid_unreliability(cfg, eps) / lt.evaluate(eps)
            assert abs(ratio - 1.0) < 0.01, (cfg, eps, ratio)


def test_hraid_monotone_in_k_and_l():
    for eps in (1e-2, 1e-3):
        for n, m in [(5, 5), (4, 6)]:
            for k in range(0, 3):
                for ell in range(0, 3):
                    if k + ell + 1 >= m or k + 1 >= n:
                        continue
                    base = hraid_unreliability(HraidConfig(n, m, k, ell), eps)
                    up_k = hraid_unreliability(HraidConfig(n, m, k + 1, ell), eps)
                    up_l = hraid_unreliability(HraidConfig(n, m, k, ell + 1), eps)
                    assert up_k < base
                    assert up_l < base


def test_compare_apportionments_examples():
    cmp12 = compare_apportionments(12, 12)
    assert cmp12.ordering is Ordering.ONE_TWO_BETTER
    # 2 + 3 C(12,3)^2 / C(12,2)^3 = 2 + 3 * 220^2 / 66^3
    assert cmp12.threshold_n == 2 + Fraction(3 * 220**2, 66**3) == Fraction(248, 99)
    assert float(cmp12.threshold_n) == pytest.approx(2.50505, abs=1e-5)
    cmp3 = compare_apportionments(3, 4)
    assert cmp3.ordering is Ordering.ONE_TWO_BETTER
    assert cmp3.threshold_n == 2 + Fraction(3 * 4**2, 6**3) == Fraction(20, 9)
    # HRAID2/1 needs N >= 3, and HRAID1/2 (l = 2 plus k = 1) needs M >= 4
    with pytest.raises(ValidationError, match="k must be below n"):
        compare_apportionments(2, 12)
    with pytest.raises(ValidationError, match=r"k \+ ell must be below m"):
        compare_apportionments(3, 3)


def test_threshold_equates_the_leading_coefficients():
    # C(N,2) C(M,3)^2 = C(N,3) C(M,2)^3 at N = threshold_n, in exact rationals
    def c2(x):
        return x * (x - 1) / 2

    def c3(x):
        return x * (x - 1) * (x - 2) / 6

    for m in range(4, 65):
        t = compare_apportionments(5, m).threshold_n
        assert c2(t) * math.comb(m, 3) ** 2 == c3(t) * math.comb(m, 2) ** 3, m
        assert 2 < t < Fraction(8, 3), m
        for n in (3, 4, 40):
            assert compare_apportionments(n, m).threshold_n == t, (n, m)


def test_compare_agrees_with_enumeration():
    eps = 1e-3
    for size in (4, 5, 6):
        cmp_res = compare_apportionments(size, size)
        u12 = exact_reliability_enum(HraidConfig(size, size, 1, 2)).unreliability(eps)
        u21 = exact_reliability_enum(HraidConfig(size, size, 2, 1)).unreliability(eps)
        assert cmp_res.ordering is Ordering.ONE_TWO_BETTER
        assert u12 < u21


def test_conditional_sixth_failure_values():
    p12, p21, d_s = conditional_sixth_failure(12, 12)
    assert d_s == 130
    assert p12 == Fraction(10, 130)
    assert p21 == Fraction(11, 130)
    p12, _, d_s4 = conditional_sixth_failure(5, 4)
    assert p12 == Fraction(2, d_s4)
    for n in range(3, 8):
        for m in range(4, 8):
            a, b, _ = conditional_sixth_failure(n, m)
            assert a < b
    # the pool of the worst five-failure pattern needs both codes to fit
    with pytest.raises(ValidationError, match=r"k \+ ell must be below m"):
        conditional_sixth_failure(5, 3)


def test_d_max_d_min_examples():
    assert d_max(HraidConfig(12, 12, 1, 1)) == 23
    assert d_min(HraidConfig(12, 12, 1, 1)) == 4
    assert d_max(HraidConfig(4, 4, 0, 0)) == 0
    assert d_min(HraidConfig(4, 4, 0, 0)) == 1
    assert d_max(HraidConfig(4, 4, 1, 1)) == 7
    # N = M reduction: d_max = N(k+l) - kl
    assert d_max(HraidConfig(12, 12, 2, 1)) == 12 * 3 - 2


def test_d_max_agrees_with_enumeration_bracket():
    # some d_max-failure set survives, every (d_max+1)-set is fatal
    cfg = HraidConfig(4, 4, 1, 1)
    poly = exact_reliability_enum(cfg)
    dmax = d_max(cfg)
    assert poly.fatal_counts[dmax] < math.comb(16, dmax)
    assert poly.fatal_counts[dmax + 1] == math.comb(16, dmax + 1)


def test_analytic_report_fields():
    # the quantities `analytic report` prints, each from its one source
    cfg = HraidConfig(12, 12, 1, 2)
    assert d_min(cfg) == leading_term(cfg).power == 6 and d_max(cfg) == 34
    assert leading_term(cfg).coefficient == 3_194_400 == compare_apportionments(12, 12).coeff_12
    assert conditional_sixth_failure(12, 12)[0] == Fraction(10, 130)
    # no pair quantities where HRAID1/2 or HRAID2/1 does not fit
    for n, m in [(2, 2), (12, 3)]:
        with pytest.raises(ValidationError):
            compare_apportionments(n, m)
        with pytest.raises(ValidationError):
            conditional_sixth_failure(n, m)


def exact_sides(n, m, k, ell, eps):
    """Exact (R_l, U_l, R, U) of a node and of the array, as rationals."""
    e = Fraction(eps)
    node_u = sum(math.comb(m, i) * e**i * (1 - e) ** (m - i) for i in range(ell + 1, m + 1))
    a, b = node_u.numerator, node_u.denominator  # integer sums: Fraction powers are slow
    loss = sum(math.comb(n, j) * a**j * (b - a) ** (n - j) for j in range(k + 1, n + 1))
    return 1 - node_u, node_u, Fraction(b**n - loss, b**n), Fraction(loss, b**n)


@pytest.mark.parametrize("eps", [1e-3, 0.05, 0.5])
def test_hraid_unreliability_matches_exact_rational_at_two_hundred_nodes(eps):
    n, m, k, ell = 200, 12, 3, 2
    exact = exact_sides(n, m, k, ell, eps)[3]
    got = hraid_unreliability(HraidConfig(n, m, k, ell), eps)
    assert got == pytest.approx(float(exact), rel=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 48])
def test_both_sides_match_exact_rationals(n):
    # eps = 0.9 with l = 0 puts the node reliability near 1e-12: the array
    # layer must take it as given, not as 1 - u
    for m in (2, 4, 12):
        for cfg in (HraidConfig(n, m, k, ell) for k in range(4) for ell in range(4)
                    if k < n and k + ell < m):
            for eps in (1e-6, 1e-3, 0.05, 0.3, 0.5, 0.9):
                got = (
                    exact_mds_reliability(m, cfg.ell, eps),
                    exact_mds_unreliability(m, cfg.ell, eps),
                    hraid_reliability(cfg, eps),
                    hraid_unreliability(cfg, eps),
                )
                for value, want in zip(got, exact_sides(n, m, cfg.k, cfg.ell, eps)):
                    if want >= sys.float_info.min:
                        assert value == pytest.approx(float(want), rel=1e-12), (cfg, eps)


def test_dyadic_sides_do_not_depend_on_the_python_version():
    # at eps = 1/2 every term is a power of two; the loops sum them in a
    # fixed order, where built-in sum() rounds differently from Python 3.12
    assert exact_mds_reliability(8, 2, 0.5) == 37 / 256
    assert exact_mds_reliability(8, 3, 0.5) == 93 / 256


@pytest.mark.parametrize("m", [1, 4, 12])
def test_full_tolerance_sides_are_exact(m):
    for eps in (1e-6, 0.5, 0.9):
        assert (exact_mds_reliability(m, m, eps), exact_mds_unreliability(m, m, eps)) == (1.0, 0.0)


@pytest.mark.parametrize("n", [10**7, 10**12, 10**100, 10**308])
def test_closed_forms_at_huge_node_counts(n):
    cfg = HraidConfig(n, 12, 3, 3)
    for eps in (0.5, 1e-3):
        start = time.perf_counter()
        u, r = hraid_unreliability(cfg, eps), hraid_reliability(cfg, eps)
        assert time.perf_counter() - start < 1.0
        assert 0.0 <= u <= 1.0 and 0.0 <= r <= 1.0
        if eps == 0.5:  # P(at most 3 nodes fail) is below 1e-2000 here
            assert (u, r) == (1.0, 0.0)


def test_closed_forms_name_the_count_bound():
    # n log q is formed in floats, so a count beyond 1e308 is refused by name
    with pytest.raises(ValidationError, match="n must be at most 1e308"):
        hraid_unreliability(HraidConfig(10**308 + 1, 12, 3, 3), 1e-3)
    with pytest.raises(ValidationError, match="disk count m must be at most 1e308"):
        exact_mds_reliability(10**400, 3, 1e-3)


def test_truncated_series_past_the_float_range():
    # the coefficients exceed a float; the values are rounded once, to +-inf
    # where they leave the float range
    lead = leading_term(HraidConfig(10**100, 12, 3, 3))
    assert lead.evaluate(1e-3) == math.inf
    exact = lead.coefficient * Fraction(1e-30) ** lead.power
    assert lead.evaluate(1e-30) == float(exact) and 0.0 < float(exact) < 1.0
    assert raid_series_approx(10**100, 3, 0.5) == -math.inf
    assert raid_series_approx(10**100, 3, 1e-300) == 0.0
