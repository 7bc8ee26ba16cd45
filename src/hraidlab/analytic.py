"""Closed-form reliability of MDS node arrays and HRAID k/l systems.

A node of M disks survives while at most l of them fail, a binomial sum
in the disk unreliability eps; the array survives while at most k nodes
fail, a second binomial layer in the node unreliability.  One evaluator
gives both sides of either layer, each with full relative precision where
it is small, at a cost independent of N: the t + 1 head terms are summed
in log space from q^n by the term ratio (n-j)/(j+1) p/q; a head of at most
1/2 leaves the tail as its complement, otherwise the tail terms, falling
from j = t + 1 on, are summed until one no longer changes the sum and the
head is the complement.  The array layer takes both node sides, never 1 - u.
Both sums are plain loops, so their summation order, and so every output
bit, is fixed: built-in ``sum`` of floats changed to compensated summation
in Python 3.12.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, exp, inf, log, log1p

from .config import HraidConfig, ValidationError, check_integer, check_real


#: Largest node or disk count the binomial evaluator takes: it forms n log q
#: in floats.
_MAX_COUNT = 10**308


def _check_count(name: str, value: int) -> None:
    if value > _MAX_COUNT:
        raise ValidationError(
            f"{name} must be at most 1e308 for the closed forms, got a "
            f"{len(str(value))}-digit value"
        )


def _rounded(x: Fraction) -> float:
    """x rounded once to a float, or +-inf beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return inf if x > 0 else -inf


def check_eps(eps: float) -> float:
    """The disk unreliability eps as a Python float; raise ValidationError
    unless it is a real number in (0, 1)."""
    eps = check_real("disk unreliability", eps)
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"disk unreliability must be in (0, 1), got {eps}")
    return float(eps)


def _binomial_sides(n: int, t: int, p: float, q: float) -> tuple[float, float]:
    """(P[X <= t], P[X > t]) for X ~ Binomial(n, p), given p and q = 1 - p."""
    if t >= n or p == 0.0:
        return 1.0, 0.0
    if q == 0.0:
        return 0.0, 1.0
    # log p and log q from whichever of p and q is held more precisely
    log_p, log_q = (log(p), log1p(-p)) if p <= q else (log1p(-q), log(q))
    log_ratio = log_p - log_q
    log_term = n * log_q
    head = exp(log_term)
    for j in range(1, t + 1):
        log_term += log((n - j + 1) / j) + log_ratio
        head += exp(log_term)
    if head <= 0.5:
        return head, 1.0 - head
    tail = 0.0
    for j in range(t + 1, n + 1):
        log_term += log((n - j + 1) / j) + log_ratio
        term = exp(log_term)
        if tail + term == tail:
            break
        tail += term
    return 1.0 - tail, tail


def _check_tolerance(m: int, t: int) -> tuple[int, int]:
    """m and t as Python ints; raise ValidationError unless they are integers
    with 0 <= t <= m."""
    check_integer("disk count m", m)
    check_integer("tolerance t", t)
    if t < 0:
        raise ValidationError(f"tolerance must be >= 0, got {t}")
    if t > m:
        raise ValidationError(f"tolerance must satisfy 0 <= t <= m, got t={t}, m={m}")
    return int(m), int(t)


def _node_sides(m: int, t: int, eps: float) -> tuple[float, float]:
    """(reliability, unreliability) of an m-disk MDS array tolerating t failures."""
    eps = check_eps(eps)
    m, t = _check_tolerance(m, t)
    _check_count("disk count m", m)
    return _binomial_sides(m, t, eps, 1.0 - eps)


def _array_sides(config: HraidConfig, eps: float) -> tuple[float, float]:
    """(reliability, unreliability) of an HRAID k/l array; the config
    already bounds its tolerances."""
    eps = check_eps(eps)
    _check_count("disk count m", config.m)
    _check_count("n", config.n)
    r, u = _binomial_sides(config.m, config.ell, eps, 1.0 - eps)
    return _binomial_sides(config.n, config.k, u, r)


def exact_mds_reliability(m: int, t: int, eps: float) -> float:
    """Reliability of an m-disk MDS array tolerating t disk failures:
    sum_{i=0..t} C(m,i) eps^i (1-eps)^(m-i)."""
    return _node_sides(m, t, eps)[0]


def exact_mds_unreliability(m: int, t: int, eps: float) -> float:
    """Complement of ``exact_mds_reliability``: the fatal terms i = t+1..m,
    with full relative precision when eps is small."""
    return _node_sides(m, t, eps)[1]


def raid_series_approx(m: int, t: int, eps: float) -> float:
    """Two-term series approximation of the m-disk, t-tolerant unreliability.

    Returns C(m,t+1) eps^(t+1) - (t+1) C(m,t+2) eps^(t+2), the expansion of
    the exact unreliability to its two lowest powers.  Valid for m*eps << 1;
    the truncation error is O(eps^(t+3)) terms of alternating sign.
    """
    e = Fraction(check_eps(eps))
    m, t = _check_tolerance(m, t)
    series = comb(m, t + 1) * e ** (t + 1) - (t + 1) * comb(m, t + 2) * e ** (t + 2)
    return _rounded(series)


def hraid_unreliability(config: HraidConfig, eps: float) -> float:
    """Probability of data loss of an HRAID k/l array at disk unreliability eps:
    more than k nodes each lose more than l disks, so with u the node
    unreliability it is sum_{j=k+1..N} C(N,j) u^j (1-u)^(N-j)."""
    return _array_sides(config, eps)[1]


def hraid_reliability(config: HraidConfig, eps: float) -> float:
    """Probability an HRAID k/l array loses no data at disk unreliability eps:
    sum_{j=0..k} C(N,j) (1-R_l)^j R_l^(N-j) with R_l the node reliability."""
    return _array_sides(config, eps)[0]


@dataclass(frozen=True)
class LeadingTerm:
    """Lowest-order term of the unreliability polynomial.

    The power equals d_min = (k+1)(l+1); the coefficient counts the minimal
    fatal configurations (choose k+1 nodes, then l+1 failed disks in each)
    and is exact.
    """

    power: int
    coefficient: int

    def evaluate(self, eps: float) -> float:
        """coefficient * eps**power, rounded once; inf beyond the float range."""
        return _rounded(self.coefficient * Fraction(check_eps(eps)) ** self.power)


def leading_term(config: HraidConfig) -> LeadingTerm:
    """Leading unreliability term: C(N,k+1) C(M,l+1)^(k+1) eps^((k+1)(l+1))."""
    n, m, k, ell = config.n, config.m, config.k, config.ell
    return LeadingTerm(
        power=d_min(config),
        coefficient=comb(n, k + 1) * comb(m, ell + 1) ** (k + 1),
    )


class Ordering(Enum):
    ONE_TWO_BETTER = "1/2 more reliable"
    TWO_ONE_BETTER = "2/1 more reliable"
    EQUAL = "equally reliable to leading order"


@dataclass(frozen=True)
class ApportionmentComparison:
    """Small-eps comparison of HRAID1/2 against HRAID2/1 on N x M disks.

    Both tolerate any five disk failures (d_min = 6); their leading
    coefficients, C(N,2)C(M,3)^2 and C(N,3)C(M,2)^3, decide which is more
    reliable for small eps (smaller is better).  ``threshold_n`` is the N at
    which the two coefficients are equal, 2 + 3C(M,3)^2/C(M,2)^3: 1/2 is
    better for every larger N.
    """

    ordering: Ordering
    coeff_12: int
    coeff_21: int
    threshold_n: Fraction


def _apportionment_pair(n: int, m: int) -> tuple[HraidConfig, HraidConfig]:
    """HRAID1/2 and HRAID2/1 on N x M disks.  Both fit only for N >= 3 and
    M >= 4; otherwise the error names the bound one of them violates."""
    try:
        return HraidConfig(n, m, 1, 2), HraidConfig(n, m, 2, 1)
    except ValidationError as exc:
        raise ValidationError(f"HRAID1/2 vs HRAID2/1 needs both codes to fit: {exc}") from exc


def compare_apportionments(n: int, m: int) -> ApportionmentComparison:
    """Compare HRAID1/2 vs HRAID2/1 by their leading unreliability terms,
    which count the minimal fatal sets."""
    one_two, two_one = _apportionment_pair(n, m)
    n = one_two.n
    c12 = leading_term(one_two).coefficient
    c21 = leading_term(two_one).coefficient
    if c12 < c21:
        ordering = Ordering.ONE_TWO_BETTER
    elif c21 < c12:
        ordering = Ordering.TWO_ONE_BETTER
    else:
        ordering = Ordering.EQUAL
    # c12/c21 = 3/(N-2) * C(M,3)^2/C(M,2)^3: the N where the two are equal
    # is 2 + (N-2) c12/c21 = 2 + 3C(M,3)^2/C(M,2)^3, the same for every N
    threshold = 2 + (n - 2) * Fraction(c12, c21)
    return ApportionmentComparison(
        ordering=ordering, coeff_12=c12, coeff_21=c21, threshold_n=threshold
    )


def conditional_sixth_failure(n: int, m: int) -> tuple[Fraction, Fraction, int]:
    """Chance the sixth disk failure is fatal, for 1/2 and 2/1 apportionments.

    After five failures in the worst pattern, the survivors pool holds
    D_S = (N-2)M + M - 2 disks; the fatal sixth failure must strike the
    critical node, hitting one of M-2 disks under 1/2 or M-1 under 2/1.
    Returns (p_12, p_21, D_S) with exact rationals.
    """
    one_two = _apportionment_pair(n, m)[0]
    n, m = one_two.n, one_two.m
    d_s = (n - 2) * m + m - 2
    return Fraction(m - 2, d_s), Fraction(m - 1, d_s), d_s


def d_max(config: HraidConfig) -> int:
    """Most disk failures any survivable pattern can contain: kM + (N-k)l.

    Attained when k whole nodes fail plus l disks in each remaining node;
    reduces to N(k+l) - kl when M = N.
    """
    n, m, k, ell = config.n, config.m, config.k, config.ell
    return k * m + (n - k) * ell


def d_min(config: HraidConfig) -> int:
    """Fewest disk failures that can lose data: (k+1)(l+1)."""
    return (config.k + 1) * (config.ell + 1)
