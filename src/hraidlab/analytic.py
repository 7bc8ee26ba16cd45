"""Closed-form reliability of MDS node arrays and HRAID k/l systems.

A node of M disks tolerating l failures is an MDS array whose static
reliability is a binomial sum in the single-disk unreliability eps.  The
array survives when at most k nodes fail, giving a second binomial layer.
Coefficients are kept as exact integers or rationals; floats appear only
in final evaluations.  For small eps the unreliability is accumulated as
a sum of positive fatal-configuration terms so no precision is lost to
cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb

from .config import HraidConfig, ValidationError

#: Below this eps, reliabilities are computed via the complement to avoid
#: cancellation against 1.
CANCELLATION_GUARD_EPS = 1e-4


def check_eps(eps: float) -> None:
    """Raise ValidationError unless the disk unreliability eps is in (0, 1)."""
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"disk unreliability must be in (0, 1), got {eps}")


def exact_mds_reliability(m: int, t: int, eps: float) -> float:
    """Reliability of an m-disk MDS array tolerating t disk failures.

    Returns sum_{i=0..t} C(m,i) eps^i (1-eps)^(m-i); t=0 gives r^m and
    t=1 the familiar r^m + m(1-r)r^(m-1).
    """
    check_eps(eps)
    if not 0 <= t <= m:
        raise ValidationError(f"tolerance must satisfy 0 <= t <= m, got t={t}, m={m}")
    r = 1.0 - eps
    return sum(comb(m, i) * eps**i * r ** (m - i) for i in range(t + 1))


def exact_mds_unreliability(m: int, t: int, eps: float) -> float:
    """Complement of ``exact_mds_reliability`` as a positive sum.

    Summing the fatal terms i = t+1..m directly keeps full relative
    precision when eps is small.
    """
    check_eps(eps)
    if not 0 <= t <= m:
        raise ValidationError(f"tolerance must satisfy 0 <= t <= m, got t={t}, m={m}")
    r = 1.0 - eps
    return sum(comb(m, i) * eps**i * r ** (m - i) for i in range(m, t, -1))


def raid_series_approx(m: int, t: int, eps: float) -> float:
    """Two-term series approximation of the m-disk, t-tolerant unreliability.

    Returns C(m,t+1) eps^(t+1) - (t+1) C(m,t+2) eps^(t+2), the expansion of
    the exact unreliability to its two lowest powers.  Valid for m*eps << 1;
    the truncation error is O(eps^(t+3)) terms of alternating sign.
    """
    check_eps(eps)
    if t < 0:
        raise ValidationError(f"tolerance must be >= 0, got {t}")
    return comb(m, t + 1) * eps ** (t + 1) - (t + 1) * comb(m, t + 2) * eps ** (t + 2)


def hraid_unreliability(config: HraidConfig, eps: float) -> float:
    """Probability of data loss of an HRAID k/l array at disk unreliability eps.

    Data is lost when more than k nodes each lose more than l disks.  With
    u = per-node unreliability, this is sum_{j=k+1..N} C(N,j) u^j (1-u)^(N-j),
    accumulated as positive terms, smallest first.
    """
    check_eps(eps)
    n, k, ell, m = config.n, config.k, config.ell, config.m
    u = exact_mds_unreliability(m, ell, eps)
    s = 1.0 - u
    return sum(comb(n, j) * u**j * s ** (n - j) for j in range(n, k, -1))


def hraid_reliability(config: HraidConfig, eps: float) -> float:
    """Probability an HRAID k/l array loses no data at disk unreliability eps.

    Equals sum_{j=0..k} C(N,j) (1-R_l)^j R_l^(N-j) with R_l the node
    reliability; computed via the complement below the cancellation guard.
    """
    check_eps(eps)
    if eps < CANCELLATION_GUARD_EPS:
        return 1.0 - hraid_unreliability(config, eps)
    n, k, ell, m = config.n, config.k, config.ell, config.m
    r_l = exact_mds_reliability(m, ell, eps)
    q = 1.0 - r_l
    return sum(comb(n, j) * q**j * r_l ** (n - j) for j in range(k + 1))


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
        return self.coefficient * eps**self.power


def leading_term(config: HraidConfig) -> LeadingTerm:
    """Leading unreliability term: C(N,k+1) C(M,l+1)^(k+1) eps^((k+1)(l+1))."""
    n, m, k, ell = config.n, config.m, config.k, config.ell
    return LeadingTerm(
        power=(k + 1) * (ell + 1),
        coefficient=comb(n, k + 1) * comb(m, ell + 1) ** (k + 1),
    )


class Ordering(Enum):
    ONE_TWO_BETTER = "1/2 more reliable"
    TWO_ONE_BETTER = "2/1 more reliable"
    EQUAL = "equally reliable to leading order"


@dataclass(frozen=True)
class ApportionmentComparison:
    """Small-eps comparison of HRAID1/2 against HRAID2/1 on N x M disks.

    Both tolerate any five disk failures (d_min = 6); the leading
    coefficients C(N,2)C(M,3)^2 and C(N,3)C(M,2)^3 decide which is more
    reliable for small eps (smaller is better).  ``threshold_n`` restates
    the comparison as the classical lower bound on N derived from the
    ratio of the two coefficients' closed forms.
    """

    ordering: Ordering
    coeff_12: int
    coeff_21: int
    threshold_n: Fraction


def compare_apportionments(n: int, m: int) -> ApportionmentComparison:
    """Compare HRAID1/2 vs HRAID2/1 by minimal-fatal-set counts."""
    if n < 3 or m < 3:
        raise ValidationError(
            f"comparison needs N >= 3 and M >= 3 (both codes must fit), "
            f"got N={n}, M={m}"
        )
    c12 = comb(n, 2) * comb(m, 3) ** 2
    c21 = comb(n, 3) * comb(m, 2) ** 3
    if c12 < c21:
        ordering = Ordering.ONE_TWO_BETTER
    elif c21 < c12:
        ordering = Ordering.TWO_ONE_BETTER
    else:
        ordering = Ordering.EQUAL
    threshold = 2 + Fraction((m - 2) ** 2, 3 * m * (m - 1))
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
    if n < 3 or m < 3:
        raise ValidationError(
            f"conditional probabilities need N >= 3 and M >= 3, got N={n}, M={m}"
        )
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


@dataclass(frozen=True)
class AnalyticReport:
    """Summary of the closed-form quantities for one configuration.

    The conditional sixth-failure probabilities and the apportionment
    threshold require N, M >= 3 and are None otherwise.
    """

    config: HraidConfig
    d_max: int
    d_min: int
    leading: LeadingTerm
    p_12: Fraction | None
    p_21: Fraction | None
    d_s: int | None
    threshold_n: Fraction | None


def analytic_report(config: HraidConfig) -> AnalyticReport:
    """Assemble the full analytic summary for ``config``."""
    if config.n >= 3 and config.m >= 3:
        p12, p21, d_s = conditional_sixth_failure(config.n, config.m)
        threshold = compare_apportionments(config.n, config.m).threshold_n
    else:
        p12 = p21 = d_s = threshold = None
    return AnalyticReport(
        config=config,
        d_max=d_max(config),
        d_min=d_min(config),
        leading=leading_term(config),
        p_12=p12,
        p_21=p21,
        d_s=d_s,
        threshold_n=threshold,
    )
