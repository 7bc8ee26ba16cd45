"""
Closed-form reliability and where to spend redundancy
=====================================================

With disk unreliability eps, a node of M disks tolerating l failures is an
MDS array with a binomial reliability, and the array of N such nodes
tolerating k node failures is a second binomial layer on top.  This script
evaluates the closed forms, checks them against brute-force enumeration of
fatal disk subsets, and settles the design question of whether to put the
extra check strip inside the nodes (HRAID1/2) or across them (HRAID2/1).
"""

from fractions import Fraction

from hraidlab import (
    HraidConfig,
    compare_apportionments,
    conditional_sixth_failure,
    d_max,
    d_min,
    exact_mds_unreliability,
    exact_reliability_enum,
    hraid_unreliability,
    leading_term,
    raid_series_approx,
)

###############################################################################
# One node first: exact binomial unreliability vs the two-term series
# C(m,t+1) eps^(t+1) - (t+1) C(m,t+2) eps^(t+2).  At eps = 1e-3 the series
# carries ~5 correct digits; the truncated eps^(t+3) tail is what is left.
for eps in (1e-2, 1e-3):
    exact = exact_mds_unreliability(12, 1, eps)
    series = raid_series_approx(12, 1, eps)
    print(
        f"12 disks, 1 tolerated, eps={eps:g}: exact {exact:.6e}, "
        f"series {series:.6e}, relative gap {abs(series - exact) / exact:.2e}"
    )
print()

###############################################################################
# The whole array, cross-checked against the enumeration oracle, which
# counts fatal subsets exactly (more than k nodes each losing more than l
# disks) from the node generating functions.
for cfg in [HraidConfig(4, 4, 1, 1), HraidConfig(5, 5, 2, 1)]:
    closed = hraid_unreliability(cfg, 1e-3)
    enum = exact_reliability_enum(cfg).unreliability(1e-3)
    print(
        f"N={cfg.n}, M={cfg.m}, HRAID{cfg.k}/{cfg.ell}: closed {closed:.12e}, "
        f"enumeration {enum:.12e}"
    )
print()

###############################################################################
# Failure-count brackets: data loss needs at least (k+1)(l+1) disk
# failures, and some pattern of kM + (N-k)l failures is still survivable.
cfg = HraidConfig(12, 12, 1, 2)
print(f"HRAID1/2 on 12x12: d_min={d_min(cfg)}, d_max={d_max(cfg)}")
lt = leading_term(cfg)
print(f"leading unreliability term: {lt.coefficient} * eps^{lt.power}")
print()

###############################################################################
# 1/2 or 2/1?  Both spend two check strips per node row and survive any
# five disk failures, and both fit for N >= 3 and M >= 4.  The leading
# coefficients C(N,2)C(M,3)^2 versus C(N,3)C(M,2)^3 decide; they are equal
# at N = 2 + 3C(M,3)^2/C(M,2)^3, which stays below 8/3, so intra-heavy 1/2
# wins for every real geometry (at gamma = 0, to leading order in eps).
for size in (4, 8, 12):
    cmp_res = compare_apportionments(size, size)
    print(
        f"N=M={size}: coeff(1/2)={cmp_res.coeff_12}, coeff(2/1)={cmp_res.coeff_21}, "
        f"threshold N > {cmp_res.threshold_n} ~= {float(cmp_res.threshold_n):.4f} "
        f"-> {cmp_res.ordering.value}"
    )
print()

###############################################################################
# The same conclusion from the worst five-failure pattern: the chance that
# the sixth failure is fatal is (M-2)/D_S under 1/2 but (M-1)/D_S under
# 2/1, with D_S = (N-2)M + M-2 survivors; p_1/2 < p_2/1 always.
p12, p21, d_s = conditional_sixth_failure(12, 12)
print(f"sixth-failure pool D_S={d_s}: p(fatal | 1/2)={p12}, p(fatal | 2/1)={p21}")
assert p12 < p21
print(f"ratio p21/p12 = {Fraction(p21, p12)}")
