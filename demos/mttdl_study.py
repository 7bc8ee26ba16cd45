"""
Mean time to data loss: exact chain vs Monte Carlo
==================================================

Failures arrive as competing exponentials (rate delta per live disk, gamma
per live controller) and rebuilds restripe instantly, so the system state
is just how many nodes have 0, 1, ..., l failed disks.  That lumped chain
is acyclic and solves exactly in one bottom-up pass; the Monte Carlo simulator
plays the same process event by event.  This script reproduces the
16-cell MTTDL grid both ways and shows the estimates landing inside
their confidence intervals around the exact values.
"""

import numpy as np

from hraidlab import (
    FailureModel,
    HraidConfig,
    cell_seed,
    estimate_mttdl,
    markov_mttdl,
    run_trials,
    sweep,
)

RATES = FailureModel(disk_rate=1e-6, controller_rate=0.0)

###############################################################################
# The exact grid: N = M = 12, disk MTTF one million hours, no controller
# failures.  Values in thousands of hours; redundancy below (intra, l)
# beats redundancy across (inter, k) cell for cell.
print("exact chain MTTDL, thousands of hours (rows l, columns k):")
for ell in range(4):
    row = [markov_mttdl(HraidConfig(12, 12, k, ell), RATES) / 1000 for k in range(4)]
    print("  l=%d: " % ell + "  ".join(f"{v:7.1f}" for v in row))
print()

###############################################################################
# Monte Carlo on a few cells: 20000 trials each, the 95% interval should
# bracket the exact value about 19 times in 20.
for k, ell in [(0, 1), (1, 1), (2, 2)]:
    cfg = HraidConfig(12, 12, k, ell)
    exact = markov_mttdl(cfg, RATES)
    est = estimate_mttdl(cfg, RATES, trials=20_000, seed=cell_seed(0, k, ell))
    inside = est.ci95_low <= exact <= est.ci95_high
    print(
        f"HRAID{k}/{ell}: exact {exact:9.1f} h, simulated {est.mean_hours:9.1f} h, "
        f"CI [{est.ci95_low:9.1f}, {est.ci95_high:9.1f}] "
        f"{'contains' if inside else 'misses'} the exact value"
    )
print()

###############################################################################
# The trial engine also reports how many disks had failed when data was
# lost, bracketed by d_min = (k+1)(l+1) and d_max + 1.
results = run_trials(HraidConfig(12, 12, 1, 1), RATES, trials=5000, seed=42)
counts = np.bincount(results.disk_failures)
print("disk failures at loss, HRAID1/1 (5000 trials):")
for d in range(counts.size):
    if counts[d]:
        print(f"  {d:2d} failures: {counts[d]:5d} trials")
print()

###############################################################################
# Controller failures shift the balance: at gamma = delta the array dies
# mostly by controllers and extra intra-node redundancy stops paying.
noisy = FailureModel(disk_rate=1e-6, controller_rate=1e-6)
for ell in (0, 1, 2):
    quiet_v = markov_mttdl(HraidConfig(12, 12, 1, ell), RATES)
    noisy_v = markov_mttdl(HraidConfig(12, 12, 1, ell), noisy)
    print(
        f"HRAID1/{ell}: {quiet_v / 1000:7.1f}k h with ideal controllers, "
        f"{noisy_v / 1000:7.1f}k h at gamma = delta"
    )
print()

###############################################################################
# A sweep bundles the grid into one deterministic artifact: per-cell seeds
# derive from (seed, k, l), so any cell reproduces in isolation and the
# CSV is byte-identical at any thread count.
result = sweep(12, 12, RATES, trials=2000, seed=0)
print(result.format_table())
