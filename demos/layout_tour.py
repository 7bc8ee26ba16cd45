"""
Strip layouts and the small-write penalty
=========================================

A hierarchical RAID array spreads three kinds of strips over its disks:
data (D), intra-node checks (P-class, protecting each node against l disk
failures), and inter-node checks (Q/R-class, protecting the array against
k node failures).  This script generates a few layouts, shows how the
check strips rotate so that no disk becomes a parity hot spot, and prices
the cost of that protection for small writes.
"""

from hraidlab import (
    HraidConfig,
    WorkloadParams,
    anchor_position,
    generate_layout,
    small_write_cost,
    verify_layout,
)

###############################################################################
# The 4x4 HRAID1/1 layout.  Each node row holds one P and one Q strip; the
# pair starts at anchor_position(row, node, M) and the anchor shifts by one
# position per row and per node, left-symmetric RAID5 style.
config = HraidConfig(n=4, m=4, k=1, ell=1)
grid = generate_layout(config)
print(grid.as_text())
print()

for row in (1, 2):
    for node in (1, 2):
        print(
            f"row {row}, node {node}: checks start at position "
            f"{anchor_position(row, node, config.m)} -> "
            f"{grid.node_row_letters(row, node)}"
        )
print()

###############################################################################
# The verifier is the actual contract: every (row, node) holds l intra and
# k inter checks, every disk carries k+l checks over M rows, and for N = M
# every stripe column is balanced too.  An empty list means all hold.
print("violations in the generated grid:", verify_layout(grid))

###############################################################################
# More redundancy means more check strips.  HRAID1/2 places P, Q (intra)
# and R (inter) in each node row.
deep = generate_layout(HraidConfig(4, 4, 1, 2))
print("HRAID1/2 node 1 rows:", [deep.node_row_letters(i, 1) for i in range(1, 5)])
print()

###############################################################################
# What the redundancy costs: a small write updates its data strip plus all
# (k+1)(l+1) - 1 checks covering it, each as a read-modify-write pair, so
# x_avg = [f_r + 2 f_w (k+1)(l+1)] x_d.  Reads are cheap, writes scale with
# the product of the tolerances.
workload = WorkloadParams(read_fraction=0.7, write_fraction=0.3)
print("average access cost in units of one disk access (70% reads):")
for k in range(3):
    for ell in range(3):
        cost = small_write_cost(workload, HraidConfig(6, 6, k, ell))
        print(f"  HRAID{k}/{ell}: {cost:.2f}")
