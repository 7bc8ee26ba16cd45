"""hraidlab: reliability laboratory for hierarchical RAID arrays.

An HRAID k/l array has N storage nodes of M disks; each node tolerates l
disk failures (intra-node code) and the array tolerates k node failures
(inter-node code), rebuilding by restriping rather than replacement.  The
package provides the strip layout generator and XOR codec, closed-form
and series reliability, exact combinatorial and Markov oracles, and a
deterministic Monte Carlo MTTDL simulator, all cross-validated against
each other.
"""

from .analytic import (
    ApportionmentComparison,
    LeadingTerm,
    Ordering,
    compare_apportionments,
    conditional_sixth_failure,
    d_max,
    d_min,
    exact_mds_reliability,
    exact_mds_unreliability,
    hraid_reliability,
    hraid_unreliability,
    leading_term,
    raid_series_approx,
)
from .codec import (
    RecoveryResult,
    StripeContent,
    data_cells,
    disk_cells,
    encode_stripes,
    node_cells,
    random_payloads,
    read_strip_tree,
    recover,
    verify_parity,
    write_strip_tree,
)
from .config import (
    FailureModel,
    HraidConfig,
    UnsupportedCodecError,
    ValidationError,
)
from .layout import (
    LayoutGrid,
    WorkloadParams,
    anchor_position,
    generate_layout,
    small_write_cost,
    verify_layout,
)
from .oracle import (
    UnreliabilityPolynomial,
    exact_reliability_enum,
    markov_mttdl,
)
from .records import MttdlEstimate, RunResult, SweepCell, SweepResult
from .simulator import (
    TrialResults,
    cell_seed,
    estimate_mttdl,
    resolve_thread_count,
    run_trials,
    sweep,
    trace_trials,
)

__version__ = "0.1.0"

__all__ = [
    "ApportionmentComparison",
    "FailureModel",
    "HraidConfig",
    "LayoutGrid",
    "LeadingTerm",
    "MttdlEstimate",
    "Ordering",
    "RecoveryResult",
    "RunResult",
    "StripeContent",
    "SweepCell",
    "SweepResult",
    "TrialResults",
    "UnreliabilityPolynomial",
    "UnsupportedCodecError",
    "ValidationError",
    "WorkloadParams",
    "anchor_position",
    "cell_seed",
    "compare_apportionments",
    "conditional_sixth_failure",
    "d_max",
    "d_min",
    "data_cells",
    "disk_cells",
    "encode_stripes",
    "estimate_mttdl",
    "exact_mds_reliability",
    "exact_mds_unreliability",
    "exact_reliability_enum",
    "generate_layout",
    "hraid_reliability",
    "hraid_unreliability",
    "leading_term",
    "markov_mttdl",
    "node_cells",
    "raid_series_approx",
    "random_payloads",
    "read_strip_tree",
    "recover",
    "resolve_thread_count",
    "run_trials",
    "small_write_cost",
    "sweep",
    "trace_trials",
    "verify_layout",
    "verify_parity",
    "write_strip_tree",
]
