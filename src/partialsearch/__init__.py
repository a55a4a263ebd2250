"""Simulator and analysis toolkit for partial quantum database search.

Find only the block containing a marked address, not the address itself:
three amplitude-amplification steps do it in fewer oracle queries than a
full search.  The package provides exact dense and symmetry-reduced
statevector backends, the query-count calculus with its epsilon optimizer
and matching lower bounds, zero-error classical baselines, and numeric
checks of the erring-search lower-bound machinery.
"""

from .analysis import (
    CostBreakdown,
    InfeasibleEpsilonError,
    alpha_target,
    cost_coefficient,
    feasible_epsilon_interval,
    large_k_guarantee,
    lower_bound_coefficient,
    naive_quantum_coefficient,
    optimize_epsilon,
    reduction_total_queries,
    theta1,
    theta2,
    theta_of_epsilon,
)
from .classical import (
    ClassicalReport,
    classical_formulas,
    exact_expected_probes,
    simulate_randomized,
    two_case_expectation,
)
from .partial_search import (
    TWELVE_ITEM_SCRIPT,
    RunReport,
    Script,
    apply_operator,
    apply_script,
    grover_script,
    iteration_counts,
    run_full_grover,
    run_partial_search,
    run_script,
    script_stages,
    standard_pipeline_script,
)
from .reduced import OperatorTag, ReducedState, lift_to_dense, reduced_apply, reduced_init
from .statevector import (
    DENSE_CAP,
    BlockConfig,
    DenseState,
    InvalidInstanceError,
    attach_ancilla,
    block_diffusion,
    block_probabilities,
    global_diffusion,
    invert_target,
    step3_transfer,
    uniform_state,
)
from .zalka import (
    HybridTrajectory,
    angle_distance,
    hybrid_step_margins,
    hybrid_trajectory,
    max_arcsin_probability_sum,
    total_angle_sum,
    zalka_error_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BlockConfig",
    "ClassicalReport",
    "CostBreakdown",
    "DENSE_CAP",
    "DenseState",
    "HybridTrajectory",
    "InfeasibleEpsilonError",
    "InvalidInstanceError",
    "OperatorTag",
    "ReducedState",
    "RunReport",
    "Script",
    "TWELVE_ITEM_SCRIPT",
    "alpha_target",
    "angle_distance",
    "apply_operator",
    "apply_script",
    "attach_ancilla",
    "block_diffusion",
    "block_probabilities",
    "classical_formulas",
    "cost_coefficient",
    "exact_expected_probes",
    "feasible_epsilon_interval",
    "global_diffusion",
    "grover_script",
    "hybrid_step_margins",
    "hybrid_trajectory",
    "invert_target",
    "iteration_counts",
    "large_k_guarantee",
    "lift_to_dense",
    "lower_bound_coefficient",
    "max_arcsin_probability_sum",
    "naive_quantum_coefficient",
    "optimize_epsilon",
    "reduced_apply",
    "reduced_init",
    "reduction_total_queries",
    "run_full_grover",
    "run_partial_search",
    "run_script",
    "script_stages",
    "simulate_randomized",
    "standard_pipeline_script",
    "step3_transfer",
    "theta1",
    "theta2",
    "theta_of_epsilon",
    "total_angle_sum",
    "two_case_expectation",
    "uniform_state",
    "zalka_error_bound",
    "__version__",
]
