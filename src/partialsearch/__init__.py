"""Simulator and analysis toolkit for partial quantum database search.

Find only the block containing a marked address, not the address itself:
three amplitude-amplification steps do it in fewer oracle queries than a
full search.  The package provides dense and symmetry-reduced float64
statevector backends, the query-count calculus with its epsilon optimizer
and matching lower bounds, zero-error classical baselines, and numeric
checks of the erring-search lower-bound machinery.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every public name and the submodule that defines it.  The submodule is
# imported on first use, and nothing is cached here: each access reads the
# submodule's current binding, so a patched function is seen as patched.
_SUBMODULE_OF = {
    "CostBreakdown": "analysis",
    "InfeasibleEpsilonError": "analysis",
    "alpha_target": "analysis",
    "cost_coefficient": "analysis",
    "feasible_epsilon_interval": "analysis",
    "large_k_guarantee": "analysis",
    "lower_bound_coefficient": "analysis",
    "naive_quantum_coefficient": "analysis",
    "optimize_epsilon": "analysis",
    "reduction_total_queries": "analysis",
    "theta1": "analysis",
    "theta2": "analysis",
    "theta_of_epsilon": "analysis",
    "ClassicalReport": "classical",
    "classical_formulas": "classical",
    "exact_expected_probes": "classical",
    "simulate_randomized": "classical",
    "two_case_expectation": "classical",
    "TWELVE_ITEM_SCRIPT": "partial_search",
    "RunReport": "partial_search",
    "Script": "partial_search",
    "apply_operator": "partial_search",
    "apply_script": "partial_search",
    "grover_script": "partial_search",
    "iteration_counts": "partial_search",
    "run_full_grover": "partial_search",
    "run_partial_search": "partial_search",
    "run_script": "partial_search",
    "script_stages": "partial_search",
    "standard_pipeline_script": "partial_search",
    "ReducedState": "reduced",
    "lift_to_dense": "reduced",
    "reduced_apply": "reduced",
    "reduced_init": "reduced",
    "DENSE_CAP": "statevector",
    "BlockConfig": "statevector",
    "DenseState": "statevector",
    "InvalidInstanceError": "statevector",
    "OperatorTag": "statevector",
    "attach_ancilla": "statevector",
    "block_diffusion": "statevector",
    "block_probabilities": "statevector",
    "global_diffusion": "statevector",
    "invert_target": "statevector",
    "step3_transfer": "statevector",
    "uniform_state": "statevector",
    "HybridTrajectory": "zalka",
    "hybrid_step_margins": "zalka",
    "hybrid_trajectory": "zalka",
    "max_arcsin_probability_sum": "zalka",
    "total_angle_sum": "zalka",
    "zalka_error_bound": "zalka",
}

__all__ = [*_SUBMODULE_OF, "__version__"]


def __getattr__(name: str):
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_SUBMODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
