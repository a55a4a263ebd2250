"""The package namespace: one table of public names, submodules loaded on first use."""
import dataclasses
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import partialsearch

PUBLIC = [
    "BlockConfig", "ClassicalReport", "CostBreakdown", "DENSE_CAP", "DenseState",
    "HybridTrajectory", "InfeasibleEpsilonError", "InvalidInstanceError", "OperatorTag",
    "ReducedState", "RunReport", "Script", "TWELVE_ITEM_SCRIPT", "__version__",
    "alpha_target", "angle_distance", "apply_operator", "apply_script", "attach_ancilla",
    "block_diffusion", "block_probabilities", "classical_formulas", "cost_coefficient",
    "exact_expected_probes", "feasible_epsilon_interval", "global_diffusion", "grover_script",
    "hybrid_step_margins", "hybrid_trajectory", "invert_target", "iteration_counts",
    "large_k_guarantee", "lift_to_dense", "lower_bound_coefficient",
    "max_arcsin_probability_sum", "naive_quantum_coefficient", "optimize_epsilon",
    "reduced_apply", "reduced_init", "reduction_total_queries", "run_full_grover",
    "run_partial_search", "run_script", "script_stages", "simulate_randomized",
    "standard_pipeline_script", "step3_transfer", "theta1", "theta2", "theta_of_epsilon",
    "total_angle_sum", "two_case_expectation", "uniform_state", "zalka_error_bound",
]

# The fields of the public records: each one is read by a program, demo or test.
RECORD_FIELDS = {
    "BlockConfig": ["n_addresses", "n_blocks", "target"],
    "ClassicalReport": ["expected_randomized", "deterministic", "sample_mean", "sample_std_err"],
    "CostBreakdown": ["theta1", "theta2", "coefficient", "feasible"],
    "HybridTrajectory": ["states"],
    "RunReport": [
        "queries", "block_probs", "success_prob", "miss_prob", "target_prob", "predicted_block",
        "epsilon", "l1", "l2",
    ],
}


def test_all_is_the_public_list():
    assert sorted(partialsearch.__all__) == PUBLIC


@pytest.mark.parametrize("name", sorted(RECORD_FIELDS))
def test_records_keep_their_fields(name):
    record = getattr(partialsearch, name)
    assert [field.name for field in dataclasses.fields(record)] == RECORD_FIELDS[name]


def test_bare_import_loads_no_submodule_and_no_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, partialsearch; print(sorted(m for m in sys.modules if m.startswith(('partialsearch.', 'numpy'))))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout
    assert out == "[]\n"


def test_names_resolve_to_their_defining_module():
    for name in PUBLIC:
        if name == "__version__":
            continue
        module = importlib.import_module(f"partialsearch.{partialsearch._SUBMODULE_OF[name]}")
        value = getattr(partialsearch, name)
        assert value is getattr(module, name), name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == module.__name__, name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from partialsearch import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        partialsearch.no_such_name
    assert not hasattr(partialsearch, "_golden_section")


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(partialsearch))


def test_patched_function_is_seen_through_the_package(monkeypatch):
    from partialsearch import partial_search

    original = partialsearch.run_partial_search
    fake = object()
    monkeypatch.setattr(partial_search, "run_partial_search", fake)
    assert partialsearch.run_partial_search is fake
    monkeypatch.undo()
    assert partialsearch.run_partial_search is original
