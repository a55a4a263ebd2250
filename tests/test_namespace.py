"""The package namespace: one table of public names, submodules loaded on first use."""
import copy
import importlib
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import partialsearch

PUBLIC = [
    "BlockConfig", "ClassicalReport", "CostBreakdown", "DENSE_CAP", "DenseState",
    "HybridTrajectory", "InfeasibleEpsilonError", "InvalidInstanceError", "OperatorTag",
    "ReducedState", "RunReport", "Script", "TWELVE_ITEM_SCRIPT", "__version__",
    "alpha_target", "apply_operator", "apply_script", "attach_ancilla",
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
    "CostBreakdown": ["theta1", "theta2", "coefficient"],
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
    assert list(record.__match_args__) == RECORD_FIELDS[name]


def _record_samples():
    """Each record's sample values, all given, and how many of them lead without a default."""
    dense = partialsearch.DenseState(np.array([0.6, 0.8]), 2, False, 1)
    cfg = partialsearch.BlockConfig(8, 2, 3)
    amp = 8**-0.5
    reduced = partialsearch.ReducedState(cfg, amp, amp, amp, 0.0, True, 2)
    return {
        "BlockConfig": ((8, 2, 3), 3),
        "DenseState": ((dense.amplitudes, 2, False, 3), 2),
        "CostBreakdown": ((0.5, 0.25, 0.75), 3),
        "ReducedState": ((cfg, amp, amp, amp, 0.0, True, 2), 4),
        "RunReport": ((3, (0.25, 0.75), 0.75, 0.25, 0.5, 1, 0.1, 1, 2), 6),
        "ClassicalReport": ((4.5, 6.0, 4.4, 0.1), 2),
        "HybridTrajectory": (((reduced, reduced),), 1),
    }


def _same(x, y):
    """Equal values of equal types, arrays and records compared entry by entry."""
    if type(x) is not type(y):
        return False
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and np.array_equal(x, y)
    if isinstance(x, tuple):
        return len(x) == len(y) and all(map(_same, x, y))
    if hasattr(type(x), "__match_args__"):
        return all(_same(getattr(x, f), getattr(y, f)) for f in type(x).__match_args__)
    return x == y


@pytest.mark.parametrize("name", sorted(_record_samples()))
def test_records_behave_as_frozen_value_types(name):
    record, (values, required) = getattr(partialsearch, name), _record_samples()[name]
    names = record.__match_args__
    sample = record(*values)
    assert len(names) == len(values)
    assert _same(tuple(getattr(sample, f) for f in names), values)
    # Keyword and default construction.
    assert _same(record(**dict(zip(names, values))), sample)
    short = record(*values[:required])
    assert _same(tuple(getattr(short, f) for f in names[:required]), values[:required])
    defaults = {"has_ancilla": False, "queries": 0, "d": 0.0, "moved_out": False}
    for f in names[required:]:
        assert getattr(short, f) == defaults.get(f)
    # Missing, unknown, extra and repeated fields.
    for args, kwargs in [
        (values[: required - 1], {}),
        (values, {"no_such_field": 1}),
        (values + (1,), {}),
        (values, {names[0]: values[0]}),
    ]:
        with pytest.raises(TypeError):
            record(*args, **kwargs)
    # Frozen: no field can be assigned or deleted.
    for f in names:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{f}'"):
            setattr(sample, f, values[0])
        with pytest.raises(AttributeError, match=f"'{f}'"):
            delattr(sample, f)
    # Equality and hash are those of the field tuple; another type is never equal.
    assert sample != values and sample.__eq__(values) is NotImplemented
    if name == "DenseState":  # an array field is unhashable
        with pytest.raises(TypeError):
            hash(sample)
    else:
        assert sample == record(*values) and hash(sample) == hash(values)
    assert repr(sample) == f"{name}(" + ", ".join(f"{f}={v!r}" for f, v in zip(names, values)) + ")"
    assert _same(pickle.loads(pickle.dumps(sample)), sample)
    assert _same(copy.deepcopy(sample), sample)


def test_records_validate_and_stay_distinct():
    assert hash(partialsearch.BlockConfig(8, 2, 3)) == hash((8, 2, 3))
    assert partialsearch.BlockConfig(8, 2, 3) != partialsearch.CostBreakdown(8, 2, 3)
    with pytest.raises(partialsearch.InvalidInstanceError):
        partialsearch.BlockConfig(8, 3, 0)
    with pytest.raises(partialsearch.InvalidInstanceError, match="real"):
        partialsearch.DenseState(np.array([0.6, 0.8 + 0j]), 2)
    with pytest.raises(ValueError, match="normalized"):
        partialsearch.ReducedState(partialsearch.BlockConfig(8, 2, 3), 1.0, 1.0, 1.0)
    amplitudes = np.array([0.6, 0.8])
    state = partialsearch.DenseState(amplitudes, 2)
    assert state.amplitudes is amplitudes and not amplitudes.flags.writeable


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


@pytest.mark.parametrize("fmt, loaded", [("json", ["json"]), ("text", [])])
def test_cli_start_loads_no_record_or_renderer_machinery(fmt, loaded):
    # The records are plain classes and each output format's module is imported where it renders, so a
    # reduced run loads neither dataclasses (nor the inspect it pulls in), csv, numpy, nor another format's json.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, partialsearch.cli as cli; cli.main(sys.argv[1:]); "
        "print([m for m in ('dataclasses', 'inspect', 'csv', 'numpy', 'json') if m in sys.modules], file=sys.stderr)"
    )
    argv = ["simulate", "--n", "65536", "--k", "4", "--target", "5", "--format", fmt]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert proc.stdout and proc.stderr == f"{loaded}\n"


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
    assert not hasattr(partialsearch, "_checked_arcsin")


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
