"""Self-tests of the benchmark: span arithmetic, failure counting, comparison mode.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_times_of_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    durations = np.array([10.0, 3.0, 1.0, 4.0])
    parents = np.array([-1, 0, 1, 0])
    np.testing.assert_allclose(tracing.self_times(durations, parents), [3.0, 2.0, 1.0, 4.0])


def test_tracer_records_parents_and_self_times_sum_to_the_root():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(1000))

    def middle():
        return tracer.record("analysis.leaf", leaf) + tracer.record("analysis.leaf", leaf)

    tracer.record("cli.root", middle)
    assert list(tracer.parent) == [-1, 0, 0]
    own = tracer.self_times()
    assert (own >= 0).all()
    assert own.sum() == pytest.approx(tracer.durations()[0])
    modules = tracer.module_self_times()
    assert modules["cli"] + modules["analysis"] == pytest.approx(tracer.durations()[0])
    assert tracer.totals()["analysis.leaf"][0] == 2


def test_instrument_restores_the_package():
    from partialsearch import partial_search, reduced

    original = reduced.reduced_apply
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert partial_search.reduced_apply is not original
        cfg = partial_search.BlockConfig(64, 4, 5)
        partial_search.run_partial_search(cfg, backend="reduced")
    assert partial_search.reduced_apply is original and reduced.reduced_apply is original
    assert tracer.totals()["reduced.reduced_apply"][0] > 0


def _simulate_output(inv: workloads.Invocation) -> str:
    from partialsearch import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(inv.args)) == 0
    return buf.getvalue()


def test_correct_output_passes_every_check():
    inv = workloads._simulate(2**16, 4, 12345, "reduced")
    checks = workloads.Checks()
    verdict = workloads.Checker(checks).check(inv, 0, _simulate_output(inv))
    assert checks.attempted == 5 and checks.failed == 0
    assert verdict.queries > 0 and verdict.miss_rel_err < workloads.MISS_REL_TOL


def test_injected_wrong_block_is_counted_and_the_run_continues():
    invocations = [workloads._simulate(2**16, 4, t, "reduced") for t in (3, 40000)]
    good = {inv: _simulate_output(inv) for inv in invocations}

    def invoke(inv):
        doc = json.loads(good[inv])
        if inv is invocations[0]:
            doc["predicted_block"] = (doc["predicted_block"] + 1) % 4
        return run.ChildRun(0.01, 0, json.dumps(doc))

    checks = workloads.Checks()
    phase = run.run_phase(invocations, 0.0, workloads.Checker(checks), invoke)
    assert len(phase.invocation_walls) == 2
    assert checks.failed == 1 and "predicted block" in checks.failures[0]
    assert checks.fail_ratio() == pytest.approx(1 / 10)
    metrics = run.end_to_end_metrics(phase, 0.2, checks)
    assert metrics["check_pass_ratio"] == pytest.approx(9 / 10)


def test_crashed_and_garbled_outputs_are_failures_not_errors():
    inv = workloads._simulate(2**16, 4, 3, "reduced")
    checks = workloads.Checks()
    checker = workloads.Checker(checks)
    checker.check(inv, 2, "")
    checker.check(inv, 0, "not json")
    checker.check(inv, 0, "{}")
    assert checks.failed == 3


def test_dense_and_reduced_disagreement_is_a_failure():
    dense = workloads._simulate(2**10, 4, 7, "dense")
    red = workloads._simulate(2**10, 4, 7, "reduced")
    doc = json.loads(_simulate_output(red))
    doc["block_probs"][0] += 1e-9
    checks = workloads.Checks()
    checker = workloads.Checker(checks)
    checker.check(dense, 0, _simulate_output(dense))
    checker.check(red, 0, json.dumps(doc))
    assert any("differ" in what for what in checks.failures)


def test_guarantee_violations_split_into_known_defects_and_failures():
    rows = [{"K": k, "upper_coeff": 0.79, "lower_coeff": 0.1} for k in workloads.TABLE_KS]
    checks = workloads.Checks()
    workloads.Checker(checks).check(workloads.Invocation("table", ()), 0, json.dumps({"rows": rows}))
    collapse = [k for k in workloads.TABLE_KS if k > workloads.OPTIMIZER_COLLAPSE_MIN_K]
    assert len(checks.known_defects) == len(collapse) == 12
    assert checks.failed == len(workloads.TABLE_KS) - 1 - len(collapse)  # K=2 is exempt


def test_reference_matches_iterated_reduced_backend():
    from partialsearch import BlockConfig, run_partial_search

    for n, k in ((64, 4), (4096, 8), (2**16, 32)):
        rep = run_partial_search(BlockConfig(n, k, 1), backend="reduced")
        miss = sum(p for i, p in enumerate(rep.block_probs) if i != 0)
        assert reference.relative_error(miss, reference.miss_probability(n, k, rep.l1, rep.l2)) < 1e-9


def _write_results(path: Path, workload: str, values: list[float]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in values:
            record = {"workload": workload, "metrics": {"wall_s": {"value": v, "unit": "s"}}}
            fh.write(json.dumps(record) + "\n")


def test_comparison_flags_a_regression_beyond_its_bound(tmp_path):
    spec = json.loads(run.SPEC.read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")
    base, slow, close = tmp_path / "base.jsonl", tmp_path / "slow.jsonl", tmp_path / "close.jsonl"
    _write_results(base, "reduced_sweep", [1.00, 1.01, 0.99, 1.02])
    _write_results(slow, "reduced_sweep", [v * (1 + 2 * bound) for v in (1.00, 1.01, 0.99, 1.02)])
    _write_results(close, "reduced_sweep", [v * (1 + bound / 2) for v in (1.00, 1.01, 0.99, 1.02)])
    _, flagged = compare.compare(compare.load(base), compare.load(slow), spec)
    assert len(flagged) == 1 and flagged[0].startswith("reduced_sweep wall_s")
    _, flagged = compare.compare(compare.load(base), compare.load(close), spec)
    assert flagged == []
    assert compare.main(base, slow, run.SPEC) == 1


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        workloads.build("nope", 1)


def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
    assert workloads.build("reduced_sweep", 7) != workloads.build("reduced_sweep", 8)
