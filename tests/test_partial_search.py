import math
import random
import tracemalloc

import numpy as np
import pytest

from partialsearch import (
    TWELVE_ITEM_SCRIPT,
    BlockConfig,
    DenseState,
    InfeasibleEpsilonError,
    InvalidInstanceError,
    OperatorTag,
    apply_script,
    attach_ancilla,
    block_diffusion,
    global_diffusion,
    grover_script,
    hybrid_trajectory,
    invert_target,
    iteration_counts,
    lift_to_dense,
    lower_bound_coefficient,
    optimize_epsilon,
    run_full_grover,
    run_partial_search,
    run_script,
    script_stages,
    step3_transfer,
    uniform_state,
)
from partialsearch import partial_search, statevector
from partialsearch import reduced as reduced_module
from partialsearch.partial_search import (
    apply_operator,
    apply_stages,
    standard_pipeline_script,
    standard_pipeline_stages,
    validate_script,
)
from partialsearch.reduced import BLOCK_ROUND, GLOBAL_ROUND, reduced_init
from conftest import random_unit_state

PI = math.pi


class TestIterationCounts:
    def test_zero_epsilon_is_plain_search(self):
        n = 2**16
        l1, l2, bd = iteration_counts(n, 4, 0.0)
        assert l2 == 0
        assert l1 == round((PI / 4) * math.sqrt(n))
        assert bd.theta1 == bd.theta2 == 0.0

    def test_k2_boundary_closed_form(self):
        l1, l2, bd = iteration_counts(2**16, 2, 1.0)
        assert l1 == 0
        assert bd.theta1 == pytest.approx(PI / 2, abs=1e-6)
        assert bd.theta2 == 0.0
        assert l2 == round((PI / 4) * math.sqrt(2**15)) == 142

    def test_k8_total_near_reference(self):
        n = 2**16
        l1, l2, _ = iteration_counts(n, 8, 1 / math.sqrt(8))
        assert (l1 + l2 + 1) / math.sqrt(n) == pytest.approx(0.670, abs=0.01)

    def test_infeasible_names_bound(self):
        with pytest.raises(InfeasibleEpsilonError, match=r"2/sqrt\(K\)"):
            iteration_counts(2**16, 8, 0.9)

    @pytest.mark.parametrize("exact_theta", [False, True])
    def test_step2_angles_computed_once(self, monkeypatch, exact_theta):
        calls = []
        theta2 = partial_search.analysis.theta2
        monkeypatch.setattr(partial_search.analysis, "theta2", lambda *args: calls.append(args) or theta2(*args))
        _, l2, bd = iteration_counts(2**16, 8, 0.3, exact_theta)
        assert len(calls) == 1
        assert l2 == round((math.sqrt(2**13) / 2) * (bd.theta1 + bd.theta2))

    def test_exact_theta_mode_close_to_asymptotic(self):
        l1a, l2a, _ = iteration_counts(2**16, 4, 0.6)
        l1e, l2e, _ = iteration_counts(2**16, 4, 0.6, exact_theta=True)
        assert l1a == l1e
        assert abs(l2a - l2e) <= 1

    def test_rejects_k1_and_bad_divisor(self):
        with pytest.raises(InvalidInstanceError):
            iteration_counts(2**10, 1, 0.5)
        with pytest.raises(InvalidInstanceError):
            iteration_counts(1000, 7, 0.5)

    @pytest.mark.parametrize("n", [0, -4, 1, 2**52 + 4, 2**60])
    def test_rejects_n_outside_the_float_exact_range_naming_n(self, n):
        with pytest.raises(InvalidInstanceError, match=rf"got N={n}$"):
            iteration_counts(n, 2, 0.5)


class TestRunPartialSearch:
    def test_default_epsilon_hits_target_block(self):
        report = run_partial_search(BlockConfig(2**16, 4, 5000))
        assert report.success_prob >= 0.95
        assert report.queries <= 0.625 * math.sqrt(2**16)
        assert report.queries == report.l1 + report.l2 + 1
        assert report.predicted_block == 0
        assert report.epsilon == pytest.approx(optimize_epsilon(4)[0])

    def test_rejects_single_block(self):
        with pytest.raises(InvalidInstanceError, match="K >= 2"):
            run_partial_search(BlockConfig(16, 1, 3))

    def test_backends_agree(self):
        cfg = BlockConfig(4096, 2, 77)
        dense = run_partial_search(cfg, backend="dense")
        reduced = run_partial_search(cfg, backend="reduced")
        assert dense.queries == reduced.queries
        assert np.allclose(dense.block_probs, reduced.block_probs, atol=1e-10)
        assert dense.success_prob == pytest.approx(reduced.success_prob, abs=1e-10)

    def test_success_independent_of_target_within_block(self):
        for t1, t2 in [(0, 3), (2049, 2080)]:
            r1 = run_partial_search(BlockConfig(4096, 2, t1), epsilon=0.8)
            r2 = run_partial_search(BlockConfig(4096, 2, t2), epsilon=0.8)
            assert r1.block_probs == r2.block_probs

    def test_block_probs_sum_to_one(self):
        report = run_partial_search(BlockConfig(2**18, 8, 123))
        assert sum(report.block_probs) == pytest.approx(1.0, abs=1e-9)

    def test_miss_prob_summed_over_non_target_blocks(self):
        for backend in ("dense", "reduced"):
            report = run_partial_search(BlockConfig(4096, 8, 100), backend=backend)
            non_target = [p for block, p in enumerate(report.block_probs) if block != 0]
            assert report.miss_prob == pytest.approx(math.fsum(non_target), rel=1e-12)
            assert 0.0 < report.miss_prob < 1e-2

    def test_miss_prob_backends_agree(self):
        cfg = BlockConfig(2**16, 4, 40000)
        dense = run_partial_search(cfg, backend="dense")
        reduced = run_partial_search(cfg, backend="reduced")
        assert dense.miss_prob == pytest.approx(reduced.miss_prob, rel=1e-9)

    def test_dense_run_holds_at_most_four_arrays_of_n(self):
        # The peak is the 2N final state, the N probabilities and one N square of a branch.
        cfg = BlockConfig(2**16, 4, 777)
        run_partial_search(cfg, backend="dense")  # warm-up, so first-use imports stay out of the peak
        tracemalloc.start()
        try:
            run_partial_search(cfg, backend="dense")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.1 * 8 * cfg.n_addresses

    def test_dense_run_holds_at_most_two_and_a_half_arrays_of_n(self):
        # The run copies its input once, the uniform start is a broadcast view and the run's end grows the copy
        # in place, so the peak is the report's: the 2N final state and the squares of one slice of blocks (N/4
        # here) per branch.  Below 2**16 addresses one slice holds the whole array.
        cfg = BlockConfig(2**18, 4, 12345)
        run_partial_search(cfg, backend="dense")  # warm-up, so first-use imports stay out of the peak
        tracemalloc.start()
        try:
            run_partial_search(cfg, backend="dense")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * cfg.n_addresses + 64 * 1024

    def test_dense_grover_run_holds_at_most_one_and_a_half_arrays_of_n(self):
        # The uniform start is a broadcast view, so the peak is the run's one private copy of N and the squares
        # of one slice of blocks (N/4 here) for the report.
        cfg = BlockConfig(2**18, 4, 12345)
        run_full_grover(cfg, 402, backend="dense")  # warm-up, so first-use imports stay out of the peak
        tracemalloc.start()
        try:
            run_full_grover(cfg, 402, backend="dense")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * cfg.n_addresses + 64 * 1024

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            run_partial_search(BlockConfig(64, 2, 0), backend="tensor")


class TestRunFullGrover:
    def test_quarter_pi_sweet_spot(self):
        report = run_full_grover(BlockConfig(1024, 1, 681), steps=25, backend="dense")
        assert report.target_prob >= 0.999
        closed_form = math.sin(51 * math.asin(1 / 32)) ** 2
        assert report.target_prob == pytest.approx(closed_form, abs=1e-12)
        assert report.queries == 25

    def test_zero_steps_is_uniform(self):
        report = run_full_grover(BlockConfig(1024, 1, 681), steps=0)
        assert report.target_prob == pytest.approx(1 / 1024, abs=1e-15)
        assert report.queries == 0

    def test_drift_past_optimum(self):
        cfg = BlockConfig(1024, 1, 681)
        at_25 = run_full_grover(cfg, steps=25)
        at_38 = run_full_grover(cfg, steps=38)
        assert at_38.target_prob < at_25.target_prob

    def test_closed_form_along_the_way(self):
        n = 4096
        cfg = BlockConfig(n, 1, 1)
        beta = math.asin(1 / math.sqrt(n))
        for steps in (1, 7, 19, 50):
            report = run_full_grover(cfg, steps=steps)
            assert report.target_prob == pytest.approx(math.sin((2 * steps + 1) * beta) ** 2, abs=1e-9)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            run_full_grover(BlockConfig(64, 1, 0), steps=-1)

    @pytest.mark.parametrize("target", [5, 63], ids=["first-block", "last-block"])
    def test_equal_blocks_predict_the_lowest_index(self, target):
        # No rounds leave all four blocks at exactly 1/4; ties go to block 0, as np.argmax's do.
        cfg = BlockConfig(64, 4, target)
        reduced = run_full_grover(cfg, steps=0)
        dense = run_full_grover(cfg, steps=0, backend="dense")
        assert reduced.block_probs == dense.block_probs == (0.25,) * 4
        assert reduced.predicted_block == dense.predicted_block == 0


class TestRunScript:
    def test_twelve_item_walkthrough(self):
        cfg = BlockConfig(12, 3, 5)
        report = run_script(cfg, TWELVE_ITEM_SCRIPT, backend="dense")
        assert report.queries == 2
        assert report.success_prob == pytest.approx(1.0, abs=1e-12)
        assert report.target_prob == pytest.approx(0.75, abs=1e-12)
        final = script_stages(cfg, TWELVE_ITEM_SCRIPT, backend="dense")[-1]
        expected = np.zeros(12)
        expected[4:8] = 1 / math.sqrt(12)
        expected[5] = 3 / math.sqrt(12)
        assert np.max(np.abs(final.amplitudes - expected)) < 1e-12

    def test_empty_script(self):
        report = run_script(BlockConfig(16, 4, 3), ())
        assert report.queries == 0
        assert report.block_probs == pytest.approx((0.25,) * 4, abs=1e-15)

    def test_double_oracle_restores_uniform(self):
        cfg = BlockConfig(16, 4, 3)
        state = apply_script(uniform_state(16), (OperatorTag.ORACLE, OperatorTag.ORACLE), cfg)
        assert np.array_equal(state.amplitudes, uniform_state(16).amplitudes)
        assert state.queries == 2

    def test_iterator_script_runs_every_operator(self):
        cfg = BlockConfig(16, 4, 3)
        ops = (OperatorTag.ORACLE, OperatorTag.GLOBAL_DIFFUSION)
        state = apply_script(uniform_state(16), iter(ops), cfg)
        assert np.array_equal(state.amplitudes, apply_script(uniform_state(16), ops, cfg).amplitudes)
        assert state.queries == 1

    def test_iterator_script_stages_every_operator(self):
        cfg = BlockConfig(12, 3, 5)
        stages = script_stages(cfg, iter(TWELVE_ITEM_SCRIPT))
        expected = script_stages(cfg, TWELVE_ITEM_SCRIPT)
        assert len(stages) == len(expected) == 5
        for got, want in zip(stages, expected):
            assert np.array_equal(got.amplitudes, want.amplitudes)
            assert got.queries == want.queries

    def test_step3_must_be_last(self):
        with pytest.raises(ValueError, match="last"):
            validate_script((OperatorTag.STEP3, OperatorTag.ORACLE))

    def test_non_tag_rejected(self):
        with pytest.raises(ValueError, match="not an operator tag: 'oracle'"):
            validate_script((OperatorTag.ORACLE, "oracle"))

    def test_grouping_equals_the_pair_by_pair_scan(self):
        """_group_stages' galloping slice compares split seeded random scripts as a scan of one pair per round does,
        runs on both sides of its 2**12-round step included."""

        def reference(script):
            stages, i = [], 0
            while i < len(script):
                pair = script[i : i + 2]
                if pair in (GLOBAL_ROUND, BLOCK_ROUND):
                    start = i
                    while script[i : i + 2] == pair:
                        i += 2
                    stages.append((pair, (i - start) // 2))
                else:
                    stages.append(((script[i],), 1))
                    i += 1
            return stages

        rng = random.Random(38)
        pieces = [GLOBAL_ROUND, BLOCK_ROUND, *((op,) for op in OperatorTag if op is not OperatorTag.STEP3)]
        for trial in range(2000):
            counts = [rng.randrange(4), rng.randrange(40)]
            if trial % 10 == 0:
                counts.append(2 ** rng.randrange(15) + rng.randrange(-1, 2))
            script = sum((rng.choice(pieces) * rng.choice(counts) for _ in range(rng.randrange(1, 6))), ())
            script += (OperatorTag.STEP3,) * rng.randrange(2)
            assert partial_search._group_stages(script) == reference(script), trial

    def test_stage_count(self):
        cfg = BlockConfig(12, 3, 5)
        stages = script_stages(cfg, TWELVE_ITEM_SCRIPT)
        assert len(stages) == 5
        assert stages[0].queries == 0

    @pytest.mark.parametrize("build", [standard_pipeline_script, standard_pipeline_stages])
    @pytest.mark.parametrize("l1, l2", [(-2, 1), (1, -1)])
    def test_negative_step_counts_rejected(self, build, l1, l2):
        with pytest.raises(InvalidInstanceError, match=f"step counts must be >= 0, got l1={l1}, l2={l2}"):
            build(l1, l2)

    def test_standard_script_shape(self):
        script = standard_pipeline_script(2, 1)
        assert script.count(OperatorTag.ORACLE) == 3
        assert script[-1] is OperatorTag.STEP3
        assert len(script) == 7

    def test_reduced_script_runs(self):
        report = run_script(BlockConfig(12, 3, 5), TWELVE_ITEM_SCRIPT, backend="reduced")
        assert report.success_prob == pytest.approx(1.0, abs=1e-12)
        assert report.queries == 2


def per_operator_stages(state, stages, cfg):
    """Reference runner: every operator of every stage through apply_operator."""
    for round_ops, count in stages:
        for _ in range(count):
            for op in round_ops:
                state = apply_operator(state, op, cfg)
    return state


class TestDenseStages:
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 50])
    @pytest.mark.parametrize("n, k", [(48, 3), (64, 64), (4096, 8), (2**16, 32)])
    def test_matches_per_operator_run(self, n, k, count):
        """Bit-equal for one round; past it each Grover stage is one rotation, so within 1e-13 of the operator loop."""
        cfg = BlockConfig(n, k, (2 * n) // 3 + 1)
        stages = standard_pipeline_stages(count, count)
        for prefix in (stages[:1], stages[:2], stages):
            got = apply_stages(uniform_state(n), prefix, cfg)
            want = per_operator_stages(uniform_state(n), prefix, cfg)
            if count <= 1:
                assert np.array_equal(got.amplitudes, want.amplitudes)
            else:
                assert np.max(np.abs(got.amplitudes - want.amplitudes)) <= 1e-13
            assert (got.queries, got.has_ancilla) == (want.queries, want.has_ancilla)
        assert got.queries == 2 * count + 1

    def test_input_unchanged_and_arrays_read_only(self):
        # The kernel writes one private copy; the caller's input stays as it was, also behind a leading empty stage
        # and when the end of a run with step 3 grows the copy.
        cfg = BlockConfig(64, 4, 9)
        step3 = ((OperatorTag.STEP3,), 1)
        for stages, queries in [
            ([(GLOBAL_ROUND, 3), (BLOCK_ROUND, 2)], 5),
            ([(GLOBAL_ROUND, 0), (BLOCK_ROUND, 2)], 2),
            ([(GLOBAL_ROUND, 0), step3], 1),
            ([(GLOBAL_ROUND, 3), (BLOCK_ROUND, 2), step3], 6),
        ]:
            start = invert_target(uniform_state(64), cfg)
            before = start.amplitudes.copy()
            out = apply_stages(start, stages, cfg)
            assert start.amplitudes.tobytes() == before.tobytes()
            assert not start.amplitudes.flags.writeable
            assert not out.amplitudes.flags.writeable
            assert not np.shares_memory(start.amplitudes, out.amplitudes)
            assert out.queries == start.queries + queries

    def test_script_stages_keeps_every_earlier_state(self):
        cfg = BlockConfig(64, 4, 9)
        script = standard_pipeline_script(3, 2)
        states = script_stages(cfg, script)
        for i, state in enumerate(states):
            assert state.amplitudes.tobytes() == script_stages(cfg, script[:i])[-1].amplitudes.tobytes()
            assert not state.amplitudes.flags.writeable
        assert not any(np.shares_memory(a.amplitudes, b.amplitudes) for a, b in zip(states, states[1:]))

    @pytest.mark.parametrize(
        "round_ops, message",
        [(GLOBAL_ROUND, "global diffusion is defined on ancilla-free states"),
         (BLOCK_ROUND, "block diffusion is defined on ancilla-free states")],
    )
    def test_rounds_with_ancilla_rejected(self, round_ops, message):
        state = attach_ancilla(uniform_state(16))
        with pytest.raises(ValueError, match=message):
            apply_stages(state, [(round_ops, 1)], BlockConfig(16, 4, 3))

    @pytest.mark.parametrize("round_ops", [GLOBAL_ROUND, BLOCK_ROUND])
    def test_config_of_another_n_rejected(self, round_ops):
        with pytest.raises(InvalidInstanceError, match="config has N=32"):
            apply_stages(uniform_state(16), [(round_ops, 2)], BlockConfig(32, 4, 3))

    def test_rounds_without_config_rejected(self):
        with pytest.raises(ValueError, match="explicit config"):
            apply_stages(uniform_state(16), [(GLOBAL_ROUND, 1)])

    @pytest.mark.parametrize("backend", ["dense", "reduced"])
    @pytest.mark.parametrize("round_ops", [GLOBAL_ROUND, BLOCK_ROUND, (OperatorTag.STEP3,)])
    def test_negative_count_rejected(self, backend, round_ops):
        cfg = BlockConfig(16, 4, 3)
        state = uniform_state(16) if backend == "dense" else reduced_init(cfg)
        with pytest.raises(ValueError, match="a stage needs count >= 0, got -1"):
            apply_stages(state, [(round_ops, -1)], cfg)


class TestStageDispatch:
    """apply_stages: one kernel call per run on both backends, carrying the whole stage list; reduced_apply only
    for step 3, in the kernel.

    The dense kernel adjoins the ancilla itself, so no run calls attach_ancilla, and it runs every stage on one
    private copy, so no public operator runs either.
    """

    @pytest.mark.parametrize("backend", ["dense", "reduced"])
    @pytest.mark.parametrize(
        "run, stages",
        [
            (lambda cfg, backend: run_partial_search(cfg, backend=backend),
             list(standard_pipeline_stages(*iteration_counts(256, 4, optimize_epsilon(4)[0])[:2]))),
            (lambda cfg, backend: run_full_grover(cfg, 9, backend=backend), [(GLOBAL_ROUND, 9)]),
        ],
        ids=["partial_search", "full_grover"],
    )
    def test_kernel_and_operator_calls(self, monkeypatch, backend, run, stages):
        calls, active = [], []  # (spied name, its second argument or None, the spied calls it ran inside, keywords)

        def spy(module, name):
            original, label = getattr(module, name), f"{module.__name__.split('.')[-1]}.{name}"

            def wrapper(*args, **kwargs):
                calls.append((label, args[1] if len(args) > 1 else None, tuple(active), kwargs))
                active.append(label)
                try:
                    return original(*args, **kwargs)
                finally:
                    active.pop()

            monkeypatch.setattr(module, name, wrapper)

        spy(statevector, "apply_stages")
        spy(reduced_module, "apply_stages")
        spy(reduced_module, "reduced_apply")
        for name in ("attach_ancilla", "invert_target", "global_diffusion", "block_diffusion", "step3_transfer"):
            spy(statevector, name)
        run(BlockConfig(256, 4, 37), backend)
        kernel = "statevector.apply_stages" if backend == "dense" else "reduced.apply_stages"
        assert all(count > 0 for _, count in stages)
        expected = [(kernel, stages, (), {})]
        if backend == "reduced" and stages[-1] == ((OperatorTag.STEP3,), 1):
            expected.append(("reduced.reduced_apply", OperatorTag.STEP3, (kernel,), {}))
        assert calls == expected

    @pytest.mark.parametrize("backend", ["dense", "reduced"])
    @pytest.mark.parametrize(
        "refused, error", [((BLOCK_ROUND, 10**6), InvalidInstanceError), (((OperatorTag.ORACLE,), -1), ValueError)],
        ids=["too-many-rounds", "negative-count"],
    )
    def test_a_refused_later_stage_runs_nothing(self, monkeypatch, backend, refused, error):
        def never(*_args):
            raise AssertionError("a kernel ran")

        monkeypatch.setattr(statevector, "apply_stages", never)
        monkeypatch.setattr(reduced_module, "apply_stages", never)
        cfg = BlockConfig(64, 4, 3)
        start = uniform_state(64) if backend == "dense" else reduced_init(cfg)
        with pytest.raises(error):
            apply_stages(start, [(GLOBAL_ROUND, 2), refused, ((OperatorTag.STEP3,), 1)], cfg)

    @pytest.mark.parametrize("backend", ["dense", "reduced"])
    @pytest.mark.parametrize("n, k", [(48, 3), (64, 64), (4096, 8)])
    def test_one_call_equals_one_call_per_stage(self, rng, backend, n, k):
        """From random real states, a mixed stage list run in one kernel call is bit-equal to its stages run one
        call at a time, with step 3 last and with oracle calls after it, which negate the moved-out amplitude."""
        cfg = BlockConfig(n, k, (2 * n) // 3 + 1)
        rounds = [GLOBAL_ROUND, BLOCK_ROUND, (OperatorTag.ORACLE,)]
        for _ in range(5):
            middle = [(rounds[i], int(count)) for i, count in zip(rng.integers(3, size=4), rng.integers(8, size=4))]
            if backend == "dense":
                start = random_unit_state(rng, n)
            else:
                a, b, c = rng.standard_normal(3)
                norm = math.sqrt(a * a + (cfg.block_size - 1) * b * b + (n - cfg.block_size) * c * c)
                start = reduced_module.ReducedState(cfg, a / norm, b / norm, c / norm)
            for tail in ([], [((OperatorTag.ORACLE,), 3)]):
                stages = [*middle, ((OperatorTag.STEP3,), 1), *tail]
                state = start
                for stage in stages:
                    state = apply_stages(state, [stage], cfg)
                got = apply_stages(start, stages, cfg)
                if backend == "dense":
                    assert got.amplitudes.tobytes() == state.amplitudes.tobytes()
                    assert (got.queries, got.has_ancilla) == (state.queries, state.has_ancilla)
                else:
                    assert repr(got) == repr(state)

    @pytest.mark.parametrize("n", [2**10, 2**20])
    def test_dense_grover_stages_are_one_rotation_each(self, monkeypatch, n):
        """A dense standard run makes one rotation call per Grover stage, whatever its count."""
        calls, grover_rounds = [], statevector._grover_rounds

        def spy(a, w, size, count):
            calls.append((size, count))
            return grover_rounds(a, w, size, count)

        monkeypatch.setattr(statevector, "_grover_rounds", spy)
        report = run_partial_search(BlockConfig(n, 4, n // 3), backend="dense")
        assert min(report.l1, report.l2) >= 2
        assert calls == [(n, report.l1), (n // 4, report.l2)]

    def test_dense_kernel_writes_the_ancilla_layout_once_at_the_end(self, rng, monkeypatch):
        """The dense kernel holds branch 1 as one scalar: a standard run from an ancilla-free start builds one 2N
        buffer with _ancilla_layout from its input, runs branch 0 in it, and writes branch 1 only at the target, after
        its last stage; a run from an ancilla input never calls it."""
        calls, ancilla_layout = [], statevector._ancilla_layout

        def spy(*args):
            calls.append((args, ancilla_layout(*args)))
            return calls[-1][1]

        cfg, t = BlockConfig(256, 4, 37), 37
        ancilla_start = attach_ancilla(random_unit_state(rng, 256))
        stages = standard_pipeline_stages(*iteration_counts(256, 4, optimize_epsilon(4)[0])[:2])
        before = apply_stages(uniform_state(256), stages[:2], cfg).amplitudes.copy()  # step 3 by hand from here
        moved_out, before[t] = before[t], 0.0
        monkeypatch.setattr(statevector, "_ancilla_layout", spy)
        start = uniform_state(256)
        got = apply_stages(start, stages, cfg)
        [((branch0, n), amp)] = calls  # laid out from the start, before any stage ran
        assert branch0 is start.amplitudes and n == 256 and got.amplitudes is amp and amp.shape == (512,)
        assert got.branch(0).tobytes() == (2.0 * before.mean() - before).tobytes()
        branch1 = got.branch(1).copy()
        assert branch1[t] == moved_out != 0.0
        branch1[t] = 0.0
        assert not branch1.any()
        calls.clear()
        stages = [((OperatorTag.ORACLE,), 2), ((OperatorTag.STEP3,), 1), ((OperatorTag.ORACLE,), 1)]
        assert apply_stages(ancilla_start, stages, cfg).has_ancilla
        assert calls == []


class TestOtherStages:
    """Stages that are not Grover rounds, through apply_stages on both backends."""

    CFG = BlockConfig(16, 4, 3)

    @classmethod
    def start(cls, backend):
        return uniform_state(16) if backend == "dense" else reduced_init(cls.CFG)

    @pytest.mark.parametrize(
        "backend, message", [("dense", "branch 1 must be empty"), ("reduced", "at most once")]
    )
    def test_step3_twice_rejected(self, backend, message):
        with pytest.raises(ValueError, match=message):
            apply_stages(self.start(backend), [((OperatorTag.STEP3,), 2)], self.CFG)

    @pytest.mark.parametrize("backend", ["dense", "reduced"])
    def test_unknown_tag_in_a_stage_rejected(self, backend):
        with pytest.raises(ValueError, match="unknown operator 'hadamard'"):
            apply_stages(self.start(backend), [((OperatorTag.ORACLE, "hadamard"), 2)], self.CFG)

    def test_dense_oracle_stage_equals_oracle_calls(self, rng):
        # The random ancilla input has a non-empty branch 1, whose target entry the kernel carries as one scalar.
        for start in (uniform_state(16), random_unit_state(rng, 16, with_ancilla=True)):
            got = apply_stages(start, [((OperatorTag.ORACLE,), 3)], self.CFG)
            want = invert_target(invert_target(invert_target(start, self.CFG), self.CFG), self.CFG)
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
            assert (got.queries, got.has_ancilla) == (want.queries, want.has_ancilla) == (3, start.has_ancilla)

    @pytest.mark.parametrize("with_ancilla", [False, True], ids=["plain", "ancilla"])
    def test_dense_step3_twice_from_an_empty_target_equals_two_calls(self, rng, with_ancilla):
        # A target amplitude of exactly 0 moves out as 0, so branch 1 stays empty and a second step 3 runs.
        amp = rng.standard_normal(16)
        amp[self.CFG.target] = 0.0
        start = DenseState(amp / np.linalg.norm(amp), 16)
        start = attach_ancilla(start) if with_ancilla else start
        step3 = ((OperatorTag.STEP3,), 1)
        got = statevector.apply_stages(start, [((OperatorTag.STEP3,), 2)], self.CFG)
        want = statevector.apply_stages(statevector.apply_stages(start, [step3], self.CFG), [step3], self.CFG)
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
        assert (got.queries, got.has_ancilla) == (want.queries, want.has_ancilla) == (2, True)

    @pytest.mark.parametrize("backend", ["dense", "reduced"])
    @pytest.mark.parametrize(
        "round_ops", [(OperatorTag.ORACLE,), (OperatorTag.BLOCK_DIFFUSION, OperatorTag.ORACLE)]
    )
    def test_operator_stages_stop_at_4096_operators(self, backend, round_ops):
        most = 4096 // len(round_ops)
        assert apply_stages(self.start(backend), [(round_ops, most)], self.CFG).queries == most
        message = rf"^{most + 1} rounds of {len(round_ops)} operator\(s\) exceed {most}, "
        with pytest.raises(InvalidInstanceError, match=message):
            apply_stages(self.start(backend), [(round_ops, most + 1)], self.CFG)

    def test_reduced_state_of_another_instance_rejected(self):
        with pytest.raises(InvalidInstanceError, match="config does not match the reduced state"):
            apply_stages(reduced_init(BlockConfig(16, 4, 5)), [(GLOBAL_ROUND, 1)], self.CFG)

    @pytest.mark.parametrize("backend", ["dense", "reduced"])
    def test_empty_step3_stage_returns_the_input(self, backend):
        state = self.start(backend)
        assert apply_stages(state, [((OperatorTag.STEP3,), 0)], self.CFG) is state

    @pytest.mark.parametrize(
        "round_ops, count",
        [
            ((OperatorTag.ORACLE, OperatorTag.BLOCK_DIFFUSION, OperatorTag.STEP3), 1),
            ((OperatorTag.ORACLE, OperatorTag.GLOBAL_DIFFUSION, OperatorTag.STEP3), 1),
            ((OperatorTag.BLOCK_DIFFUSION, OperatorTag.ORACLE, OperatorTag.STEP3), 1),
            ((OperatorTag.STEP3,), 0),
            ((OperatorTag.ORACLE, OperatorTag.BLOCK_DIFFUSION, OperatorTag.STEP3), 0),
        ],
        ids=["block-then-step3", "global-then-step3", "diffusion-first", "step3-count-0", "round-count-0"],
    )
    def test_dense_kernel_runs_operators_in_order(self, round_ops, count):
        # The ancilla layout is written at the end of the run, so a diffusion before step 3 in its round sees none.
        cfg = BlockConfig(64, 4, 5)
        got = statevector.apply_stages(uniform_state(64), [(round_ops, count)], cfg)
        want = reduced_module.lift_to_dense(reduced_module.apply_stages(reduced_init(cfg), [(round_ops, count)], cfg))
        assert np.max(np.abs(got.amplitudes - want.amplitudes), initial=0.0) <= 1e-15
        assert (got.queries, got.has_ancilla) == (want.queries, want.has_ancilla)


class TestIdentityQueries:
    """Reduced, lifted hybrid runs against a dense hand run that skips the first j oracle calls."""

    CFG = BlockConfig(64, 4, 21)
    SCRIPT = standard_pipeline_script(3, 2)  # 6 queries, the last one STEP3

    @staticmethod
    def hand_run(cfg, script, identity_calls):
        # A skipped call counts its query and leaves the amplitudes alone;
        # a skipped STEP3 still inverts branch 0 about its mean.
        state = uniform_state(cfg.n_addresses)
        for op in script:
            skip = state.queries < identity_calls
            if op is OperatorTag.ORACLE and skip:
                state = DenseState(state.amplitudes, state.n_addresses, state.has_ancilla, state.queries + 1)
            elif op is OperatorTag.ORACLE:
                state = invert_target(state, cfg)
            elif op is OperatorTag.GLOBAL_DIFFUSION:
                state = global_diffusion(state)
            elif op is OperatorTag.BLOCK_DIFFUSION:
                state = block_diffusion(state, cfg)
            elif skip:
                amp, n = attach_ancilla(state).amplitudes.copy(), cfg.n_addresses
                amp[:n] = 2.0 * amp[:n].mean() - amp[:n]
                state = DenseState(amp, cfg.n_addresses, True, state.queries + 1)
            else:
                state = step3_transfer(attach_ancilla(state), cfg)
        return state

    @pytest.fixture(scope="class")
    def trajectory(self):
        return hybrid_trajectory(64, self.SCRIPT, self.CFG.target, n_blocks=4)

    def test_all_identity_gives_oracle_free_run(self, trajectory):
        state = lift_to_dense(trajectory.states[0])
        assert state.queries == 6
        assert np.allclose(state.branch(0), uniform_state(64).amplitudes, atol=1e-12)
        assert not state.branch(1).any()

    @pytest.mark.parametrize("j", range(7))
    def test_prefix_matches_hand_run(self, trajectory, j):
        state = lift_to_dense(trajectory.states[6 - j])
        expected = self.hand_run(self.CFG, self.SCRIPT, j)
        assert np.max(np.abs(state.amplitudes - expected.amplitudes)) < 1e-12
        assert state.queries == expected.queries == 6
        assert state.has_ancilla and expected.has_ancilla

    def test_non_square_n_matches_hand_run(self):
        # 1/sqrt(48) is not a power of two, so diffusions of the uniform
        # state round; the hybrid runs must still agree to 1e-12.
        cfg, script = BlockConfig(48, 3, 40), standard_pipeline_script(2, 1)
        traj = hybrid_trajectory(48, script, cfg.target, n_blocks=3)
        assert traj.n_queries == 4
        for j in range(5):
            state, expected = lift_to_dense(traj.states[4 - j]), self.hand_run(cfg, script, j)
            assert np.max(np.abs(state.amplitudes - expected.amplitudes)) < 1e-12
            assert state.queries == expected.queries == 4


class TestSuccessEnvelope:
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_scaling_with_n(self, k):
        eps, coeff = optimize_epsilon(k)
        for exp in (16, 18, 20):
            n = 2**exp
            report = run_partial_search(BlockConfig(n, k, n // 3), epsilon=eps)
            assert report.success_prob >= 1 - 10 / math.sqrt(n)
            assert report.queries / math.sqrt(n) <= coeff + 0.01

    @pytest.mark.parametrize(
        "k,table_coeff", [(2, 0.555), (3, 0.592), (4, 0.615), (5, 0.633), (8, 0.664), (32, 0.725)]
    )
    def test_realized_cost_matches_table(self, k, table_coeff):
        # K=3 and K=5 do not divide 2**20; use the nearest K * 2**m size.
        n = 2**20 if 2**20 % k == 0 else k * 2**17
        eps, _ = optimize_epsilon(k)
        report = run_partial_search(BlockConfig(n, k, n // 3), epsilon=eps)
        assert report.queries / math.sqrt(n) <= table_coeff + 0.01
        assert report.success_prob >= 1 - 10 / math.sqrt(n)


class TestPaperClaims:
    """The query count and success of quant-ph/0407122 over N = 2**16, 2**18, ..., 2**52, target N/3.

    The paper's claim: queries between the lower bound's coefficient times sqrt(N) and the optimizer's f* sqrt(N)
    plus O(1), and success 1 - O(1/sqrt(N)).  The O(1) is 2, from rounding l1 and l2 and step 3's query; the most
    seen is 1.996, and the fewest queries sit 4.2 above the floor.  Observed only, not claimed: the miss probability
    is at most 8.952/N (K = 4, N = 2**44), so these runs reach 1 - O(1/N)."""

    @pytest.mark.parametrize("k", [2, 4, 32, 1024])
    def test_queries_and_miss_probability(self, k):
        eps, f_star = optimize_epsilon(k)
        for exp in range(16, 53, 2):
            n = 2**exp
            report = run_partial_search(BlockConfig(n, k, n // 3), epsilon=eps)
            assert lower_bound_coefficient(k) * math.sqrt(n) <= report.queries <= f_star * math.sqrt(n) + 2, exp
            assert report.miss_prob * math.sqrt(n) <= 10, exp  # the claim, with the envelope's constant
            assert report.miss_prob * n <= 9, exp  # observed


def after_steps_1_and_2(cfg, eps):
    """The reduced states after step 1 (l1 global rounds) and after step 2 (l2 blockwise rounds)."""
    l1, l2, _ = iteration_counts(cfg.n_addresses, cfg.n_blocks, eps)
    after1 = apply_stages(reduced_init(cfg), standard_pipeline_stages(l1, 0)[:-1])
    return after1, apply_stages(after1, standard_pipeline_stages(0, l2)[:-1])


class TestStepAmplitudes:
    """A dense state after step 1 or step 2 holds three distinct amplitudes: a (the target), b (the rest of its block)
    and c (every other block).  Step 1 treats every non-target address alike; step 2 acts only inside the target's
    block."""

    def test_sixteen_items(self):
        # N = 16, K = 4, target 13 (block 3, slot 1), l1 = l2 = 1.
        after1, after2 = after_steps_1_and_2(BlockConfig(16, 4, 13), optimize_epsilon(4)[0])
        assert (after1.a, after1.b, after1.c, after1.queries) == pytest.approx((0.6875, 0.1875, 0.1875, 1), abs=1e-15)
        assert (after2.a, after2.b, after2.c, after2.queries) == pytest.approx((0.625, -0.25, 0.1875, 2), abs=1e-15)

    @pytest.mark.parametrize("log_n", [4, 12, 32, 52])
    def test_step1_keeps_b_equal_to_c_and_step2_keeps_c(self, log_n):
        n = 2**log_n
        cfg = BlockConfig(n, 4, n // 3)
        eps = optimize_epsilon(4)[0]
        after1, after2 = after_steps_1_and_2(cfg, eps)
        l1, l2, _ = iteration_counts(n, 4, eps)
        assert after1.b == after1.c
        assert after2.c == after1.c
        assert (after1.queries, after2.queries) == (l1, l1 + l2)
        assert after2.b < 0 < after2.c  # step 2 turns the rest of the target block negative
        if n <= 2**12:
            dense1 = apply_stages(uniform_state(n), standard_pipeline_stages(l1, 0)[:-1], cfg)
            dense2 = apply_stages(dense1, standard_pipeline_stages(0, l2)[:-1], cfg)
            for reduced_state, dense_state in ((after1, dense1), (after2, dense2)):
                assert np.max(np.abs(lift_to_dense(reduced_state).amplitudes - dense_state.amplitudes)) < 1e-15


def reference_run(n, k, l1, l2, mpmath):
    """(success, miss) of a standard run at 50 digits, from the Grover rotation picture."""
    with mpmath.workdps(50):
        big_n, m = mpmath.mpf(n), mpmath.mpf(n // k)
        angle = (2 * l1 + 1) * mpmath.asin(1 / mpmath.sqrt(big_n))
        a, c = mpmath.sin(angle), mpmath.cos(angle) / mpmath.sqrt(big_n - 1)
        # Step 2 rotates (a, sqrt(m - 1) b) by 2 asin(1/sqrt(m)) per round, starting from b = c.
        radius = mpmath.sqrt(a**2 + (m - 1) * c**2)
        phase = mpmath.atan2(a, mpmath.sqrt(m - 1) * c) + 2 * l2 * mpmath.asin(1 / mpmath.sqrt(m))
        a, b = radius * mpmath.sin(phase), radius * mpmath.cos(phase) / mpmath.sqrt(m - 1)
        # Step 3: the target moves out as d = a; branch 0 is inverted about its mean.
        mean0 = ((m - 1) * b + (big_n - m) * c) / big_n
        success = (2 * mean0) ** 2 + (m - 1) * (2 * mean0 - b) ** 2 + a**2
        return success, (big_n - m) * (2 * mean0 - c) ** 2


class TestLargestN:
    """N = 2**52, the package's limit, against a 50-digit reference."""

    @pytest.mark.parametrize("k", [2, 4, 32])
    def test_success_and_miss_against_mpmath(self, k):
        mpmath = pytest.importorskip("mpmath")
        n = 2**52
        report = run_partial_search(BlockConfig(n, k, n // 3), epsilon=optimize_epsilon(k)[0])
        success, miss = reference_run(n, k, report.l1, report.l2, mpmath)
        assert report.success_prob == pytest.approx(float(success), abs=1e-14)
        # Step 3's c' = 2 mean0 - c cancels terms of size 1/sqrt(N) down to
        # about 1/N, so the rounding of b and c is magnified about sqrt(N)/2
        # times; the largest error seen is 1.1e-7 (K = 2).
        assert report.miss_prob == pytest.approx(float(miss), rel=1e-6)
        assert 0.0 < report.miss_prob < 1e-15


class TestDenseAccuracy:
    @pytest.mark.parametrize("n, k", [(2**12, 8), (2**14, 4), (2**16, 2), (2**16, 32)])
    def test_miss_prob_against_mpmath(self, n, k):
        # A dense run's miss probability is a cancellation down to about 1/N, so it shows the kernel's rounding.
        mpmath = pytest.importorskip("mpmath")
        report = run_partial_search(BlockConfig(n, k, (2 * n) // 3 + 1), backend="dense")
        _, miss = reference_run(n, k, report.l1, report.l2, mpmath)
        assert abs(report.miss_prob - float(miss)) <= 2e-12 * float(miss)

    @pytest.mark.parametrize("n, k", [(2**20, 1024), (2**22, 32), (2**22, 1024)])
    def test_grover_stages_hold_twelve_digits(self, n, k):
        # Each Grover stage is one rotation, so step 1's thousands of rounds add no drift; the round-by-round kernel
        # was 1.8e-12, 3.0e-12 and 5.5e-12 relative off here.
        mpmath = pytest.importorskip("mpmath")
        report = run_partial_search(BlockConfig(n, k, (2 * n) // 3 + 1), backend="dense")
        _, miss = reference_run(n, k, report.l1, report.l2, mpmath)
        assert abs(report.miss_prob - float(miss)) <= 1e-12 * float(miss)

    @pytest.mark.parametrize("k", [4, 1024])
    def test_agrees_with_reduced_at_n_2_22(self, k):
        # At K = 4 the miss probability is about 6e-12, a cancellation far below 1/N; the largest error seen
        # there is 1.0e-10 of it.
        n = 2**22
        cfg = BlockConfig(n, k, (2 * n) // 3 + 1)
        dense, reduced = run_partial_search(cfg, backend="dense"), run_partial_search(cfg)
        assert max(abs(d - r) for d, r in zip(dense.block_probs, reduced.block_probs)) <= 1e-10
        mpmath = pytest.importorskip("mpmath")
        _, miss = reference_run(n, k, dense.l1, dense.l2, mpmath)
        assert abs(dense.miss_prob - float(miss)) <= 2e-10 * float(miss)
