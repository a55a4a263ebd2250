import math
from dataclasses import replace

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
    optimize_epsilon,
    run_full_grover,
    run_partial_search,
    run_script,
    script_stages,
    step3_transfer,
    uniform_state,
)
from partialsearch import partial_search, statevector
from partialsearch.partial_search import (
    apply_operator,
    apply_stages,
    standard_pipeline_script,
    standard_pipeline_stages,
    validate_script,
)
from partialsearch.reduced import BLOCK_ROUND, GLOBAL_ROUND, reduced_init

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

    def test_stage_count(self):
        cfg = BlockConfig(12, 3, 5)
        stages = script_stages(cfg, TWELVE_ITEM_SCRIPT)
        assert len(stages) == 5
        assert stages[0].queries == 0

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
    @pytest.mark.parametrize("count", [0, 1, 2, 7])
    @pytest.mark.parametrize("n, k", [(48, 3), (64, 64), (4096, 8), (2**16, 32)])
    def test_bit_equal_to_per_operator_run(self, n, k, count):
        cfg = BlockConfig(n, k, (2 * n) // 3 + 1)
        stages = standard_pipeline_stages(count, count)
        for prefix in (stages[:1], stages[:2], stages):
            got = apply_stages(uniform_state(n), prefix, cfg)
            want = per_operator_stages(uniform_state(n), prefix, cfg)
            assert np.array_equal(got.amplitudes, want.amplitudes)
            assert (got.queries, got.has_ancilla) == (want.queries, want.has_ancilla)
        assert got.queries == 2 * count + 1

    def test_input_unchanged_and_arrays_read_only(self):
        cfg = BlockConfig(64, 4, 9)
        start = invert_target(uniform_state(64), cfg)
        before = start.amplitudes.copy()
        out = apply_stages(start, [(GLOBAL_ROUND, 3), (BLOCK_ROUND, 2)], cfg)
        assert np.array_equal(start.amplitudes, before)
        assert not start.amplitudes.flags.writeable
        assert not out.amplitudes.flags.writeable
        assert not np.shares_memory(start.amplitudes, out.amplitudes)
        assert out.queries == start.queries + 5

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
    """apply_stages: each dense stage is one dense kernel call; reduced Grover rounds go to theirs, the rest per operator."""

    @pytest.mark.parametrize("backend", ["dense", "reduced"])
    @pytest.mark.parametrize(
        "run, expected",
        [
            (lambda cfg, backend: run_partial_search(cfg, backend=backend),
             {"dense": (3, []), "reduced": (2, [OperatorTag.STEP3])}),
            (lambda cfg, backend: run_full_grover(cfg, 9, backend=backend),
             {"dense": (1, []), "reduced": (1, [])}),
        ],
        ids=["partial_search", "full_grover"],
    )
    def test_kernel_and_operator_calls(self, monkeypatch, backend, run, expected):
        calls = []

        def spy(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls.append((name, args))
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        spy(statevector, "apply_rounds")
        spy(partial_search, "_reduced_rounds")
        spy(partial_search, "reduced_apply")
        for name in ("invert_target", "global_diffusion", "block_diffusion", "step3_transfer"):
            spy(statevector, name)
        run(BlockConfig(256, 4, 37), backend)
        kernel = "apply_rounds" if backend == "dense" else "_reduced_rounds"
        kernel_calls, reduced_ops = expected[backend]
        assert [name for name, _ in calls if name != "reduced_apply"] == [kernel] * kernel_calls
        assert [args[1] for name, args in calls if name == "reduced_apply"] == reduced_ops


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

    def test_dense_oracle_stage_equals_oracle_calls(self):
        got = apply_stages(uniform_state(16), [((OperatorTag.ORACLE,), 3)], self.CFG)
        want = invert_target(invert_target(invert_target(uniform_state(16), self.CFG), self.CFG), self.CFG)
        assert np.array_equal(got.amplitudes, want.amplitudes)
        assert (got.queries, got.has_ancilla) == (want.queries, want.has_ancilla) == (3, False)

    @pytest.mark.parametrize("backend", ["dense", "reduced"])
    def test_empty_step3_stage_returns_the_input(self, backend):
        state = self.start(backend)
        assert apply_stages(state, [((OperatorTag.STEP3,), 0)], self.CFG) is state


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
            if op is OperatorTag.ORACLE:
                state = replace(state, queries=state.queries + 1) if skip else invert_target(state, cfg)
            elif op is OperatorTag.GLOBAL_DIFFUSION:
                state = global_diffusion(state)
            elif op is OperatorTag.BLOCK_DIFFUSION:
                state = block_diffusion(state, cfg)
            elif skip:
                amp = attach_ancilla(state).amplitudes.copy()
                amp[0::2] = 2.0 * amp[0::2].mean() - amp[0::2]
                state = DenseState(amp, cfg.n_addresses, True, state.queries + 1)
            else:
                state = step3_transfer(attach_ancilla(state), cfg)
        return state

    @pytest.fixture(scope="class")
    def trajectory(self):
        return hybrid_trajectory(64, self.SCRIPT, self.CFG.target, n_blocks=4)

    def test_all_identity_gives_oracle_free_run(self, trajectory):
        state = trajectory.states[0]
        assert state.queries == 6
        assert np.allclose(state.branch(0), uniform_state(64).amplitudes, atol=1e-12)
        assert not state.branch(1).any()

    @pytest.mark.parametrize("j", range(7))
    def test_prefix_matches_hand_run(self, trajectory, j):
        state = trajectory.states[6 - j]
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
            expected = self.hand_run(cfg, script, j)
            assert np.max(np.abs(traj.states[4 - j].amplitudes - expected.amplitudes)) < 1e-12
            assert traj.states[4 - j].queries == expected.queries == 4


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
