import math
import random
import re

import numpy as np
import pytest

from partialsearch import (
    DENSE_CAP,
    BlockConfig,
    InvalidInstanceError,
    OperatorTag,
    ReducedState,
    apply_operator,
    apply_script,
    grover_script,
    lift_to_dense,
    optimize_epsilon,
    reduced_apply,
    reduced_init,
    run_full_grover,
    run_partial_search,
    standard_pipeline_script,
    uniform_state,
    iteration_counts,
)
from partialsearch import partial_search
from partialsearch import reduced as reduced_module
from partialsearch.partial_search import apply_stages, standard_pipeline_stages
from partialsearch.reduced import BLOCK_ROUND, GLOBAL_ROUND

ORACLE = OperatorTag.ORACLE
GLOBAL = OperatorTag.GLOBAL_DIFFUSION
BLOCK = OperatorTag.BLOCK_DIFFUSION
STEP3 = OperatorTag.STEP3

TWELVE = (ORACLE, BLOCK, ORACLE, GLOBAL)


class TestInit:
    def test_twelve_items(self):
        state = reduced_init(BlockConfig(12, 3, 5))
        root12 = 1.0 / math.sqrt(12.0)
        assert (state.a, state.b, state.c, state.d) == (root12, root12, root12, 0.0)

    def test_n4(self):
        state = reduced_init(BlockConfig(4, 2, 0))
        assert (state.a, state.b, state.c, state.d) == (0.5, 0.5, 0.5, 0.0)

    def test_huge_n_normalized(self):
        state = reduced_init(BlockConfig(2**40, 16, 123456789))
        assert abs(state.norm_squared() - 1.0) < 1e-12

    @pytest.mark.parametrize("a", [0.6, math.nan], ids=["unnormalized", "nan"])
    def test_refuses_unnormalized_amplitudes(self, a):
        with pytest.raises(ValueError, match="not normalized"):
            ReducedState(BlockConfig(4, 2, 0), a, 0.0, 0.0)

    def test_refuses_a_branch_1_amplitude_never_moved_out(self):
        # The norm is 1, so the error must name d: lifting such a state, or running step 3 on it, blamed the norm.
        s, cfg = math.sqrt(0.5 / 16), BlockConfig(16, 4, 5)
        with pytest.raises(InvalidInstanceError, match=re.escape(f"d={math.sqrt(0.5)!r} is nonzero")):
            ReducedState(cfg, s, s, s, math.sqrt(0.5), False)
        flipped = reduced_apply(reduced_init(cfg), ORACLE)  # the oracle turns d = 0.0 into -0.0, which stays allowed
        assert math.copysign(1.0, flipped.d) == -1.0 and not flipped.moved_out

    def test_block_probabilities_are_python_floats(self):
        probs = reduced_init(BlockConfig(64, 4, 37)).block_probabilities()
        assert probs == (0.25,) * 4
        assert type(probs) is tuple and all(type(p) is float for p in probs)

    def test_block_probabilities_refuse_more_blocks_than_dense_cap(self):
        # Refused before any per-block list is built.
        k = DENSE_CAP + 1
        with pytest.raises(InvalidInstanceError, match=f"K={k} exceeds {DENSE_CAP}"):
            reduced_init(BlockConfig(k, k, 0)).block_probabilities()


class TestApply:
    def test_twelve_item_sequence(self):
        state = reduced_init(BlockConfig(12, 3, 5))
        for op in TWELVE:
            state = reduced_apply(state, op)
        root12 = math.sqrt(12.0)
        assert state.a == pytest.approx(3.0 / root12, abs=1e-15)
        assert state.b == pytest.approx(1.0 / root12, abs=1e-15)
        assert state.c == pytest.approx(0.0, abs=1e-15)
        assert state.d == 0.0
        assert state.queries == 2

    def test_block_diffusion_fixes_uniform(self):
        state = reduced_init(BlockConfig(64, 4, 3))
        out = reduced_apply(state, BLOCK)
        assert (out.a, out.b, out.c) == pytest.approx((state.a, state.b, state.c), abs=1e-15)

    def test_step3_zeroes_c_when_mean_is_half_c(self):
        # 3b + 4c = 8 * (c/2) forces b = 0; then step 3 cancels c exactly.
        cfg = BlockConfig(8, 2, 1)
        state = ReducedState(cfg, a=0.8, b=0.0, c=0.3)
        out = reduced_apply(state, STEP3)
        assert out.c == 0.0
        assert out.d == 0.8
        assert out.moved_out
        assert out.queries == 1

    def test_oracle_flips_a_and_d(self):
        cfg = BlockConfig(8, 2, 1)
        state = reduced_apply(reduced_init(cfg), STEP3)
        flipped = reduced_apply(state, ORACLE)
        assert flipped.a == -state.a
        assert flipped.d == -state.d

    def test_step3_twice_rejected(self):
        state = reduced_apply(reduced_init(BlockConfig(8, 2, 1)), STEP3)
        with pytest.raises(ValueError, match="at most once"):
            reduced_apply(state, STEP3)

    def test_diffusion_after_step3_rejected(self):
        state = reduced_apply(reduced_init(BlockConfig(8, 2, 1)), STEP3)
        for op in (GLOBAL, BLOCK):
            with pytest.raises(ValueError):
                reduced_apply(state, op)

    def test_norm_preserved_at_huge_n(self):
        state = reduced_init(BlockConfig(2**40, 16, 987654321))
        for op in (ORACLE, GLOBAL) * 10 + (ORACLE, BLOCK) * 10 + (STEP3,):
            state = reduced_apply(state, op)
        assert abs(state.norm_squared() - 1.0) < 1e-12


class TestLift:
    def test_uniform_round_trip(self):
        cfg = BlockConfig(12, 3, 5)
        lifted = lift_to_dense(reduced_init(cfg))
        assert np.array_equal(lifted.amplitudes, uniform_state(12).amplitudes)
        assert lifted.amplitudes.dtype == np.float64

    def test_twelve_item_matches_dense(self):
        cfg = BlockConfig(12, 3, 5)
        reduced = apply_script(reduced_init(cfg), TWELVE)
        dense = apply_script(uniform_state(12), TWELVE, cfg)
        assert np.max(np.abs(lift_to_dense(reduced).amplitudes - dense.amplitudes)) < 1e-15

    def test_norm_matches_invariant(self):
        cfg = BlockConfig(64, 4, 11)
        state = apply_script(reduced_init(cfg), standard_pipeline_script(3, 2))
        lifted = lift_to_dense(state)
        dense_norm = float(np.sum(np.abs(lifted.amplitudes) ** 2))
        assert abs(dense_norm - state.norm_squared()) < 1e-12

    def test_moved_out_lift_has_ancilla(self):
        cfg = BlockConfig(8, 2, 3)
        state = apply_script(reduced_init(cfg), (ORACLE, GLOBAL, STEP3))
        lifted = lift_to_dense(state)
        assert lifted.has_ancilla
        assert lifted.amplitudes.dtype == np.float64
        assert lifted.branch(1)[3] == pytest.approx(state.d)


class TestBackendEquivalence:
    @pytest.mark.parametrize("n", [64, 256, 4096])
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_full_pipeline_prefixes_agree(self, n, k):
        rng = np.random.default_rng(1000 + n + k)
        target = int(rng.integers(0, n))
        cfg = BlockConfig(n, k, target)
        eps, _ = optimize_epsilon(k)
        l1, l2, _ = iteration_counts(n, k, eps)
        script = standard_pipeline_script(l1, l2)
        dense = uniform_state(n)
        reduced = reduced_init(cfg)
        for op in script:
            dense = apply_operator(dense, op, cfg)
            reduced = apply_operator(reduced, op, cfg)
            lifted = lift_to_dense(reduced)
            assert lifted.has_ancilla == dense.has_ancilla
            assert np.max(np.abs(lifted.amplitudes - dense.amplitudes)) <= 1e-10
        assert dense.queries == reduced.queries == l1 + l2 + 1

    def test_reports_agree(self):
        cfg = BlockConfig(4096, 2, 1234)
        dense = run_partial_search(cfg, backend="dense")
        reduced = run_partial_search(cfg, backend="reduced")
        assert dense.queries == reduced.queries
        assert dense.success_prob == pytest.approx(reduced.success_prob, abs=1e-10)
        assert np.allclose(dense.block_probs, reduced.block_probs, atol=1e-10)

    def test_random_mixed_scripts_agree(self):
        rng = np.random.default_rng(77)
        pool = (ORACLE, GLOBAL, BLOCK)
        for n, k in [(24, 3), (64, 8), (90, 5)]:
            for _ in range(10):
                cfg = BlockConfig(n, k, int(rng.integers(0, n)))
                script = tuple(pool[i] for i in rng.integers(0, 3, size=rng.integers(1, 20)))
                if rng.integers(0, 2):
                    script += (STEP3,)
                dense = uniform_state(n)
                reduced = reduced_init(cfg)
                for op in script:
                    dense = apply_operator(dense, op, cfg)
                    reduced = apply_operator(reduced, op, cfg)
                    diff = np.max(np.abs(lift_to_dense(reduced).amplitudes - dense.amplitudes))
                    assert diff <= 1e-12, f"N={n} K={k} script={script}"
                staged = apply_script(reduced_init(cfg), script, cfg)
                assert _max_field_diff(staged, reduced) <= 1e-12, f"N={n} K={k} script={script}"
                assert (staged.moved_out, staged.queries) == (reduced.moved_out, reduced.queries)


    def test_random_stage_lists_agree(self):
        """Seeded random stage lists over every K | N: half end in STEP3, and half of those run one more round after
        it.  The dense run equals the lifted reduced one to 1e-10, or both refuse with the same error."""
        rnd, pool, runs, refused = random.Random(33), (ORACLE, GLOBAL, BLOCK), 0, 0

        def random_round(max_count):
            return tuple(rnd.choice(pool) for _ in range(rnd.randint(1, 4))), rnd.randint(0, max_count)

        def run(start, stages, cfg):
            try:
                return apply_stages(start, stages, cfg), None
            except ValueError as exc:
                return None, (type(exc), str(exc))

        for n in [2**j for j in range(1, 11)] + [3 * 2**j for j in range(9)]:
            for k in [k for k in range(1, n + 1) if n % k == 0]:
                for _ in range(3):
                    cfg = BlockConfig(n, k, rnd.randrange(n))
                    stages = [random_round(30) for _ in range(rnd.randint(1, 4))]
                    if rnd.random() < 0.5:
                        stages.append(((STEP3,), 1))
                        if rnd.random() < 0.5:
                            stages.append(random_round(3))
                    dense, dense_error = run(uniform_state(n), stages, cfg)
                    reduced, reduced_error = run(reduced_init(cfg), stages, cfg)
                    assert dense_error == reduced_error, f"{cfg} {stages}"
                    runs, refused = runs + 1, refused + (dense_error is not None)
                    if dense_error is None:
                        lifted = lift_to_dense(reduced)
                        assert np.max(np.abs(lifted.amplitudes - dense.amplitudes)) <= 1e-10, f"{cfg} {stages}"
                        assert (lifted.queries, lifted.has_ancilla) == (dense.queries, dense.has_ancilla)
        assert (runs, 0 < refused < runs) == (465, True)


class TestGroverRotation:
    def test_target_amplitude_closed_form(self):
        n = 4096
        cfg = BlockConfig(n, 2, 99)
        beta = math.asin(1.0 / math.sqrt(n))
        state = reduced_init(cfg)
        for steps in range(1, 60):
            state = reduced_apply(reduced_apply(state, ORACLE), GLOBAL)
            assert state.a == pytest.approx(math.sin((2 * steps + 1) * beta), abs=1e-9)


class TestRotationBound:
    """A closed-form stage turns at most 2**12 rad, where float64 still holds 12 printed digits."""

    @staticmethod
    def _most_rounds(size):
        return int(partial_search._MAX_ROTATION / (2 * math.asin(1.0 / math.sqrt(size))))

    @pytest.mark.parametrize("exponent", [2, 6, 20, 40, 52])
    def test_grover_up_to_the_bound_matches_mpmath(self, exponent):
        mpmath = pytest.importorskip("mpmath")
        n = 2**exponent
        top = self._most_rounds(n)
        cfg = BlockConfig(n, 1, 3)
        with mpmath.workdps(50):
            beta = mpmath.asin(1 / mpmath.sqrt(n))
            for steps in (top, top - 1, top // 3 + 7):
                expected = float(mpmath.sin((2 * steps + 1) * beta) ** 2)
                assert run_full_grover(cfg, steps).target_prob == pytest.approx(expected, abs=1e-12)
        with pytest.raises(InvalidInstanceError, match=f"^{top + 1} Grover rounds exceed {top}, "):
            run_full_grover(cfg, top + 1)

    def test_block_rounds_up_to_the_bound_match_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        cfg = BlockConfig(2**20, 4, 5)
        top = self._most_rounds(cfg.block_size)
        with mpmath.workdps(50):
            beta = mpmath.asin(1 / mpmath.sqrt(cfg.block_size))
            expected = float(mpmath.sin((2 * top + 1) * beta) / 2)  # the target block holds 1/sqrt(K) = 1/2
        assert apply_stages(reduced_init(cfg), [(BLOCK_ROUND, top)], cfg).a == pytest.approx(expected, abs=1e-12)
        with pytest.raises(InvalidInstanceError, match="Grover rounds exceed"):
            apply_stages(reduced_init(cfg), [(BLOCK_ROUND, top + 1)], cfg)

    def test_counts_beyond_any_float_are_refused(self):
        with pytest.raises(InvalidInstanceError, match=f"^{10**400} Grover rounds"):
            run_full_grover(BlockConfig(64, 1, 3), 10**400)

    @pytest.mark.parametrize("count", [10**200, 10**400])
    @pytest.mark.parametrize("backend", ["dense", "reduced"])
    def test_one_address_blocks_turn_pi_a_round(self, backend, count):
        # K = N leaves no other address in a block; 2**12 rad / pi allows 1303 rounds.
        cfg = BlockConfig(4, 4, 0)
        start = uniform_state(4) if backend == "dense" else reduced_init(cfg)
        assert apply_stages(start, [(BLOCK_ROUND, 1303)], cfg).queries == 1303
        with pytest.raises(InvalidInstanceError, match=f"^{count} Grover rounds exceed 1303, "):
            apply_stages(start, [(BLOCK_ROUND, count)], cfg)

    @pytest.mark.parametrize("round_ops", [GLOBAL_ROUND, BLOCK_ROUND, (ORACLE,), (BLOCK, ORACLE), ()])
    def test_dense_stages_share_the_bound(self, monkeypatch, round_ops):
        # Refused on both backends before either kernel runs, Grover rounds or not.
        def never(*_args):
            raise AssertionError("a kernel ran")

        monkeypatch.setattr(partial_search.statevector, "apply_stages", never)
        monkeypatch.setattr(partial_search.reduced, "apply_stages", never)
        cfg = BlockConfig(64, 4, 3)
        if round_ops in (GLOBAL_ROUND, BLOCK_ROUND):
            top = self._most_rounds(64 if round_ops == GLOBAL_ROUND else 16)
            count, message = top + 1, f"^{top + 1} Grover rounds exceed {top}, "
        else:
            count = 10**20
            most = 4096 // max(len(round_ops), 1)
            message = rf"^{count} rounds of {len(round_ops)} operator\(s\) exceed {most}, "
        for start in (uniform_state(64), reduced_init(cfg)):
            with pytest.raises(InvalidInstanceError, match=message):
                apply_stages(start, [(round_ops, count)], cfg)


def _iterated(state, script):
    for op in script:
        state = reduced_apply(state, op)
    return state


def _max_field_diff(s, t):
    return max(abs(s.a - t.a), abs(s.b - t.b), abs(s.c - t.c), abs(s.d - t.d))


class TestStageRuns:
    """Closed-form stages against the operator-by-operator reduced run."""

    @pytest.mark.parametrize(
        "n,k",
        [(n, k) for n in (64, 256, 4096) for k in (2, 4, 8)] + [(48, 3), (2**16, 32), (2**20, 4)],
    )
    def test_standard_pipeline_matches_iterated(self, n, k):
        cfg = BlockConfig(n, k, n // 3)
        l1, l2, _ = iteration_counts(n, k, optimize_epsilon(k)[0])
        iterated = _iterated(reduced_init(cfg), standard_pipeline_script(l1, l2))
        staged = apply_stages(reduced_init(cfg), standard_pipeline_stages(l1, l2), cfg)
        assert _max_field_diff(staged, iterated) <= 1e-12
        assert (staged.moved_out, staged.queries) == (iterated.moved_out, iterated.queries) == (True, l1 + l2 + 1)

    @pytest.mark.parametrize("n", [2, 64, 4096])
    def test_one_address_blocks(self, n):
        # K = N: m = 1, the block round only negates a and b tracks the iterated map.
        cfg = BlockConfig(n, n, n - 1)
        script = standard_pipeline_script(3, 5)
        assert _max_field_diff(apply_script(reduced_init(cfg), script), _iterated(reduced_init(cfg), script)) <= 1e-12

    def test_twelve_item_script(self):
        cfg = BlockConfig(12, 3, 5)
        staged = apply_script(reduced_init(cfg), TWELVE)
        assert _max_field_diff(staged, _iterated(reduced_init(cfg), TWELVE)) <= 1e-12
        assert staged.queries == 2

    @pytest.mark.parametrize("count", [1, 2, 3, 10, 11, 40])
    def test_global_rounds_flip_the_deviation(self, count):
        cfg = BlockConfig(4096, 4, 100)
        start = apply_stages(reduced_init(cfg), [(BLOCK_ROUND, 7)], cfg)
        assert abs(start.b - start.c) > 1e-3
        staged = apply_stages(start, [(GLOBAL_ROUND, count)], cfg)
        assert _max_field_diff(staged, _iterated(start, grover_script(count))) <= 1e-12
        assert staged.queries == start.queries + count

    def test_zero_rounds_return_the_state(self):
        cfg = BlockConfig(64, 4, 3)
        for state in (reduced_init(cfg), uniform_state(64)):  # both backends share the stage loop
            assert apply_stages(state, [(GLOBAL_ROUND, 0)], cfg) is state
            with pytest.raises(ValueError, match="count >= 0"):
                apply_stages(state, [(GLOBAL_ROUND, -1)], cfg)

    def test_diffusion_stage_after_step3_rejected(self):
        # The dense twin is TestDenseStages::test_rounds_with_ancilla_rejected.
        cfg = BlockConfig(8, 2, 1)
        state = reduced_apply(reduced_init(cfg), STEP3)
        for round_ops in (BLOCK_ROUND, GLOBAL_ROUND):
            with pytest.raises(ValueError, match="ancilla-free"):
                apply_stages(state, [(round_ops, 3)], cfg)

    def test_huge_run_makes_constant_operator_calls(self, monkeypatch):
        calls = []

        def counting(state, op):
            calls.append(op)
            return original(state, op)

        original = reduced_module.reduced_apply
        monkeypatch.setattr(reduced_module, "reduced_apply", counting)
        report = run_partial_search(BlockConfig(2**52, 4, 2**50 + 5), epsilon=optimize_epsilon(4)[0])
        assert calls == [STEP3]
        assert report.queries == report.l1 + report.l2 + 1 > 10**7
