import math
import tracemalloc

import numpy as np
import pytest

from partialsearch import (
    DENSE_CAP,
    BlockConfig,
    DenseState,
    InvalidInstanceError,
    OperatorTag,
    attach_ancilla,
    block_diffusion,
    block_probabilities,
    global_diffusion,
    invert_target,
    lift_to_dense,
    reduced_init,
    step3_transfer,
    uniform_state,
)
from partialsearch import statevector
from partialsearch.statevector import BLOCK_ROUND, GLOBAL_ROUND
from partialsearch.partial_search import apply_stages, standard_pipeline_stages
from conftest import random_unit_state

ROOT12 = math.sqrt(12.0)
BLOCK_THEN_GLOBAL = (OperatorTag.ORACLE, OperatorTag.BLOCK_DIFFUSION, OperatorTag.ORACLE, OperatorTag.GLOBAL_DIFFUSION)
GLOBAL_THEN_BLOCK = (OperatorTag.ORACLE, OperatorTag.GLOBAL_DIFFUSION, OperatorTag.BLOCK_DIFFUSION)
DIFFUSION_FIRST = (OperatorTag.BLOCK_DIFFUSION, OperatorTag.ORACLE, OperatorTag.GLOBAL_DIFFUSION)
PUBLIC = {
    OperatorTag.ORACLE: invert_target,
    OperatorTag.GLOBAL_DIFFUSION: lambda state, cfg: global_diffusion(state),
    OperatorTag.BLOCK_DIFFUSION: block_diffusion,
}


def reference_inversion(amplitudes, lo, hi):
    """Independent two-line inversion about the average of a slice."""
    mean = sum(amplitudes[lo:hi]) / (hi - lo)
    return [2 * mean - a if lo <= i < hi else a for i, a in enumerate(amplitudes)]


def reference_oracle(amp, cfg):
    out = amp.copy()
    n, t = cfg.n_addresses, cfg.target
    out[t] = -amp[t]
    if amp.size == 2 * n:
        out[n + t] = -amp[n + t]
    return out


def reference_block_diffusion(amp, cfg):
    blocks = amp.reshape(cfg.n_blocks, cfg.block_size)
    return (2.0 * blocks.mean(axis=1, keepdims=True) - blocks).reshape(-1)


def reference_step3(amp, cfg):
    out = amp.copy()
    n, t = cfg.n_addresses, cfg.target
    out[t], out[n + t] = amp[n + t], amp[t]
    branch0 = out[:n]
    out[:n] = 2.0 * branch0.mean() - branch0
    return out


# Out-of-place numpy versions of the four operators, independent of the
# in-place kernel behind the public ones; they must agree to the last bit.
REFERENCE = {
    OperatorTag.ORACLE: reference_oracle,
    OperatorTag.GLOBAL_DIFFUSION: lambda amp, cfg: 2.0 * amp.mean() - amp,
    OperatorTag.BLOCK_DIFFUSION: reference_block_diffusion,
    OperatorTag.STEP3: reference_step3,
}


def reference_stages(n, stages, cfg, start=None):
    """Amplitudes after running the stages from ``start`` (by default the uniform state), one reference
    operator at a time."""
    amp = np.full(n, 1.0 / math.sqrt(n)) if start is None else start
    for round_ops, count in stages:
        for _ in range(count):
            for op in round_ops:
                if op is OperatorTag.STEP3 and amp.size == n:
                    amp = np.concatenate([amp, np.zeros(n)])
                amp = REFERENCE[op](amp, cfg)
    return amp


class TestAgainstReference:
    @pytest.mark.parametrize(
        "op, public, with_ancilla",
        [
            (OperatorTag.ORACLE, invert_target, False),
            (OperatorTag.ORACLE, invert_target, True),
            (OperatorTag.GLOBAL_DIFFUSION, lambda state, cfg: global_diffusion(state), False),
            (OperatorTag.BLOCK_DIFFUSION, block_diffusion, False),
            (OperatorTag.STEP3, step3_transfer, True),
        ],
        ids=["oracle", "oracle-ancilla", "global", "block", "step3"],
    )
    @pytest.mark.parametrize("n, k", [(48, 3), (64, 64), (4096, 8)])
    def test_public_operators_bit_equal(self, rng, op, public, with_ancilla, n, k):
        cfg = BlockConfig(n, k, (2 * n) // 3 + 1)
        for _ in range(5):
            state = random_unit_state(rng, n, with_ancilla=with_ancilla and op is OperatorTag.ORACLE)
            if op is OperatorTag.STEP3:
                state = attach_ancilla(state)  # branch 1 must start empty
            out = public(state, cfg)
            assert np.array_equal(out.amplitudes, REFERENCE[op](state.amplitudes, cfg))
            assert out.has_ancilla == with_ancilla
            assert out.queries == (op in (OperatorTag.ORACLE, OperatorTag.STEP3))

    @pytest.mark.parametrize("count", [0, 1, 2, 7, 50])
    @pytest.mark.parametrize("n, k", [(48, 3), (64, 64), (4096, 8), (2**16, 32)])
    def test_pipeline_stages_match_reference(self, n, k, count):
        """Bit-equal for one round; past it each Grover stage is one rotation, so within 1e-13 of the reference."""
        cfg = BlockConfig(n, k, (2 * n) // 3 + 1)
        stages = standard_pipeline_stages(count, count)
        for prefix in (stages[:1], stages[:2], stages):
            got, want = apply_stages(uniform_state(n), prefix, cfg).amplitudes, reference_stages(n, prefix, cfg)
            if count <= 1:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("count", [2, 7])
    @pytest.mark.parametrize(
        "round_ops", [BLOCK_THEN_GLOBAL, GLOBAL_THEN_BLOCK], ids=["block-then-global", "global-then-block"]
    )
    @pytest.mark.parametrize("n, k", [(48, 3), (4096, 8), (2**16, 32)])
    def test_mixed_rounds_match_reference(self, n, k, round_ops, count):
        # Neither round is a plain Grover round, so its operators run one by one, each taking its sums afresh.
        cfg = BlockConfig(n, k, (2 * n) // 3 + 1)
        got = apply_stages(uniform_state(n), [(round_ops, count)], cfg)
        assert np.max(np.abs(got.amplitudes - reference_stages(n, [(round_ops, count)], cfg))) <= 1e-13
        assert got.queries == count * round_ops.count(OperatorTag.ORACLE)

    @pytest.mark.parametrize("count", [2, 7])
    @pytest.mark.parametrize(
        "round_ops",
        [GLOBAL_THEN_BLOCK, DIFFUSION_FIRST, (OperatorTag.GLOBAL_DIFFUSION, OperatorTag.ORACLE)],
        ids=["global-then-block", "diffusion-first", "global-then-oracle"],
    )
    @pytest.mark.parametrize("n, k", [(48, 3), (4096, 8), (2**16, 32)])
    def test_other_rounds_equal_public_calls(self, rng, n, k, round_ops, count):
        """A stage whose round is not a plain Grover round runs its operators in place and in order, so from a
        random state it equals the same operators applied one public call at a time, byte for byte."""
        cfg = BlockConfig(n, k, (2 * n) // 3 + 1)
        want = start = random_unit_state(rng, n)
        for _ in range(count):
            for op in round_ops:
                want = PUBLIC[op](want, cfg)
        got = statevector.apply_stages(start, [(round_ops, count)], cfg)
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
        assert (got.queries, got.has_ancilla) == (want.queries, False)

    @pytest.mark.parametrize("split", [False, True], ids=["one-stage", "split"])
    @pytest.mark.parametrize("count", [1, 2, 7, 50])
    @pytest.mark.parametrize(
        "round_ops",
        [GLOBAL_ROUND, BLOCK_ROUND, BLOCK_THEN_GLOBAL, GLOBAL_THEN_BLOCK],
        ids=["global", "block", "block-then-global", "global-then-block"],
    )
    @pytest.mark.parametrize("n, k", [(48, 3), (64, 64), (4096, 8)])
    def test_random_states_match_reference(self, rng, n, k, round_ops, count, split):
        """The kernel never assumes a uniform block: from a random real state it follows the reference too, also
        with the rounds split over two stages of one call (for one round, an empty stage and then the round)."""
        cfg = BlockConfig(n, k, (2 * n) // 3 + 1)
        state = random_unit_state(rng, n)
        start = state.amplitudes.copy()
        stages = [(round_ops, count // 2), (round_ops, count - count // 2)] if split else [(round_ops, count)]
        got = statevector.apply_stages(state, stages, cfg)
        want = reference_stages(n, [(round_ops, count)], cfg, start)
        if count == 1:
            assert np.array_equal(got.amplitudes, want)
        else:
            assert np.max(np.abs(got.amplitudes - want)) <= 1e-13
        assert got.queries == count * round_ops.count(OperatorTag.ORACLE)
        assert state.amplitudes.tobytes() == start.tobytes()


class TestBlockConfig:
    def test_block_addressing(self):
        cfg = BlockConfig(12, 3, 5)
        assert cfg.block_size == 4
        assert cfg.target_block == 1
        assert [cfg.block_of(x) for x in range(12)] == [0] * 4 + [1] * 4 + [2] * 4

    @pytest.mark.parametrize(
        "n, k, t",
        [(12, 5, 0), (12, 3, 12), (12, 3, -1), (1, 1, 0), (12, 13, 0), (2**52 + 2, 2, 0)],
    )
    def test_rejects_bad_instances(self, n, k, t):
        with pytest.raises(InvalidInstanceError):
            BlockConfig(n, k, t)


class TestDenseState:
    @pytest.mark.parametrize(
        "amp",
        [np.full(4, 0.5, dtype=complex), np.full(4, 0.5j), [0.5 + 0j] * 4],
        ids=["zero-imaginary", "imaginary", "list"],
    )
    def test_refuses_complex_input(self, amp):
        with pytest.raises(InvalidInstanceError, match="real"):
            DenseState(amp, 4)

    @pytest.mark.parametrize(
        "amp, has_ancilla, match",
        [
            (np.full(3, 0.5), False, "does not match"),
            (np.full(4, 0.5), True, "does not match"),
            (np.full(4, 0.6), False, "not normalized"),
            (np.array([math.nan, 0.0, 0.0, 0.0]), False, "not normalized"),
        ],
        ids=["short", "short-for-ancilla", "unnormalized", "nan"],
    )
    def test_refuses_bad_arrays(self, amp, has_ancilla, match):
        with pytest.raises(InvalidInstanceError, match=match):
            DenseState(amp, 4, has_ancilla=has_ancilla)

    def test_branch_without_ancilla(self):
        state = uniform_state(4)
        assert state.branch(0) is state.amplitudes
        with pytest.raises(ValueError, match="no ancilla"):
            state.branch(1)

    @pytest.mark.parametrize("with_ancilla", [False, True], ids=["plain", "ancilla"])
    @pytest.mark.parametrize("bit", [2, -1])
    def test_branch_refuses_bits_other_than_0_and_1(self, bit, with_ancilla):
        state = attach_ancilla(uniform_state(8)) if with_ancilla else uniform_state(8)
        with pytest.raises(ValueError, match=rf"^ancilla bit must be 0 or 1, got {bit}$"):
            state.branch(bit)

    def test_attach_ancilla_twice_rejected(self):
        with pytest.raises(ValueError, match="already has an ancilla"):
            attach_ancilla(attach_ancilla(uniform_state(4)))


class TestUniformState:
    def test_n4_amplitudes(self):
        state = uniform_state(4)
        assert np.array_equal(state.amplitudes, np.full(4, 0.5))

    def test_twelve_items(self):
        state = uniform_state(12)
        assert np.allclose(state.amplitudes, 1.0 / ROOT12, atol=1e-15)

    def test_normalized_n1024(self):
        state = uniform_state(1024)
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-12

    def test_is_a_read_only_view_of_one_scalar(self):
        uniform_state(16)  # warm-up, so the first use of numpy stays out of the peak
        tracemalloc.start()
        try:
            state = uniform_state(2**20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert state.amplitudes.shape == (2**20,) and not state.amplitudes.flags.writeable
        assert np.all(state.amplitudes == 1.0 / 1024)

    def test_rejects_small_n(self):
        with pytest.raises(InvalidInstanceError):
            uniform_state(1)

    def test_rejects_beyond_dense_cap(self):
        with pytest.raises(InvalidInstanceError, match="reduced"):
            uniform_state(DENSE_CAP * 2)

    def test_ancilla_branch1_empty(self):
        state = attach_ancilla(uniform_state(8))
        assert np.all(state.branch(1) == 0)
        assert np.allclose(state.branch(0), 1.0 / math.sqrt(8))


class TestInvertTarget:
    def test_twelve_item_step(self):
        cfg = BlockConfig(12, 3, 5)
        state = invert_target(uniform_state(12), cfg)
        assert state.amplitudes[5] == pytest.approx(-1.0 / ROOT12, abs=1e-15)
        others = np.delete(state.amplitudes, 5)
        assert np.allclose(others, 1.0 / ROOT12, atol=1e-15)
        assert state.queries == 1

    def test_involution(self, rng):
        cfg = BlockConfig(16, 4, 9)
        state = random_unit_state(rng, 16)
        twice = invert_target(invert_target(state, cfg), cfg)
        assert np.array_equal(twice.amplitudes, state.amplitudes)
        assert twice.queries == 2

    def test_n4_explicit(self):
        cfg = BlockConfig(4, 2, 2)
        state = invert_target(uniform_state(4), cfg)
        assert np.array_equal(state.amplitudes, np.array([0.5, 0.5, -0.5, 0.5]))

    def test_flips_both_branches(self):
        cfg = BlockConfig(4, 2, 1)
        state = invert_target(attach_ancilla(uniform_state(4)), cfg)
        assert state.branch(0)[1] == pytest.approx(-0.5)


class TestGlobalDiffusion:
    def test_uniform_is_fixed(self):
        state = uniform_state(32)
        assert np.allclose(global_diffusion(state).amplitudes, state.amplitudes, atol=1e-15)

    def test_twelve_item_final_step(self):
        # Stage before: target 5 carries -2/sqrt(12), its block-mates 0,
        # non-target blocks 1/sqrt(12).
        amp = np.full(12, 1.0 / ROOT12)
        amp[4:8] = 0.0
        amp[5] = -2.0 / ROOT12
        out = global_diffusion(DenseState(amp, 12))
        expected = np.array(reference_inversion(list(amp), 0, 12))
        assert np.allclose(out.amplitudes, expected, atol=1e-15)
        assert out.amplitudes[5] == pytest.approx(3.0 / ROOT12, abs=1e-12)
        assert np.allclose(out.amplitudes[[4, 6, 7]], 1.0 / ROOT12, atol=1e-12)
        assert np.allclose(out.amplitudes[:4], 0.0, atol=1e-12)

    def test_preserves_norm(self, rng):
        for _ in range(20):
            state = random_unit_state(rng, 48)
            out = global_diffusion(state)
            assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-12

    def test_rejects_ancilla(self):
        with pytest.raises(ValueError):
            global_diffusion(attach_ancilla(uniform_state(8)))


class TestBlockDiffusion:
    def test_twelve_item_blockwise_step(self):
        cfg = BlockConfig(12, 3, 5)
        state = invert_target(uniform_state(12), cfg)
        out = block_diffusion(state, cfg)
        expected = list(state.amplitudes)
        for lo in (0, 4, 8):
            expected = reference_inversion(expected, lo, lo + 4)
        assert np.allclose(out.amplitudes, expected, atol=1e-15)
        # Target block mean is 1/(2 sqrt(12)); the flip lands the target at
        # 2/sqrt(12) and its block-mates at exactly 0.
        assert out.amplitudes[5] == pytest.approx(2.0 / ROOT12, abs=1e-12)
        assert np.allclose(out.amplitudes[[4, 6, 7]], 0.0, atol=1e-15)
        assert np.allclose(out.amplitudes[:4], 1.0 / ROOT12, atol=1e-15)
        assert np.allclose(out.amplitudes[8:], 1.0 / ROOT12, atol=1e-15)

    def test_single_block_equals_global(self, rng):
        cfg = BlockConfig(64, 1, 17)
        state = random_unit_state(rng, 64)
        blockwise = block_diffusion(state, cfg)
        globally = global_diffusion(state)
        assert np.max(np.abs(blockwise.amplitudes - globally.amplitudes)) <= 1e-15

    def test_uniform_fixed_any_k(self):
        for k in (1, 2, 3, 4, 6, 12):
            cfg = BlockConfig(12, k, 0)
            out = block_diffusion(uniform_state(12), cfg)
            assert np.allclose(out.amplitudes, 1.0 / ROOT12, atol=1e-15)

    def test_involution(self, rng):
        cfg = BlockConfig(24, 4, 3)
        state = random_unit_state(rng, 24)
        twice = block_diffusion(block_diffusion(state, cfg), cfg)
        assert np.max(np.abs(twice.amplitudes - state.amplitudes)) < 1e-15


class TestStep3Transfer:
    def test_zeroes_non_target_blocks(self):
        # Branch-0 mean after move-out equals c/2, so non-target blocks cancel.
        n, k = 8, 2
        cfg = BlockConfig(n, k, 1)
        a, b, c = 0.8, 0.0, 0.3
        amp = np.zeros(2 * n)
        amp[:n] = c
        amp[: n // k] = b
        amp[cfg.target] = a
        state = DenseState(amp, n, has_ancilla=True)
        out = step3_transfer(state, cfg)
        assert out.branch(1)[cfg.target] == pytest.approx(a, abs=1e-15)
        non_target = out.branch(0)[n // k :]
        assert np.max(np.abs(non_target)) < 1e-15
        assert out.queries == 1

    def test_point_mass_on_target(self):
        cfg = BlockConfig(6, 3, 2)
        amp = np.zeros(12)
        amp[2] = 1.0
        state = DenseState(amp, 6, has_ancilla=True)
        out = step3_transfer(state, cfg)
        assert out.branch(1)[2] == pytest.approx(1.0)
        assert np.max(np.abs(out.branch(0))) < 1e-15

    def test_preserves_norm(self, rng):
        cfg = BlockConfig(32, 4, 7)
        for _ in range(10):
            base = random_unit_state(rng, 32)
            state = attach_ancilla(base)
            out = step3_transfer(state, cfg)
            assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-12

    def test_adjoins_the_ancilla(self, rng):
        # An ancilla-free state gains the ancilla inside the kernel, exactly as attach_ancilla adjoins it.
        cfg = BlockConfig(8, 2, 0)
        state = random_unit_state(rng, 8)
        got, want = step3_transfer(state, cfg), step3_transfer(attach_ancilla(state), cfg)
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
        assert (got.has_ancilla, got.queries) == (want.has_ancilla, want.queries) == (True, 1)

    def test_requires_empty_branch1(self, rng):
        cfg = BlockConfig(8, 2, 0)
        state = random_unit_state(rng, 8, with_ancilla=True)
        with pytest.raises(ValueError, match="branch 1"):
            step3_transfer(state, cfg)


class TestBlockProbabilities:
    def test_uniform(self):
        cfg = BlockConfig(12, 3, 0)
        assert np.allclose(block_probabilities(uniform_state(12), cfg), 1.0 / 3.0, atol=1e-15)

    def test_point_mass(self):
        cfg = BlockConfig(4, 2, 0)
        amp = np.array([1.0, 0.0, 0.0, 0.0])
        state = DenseState(amp, 4)
        assert np.array_equal(block_probabilities(state, cfg), [1.0, 0.0])

    def test_sums_ancilla_branches(self):
        cfg = BlockConfig(4, 2, 3)
        amp = np.zeros(8)
        amp[3] = math.sqrt(0.5)
        amp[4 + 3] = math.sqrt(0.5)
        state = DenseState(amp, 4, has_ancilla=True)
        assert np.allclose(block_probabilities(state, cfg), [0.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("with_ancilla", [False, True], ids=["plain", "ancilla"])
    # 516·{3, 129, 1024}: below, just above and past 2**16; then blocks past the 2**14 slice, 2·65543 with an odd length
    @pytest.mark.parametrize("n", [1548, 66564, 528384, 2 * 65543, 10**6, 3 * 2**18])
    def test_equals_summed_address_probabilities(self, with_ancilla, n):
        # K = 129 and K = N give several slices and a short last one; block sizes such as 387 = 1548/4 and
        # 516 = 66564/129 are not multiples of 8, so numpy's 8-way unrolled pairwise sum leaves a tail.  Blocks
        # longer than the slice are summed by numpy's own pairwise split, which the bytes must show.
        rng = np.random.default_rng(n + with_ancilla)
        state = random_unit_state(rng, n, with_ancilla=with_ancilla)
        for k in {2 * 65543: (1, 2), 10**6: (1, 2, 4, 5, 8), 3 * 2**18: (1, 3, 6)}.get(n, (1, 2, 4, 129, n)):
            cfg = BlockConfig(n, k, n - 1)
            want = state.address_probabilities().reshape(k, n // k).sum(axis=1)
            assert block_probabilities(state, cfg).tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 4, 32, 1024])
    def test_squares_a_slice_at_a_time(self, k):
        # Squaring a whole block at K = 1 would hold 16 MiB of temporaries; a slice of 2**14 addresses holds 256 KiB.
        n = 2**20
        state = random_unit_state(np.random.default_rng(k), n, with_ancilla=True)
        cfg = BlockConfig(n, k, n - 1)
        block_probabilities(state, cfg)  # warm-up, so numpy's first use stays out of the peak
        tracemalloc.start()
        try:
            block_probabilities(state, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"K={k} peaked at {peak / 2**20:.2f} MiB"


class TestAncillaLayout:
    """The layout writer and its callers, against the zeros-then-copy reference, bit for bit."""

    @staticmethod
    def reference(branch0, target=0, moved_out=0.0):
        amp = np.zeros(2 * branch0.size)
        amp[: branch0.size] = branch0
        amp[branch0.size + target] = moved_out
        return amp

    @pytest.mark.parametrize("n", [2, 3, 5, 12, 48, 3 * 2**15, 2**18])
    def test_adjoin_attach_and_lift(self, rng, n):
        target = (2 * n) // 3
        branch0 = rng.standard_normal(n)
        got = statevector._ancilla_layout(branch0, n, target, -0.375)
        assert got.tobytes() == self.reference(branch0, target, -0.375).tobytes()
        got = statevector._ancilla_layout(0.25, n, target, -0.375)
        assert got.tobytes() == self.reference(np.full(n, 0.25), target, -0.375).tobytes()
        state = random_unit_state(rng, n)
        assert attach_ancilla(state).amplitudes.tobytes() == self.reference(state.amplitudes).tobytes()
        k = min(d for d in range(2, n + 1) if n % d == 0)
        cfg = BlockConfig(n, k, target)
        moved = apply_stages(reduced_init(cfg), standard_pipeline_stages(1, 1), cfg)
        branch0 = np.full(n, moved.c)
        branch0[cfg.target_block * cfg.block_size : (cfg.target_block + 1) * cfg.block_size] = moved.b
        branch0[target] = moved.a
        assert moved.d != 0.0
        assert lift_to_dense(moved).amplitudes.tobytes() == self.reference(branch0, target, moved.d).tobytes()

    def test_an_empty_step3_stage_adjoins_nothing(self, monkeypatch):
        # partial_search.apply_stages drops empty stages; the kernel, called directly, lays out no ancilla for one.
        calls, ancilla_layout = [], statevector._ancilla_layout
        monkeypatch.setattr(statevector, "_ancilla_layout", lambda *args: calls.append(args) or ancilla_layout(*args))
        cfg = BlockConfig(64, 4, 5)
        got = statevector.apply_stages(uniform_state(64), [(GLOBAL_ROUND, 3), ((OperatorTag.STEP3,), 0)], cfg)
        want = statevector.apply_stages(uniform_state(64), [(GLOBAL_ROUND, 3)], cfg)
        assert calls == [] and not got.has_ancilla and got.amplitudes.shape == (64,)
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes() and got.queries == want.queries == 3


class TestGroverInvariants:
    def test_stays_in_real_two_dimensional_span(self):
        n, t = 64, 41
        cfg = BlockConfig(n, 1, t)
        state = uniform_state(n)
        for _ in range(30):
            state = global_diffusion(invert_target(state, cfg))
            assert state.amplitudes.dtype == np.float64
            rest = np.delete(state.amplitudes, t)
            assert rest.max() - rest.min() < 1e-12

    def test_drift_past_target(self):
        n, t = 1024, 100
        cfg = BlockConfig(n, 1, t)

        def target_prob_after(steps):
            state = uniform_state(n)
            for _ in range(steps):
                state = global_diffusion(invert_target(state, cfg))
            return abs(state.amplitudes[t]) ** 2

        optimum = round((math.pi / 4.0) * math.sqrt(n))
        assert optimum == 25
        assert target_prob_after(optimum) > target_prob_after(round(1.5 * optimum))

    def test_unitarity_randomized(self, rng):
        cfg = BlockConfig(30, 5, 11)
        state = random_unit_state(rng, 30)
        ops = [
            lambda s: invert_target(s, cfg),
            global_diffusion,
            lambda s: block_diffusion(s, cfg),
        ]
        for _ in range(300):
            state = ops[rng.integers(0, 3)](state)
            assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-12

    def test_operators_return_float64(self, rng):
        cfg = BlockConfig(16, 4, 9)
        state = random_unit_state(rng, 16)
        ancilla = attach_ancilla(invert_target(uniform_state(16), cfg))
        outputs = [
            uniform_state(16),
            invert_target(state, cfg),
            global_diffusion(state),
            block_diffusion(state, cfg),
            ancilla,
            invert_target(ancilla, cfg),
            step3_transfer(ancilla, cfg),
        ]
        for out in outputs:
            assert out.amplitudes.dtype == np.float64

    def test_states_are_immutable(self):
        state = uniform_state(8)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0
