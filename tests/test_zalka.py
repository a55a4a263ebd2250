import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from partialsearch import (
    TWELVE_ITEM_SCRIPT,
    BlockConfig,
    InvalidInstanceError,
    OperatorTag,
    ReducedState,
    apply_script,
    attach_ancilla,
    grover_script,
    hybrid_step_margins,
    hybrid_trajectory,
    iteration_counts,
    lift_to_dense,
    max_arcsin_probability_sum,
    optimize_epsilon,
    reduced_init,
    standard_pipeline_script,
    statevector,
    total_angle_sum,
    uniform_state,
    zalka_error_bound,
)
from partialsearch import zalka

PI = math.pi
ORACLE_CALLS = (OperatorTag.ORACLE, OperatorTag.STEP3)


def basis_state(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def angle_distance(v, w):
    """The dense reference for the package's reduced angles: arccos |<v|w>| between real unit states (arrays or
    dense states), as 2 arcsin(min(|v - w|, |v + w|) / 2), which keeps full precision at small angles."""
    va, wa = _as_unit_array(v), _as_unit_array(w)
    return 2.0 * math.asin(min(1.0, math.sqrt(min(np.sum((va - wa) ** 2), np.sum((va + wa) ** 2))) / 2.0))


def _as_unit_array(v):
    arr = np.asarray(getattr(v, "amplitudes", v))
    norm = float(np.linalg.norm(arr))
    if np.iscomplexobj(arr) or not abs(norm - 1.0) <= 1e-6:
        raise ValueError(f"expected a real unit state, got {arr.dtype} with norm {norm!r}")
    return arr


class TestAngleDistance:
    def test_identical_states(self, rng):
        v = rng.standard_normal(16)
        v /= np.linalg.norm(v)
        assert angle_distance(v, v) == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_basis_states(self):
        assert angle_distance(basis_state(8, 1), basis_state(8, 5)) == pytest.approx(PI / 2)

    def test_global_sign_is_ignored(self, rng):
        v = rng.standard_normal(10)
        v /= np.linalg.norm(v)
        assert angle_distance(v, -v) == pytest.approx(0.0, abs=1e-9)

    def test_symmetry(self, rng):
        v, w = rng.standard_normal((2, 12))
        v /= np.linalg.norm(v)
        w /= np.linalg.norm(w)
        assert angle_distance(v, w) == pytest.approx(angle_distance(w, v), abs=1e-15)

    def test_small_angle_keeps_precision(self):
        # arccos of the overlap cos(1e-9) rounds to arccos(1.0) = 0.
        phi = 1e-9
        w = math.cos(phi) * basis_state(4, 0) + math.sin(phi) * basis_state(4, 1)
        assert angle_distance(basis_state(4, 0), w) == pytest.approx(phi, rel=1e-12)

    def test_rejects_non_unit_input(self):
        with pytest.raises(ValueError, match="unit"):
            angle_distance(np.ones(4), basis_state(4, 0))

    def test_rejects_nan_input(self):
        with pytest.raises(ValueError, match="unit"):
            angle_distance(np.array([math.nan, 0.0]), np.array([1.0, 0.0]))

    def test_rejects_complex_input(self):
        # <e0|i e0> = i; casting it to float would give 0, an angle of pi/2 instead of 0.
        with pytest.raises(ValueError, match="real"):
            angle_distance(basis_state(4, 0), 1j * basis_state(4, 0))

    def test_accepts_dense_states(self):
        assert angle_distance(uniform_state(16), uniform_state(16)) == pytest.approx(0.0)

    def test_triangle_inequality(self, rng):
        for _ in range(10000):
            u, v, w = rng.standard_normal((3, 32))
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            w /= np.linalg.norm(w)
            assert angle_distance(u, w) <= angle_distance(u, v) + angle_distance(v, w) + 1e-9


class TestErrorBound:
    def test_plug_in_value(self):
        assert zalka_error_bound(10**4, 0.01, 1.0) == pytest.approx(62.8, abs=0.1)

    def test_zero_error_large_n_limit(self):
        n = 10**12
        bound = zalka_error_bound(n, 0.0)
        assert bound / ((PI / 4) * math.sqrt(n)) == pytest.approx(1.0, abs=2e-3)

    def test_floored_at_zero(self):
        assert zalka_error_bound(100, 0.1, hidden_const=10.0) == 0.0

    def test_monotone_in_error_and_n(self):
        errs = [0.0, 0.01, 0.04, 0.09]
        values = [zalka_error_bound(10**6, e) for e in errs]
        assert all(a >= b for a, b in zip(values, values[1:]))
        sizes = [10**4, 10**5, 10**6]
        values = [zalka_error_bound(n, 0.01) for n in sizes]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_boundary_of_regime_is_quiet(self, recwarn):
        zalka_error_bound(100, 0.1)
        assert len(recwarn) == 0

    def test_outside_regime_warns(self):
        with pytest.warns(UserWarning, match="regime"):
            zalka_error_bound(64, 0.01)
        with pytest.warns(UserWarning, match="regime"):
            zalka_error_bound(10**4, 0.2)

    def test_rejects_bad_inputs(self):
        bad = [
            (100, -0.1, 1.0),
            (100, 0.01, 0.0),
            (0, 0.01, 1.0),
            (-4, 0.01, 1.0),
            (100, 1.5, 1.0),
            (100, math.nan, 1.0),
            (100, math.inf, 1.0),
            (100, 0.01, -1.0),
            (100, 0.01, math.nan),
            (100, 0.01, math.inf),
        ]
        for n, err, hidden_const in bad:
            with pytest.raises(ValueError):
                zalka_error_bound(n, err, hidden_const)


class TestHybridTrajectory:
    def test_endpoints_match_plain_runs(self):
        n, steps, y = 16, 3, 11
        traj = hybrid_trajectory(n, grover_script(steps), y)
        assert traj.n_queries == steps
        identity_run = lift_to_dense(traj.states[0])
        assert np.allclose(identity_run.amplitudes, uniform_state(n).amplitudes, atol=1e-12)
        real_run = apply_script(uniform_state(n), grover_script(steps), BlockConfig(n, 1, y))
        assert np.allclose(lift_to_dense(traj.states[steps]).amplitudes, real_run.amplitudes, atol=1e-12)

    def test_unit_norms(self):
        traj = hybrid_trajectory(16, grover_script(3), 4)
        for state in traj.states:
            assert abs(np.linalg.norm(lift_to_dense(state).amplitudes) - 1.0) < 1e-9

    def test_identity_run_probs_are_uniform(self):
        # Diffusions fix the uniform state, so the oracle-free run sits at
        # 1/N before every query.
        traj = hybrid_trajectory(16, grover_script(3), 9)
        assert lift_to_dense(traj.states[0]).address_probabilities() == pytest.approx([1 / 16] * 16, abs=1e-12)

    def test_step3_script_supported(self):
        script = (OperatorTag.ORACLE, OperatorTag.GLOBAL_DIFFUSION, OperatorTag.STEP3)
        traj = hybrid_trajectory(8, script, 2, n_blocks=2)
        assert traj.n_queries == 2
        assert all(lift_to_dense(s).has_ancilla for s in traj.states)

    def test_query_free_script_has_one_run_and_no_margins(self):
        traj = hybrid_trajectory(16, (OperatorTag.GLOBAL_DIFFUSION,), 3)
        assert traj.n_queries == 0
        assert len(traj.states) == 1
        assert len(hybrid_step_margins(traj)) == 0

    def test_step3_alone_is_one_query(self):
        traj = hybrid_trajectory(16, (OperatorTag.STEP3,), 3)
        assert traj.n_queries == 1
        assert list(hybrid_step_margins(traj)) == [0.14993930859393378]


def _pipeline_script(n, k):
    l1, l2, _ = iteration_counts(n, k, optimize_epsilon(k)[0])
    return standard_pipeline_script(l1, l2)


class TestTrajectoryBudget:
    """More than MAX_TRAJECTORY_QUERIES queries are refused before any run; the budget itself reaches the runs."""

    @pytest.fixture
    def no_run(self, monkeypatch):
        def never(*_args):
            raise AssertionError("a run was started")

        monkeypatch.setattr(zalka, "apply_stages", never)

    def test_one_query_over_budget_refused_before_any_run(self, no_run):
        t = zalka.MAX_TRAJECTORY_QUERIES + 1
        with pytest.raises(InvalidInstanceError, match=f"^N={2**40} with T={t} queries exceeds {t - 1}"):
            hybrid_trajectory(2**40, grover_script(t), 5)

    def test_budget_reaches_the_runs(self, no_run):
        with pytest.raises(AssertionError, match="a run was started"):
            hybrid_trajectory(2**40, grover_script(zalka.MAX_TRAJECTORY_QUERIES), 5)

    def test_step3_counts_as_a_query(self, no_run):
        l1 = zalka.MAX_TRAJECTORY_QUERIES - 10
        with pytest.raises(AssertionError, match="a run was started"):
            hybrid_trajectory(2**40, standard_pipeline_script(l1, 9), 5, n_blocks=4)
        with pytest.raises(InvalidInstanceError, match=f"T={l1 + 11} queries"):
            hybrid_trajectory(2**40, standard_pipeline_script(l1, 10), 5, n_blocks=4)

    def test_pipeline_at_n_2_40_refused(self, no_run):
        # K = 4 at epsilon*: T = 645,379, about 35 s of runs.
        with pytest.raises(InvalidInstanceError, match=f"^N={2**40} with T=645379 queries"):
            hybrid_trajectory(2**40, _pipeline_script(2**40, 4), 5, n_blocks=4)


def _eager_trajectory(n, script, target, n_blocks=1):
    """The reference runs: each hybrid run reduced from a flat slice of the script, lifted up front, held in a tuple."""
    cfg = BlockConfig(n, n_blocks, target)
    calls = [i for i, op in enumerate(script) if op in ORACLE_CALLS]
    uniform = reduced_init(cfg)
    states = []
    for j in range(len(calls), -1, -1):  # j leading oracle calls are the identity
        start = calls[j - 1] + 1 if j else 0
        moved_out = j > 0 and script[start - 1] is OperatorTag.STEP3
        state = ReducedState(cfg, uniform.a, uniform.b, uniform.c, moved_out=moved_out, queries=j)
        states.append(lift_to_dense(apply_script(state, script[start:], cfg)))
    return tuple(states)


def _dense_margins(states):
    """The per-swap margins from dense angle_distance of consecutive lifted states."""
    bound = 2.0 * math.asin(math.sqrt(1.0 / states[0].n_addresses))
    return np.array([bound - angle_distance(v, w) for v, w in zip(states, states[1:])])


EAGER_CASES = pytest.mark.parametrize(
    "n, script, target, n_blocks",
    [
        (16, grover_script(3), 11, 1),
        (64, _pipeline_script(64, 4), 21, 4),
        (16, (OperatorTag.GLOBAL_DIFFUSION,), 3, 1),
        (12, TWELVE_ITEM_SCRIPT, 7, 3),
        (48, standard_pipeline_script(2, 1), 40, 3),
    ],
    ids=["grover-n16", "pipeline-n64-k4", "query-free", "twelve-item", "pipeline-n48-k3"],
)


class TestLazyTrajectory:
    """``states`` holds the runs reduced, lifted only by the caller; the margins lift none."""

    @EAGER_CASES
    def test_reads_match_an_eager_trajectory_bit_for_bit(self, n, script, target, n_blocks):
        lazy = hybrid_trajectory(n, script, target, n_blocks=n_blocks)
        eager = _eager_trajectory(n, script, target, n_blocks)
        assert len(lazy.states) == len(eager) == lazy.n_queries + 1
        for run, dense in zip(lazy.states, eager):
            lifted = lift_to_dense(run)
            assert lifted.amplitudes.tobytes() == dense.amplitudes.tobytes()
            assert lifted.has_ancilla == dense.has_ancilla

    @EAGER_CASES
    def test_margins_match_dense_angles_of_an_eager_trajectory(self, n, script, target, n_blocks):
        margins = hybrid_step_margins(hybrid_trajectory(n, script, target, n_blocks=n_blocks))
        dense = _dense_margins(_eager_trajectory(n, script, target, n_blocks))
        assert len(margins) == len(dense)
        assert np.abs(np.array(margins) - dense).max(initial=0.0) <= 1e-15

    def test_margins_lift_no_run(self):
        # The N = 2**20, K = 4 pipeline: 632 runs, which the margins once lifted to 2N amplitudes each.
        assert not hasattr(zalka, "lift_to_dense")
        margins = hybrid_step_margins(hybrid_trajectory(2**20, _pipeline_script(2**20, 4), 5, n_blocks=4))
        assert len(margins) == 631
        assert margins.min() >= -1e-14

    def test_len_negative_index_and_iteration(self):
        traj = hybrid_trajectory(16, grover_script(3), 4)
        assert len(traj.states) == 4
        assert traj.states[-1] == traj.states[3] and traj.states[-4] == traj.states[0]
        assert [s.queries for s in traj.states] == [3, 3, 3, 3]
        for i in (4, -5):
            with pytest.raises(IndexError):
                traj.states[i]

    def test_margins_allocate_no_array_of_n(self):
        # At N = 2**14 one array of N is 128 KiB. The 80 reduced runs take about 33 KB, and the margins alone
        # allocate little more than their own T floats.
        n = 2**14
        script = _pipeline_script(n, 4)
        hybrid_step_margins(hybrid_trajectory(n, script, 5, n_blocks=4))  # warm-up, so first-use imports stay out
        tracemalloc.start()
        try:
            hybrid_step_margins(hybrid_trajectory(n, script, 5, n_blocks=4))
            peak = tracemalloc.get_traced_memory()[1]
            traj = hybrid_trajectory(n, script, 5, n_blocks=4)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            hybrid_step_margins(traj)
            margins_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024
        assert margins_peak <= 8 * traj.n_queries + 4096


class TestTrajectoryAboveDenseCap:
    """The runs are held reduced, so they read back at every N; only lifting one is capped."""

    @pytest.mark.parametrize(
        "n, script, target, n_blocks",
        [(2**30, grover_script(3), 5, 1), (2**52, standard_pipeline_script(2, 1), 3 * 2**50 + 7, 4)],
        ids=["grover-n2_30", "pipeline-n2_52-k4"],
    )
    def test_runs_read_back(self, n, script, target, n_blocks):
        traj = hybrid_trajectory(n, script, target, n_blocks=n_blocks)
        cfg = BlockConfig(n, n_blocks, target)
        assert len(list(traj.states)) == traj.n_queries + 1
        for state in traj.states:
            assert isinstance(state, ReducedState) and state.cfg == cfg and state.queries == traj.n_queries
        final = traj.states[-1]
        assert statevector.block_probabilities(final, cfg) == final.block_probabilities()
        cap = f"^N={n} exceeds the dense backend cap {statevector.DENSE_CAP};"
        with pytest.raises(InvalidInstanceError, match=cap):
            lift_to_dense(final)


class TestReducedBlockProbabilities:
    """`block_probabilities` of a reduced state is the state's own, for its own config alone, without numpy."""

    @EAGER_CASES
    def test_equals_the_state_and_its_lift(self, n, script, target, n_blocks):
        cfg = BlockConfig(n, n_blocks, target)
        for run in hybrid_trajectory(n, script, target, n_blocks=n_blocks).states:
            probs = statevector.block_probabilities(run, cfg)
            assert [p.hex() for p in probs] == [p.hex() for p in run.block_probabilities()]
            dense = statevector.block_probabilities(lift_to_dense(run), cfg)
            assert np.abs(np.array(probs) - dense).max() <= 1e-15

    def test_refuses_another_config(self):
        run = hybrid_trajectory(16, standard_pipeline_script(1, 1), 5, n_blocks=4).states[-1]
        for cfg in (BlockConfig(16, 4, 6), BlockConfig(16, 2, 5), BlockConfig(32, 4, 5)):
            with pytest.raises(InvalidInstanceError, match="^config does not match the reduced state$"):
                statevector.block_probabilities(run, cfg)

    def test_loads_no_numpy(self):
        code = (
            "import sys; from partialsearch import BlockConfig, block_probabilities, reduced_init; "
            "cfg = BlockConfig(2**40, 4, 5); print(block_probabilities(reduced_init(cfg), cfg), 'numpy' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        ).stdout
        assert out == f"{reduced_init(BlockConfig(2**40, 4, 5)).block_probabilities()} False\n"


DENSE_OPERATORS = ["invert_target", "global_diffusion", "block_diffusion", "step3_transfer", "attach_ancilla"]


@pytest.mark.parametrize("name", DENSE_OPERATORS)
def test_no_dense_operator_is_applied(monkeypatch, name):
    # Runs stay on the reduced backend.
    def refuse(*args, **kwargs):
        raise AssertionError(f"dense {name} called")

    monkeypatch.setattr(statevector, name, refuse)
    script = standard_pipeline_script(3, 2)
    hybrid_step_margins(hybrid_trajectory(64, script, 21, n_blocks=4))
    total_angle_sum(64, script, n_blocks=4)


class TestHybridStepBound:
    def test_all_margins_nonnegative_n16(self):
        for y in range(16):
            traj = hybrid_trajectory(16, grover_script(3), y)
            assert hybrid_step_margins(traj).min() >= -1e-14

    def test_single_query_algorithm(self):
        traj = hybrid_trajectory(16, grover_script(1), 3)
        margins = hybrid_step_margins(traj)
        assert len(margins) == 1
        assert margins[0] >= -1e-14

    def test_chain_telescopes(self):
        # Summed swap bounds dominate the endpoint distance for every target.
        for y in range(16):
            traj = hybrid_trajectory(16, grover_script(3), y)
            total_bound = traj.n_queries * 2 * math.asin(math.sqrt(1 / 16))
            first, last = lift_to_dense(traj.states[0]), lift_to_dense(traj.states[-1])
            assert total_bound >= angle_distance(first, last) - 1e-9

    def test_identical_states_have_zero_distance(self):
        traj = hybrid_trajectory(16, grover_script(2), 0)
        first, again = lift_to_dense(traj.states[1]), lift_to_dense(traj.states[1])
        assert angle_distance(first, again) == pytest.approx(0.0, abs=1e-9)

    def test_hybrid_checks_load_no_numpy(self):
        code = (
            "import sys; from partialsearch import analysis as a, partial_search as p, zalka as z; n = 2**14; "
            "l1, l2, _ = p.iteration_counts(n, 4, a.optimize_epsilon(4)[0]); script = p.standard_pipeline_script(l1, l2); "
            "margins = z.hybrid_step_margins(z.hybrid_trajectory(n, script, 5, n_blocks=4)); "
            "print(margins.min(), z.total_angle_sum(n, script, n_blocks=4)[0], z.zalka_error_bound(n, 0.01), "
            "'numpy' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        ).stdout
        n, script = 2**14, _pipeline_script(2**14, 4)
        margins = hybrid_step_margins(hybrid_trajectory(n, script, 5, n_blocks=4))
        assert out == f"{margins.min()} {total_angle_sum(n, script, n_blocks=4)[0]} {zalka_error_bound(n, 0.01)} False\n"


class TestMarginIdentity:
    """Runs j and j + 1 are both uniform before query j and share every operator after it, so each margin is one
    query's own: 0 at an oracle call, where the bound holds with equality, and 2 asin(N^-1/2) - 2 asin((2N)^-1/2)
    at step 3, whose |u - S u|^2 is 2/N.  The check measures rounding, within 1e-15."""

    @staticmethod
    def assert_identity(n, script, target, n_blocks):
        margins = hybrid_step_margins(hybrid_trajectory(n, script, target, n_blocks=n_blocks))
        step3 = 2 * math.asin(n**-0.5) - 2 * math.asin((2 * n) ** -0.5)
        calls = [op for op in script if op in ORACLE_CALLS][::-1]  # margin 0 swaps the last query
        expected = [step3 if op is OperatorTag.STEP3 else 0.0 for op in calls]
        assert len(margins) == len(expected)
        assert max((abs(m - e) for m, e in zip(margins, expected)), default=0.0) <= 1e-15

    @EAGER_CASES
    def test_eager_cases(self, n, script, target, n_blocks):
        self.assert_identity(n, script, target, n_blocks)

    @pytest.mark.parametrize("log_n", [*range(4, 21, 2), 22, 26, 32])
    def test_k4_pipeline(self, log_n):
        n = 2**log_n
        self.assert_identity(n, _pipeline_script(n, 4), n // 3, 4)


class TestTotalAngleSum:
    def test_grover_n16_against_closed_form(self):
        n, steps = 16, 3
        total, reference = total_angle_sum(n, grover_script(steps))
        beta = math.asin(1 / math.sqrt(n))
        expected = n * math.acos(abs(math.cos(2 * steps * beta)))
        assert total == pytest.approx(expected, abs=1e-9)
        assert reference == pytest.approx((PI / 2) * n, abs=1e-12)
        assert 0.5 < total / reference < 1.1

    def test_zero_query_script_sums_to_zero(self):
        total, _ = total_angle_sum(16, (OperatorTag.GLOBAL_DIFFUSION,) * 4)
        assert total == pytest.approx(0.0, abs=1e-12)

    def test_n4_exhaustive(self):
        # Each run's endpoint angle is arccos|cos(2 T beta)| with beta = pi/6.
        total, _ = total_angle_sum(4, grover_script(2))
        assert total == pytest.approx(4 * PI / 3, abs=1e-12)

    @staticmethod
    def dense_angle_sum(n, script, n_blocks):
        """Brute force on the dense backend: one real run per marked address."""
        cfg = BlockConfig(n, n_blocks, 0)
        oracle_free = apply_script(uniform_state(n), [op for op in script if op not in ORACLE_CALLS], cfg)
        if OperatorTag.STEP3 in script:
            oracle_free = attach_ancilla(oracle_free)
        total = 0.0
        for y in range(n):
            real = apply_script(uniform_state(n), script, BlockConfig(n, n_blocks, y))
            total += angle_distance(oracle_free, real)
        return total

    @pytest.mark.parametrize(
        "n,k,script",
        [
            (12, 3, TWELVE_ITEM_SCRIPT),
            (48, 3, standard_pipeline_script(3, 2)),
            (64, 4, standard_pipeline_script(3, 2)),
        ],
    )
    def test_matches_dense_brute_force(self, n, k, script):
        total, _ = total_angle_sum(n, script, n_blocks=k)
        assert total == pytest.approx(self.dense_angle_sum(n, script, k), abs=1e-12)

    @pytest.mark.parametrize("exp,fraction", [(30, 1.0), (32, 0.5), (32, 2e-4), (32, 2e-3)])
    def test_beyond_dense_cap_against_mpmath(self, exp, fraction):
        # Endpoint angle 2 T beta near pi/2 (full Grover), pi/4 (half) and
        # small (T = 10 and 103 at 2**32), where an arccos of the overlap
        # would lose up to 7 digits.
        mpmath = pytest.importorskip("mpmath")
        n = 2**exp
        steps = round(fraction * (PI / 4) * math.sqrt(n))
        total, _ = total_angle_sum(n, grover_script(steps))
        with mpmath.workdps(50):
            beta = mpmath.asin(1 / mpmath.sqrt(n))
            expected = float(n * mpmath.acos(abs(mpmath.cos(2 * steps * beta))))
        assert total == pytest.approx(expected, rel=1e-12)


class TestArcsinSumBound:
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_sampled_maximum_stays_below_bound(self, n):
        observed = max_arcsin_probability_sum(n, samples=10000, seed=7)
        assert observed <= n * math.asin(1 / math.sqrt(n)) + 1e-9

    def test_uniform_attains_bound(self):
        n = 16
        uniform_sum = n * math.asin(math.sqrt(1 / n))
        assert max_arcsin_probability_sum(n, samples=1, seed=0) >= uniform_sum - 1e-12

    @pytest.mark.parametrize(
        "n, samples, seed, value",
        [
            (4, 100000, 7, 2.0943951023931957),
            (256, 20000, 3, 16.010435019901795),
            (1024, 5000, 0, 32.00521062348304),
            (4096, 600, 5, 64.00260445281057),
        ],
    )
    def test_pinned_values(self, n, samples, seed, value):
        # Values from drawing every sample at once; chunks of 2**21 floats (one chunk at N = 4, several from
        # N = 256) draw the same stream.  Each is the uniform vector's own sum: no draw beats it.
        assert max_arcsin_probability_sum(n, samples, seed) == value

    def test_chunks_draw_the_one_shot_rows(self, monkeypatch):
        # The result is the uniform vector's sum whatever is drawn, so the rows themselves are compared.
        def rows_scored(chunk_floats):
            scored = []
            monkeypatch.setattr(zalka, "_CHUNK_FLOATS", chunk_floats)
            monkeypatch.setattr(zalka, "_arcsin_sum", lambda p: scored.append(p.copy()) or 0.0)
            max_arcsin_probability_sum(16, 1000, 3)
            return np.concatenate([p.ravel() for p in scored]), len(scored)

        (one_shot, calls), (chunked, chunked_calls) = rows_scored(2**21), rows_scored(16 * 64)
        assert chunked.tobytes() == one_shot.tobytes()
        assert (calls, chunked_calls) == (5, 3 + 16 + 32)  # three fixed batches; 1000 and 2000 rows in chunks of 64

    def test_point_mass_below_bound_for_n3(self):
        assert PI / 2 <= 3 * math.asin(1 / math.sqrt(3))

    def test_arcsin_sqrt_concave_on_lower_half(self):
        xs = np.arange(1e-3, 0.5, 1e-3)
        f = np.arcsin(np.sqrt(xs))
        second_difference = f[2:] - 2 * f[1:-1] + f[:-2]
        assert second_difference.max() <= 1e-12
