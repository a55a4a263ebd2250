import math

import numpy as np
import pytest

from partialsearch import (
    TWELVE_ITEM_SCRIPT,
    BlockConfig,
    InvalidInstanceError,
    OperatorTag,
    angle_distance,
    apply_script,
    attach_ancilla,
    grover_script,
    hybrid_step_margins,
    hybrid_trajectory,
    iteration_counts,
    max_arcsin_probability_sum,
    optimize_epsilon,
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
        identity_run = traj.states[0]
        assert np.allclose(identity_run.amplitudes, uniform_state(n).amplitudes, atol=1e-12)
        real_run = apply_script(uniform_state(n), grover_script(steps), BlockConfig(n, 1, y))
        assert np.allclose(traj.states[steps].amplitudes, real_run.amplitudes, atol=1e-12)

    def test_unit_norms(self):
        traj = hybrid_trajectory(16, grover_script(3), 4)
        for state in traj.states:
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-9

    def test_identity_run_probs_are_uniform(self):
        # Diffusions fix the uniform state, so the oracle-free run sits at
        # 1/N before every query.
        traj = hybrid_trajectory(16, grover_script(3), 9)
        assert traj.states[0].address_probabilities() == pytest.approx([1 / 16] * 16, abs=1e-12)

    def test_step3_script_supported(self):
        script = (OperatorTag.ORACLE, OperatorTag.GLOBAL_DIFFUSION, OperatorTag.STEP3)
        traj = hybrid_trajectory(8, script, 2, n_blocks=2)
        assert traj.n_queries == 2
        assert all(s.has_ancilla for s in traj.states)

    def test_query_free_script_has_one_run_and_no_margins(self):
        traj = hybrid_trajectory(16, (OperatorTag.GLOBAL_DIFFUSION,), 3)
        assert traj.n_queries == 0
        assert len(traj.states) == 1
        assert hybrid_step_margins(traj).shape == (0,)

    def test_step3_alone_is_one_query(self):
        traj = hybrid_trajectory(16, (OperatorTag.STEP3,), 3)
        assert traj.n_queries == 1
        assert hybrid_step_margins(traj).tolist() == [0.14993930859393378]


def _pipeline_script(n, k):
    l1, l2, _ = iteration_counts(n, k, optimize_epsilon(k)[0])
    return standard_pipeline_script(l1, l2)


class TestTrajectoryBudget:
    """All T+1 lifted runs are held at once, so too many amplitudes in all are refused first."""

    @pytest.fixture
    def no_lift(self, monkeypatch):
        def never(_state):
            raise AssertionError("a run was lifted")

        monkeypatch.setattr(zalka, "lift_to_dense", never)

    def test_too_many_amplitudes_refused_before_any_run(self, no_lift):
        # N = 2**20, K = 4 at epsilon*: 632 runs of 2N amplitudes, 9.9 GiB.
        message = f"^N={2**20} with T=631 queries needs 1325400064 amplitudes"
        with pytest.raises(InvalidInstanceError, match=message):
            hybrid_trajectory(2**20, _pipeline_script(2**20, 4), 5, n_blocks=4)

    def test_largest_pipeline_within_budget_reaches_the_runs(self, no_lift):
        # N = 2**18: 318 runs of 2N amplitudes, 1.24 GiB; stopped at its first lift.
        assert 318 * 2**19 <= zalka.MAX_TRAJECTORY_AMPLITUDES
        with pytest.raises(AssertionError, match="a run was lifted"):
            hybrid_trajectory(2**18, _pipeline_script(2**18, 4), 5, n_blocks=4)

    def test_scripts_without_step3_count_n_amplitudes_a_run(self, no_lift):
        steps = zalka.MAX_TRAJECTORY_AMPLITUDES // 2**16 - 1
        with pytest.raises(AssertionError, match="a run was lifted"):
            hybrid_trajectory(2**16, grover_script(steps), 5)
        with pytest.raises(InvalidInstanceError, match=f"T={steps + 1} queries"):
            hybrid_trajectory(2**16, grover_script(steps + 1), 5)


DENSE_OPERATORS = ["invert_target", "global_diffusion", "block_diffusion", "step3_transfer", "attach_ancilla"]


@pytest.mark.parametrize("name", DENSE_OPERATORS)
def test_no_dense_operator_is_applied(monkeypatch, name):
    # Runs stay on the reduced backend; only their final states are lifted.
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
            assert hybrid_step_margins(traj).min() >= -1e-9

    def test_single_query_algorithm(self):
        traj = hybrid_trajectory(16, grover_script(1), 3)
        margins = hybrid_step_margins(traj)
        assert margins.shape == (1,)
        assert margins[0] >= -1e-9

    def test_chain_telescopes(self):
        # Summed swap bounds dominate the endpoint distance for every target.
        for y in range(16):
            traj = hybrid_trajectory(16, grover_script(3), y)
            total_bound = traj.n_queries * 2 * math.asin(math.sqrt(1 / 16))
            assert total_bound >= angle_distance(traj.states[0], traj.states[-1]) - 1e-9

    def test_identical_states_have_zero_distance(self):
        traj = hybrid_trajectory(16, grover_script(2), 0)
        assert angle_distance(traj.states[1], traj.states[1]) == pytest.approx(0.0, abs=1e-9)


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

    def test_point_mass_below_bound_for_n3(self):
        assert PI / 2 <= 3 * math.asin(1 / math.sqrt(3))

    def test_arcsin_sqrt_concave_on_lower_half(self):
        xs = np.arange(1e-3, 0.5, 1e-3)
        f = np.arcsin(np.sqrt(xs))
        second_difference = f[2:] - 2 * f[1:-1] + f[:-2]
        assert second_difference.max() <= 1e-12
