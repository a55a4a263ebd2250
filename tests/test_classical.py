import math

import numpy as np
import pytest

from partialsearch import (
    InvalidInstanceError,
    classical_formulas,
    exact_expected_probes,
    simulate_randomized,
    two_case_expectation,
)
from partialsearch.classical import trial_outcomes


def enumerated_expectation(n, k):
    """Independent oracle: average probe count over every (target, unprobed
    block) pair, with the target's position among the probed cells averaged
    uniformly."""
    m = n - n // k
    block_size = n // k
    total = 0.0
    for target in range(n):
        for unprobed in range(k):
            if target // block_size == unprobed:
                total += m
            else:
                total += (m + 1) / 2
    return total / (n * k)


class TestFormulas:
    def test_single_block_is_free(self):
        report = classical_formulas(12, 1)
        assert report.expected_randomized == 0.0
        assert report.deterministic == 0.0

    def test_twelve_three(self):
        report = classical_formulas(12, 3)
        assert report.expected_randomized == pytest.approx(16 / 3, abs=1e-12)
        assert report.deterministic == 8.0

    def test_rejects_non_divisor(self):
        with pytest.raises(InvalidInstanceError):
            classical_formulas(12, 5)

    def test_monotone_in_k(self):
        n = 240
        values = [classical_formulas(n, k).expected_randomized for k in (2, 3, 4, 6, 8, 12)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < n / 2

    @pytest.mark.parametrize("n,k", [(12, 3), (1200, 2), (1200, 4), (64, 8), (100, 10)])
    def test_two_case_split_equals_closed_form(self, n, k):
        assert two_case_expectation(n, k) == pytest.approx(
            classical_formulas(n, k).expected_randomized, abs=1e-12
        )

    @pytest.mark.parametrize("n,k", [(12, 3), (12, 12), (64, 8), (1200, 4)])
    def test_exact_expectation_matches_enumeration(self, n, k):
        assert exact_expected_probes(n, k) == pytest.approx(enumerated_expectation(n, k), abs=1e-12)

    def test_exact_vs_asymptotic_gap(self):
        # The asymptotic formula drops exactly (1 - 1/K)/2 per run.
        for n, k in [(12, 3), (1200, 2)]:
            gap = exact_expected_probes(n, k) - classical_formulas(n, k).expected_randomized
            assert gap == pytest.approx((1 - 1 / k) / 2, abs=1e-12)


class TestSimulator:
    def test_matches_exact_expectation_small_n(self):
        report = simulate_randomized(12, 3, 100000, seed=42)
        assert abs(report.sample_mean - exact_expected_probes(12, 3)) <= 3 * report.sample_std_err

    def test_matches_asymptotic_at_large_n(self):
        report = simulate_randomized(1200, 3, 100000, seed=0)
        assert abs(report.sample_mean - report.expected_randomized) <= 3 * report.sample_std_err

    def test_singleton_blocks(self):
        n = 12
        report = simulate_randomized(n, n, 50000, seed=3)
        assert report.expected_randomized == pytest.approx((n / 2) * (1 - 1 / n**2), abs=1e-12)
        assert abs(report.sample_mean - exact_expected_probes(n, n)) <= 4 * report.sample_std_err

    def test_single_block_never_probes(self):
        report = simulate_randomized(12, 1, 100, seed=5)
        assert report.sample_mean == 0.0

    def test_seed_reproducibility(self):
        a = simulate_randomized(120, 4, 5000, seed=11)
        b = simulate_randomized(120, 4, 5000, seed=11)
        assert a == b
        c = simulate_randomized(120, 4, 5000, seed=12)
        assert c.sample_mean != a.sample_mean

    @pytest.mark.parametrize("n,k", [(12, 3), (12, 1), (1200, 4), (64, 64)])
    def test_closed_form_fields_come_from_classical_formulas(self, n, k):
        report = simulate_randomized(n, k, 1000, seed=2)
        base = classical_formulas(n, k)
        assert report.expected_randomized == base.expected_randomized
        assert report.deterministic == base.deterministic

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            simulate_randomized(12, 3, 0, seed=0)


class TestTrialOutcomes:
    def test_forced_exhaustion_probes_everything(self):
        n, k = 12, 3
        m = n - n // k
        targets = np.arange(n)
        unprobed = targets // (n // k)  # target always in the unprobed block
        positions = np.ones(n, dtype=int)
        probes, returned = trial_outcomes(n, k, targets, unprobed, positions)
        assert np.all(probes == m)
        assert np.all(probes == n * (1 - 1 / k))
        assert np.array_equal(returned, targets // (n // k))

    def test_found_trials_use_position(self):
        n, k = 12, 3
        targets = np.array([0, 4, 8])
        unprobed = np.array([1, 2, 0])  # never the target's block
        positions = np.array([3, 7, 1])
        probes, returned = trial_outcomes(n, k, targets, unprobed, positions)
        assert np.array_equal(probes, positions)
        assert np.array_equal(returned, [0, 1, 2])

    def test_zero_error_over_random_draws(self, rng):
        n, k, trials = 60, 5, 20000
        targets = rng.integers(0, n, trials)
        unprobed = rng.integers(0, k, trials)
        positions = rng.integers(1, n - n // k + 1, trials)
        _, returned = trial_outcomes(n, k, targets, unprobed, positions)
        assert np.array_equal(returned, targets // (n // k))
