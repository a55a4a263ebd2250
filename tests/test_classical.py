import math
import tracemalloc

import numpy as np
import pytest

from partialsearch import (
    InvalidInstanceError,
    classical_formulas,
    exact_expected_probes,
    simulate_randomized,
    two_case_expectation,
)
from partialsearch.classical import CHUNK, trial_outcomes


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


def one_shot_sample(n, k, trials, seed):
    """Reference: the whole sample drawn as three arrays from one generator, then resolved at once."""
    rng = np.random.default_rng(seed)
    m = n - n // k
    targets = rng.integers(0, n, size=trials)
    unprobed = rng.integers(0, k, size=trials)
    positions = rng.integers(1, m + 1, size=trials) if m > 0 else np.zeros(trials, dtype=int)
    probes = trial_outcomes(n, k, targets, unprobed, positions)[0].astype(float)
    std_err = float(probes.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return float(probes.mean()), std_err


class TestFormulas:
    def test_single_block_is_free(self):
        report = classical_formulas(12, 1)
        assert report.expected_randomized == 0.0
        assert report.deterministic == 0.0

    def test_single_block_probes_nothing(self):
        assert exact_expected_probes(12, 1) == 0.0

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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "n,k,trials",
        [
            (1200, 3, 2 * CHUNK + 123),
            (1200, 3, CHUNK),
            (1200, 3, CHUNK + 1),
            (1200, 3, 1),
            (1200, 3, 2),
            (1200, 1, CHUNK + 1),  # K = 1 draws no positions
            (2**63, 2, 2 * CHUNK + 123),
            (2**62, 4, 2 * CHUNK + 123),
            (48, 3, 2 * CHUNK + 123),
            (2**31 - 2, 2, 2 * CHUNK + 123),  # the largest N drawn as int32
            (2**31 - 2, 1, 2 * CHUNK + 123),
            (2**31, 2, 2 * CHUNK + 123),  # the smallest N drawn as int64
            (2**31, 1, 2 * CHUNK + 123),  # its block size 2**31 would overflow int32
        ],
    )
    def test_chunked_sample_matches_one_shot_draw(self, n, k, trials, seed):
        # The CLI prints 12 significant digits, so those must agree.
        report = simulate_randomized(n, k, trials, seed)
        mean, std_err = one_shot_sample(n, k, trials, seed)
        assert f"{report.sample_mean:.12g}" == f"{mean:.12g}"
        assert f"{report.sample_std_err:.12g}" == f"{std_err:.12g}"

    @pytest.mark.parametrize(
        "n,k,seed,mean,std_err",
        [
            (1200, 3, 1, "0x1.0ae41eca697eap+9", "0x1.77ed5bbdc1383p+0"),
            (2**31 - 2, 2, 1, "0x1.7fe20f20f1d7ap+29", "0x1.d287d365ea2e9p+20"),
            (2**31 - 2, 3, 2, "0x1.c8e5d1e14e3edp+29", "0x1.40b837c55cfb6p+21"),
            (2**31 - 1, 2**31 - 1, 3, "0x1.ff47fe36b2e02p+29", "0x1.a199125248d1cp+21"),
            (2**31, 2, 1, "0x1.7fe20f2776049p+29", "0x1.d287d36be1a73p+20"),
            (2**31, 4, 2, "0x1.e16c9c97e47a7p+29", "0x1.658b79ac256a2p+21"),
            (2**40, 4, 3, "0x1.df8a33061bdfep+38", "0x1.671495c523d93p+30"),
        ],
    )
    def test_sample_bits_hold_across_the_int32_switch(self, n, k, seed, mean, std_err):
        # Values from the int64-only draws; int32 draws below N = 2**31 take the same stream, so no bit moves.
        report = simulate_randomized(n, k, 2 * CHUNK + 123, seed)
        assert (report.sample_mean.hex(), report.sample_std_err.hex()) == (mean, std_err)

    def test_memory_does_not_grow_with_trials(self):
        # numpy reports its buffers to tracemalloc, so the peak covers the draw arrays.
        for trials in (10**6, 4 * 10**6):
            tracemalloc.start()
            try:
                simulate_randomized(1200, 3, trials, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 * 2**20, f"{trials} trials peaked at {peak / 2**20:.1f} MiB"


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

    @pytest.mark.parametrize("n, k", [(60, 5), (1200, 1), (2**63, 2), (2**62, 4)])  # K = 1 has m = 0
    def test_equals_where_reference(self, rng, n, k):
        m, trials = n - n // k, 20000
        targets = rng.integers(0, n, trials)
        unprobed = rng.integers(0, k, trials)
        positions = rng.integers(1, m + 1, trials) if m > 0 else np.zeros(trials, dtype=int)
        if m > 0:  # two found trials, at both ends of the probe order
            positions[:2] = 1, m
            unprobed[:2] = (targets[:2] // (n // k) + 1) % k
        exhausted = targets // (n // k) == unprobed
        probes, returned = trial_outcomes(n, k, targets, unprobed, positions)
        assert probes.tobytes() == np.where(exhausted, m, positions).tobytes()
        assert returned.tobytes() == np.where(exhausted, unprobed, targets // (n // k)).tobytes()

    def test_zero_error_over_random_draws(self, rng):
        n, k, trials = 60, 5, 20000
        targets = rng.integers(0, n, trials)
        unprobed = rng.integers(0, k, trials)
        positions = rng.integers(1, n - n // k + 1, trials)
        _, returned = trial_outcomes(n, k, targets, unprobed, positions)
        assert np.array_equal(returned, targets // (n // k))
