"""Zero-error classical baselines for block search.

The randomized strategy picks K-1 of the K blocks and probes their
M = N - N/K cells in random order, stopping at the target; if all M probes
miss, the target's block is the one left unprobed.  Its expected probe
count is (N/2)(1 - 1/K^2) up to an O(1) term; the deterministic variant
always probes all M cells, N(1 - 1/K) in the worst case.

`simulate_randomized` is a seeded Monte Carlo of the strategy; the exact
per-trial expectation (including the O(1) term the asymptotic formula
drops) is `exact_expected_probes`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .statevector import InvalidInstanceError


@dataclass(frozen=True)
class ClassicalReport:
    """Probe counts for the caller's (N, K); the sample fields only from a Monte Carlo run."""

    expected_randomized: float
    deterministic: float
    sample_mean: float | None = None
    sample_std_err: float | None = None


def classical_formulas(n: int, k: int) -> ClassicalReport:
    """Closed-form expected (randomized) and worst-case (deterministic) counts."""
    _check_instance(n, k)
    return ClassicalReport((n / 2.0) * (1.0 - 1.0 / k**2), n * (1.0 - 1.0 / k))


def two_case_expectation(n: int, k: int) -> float:
    """The probability-weighted two-case split of the randomized expectation.

    With probability 1 - 1/K the target is among the probed cells (mean
    position (N/2)(1 - 1/K)); otherwise all N(1 - 1/K) probes run.  The sum
    telescopes to (N/2)(1 - 1/K^2) exactly.
    """
    _check_instance(n, k)
    probed = n * (1.0 - 1.0 / k)
    return (1.0 - 1.0 / k) * (n / 2.0) * (1.0 - 1.0 / k) + (1.0 / k) * probed


def exact_expected_probes(n: int, k: int) -> float:
    """Exact expectation of the simulated strategy.

    A uniformly random target sits at mean position (M+1)/2 among M probed
    cells, not M/2; the asymptotic formula drops the resulting (1 - 1/K)/2.
    """
    _check_instance(n, k)
    m = n - n // k
    if m == 0:
        return 0.0
    return (1.0 - 1.0 / k) * (m + 1) / 2.0 + (1.0 / k) * m


def trial_outcomes(
    n: int, k: int, targets: np.ndarray, unprobed_blocks: np.ndarray, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve trials given their random draws.

    ``positions`` is the 1-based position of the target in the probe order,
    used only when the target's block is probed.  Returns (probes, returned
    block) per trial; exhausted trials return the unprobed block.
    """
    m = n - n // k
    block_size = n // k
    target_blocks = targets // block_size
    exhausted = target_blocks == unprobed_blocks
    probes = np.where(exhausted, m, positions)
    returned = np.where(exhausted, unprobed_blocks, target_blocks)
    return probes, returned


def simulate_randomized(n: int, k: int, trials: int, seed: int) -> ClassicalReport:
    """Monte Carlo of the randomized strategy, seeded and reproducible.

    The probe order itself is implicit: the position of a uniformly random
    target within a uniformly random order of the M probed cells is uniform
    on 1..M, so each trial draws (target, unprobed block, position) directly.
    Every trial's returned block is asserted correct (the strategy makes no
    errors).  It returns `classical_formulas(n, k)` with the sample fields filled in.
    """
    _check_instance(n, k)
    if not 1 <= trials < 2**63:
        raise InvalidInstanceError(f"trials must be in [1, 2**63), got {trials}")
    if n > 2**63:
        raise InvalidInstanceError(f"N={n} exceeds 2**63, the range of numpy's int64 draws")
    rng = np.random.default_rng(seed)
    m = n - n // k
    targets = rng.integers(0, n, size=trials)
    unprobed = rng.integers(0, k, size=trials)
    positions = rng.integers(1, m + 1, size=trials) if m > 0 else np.zeros(trials, dtype=int)
    probes, returned = trial_outcomes(n, k, targets, unprobed, positions)
    assert np.array_equal(returned, targets // (n // k)), "classical search returned a wrong block"

    probes = probes.astype(float)
    std_err = float(probes.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return replace(classical_formulas(n, k), sample_mean=float(probes.mean()), sample_std_err=std_err)


def _check_instance(n: int, k: int) -> None:
    if n < 1 or k < 1:
        raise InvalidInstanceError(f"need N >= 1 and K >= 1, got N={n}, K={k}")
    if n % k:
        raise InvalidInstanceError(f"K={k} does not divide N={n}")
