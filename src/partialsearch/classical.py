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

import copy
import math

import numpy as np

from .statevector import InvalidInstanceError, Record

CHUNK = 1 << 14  # trials resolved per chunk of the Monte Carlo


class ClassicalReport(Record):
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
    target_blocks = targets // (n // k)
    exhausted = target_blocks == unprobed_blocks
    # x + exhausted * (y - x) blends without np.where, which branches per element on a random mask
    probes = np.subtract(m, positions)
    probes *= exhausted
    probes += positions
    returned = np.subtract(unprobed_blocks, target_blocks)
    returned *= exhausted
    returned += target_blocks
    return probes, returned


def simulate_randomized(n: int, k: int, trials: int, seed: int) -> ClassicalReport:
    """Monte Carlo of the randomized strategy, seeded and reproducible.

    The probe order itself is implicit: the position of a uniformly random
    target within a uniformly random order of the M probed cells is uniform
    on 1..M, so each trial draws (target, unprobed block, position) directly.
    Trials are resolved `CHUNK` at a time, so memory does not grow with
    `trials`.  Three generators start where a one-shot draw of the target,
    block and position arrays would start, so the stream is that draw's; it
    is drawn int32 below N = 2**31, which numpy serves from the same 32-bit
    stream as int64.  Every trial's returned block is asserted correct (the
    strategy makes no errors).  It returns `classical_formulas(n, k)` with the sample fields filled in.
    """
    formulas = classical_formulas(n, k)  # checks the instance
    if not 1 <= trials < 2**63:
        raise InvalidInstanceError(f"trials must be in [1, 2**63), got {trials}")
    if n // k >= 2**63:
        raise InvalidInstanceError(f"block size N/K={n // k} reaches 2**63, past numpy's int64 range")
    m = n - n // k
    dtype = np.int32 if n < 2**31 else np.int64  # strict: at N = 2**31, K = 1 the block size overflows int32
    target_rng = np.random.default_rng(seed)
    unprobed_rng = _drained(target_rng, n, trials, dtype)
    position_rng = _drained(unprobed_rng, k, trials, dtype)
    mean, m2 = 0.0, 0.0  # mean and sum of squared deviations, merged by Chan et al.'s update
    for start in range(0, trials, CHUNK):
        size = min(CHUNK, trials - start)
        targets = target_rng.integers(0, n, size=size, dtype=dtype)
        unprobed = unprobed_rng.integers(0, k, size=size, dtype=dtype)
        positions = position_rng.integers(1, m + 1, size=size, dtype=dtype) if m > 0 else np.zeros(size, dtype)
        probes, returned = trial_outcomes(n, k, targets, unprobed, positions)
        assert np.array_equal(returned, targets // (n // k)), "classical search returned a wrong block"
        delta = float(probes.mean()) - mean
        mean += delta * size / (start + size)
        m2 += float(probes.var()) * size + delta * delta * start * size / (start + size)
    std_err = math.sqrt(m2 / (trials - 1)) / math.sqrt(trials) if trials > 1 else 0.0
    return ClassicalReport(formulas.expected_randomized, formulas.deterministic, mean, std_err)


def _drained(rng: np.random.Generator, high: int, trials: int, dtype: type) -> np.random.Generator:
    """A copy of ``rng`` advanced past ``trials`` draws from [0, high), drawn chunk by chunk."""
    rng = copy.deepcopy(rng)
    for start in range(0, trials, CHUNK):
        rng.integers(0, high, size=min(CHUNK, trials - start), dtype=dtype)
    return rng


def _check_instance(n: int, k: int) -> None:
    if n < 1 or k < 1:
        raise InvalidInstanceError(f"need N >= 1 and K >= 1, got N={n}, K={k}")
    if n % k:
        raise InvalidInstanceError(f"K={k} does not divide N={n}")
    if n > 2**63:
        raise InvalidInstanceError(f"N={n} exceeds 2**63, the range of numpy's int64 draws")
