"""Independent 50-digit reference for the three-step pipeline's miss probability.

The reference does not iterate operators.  It uses the rotation picture of
amplitude amplification: l1 global rounds rotate the uniform state by
2*asin(1/sqrt(N)) per round in the plane of the target and the uniform
non-target vector; l2 blockwise rounds rotate the target-block vector by
2*asin(1/sqrt(N/K)) per round in the plane of the target and the uniform
non-target part of its block, leaving the other blocks untouched.  Step 3
then moves the target out and inverts branch 0 about its mean.
"""
from __future__ import annotations

import functools

import mpmath

DIGITS = 50


@functools.lru_cache(maxsize=None)
def miss_probability(n: int, k: int, l1: int, l2: int) -> mpmath.mpf:
    """Probability mass left outside the target block after a standard run."""
    with mpmath.workdps(DIGITS):
        n_m = mpmath.mpf(n)
        m = mpmath.mpf(n // k)
        # Step 1: a = sin((2 l1 + 1) phi), the rest spread evenly over N - 1.
        phi = mpmath.asin(1 / mpmath.sqrt(n_m))
        angle = (2 * l1 + 1) * phi
        a = mpmath.sin(angle)
        rest = mpmath.cos(angle) / mpmath.sqrt(n_m - 1)
        # Step 2: rotate the target-block vector (a, b*sqrt(m - 1)) by 2*psi per round.
        psi = mpmath.asin(1 / mpmath.sqrt(m))
        radius = mpmath.sqrt(a**2 + (m - 1) * rest**2)
        start = mpmath.atan2(a, rest * mpmath.sqrt(m - 1))
        b = radius * mpmath.cos(start + 2 * l2 * psi) / mpmath.sqrt(m - 1) if m > 1 else mpmath.mpf(0)
        c = rest
        # Step 3: target moved out; branch 0 inverted about its mean.
        mean0 = ((m - 1) * b + (n_m - m) * c) / n_m
        return (n_m - m) * (2 * mean0 - c) ** 2


def relative_error(measured: float, reference: mpmath.mpf) -> float:
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.mpf(measured) - reference) / abs(reference))
