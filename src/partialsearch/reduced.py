"""Symmetry-reduced backend: four real numbers instead of N amplitudes.

Every operator in the algorithm treats all non-target addresses of a block
alike, so throughout a run the state is fully described by

    a  amplitude of the target address (ancilla branch 0),
    b  common amplitude of the other N/K - 1 addresses in the target block,
    c  common amplitude of the N - N/K addresses in non-target blocks,
    d  amplitude of the moved-out target (ancilla branch 1, nonzero only
       after the step-3 move-out).

All dynamics are real reflections, so only reals are stored.  N enters the
arithmetic only through sqrt(N), N/K and means, which keeps runs exact up
to N = 2**52.  Operators are closed-form conjugations of the dense ones
onto this invariant subspace; `lift_to_dense` expands back for comparison
against the ground-truth backend.

A run is a few stages, each one round of operators repeated `count` times.
A Grover round (oracle, then inversion about the mean of M amplitudes)
rotates the target and the uniform rest of those M amplitudes by
2 arcsin(1/sqrt(M)), so `_reduced_rounds` applies `count` rounds as one
rotation (Boyer, Brassard, Hoyer, Tapp, quant-ph/9605034).  Block rounds
rotate (a, sqrt(m - 1) b), M = m = N/K, and leave c alone; global rounds
rotate (a, sqrt(N - 1) mu), M = N, mu the non-target mean, and flip the
sign of b - mu and c - mu every round.  `partial_search.apply_stages`
picks the stages it gets and applies the rest operator by operator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .statevector import BLOCK_ROUND, GLOBAL_ROUND, OperatorTag  # noqa: F401 - GLOBAL_ROUND re-exported
from .statevector import DENSE_CAP, BlockConfig, DenseState, InvalidInstanceError
from .statevector import _NORM_ATOL, _check_dense_cap

# Largest rotation of one Grover stage, on either backend: float64 loses about
# 1e-16 per radian, so 2**12 rad keeps all 12 printed digits of a probability.
_MAX_ROTATION = 2.0**12


@dataclass(frozen=True)
class ReducedState:
    cfg: BlockConfig
    a: float
    b: float
    c: float
    d: float = 0.0
    moved_out: bool = False
    queries: int = 0

    def __post_init__(self) -> None:
        norm2 = self.norm_squared()
        if abs(norm2 - 1.0) > _NORM_ATOL:
            raise ValueError(f"reduced state is not normalized: |amp|^2 = {norm2!r}")

    def norm_squared(self) -> float:
        n, m = self.cfg.n_addresses, self.cfg.block_size
        return self.a**2 + (m - 1) * self.b**2 + (n - m) * self.c**2 + self.d**2

    def target_probability(self) -> float:
        return self.a**2 + self.d**2

    def block_probabilities(self) -> tuple[float, ...]:
        """Probability of each block index, summed over ancilla branches; refuses K > DENSE_CAP."""
        k, m = self.cfg.n_blocks, self.cfg.block_size
        if k > DENSE_CAP:
            raise InvalidInstanceError(f"K={k} exceeds {DENSE_CAP}, the most blocks a report lists")
        probs = [m * self.c**2] * k
        probs[self.cfg.target_block] = self.a**2 + (m - 1) * self.b**2 + self.d**2
        return tuple(probs)


def reduced_init(cfg: BlockConfig) -> ReducedState:
    """Uniform superposition: a = b = c = 1/sqrt(N), nothing moved out."""
    amp = 1.0 / math.sqrt(cfg.n_addresses)
    return ReducedState(cfg, amp, amp, amp)


def reduced_apply(state: ReducedState, op: OperatorTag) -> ReducedState:
    """Apply one operator in closed form on the invariant subspace."""
    n, m = state.cfg.n_addresses, state.cfg.block_size
    a, b, c, d = state.a, state.b, state.c, state.d
    moved_out, queries = state.moved_out, state.queries

    if op is OperatorTag.ORACLE:
        a, d, queries = -a, -d, queries + 1
    elif op is OperatorTag.GLOBAL_DIFFUSION:
        if moved_out:
            raise ValueError("global diffusion is defined on ancilla-free states")
        mean = (a + (m - 1) * b + (n - m) * c) / n
        a, b, c = 2 * mean - a, 2 * mean - b, 2 * mean - c
    elif op is OperatorTag.BLOCK_DIFFUSION:
        if moved_out:
            raise ValueError("block diffusion is defined on ancilla-free states")
        # Non-target blocks are uniform at c, so their inversion is the identity.
        mean_t = (a + (m - 1) * b) / m
        a, b = 2 * mean_t - a, 2 * mean_t - b
    elif op is OperatorTag.STEP3:
        if moved_out:
            raise ValueError("step 3 may be applied at most once")
        mean0 = ((m - 1) * b + (n - m) * c) / n
        a, b, c, d = 2 * mean0, 2 * mean0 - b, 2 * mean0 - c, a
        moved_out, queries = True, queries + 1
    else:
        raise ValueError(f"unknown operator {op!r}")
    return ReducedState(state.cfg, a, b, c, d, moved_out, queries)


def _reduced_rounds(state: ReducedState, round_ops: tuple[OperatorTag, ...], count: int) -> ReducedState:
    """``count`` block or global Grover rounds of a state before step 3, as one rotation."""
    n, m = state.cfg.n_addresses, state.cfg.block_size
    a, b, c = state.a, state.b, state.c
    if round_ops == BLOCK_ROUND:
        a, b = _grover_rounds(a, b, m, count)
    else:
        mu = ((m - 1) * b + (n - m) * c) / (n - 1)
        a, mu_out = _grover_rounds(a, mu, n, count)
        sign = -1.0 if count % 2 else 1.0
        b, c = mu_out + sign * (b - mu), mu_out + sign * (c - mu)
    return ReducedState(state.cfg, a, b, c, state.d, False, state.queries + count)


def _check_grover_rounds(count: int, size: int) -> None:
    """Refuse more Grover rounds of size ``size`` than turn _MAX_ROTATION (size 1 turns pi a round)."""
    most = int(_MAX_ROTATION / (2 * math.asin(1.0 / math.sqrt(size))))
    if count > most:  # checked before count meets a float: it may exceed any float
        raise InvalidInstanceError(
            f"{count} Grover rounds exceed {most}, the most one stage turns at full precision"
        )


def _grover_rounds(a: float, w: float, size: int, count: int) -> tuple[float, float]:
    """``count`` rounds of negating a, then inverting a and size - 1 copies of w about their mean."""
    if size == 1:
        # No w addresses: a round negates a and maps w to -w - 2a (w is never observed).
        sign = -1.0 if count % 2 else 1.0
        return sign * a, sign * (w + 2 * count * a)
    angle = count * (2 * math.asin(1.0 / math.sqrt(size)))
    cos, sin, root = math.cos(angle), math.sin(angle), math.sqrt(size - 1)
    return cos * a + sin * root * w, cos * w - sin * a / root


def lift_to_dense(state: ReducedState) -> DenseState:
    """Expand to the dense backend, exact to the last bit of the stored reals."""
    cfg = state.cfg
    n, m = cfg.n_addresses, cfg.block_size
    _check_dense_cap(n)
    import numpy as np
    block_lo = cfg.target_block * m
    branch0 = np.full(n, state.c)
    branch0[block_lo : block_lo + m] = state.b
    branch0[cfg.target] = state.a
    if not state.moved_out:
        return DenseState(branch0, n, has_ancilla=False, queries=state.queries)
    amp = np.zeros(2 * n)
    amp[0::2] = branch0
    amp[2 * cfg.target + 1] = state.d
    return DenseState(amp, n, has_ancilla=True, queries=state.queries)
