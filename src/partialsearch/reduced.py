"""Symmetry-reduced backend: four real numbers instead of N amplitudes.

Every operator in the algorithm treats all non-target addresses of a block
alike, so throughout a run the state is fully described by

    a  amplitude of the target address (ancilla branch 0),
    b  common amplitude of the other N/K - 1 addresses in the target block,
    c  common amplitude of the N - N/K addresses in non-target blocks,
    d  amplitude of the moved-out target (ancilla branch 1, nonzero only
       after the step-3 move-out).

All dynamics are real reflections, so only reals are stored.  N enters the
arithmetic only through sqrt(N), N/K and means, so runs reach N = 2**52, but
step 3's cancellation 2*mean0 - c costs digits there (the README's notes).
Operators are closed-form conjugations of the dense ones onto this invariant
subspace; `lift_to_dense` expands back for comparison against the dense one.

A run is a few stages, each one round of operators repeated `count` times;
`apply_stages`, the twin of `statevector.apply_stages`, runs them all in one
call.  A Grover round (oracle, then inversion about the mean of M
amplitudes) rotates the target and the uniform rest of those M amplitudes
by 2 arcsin(1/sqrt(M)), so before step 3 `count` rounds are one rotation
(Boyer, Brassard, Hoyer, Tapp, quant-ph/9605034), which the dense kernel
shares: `statevector._grover_rounds`.  Block rounds rotate (a, sqrt(m - 1) b),
M = m = N/K, and leave c alone; global rounds rotate (a, sqrt(N - 1) mu),
M = N, mu the non-target mean, and flip the sign of b - mu and c - mu every
round.  Other stages run through `reduced_apply`.
"""
from __future__ import annotations

import math
from typing import Sequence

from .statevector import BLOCK_ROUND, GLOBAL_ROUND, OperatorTag, Stage
from .statevector import DENSE_CAP, BlockConfig, DenseState, InvalidInstanceError, Record
from .statevector import _NORM_ATOL, _ancilla_layout, _check_dense_cap, _grover_rounds


class ReducedState(Record):
    cfg: BlockConfig
    a: float
    b: float
    c: float
    d: float = 0.0
    moved_out: bool = False
    queries: int = 0

    def __post_init__(self) -> None:
        if self.d != 0 and not self.moved_out:
            raise InvalidInstanceError(f"d={self.d!r} is nonzero, but no amplitude was moved out to branch 1")
        norm2 = self.norm_squared()
        if not abs(norm2 - 1.0) <= _NORM_ATOL:
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


def apply_stages(state: ReducedState, stages: Sequence[Stage], cfg: BlockConfig) -> ReducedState:
    """Each stage's ``count`` rounds: Grover rounds before step 3 as one rotation, the rest operator by operator."""
    if cfg != state.cfg:
        raise InvalidInstanceError("config does not match the reduced state")
    n, m = cfg.n_addresses, cfg.block_size
    for round_ops, count in stages:
        if round_ops not in (GLOBAL_ROUND, BLOCK_ROUND) or state.moved_out:
            for _ in range(count):
                for op in round_ops:
                    state = reduced_apply(state, op)
            continue
        a, b, c = state.a, state.b, state.c
        if round_ops == BLOCK_ROUND:
            a, b = _grover_rounds(a, b, m, count)
        else:
            mu = ((m - 1) * b + (n - m) * c) / (n - 1)
            a, mu_out = _grover_rounds(a, mu, n, count)
            sign = -1.0 if count % 2 else 1.0
            b, c = mu_out + sign * (b - mu), mu_out + sign * (c - mu)
        state = ReducedState(cfg, a, b, c, state.d, False, state.queries + count)
    return state


def lift_to_dense(state: ReducedState) -> DenseState:
    """Expand to the dense backend, exact to the last bit of the stored reals."""
    cfg = state.cfg
    n, m = cfg.n_addresses, cfg.block_size
    _check_dense_cap(n)
    import numpy as np
    block_lo = cfg.target_block * m
    amp = _ancilla_layout(state.c, n, cfg.target, state.d) if state.moved_out else np.full(n, state.c)
    amp[block_lo : block_lo + m] = state.b
    amp[cfg.target] = state.a
    return DenseState(amp, n, has_ancilla=state.moved_out, queries=state.queries)
