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
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .statevector import BlockConfig, DenseState, _check_dense_cap

_NORM_ATOL = 1e-9


class OperatorTag(enum.Enum):
    """The operators a pipeline script may contain."""

    ORACLE = "oracle"
    GLOBAL_DIFFUSION = "global_diffusion"
    BLOCK_DIFFUSION = "block_diffusion"
    STEP3 = "step3"


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

    def block_probabilities(self) -> np.ndarray:
        """Probability of each block index, summed over ancilla branches."""
        n, k, m = self.cfg.n_addresses, self.cfg.n_blocks, self.cfg.block_size
        probs = np.full(k, m * self.c**2)
        probs[self.cfg.target_block] = self.a**2 + (m - 1) * self.b**2 + self.d**2
        return probs


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


def lift_to_dense(state: ReducedState) -> DenseState:
    """Expand to the dense backend, exact to the last bit of the stored reals."""
    cfg = state.cfg
    n, m = cfg.n_addresses, cfg.block_size
    _check_dense_cap(n)
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
