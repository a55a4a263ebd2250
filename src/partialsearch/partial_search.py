"""The three-step partial search pipeline, end to end.

Step 1 runs l1 = round((pi/4)(1-eps) sqrt(N)) plain amplification steps,
stopping short of the target.  Step 2 runs l2 = round((sqrt(N/K)/2)
(theta1+theta2)) blockwise steps, driving the non-target states of the
target block to negative amplitudes.  Step 3 moves the target out to an
ancilla and inverts branch 0 about its mean, cancelling the non-target
blocks; it costs one final query, so a standard run makes l1 + l2 + 1
queries in total.

Pipelines are expressed as scripts (sequences of operator tags) that run
on either backend through one runner, `iter_script`, which every run here
and in `zalka` uses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import analysis, statevector
from .analysis import CostBreakdown
from .reduced import OperatorTag, ReducedState, reduced_apply, reduced_init
from .statevector import DENSE_CAP, BlockConfig, DenseState, InvalidInstanceError

Script = Sequence[OperatorTag]

# The two-query walkthrough for tiny instances: one blockwise round, one
# global round, no ancilla transfer.  On N=12, K=3 it ends with the whole
# amplitude in the target block.
TWELVE_ITEM_SCRIPT: tuple[OperatorTag, ...] = (
    OperatorTag.ORACLE,
    OperatorTag.BLOCK_DIFFUSION,
    OperatorTag.ORACLE,
    OperatorTag.GLOBAL_DIFFUSION,
)


@dataclass(frozen=True)
class RunReport:
    """Measurement summary of one pipeline run."""

    n_addresses: int
    n_blocks: int
    target: int
    backend: str
    queries: int
    block_probs: tuple[float, ...]
    success_prob: float
    target_prob: float
    predicted_block: int
    epsilon: float | None = None
    l1: int | None = None
    l2: int | None = None


def validate_script(script: Script) -> None:
    for op in script:
        if not isinstance(op, OperatorTag):
            raise ValueError(f"not an operator tag: {op!r}")
    if OperatorTag.STEP3 in script[:-1]:
        raise ValueError("step 3 may appear at most once, as the last operator")


def grover_script(steps: int) -> tuple[OperatorTag, ...]:
    if steps < 0:
        raise InvalidInstanceError(f"steps must be >= 0, got {steps}")
    return (OperatorTag.ORACLE, OperatorTag.GLOBAL_DIFFUSION) * steps


def standard_pipeline_script(l1: int, l2: int) -> tuple[OperatorTag, ...]:
    """l1 global rounds, l2 blockwise rounds, then the ancilla transfer."""
    return (
        (OperatorTag.ORACLE, OperatorTag.GLOBAL_DIFFUSION) * l1
        + (OperatorTag.ORACLE, OperatorTag.BLOCK_DIFFUSION) * l2
        + (OperatorTag.STEP3,)
    )


def iteration_counts(
    n: int, k: int, epsilon: float, exact_theta: bool = False
) -> tuple[int, int, CostBreakdown]:
    """Integer step counts (l1, l2) for the pipeline, plus the angle breakdown.

    By default the step-2 angles use the large-N convention theta =
    (pi/2) * epsilon, which is how the query-count table is derived.  With
    ``exact_theta`` the angle actually reached after the rounded l1 steps,
    pi/2 - (2 l1 + 1) arcsin(1/sqrt(N)), is used instead (small-N studies).
    """
    if k < 2:
        raise InvalidInstanceError(f"partial search needs K >= 2, got K={k}")
    if n % k:
        raise InvalidInstanceError(f"K={k} does not divide N={n}")
    if not 0.0 <= epsilon <= 1.0:
        raise InvalidInstanceError(f"epsilon={epsilon} outside [0, 1]")
    l1 = round((math.pi / 4.0) * (1.0 - epsilon) * math.sqrt(n))
    if exact_theta:
        theta = max(0.0, math.pi / 2.0 - (2 * l1 + 1) * math.asin(1.0 / math.sqrt(n)))
    else:
        theta = analysis.theta_of_epsilon(epsilon)
    # theta1's argument never exceeds 1; theta2 raises naming sin(theta) <= 2/sqrt(K).
    l2 = round((math.sqrt(n / k) / 2.0) * (analysis.theta1(theta, k) + analysis.theta2(theta, k)))
    return l1, l2, analysis.breakdown_for_theta(theta, k, epsilon)


def apply_operator(state, op: OperatorTag, cfg: BlockConfig | None = None):
    """Apply one tagged operator to a dense or reduced state."""
    if isinstance(state, ReducedState):
        if cfg is not None and cfg != state.cfg:
            raise InvalidInstanceError("config does not match the reduced state")
        return reduced_apply(state, op)
    if cfg is None:
        raise ValueError("dense states need an explicit config")
    if op is OperatorTag.ORACLE:
        return statevector.invert_target(state, cfg)
    if op is OperatorTag.GLOBAL_DIFFUSION:
        return statevector.global_diffusion(state)
    if op is OperatorTag.BLOCK_DIFFUSION:
        return statevector.block_diffusion(state, cfg)
    if op is OperatorTag.STEP3:
        if not state.has_ancilla:
            state = statevector.attach_ancilla(state)
        return statevector.step3_transfer(state, cfg)
    raise ValueError(f"unknown operator {op!r}")


def iter_script(state, script: Script, cfg: BlockConfig | None = None):
    """Yield the state after each operator of the script, in order."""
    script = tuple(script)  # validation must not exhaust a one-shot iterator
    validate_script(script)
    for op in script:
        state = apply_operator(state, op, cfg)
        yield state


def apply_script(state, script: Script, cfg: BlockConfig | None = None):
    """The state after the whole script (the input state for an empty one)."""
    for state in iter_script(state, script, cfg):
        pass
    return state


def script_stages(cfg: BlockConfig, script: Script, backend: str = "dense") -> list:
    """Initial state plus the state after each operator, in order."""
    state = _initial_state(cfg, backend)
    return [state, *iter_script(state, script, cfg)]


def run_partial_search(
    cfg: BlockConfig,
    epsilon: float | None = None,
    backend: str = "reduced",
    exact_theta: bool = False,
    dense_cap: int = DENSE_CAP,
) -> RunReport:
    """Run the full three-step pipeline and measure.

    With no epsilon the optimizer's choice for this K is used.
    """
    if epsilon is None:
        epsilon, _ = analysis.optimize_epsilon(cfg.n_blocks)
    l1, l2, breakdown = iteration_counts(cfg.n_addresses, cfg.n_blocks, epsilon, exact_theta)
    script = standard_pipeline_script(l1, l2)
    state = apply_script(_initial_state(cfg, backend, dense_cap), script, cfg)
    return _report(state, cfg, backend, epsilon=epsilon, l1=l1, l2=l2)


def run_full_grover(
    cfg: BlockConfig, steps: int, backend: str = "reduced", dense_cap: int = DENSE_CAP
) -> RunReport:
    """Plain amplitude amplification for a given number of steps."""
    state = apply_script(_initial_state(cfg, backend, dense_cap), grover_script(steps), cfg)
    return _report(state, cfg, backend, l1=steps, l2=0)


def run_script(cfg: BlockConfig, script: Script, backend: str = "dense") -> RunReport:
    state = apply_script(_initial_state(cfg, backend), script, cfg)
    return _report(state, cfg, backend)


def _initial_state(cfg: BlockConfig, backend: str, dense_cap: int = DENSE_CAP):
    if backend == "dense":
        return statevector.uniform_state(cfg.n_addresses, cap=dense_cap)
    if backend == "reduced":
        return reduced_init(cfg)
    raise ValueError(f"unknown backend {backend!r}; expected 'dense' or 'reduced'")


def _report(state, cfg: BlockConfig, backend: str, **extra) -> RunReport:
    if isinstance(state, ReducedState):
        block_probs = state.block_probabilities()
        target_prob = state.target_probability()
    else:
        block_probs = statevector.block_probabilities(state, cfg)
        target_prob = float(state.address_probabilities()[cfg.target])
    return RunReport(
        n_addresses=cfg.n_addresses,
        n_blocks=cfg.n_blocks,
        target=cfg.target,
        backend=backend,
        queries=state.queries,
        block_probs=tuple(float(p) for p in block_probs),
        success_prob=float(block_probs[cfg.target_block]),
        target_prob=target_prob,
        predicted_block=int(np.argmax(block_probs)),
        **extra,
    )
