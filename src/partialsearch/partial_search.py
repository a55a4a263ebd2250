"""The three-step partial search pipeline, end to end.

Step 1 runs l1 = round((pi/4)(1-eps) sqrt(N)) plain amplification steps,
stopping short of the target.  Step 2 runs l2 = round((sqrt(N/K)/2)
(theta1+theta2)) blockwise steps, driving the non-target states of the
target block to negative amplitudes.  Step 3 moves the target out to an
ancilla qubit, which the dense kernel adjoins once, at the end of the run,
and inverts branch 0 about its mean, cancelling the non-target blocks; its
one query makes a standard run l1 + l2 + 1 queries in total.

Pipelines are stages: one round of operator tags repeated `count` times,
so a standard run is three stages.  `apply_stages` checks every stage's
size before anything runs, then makes one call to the state's kernel,
`statevector.apply_stages` or `reduced.apply_stages`, with the whole list.
`apply_operator` is a one-operator stage, `apply_script` groups a flat
script into stages, and `script_stages` keeps every operator's state.

Dense work imports numpy on first use, so a reduced run never loads it.
"""
from __future__ import annotations

import math
from typing import Sequence

from . import analysis, reduced, statevector
from .analysis import CostBreakdown
# reduced_apply is bound here only for perfbench's test_instrument_restores_the_package.
from .reduced import ReducedState, reduced_apply, reduced_init  # noqa: F401
from .statevector import BLOCK_ROUND, GLOBAL_ROUND, MAX_N, BlockConfig, InvalidInstanceError, OperatorTag, Record
from .statevector import Stage

Script = Sequence[OperatorTag]

# Largest stage on either backend: float64 loses about 1e-16 per radian turned or
# per operator run, so 2**12 of either keeps all 12 printed digits of a probability.
_MAX_ROTATION = _MAX_OPERATORS = 2**12

# The two-query walkthrough for tiny instances: one blockwise round, one
# global round, no ancilla transfer.  On N=12, K=3 it ends with the whole
# amplitude in the target block.
TWELVE_ITEM_SCRIPT: tuple[OperatorTag, ...] = (
    OperatorTag.ORACLE,
    OperatorTag.BLOCK_DIFFUSION,
    OperatorTag.ORACLE,
    OperatorTag.GLOBAL_DIFFUSION,
)


class RunReport(Record):
    """What one pipeline run measured; the instance and backend are the caller's own arguments."""

    queries: int
    block_probs: tuple[float, ...]
    success_prob: float
    miss_prob: float  # summed over the non-target blocks, never 1 - success
    target_prob: float
    predicted_block: int
    epsilon: float | None = None
    l1: int | None = None
    l2: int | None = None


def validate_script(script: Script) -> tuple[OperatorTag, ...]:
    """The script as a checked tuple."""
    script = tuple(script)  # validation must not exhaust a one-shot iterator
    if not set(map(type, script)) <= {OperatorTag}:  # one C pass; the loop only names the first offender
        for op in script:
            if not isinstance(op, OperatorTag):
                raise ValueError(f"not an operator tag: {op!r}")
    if script.count(OperatorTag.STEP3) > script[-1:].count(OperatorTag.STEP3):  # one before the last; no copy
        raise ValueError("step 3 may appear at most once, as the last operator")
    return script


def grover_stages(steps: int) -> tuple[Stage, ...]:
    """Plain amplitude amplification: ``steps`` global rounds."""
    if steps < 0:
        raise InvalidInstanceError(f"steps must be >= 0, got {steps}")
    return ((GLOBAL_ROUND, steps),)


def standard_pipeline_stages(l1: int, l2: int) -> tuple[Stage, ...]:
    """l1 global rounds, l2 blockwise rounds, then the ancilla transfer."""
    if l1 < 0 or l2 < 0:
        raise InvalidInstanceError(f"step counts must be >= 0, got l1={l1}, l2={l2}")
    return ((GLOBAL_ROUND, l1), (BLOCK_ROUND, l2), ((OperatorTag.STEP3,), 1))


def grover_script(steps: int) -> tuple[OperatorTag, ...]:
    return _flatten(grover_stages(steps))


def standard_pipeline_script(l1: int, l2: int) -> tuple[OperatorTag, ...]:
    """l1 global rounds, l2 blockwise rounds, then the ancilla transfer."""
    return _flatten(standard_pipeline_stages(l1, l2))


def _flatten(stages: Sequence[Stage]) -> tuple[OperatorTag, ...]:
    return sum((round_ops * count for round_ops, count in stages), ())


def _group_stages(script: tuple[OperatorTag, ...]) -> list[Stage]:
    """Split a flat script into stages: runs of repeated Grover rounds, other operators one by one.  A run is matched
    by slice compares of 1, 2, 4, ... rounds, at most 2**12 at a time, then halved back: linear work, bounded copies."""
    stages: list[Stage] = []
    i = 0
    while i < len(script):
        pair = script[i : i + 2]
        if pair in (GLOBAL_ROUND, BLOCK_ROUND):
            count, step = 1, 1  # the first count rounds match; once a compare fails, the run is under count + step
            while script[i + 2 * count : i + 2 * (count + step)] == pair * step:
                count, step = count + step, min(2 * step, 2**12)
            while step > 1:
                step //= 2
                if script[i + 2 * count : i + 2 * (count + step)] == pair * step:
                    count += step
            stages.append((pair, count))
            i += 2 * count
        else:
            stages.append(((script[i],), 1))
            i += 1
    return stages


def iteration_counts(
    n: int, k: int, epsilon: float, exact_theta: bool = False
) -> tuple[int, int, CostBreakdown]:
    """Integer step counts (l1, l2) for the pipeline, plus the angle breakdown.

    By default the step-2 angles use the large-N convention theta =
    (pi/2) * epsilon, which is how the query-count table is derived.  With
    ``exact_theta`` the angle actually reached after the rounded l1 steps,
    pi/2 - (2 l1 + 1) arcsin(1/sqrt(N)), is used instead (small-N studies).
    """
    if not 2 <= n <= MAX_N:
        raise InvalidInstanceError(f"need N in [2, 2**52], got N={n}")
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
    bd = analysis.breakdown_for_theta(theta, k, epsilon)  # raises naming sin(theta) <= 2/sqrt(K) past the wall
    return l1, round((math.sqrt(n / k) / 2.0) * (bd.theta1 + bd.theta2)), bd


def apply_operator(state, op: OperatorTag, cfg: BlockConfig | None = None):
    """Apply one tagged operator to a dense or reduced state."""
    return apply_stages(state, [((op,), 1)], cfg)


def apply_script(state, script: Script, cfg: BlockConfig | None = None):
    """The state after the whole script (the input state for an empty one)."""
    return apply_stages(state, _group_stages(validate_script(script)), cfg)


def apply_stages(state, stages: Sequence[Stage], cfg: BlockConfig | None = None):
    """The state after every stage: all are checked, then the non-empty ones run in one call to the state's kernel."""
    dense = not isinstance(state, ReducedState)
    cfg = state.cfg if cfg is None and not dense else cfg
    run = []
    for round_ops, count in stages:
        if count < 0:
            raise ValueError(f"a stage needs count >= 0, got {count}")
        if count == 0:
            continue
        if cfg is None:
            raise ValueError("dense states need an explicit config")
        _check_stage(round_ops, count, cfg)
        run.append((round_ops, count))
    return (statevector if dense else reduced).apply_stages(state, run, cfg) if run else state


def _check_stage(round_ops: tuple[OperatorTag, ...], count: int, cfg: BlockConfig) -> None:
    """Refuse a Grover stage over _MAX_ROTATION rad, or any other stage over _MAX_OPERATORS operators."""
    most, what = _MAX_OPERATORS // max(len(round_ops), 1), f"rounds of {len(round_ops)} operator(s)"
    if round_ops in (GLOBAL_ROUND, BLOCK_ROUND):
        size = cfg.n_addresses if round_ops == GLOBAL_ROUND else cfg.block_size  # size 1 turns pi a round
        most, what = int(_MAX_ROTATION / (2 * math.asin(1.0 / math.sqrt(size)))), "Grover rounds"
    if count > most:  # checked before count meets a float: it may exceed any float
        raise InvalidInstanceError(f"{count} {what} exceed {most}, the most one stage turns at full precision")


def script_stages(cfg: BlockConfig, script: Script, backend: str = "dense") -> list:
    """Initial state plus the state after each operator, in order."""
    states = [_initial_state(cfg, backend)]
    for op in validate_script(script):
        states.append(apply_operator(states[-1], op, cfg))
    return states


def run_partial_search(
    cfg: BlockConfig, epsilon: float | None = None, backend: str = "reduced", exact_theta: bool = False
) -> RunReport:
    """Run the full three-step pipeline and measure.

    With no epsilon the optimizer's choice for this K is used.
    """
    if epsilon is None:
        epsilon, _ = analysis.optimize_epsilon(cfg.n_blocks)
    l1, l2, _ = iteration_counts(cfg.n_addresses, cfg.n_blocks, epsilon, exact_theta)
    state = apply_stages(_initial_state(cfg, backend), standard_pipeline_stages(l1, l2), cfg)
    return _report(state, cfg, epsilon=epsilon, l1=l1, l2=l2)


def run_full_grover(cfg: BlockConfig, steps: int, backend: str = "reduced") -> RunReport:
    """Plain amplitude amplification for a given number of steps."""
    state = apply_stages(_initial_state(cfg, backend), grover_stages(steps), cfg)
    return _report(state, cfg, l1=steps, l2=0)


def run_script(cfg: BlockConfig, script: Script, backend: str = "dense") -> RunReport:
    state = apply_script(_initial_state(cfg, backend), script, cfg)
    return _report(state, cfg)


def _initial_state(cfg: BlockConfig, backend: str):
    if backend == "dense":
        return statevector.uniform_state(cfg.n_addresses)
    if backend == "reduced":
        return reduced_init(cfg)
    raise ValueError(f"unknown backend {backend!r}; expected 'dense' or 'reduced'")


def _report(state, cfg: BlockConfig, **extra) -> RunReport:
    if isinstance(state, ReducedState):
        block_probs = state.block_probabilities()
        target_prob = state.target_probability()
        miss_prob = (cfg.n_addresses - cfg.block_size) * state.c**2
    else:
        block_probs = tuple(statevector.block_probabilities(state, cfg).tolist())
        target_prob = float(statevector._probabilities(state, cfg.target, cfg.target + 1)[0])
        miss_prob = math.fsum(p for block, p in enumerate(block_probs) if block != cfg.target_block)
    return RunReport(
        queries=state.queries,
        block_probs=block_probs,
        success_prob=block_probs[cfg.target_block],
        miss_prob=float(miss_prob),
        target_prob=target_prob,
        predicted_block=block_probs.index(max(block_probs)),  # ties go to the lowest index
        **extra,
    )
