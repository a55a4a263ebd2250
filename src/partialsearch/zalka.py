"""Numeric checks behind the erring-search query lower bound.

The bound follows Zalka's hybrid style of argument: compare a run of the
algorithm against runs where the first few oracle calls are replaced by
the identity.  Three facts carry the proof, and each has an exact or
sampled check here:

  * swapping one oracle call changes the final state by an angle of at
    most 2 arcsin sqrt(p), p the probability that the skipped query would
    have touched the marked address; it holds with equality at every
    oracle call, so only a step-3 call has slack (`hybrid_step_margins`);
  * summed over marked addresses, the final states of the real runs sit
    far from the oracle-free run (`total_angle_sum`, reported against
    (pi/2) N since the hidden constant is not pinned);
  * sum_y arcsin sqrt(p_y) over a probability vector is maximized by the
    uniform vector (`max_arcsin_probability_sum`).

`zalka_error_bound` evaluates the resulting query floor
(pi/4) sqrt(N) (1 - C (sqrt(err) + N^(-1/4))) with the hidden constant C
exposed as a parameter.

Angles between unit states are the ray angle arccos |<v|w>|, which ignores
global sign, evaluated as 2 arcsin(min(|v - w|, |v + w|) / 2) to keep full
precision at small angles, where arccos of an overlap near 1 loses it.
Every run is simulated and held on the reduced backend (a hybrid run starts
past its identity call's round), and both hybrid checks take their angles
from reduced runs through one multiplicity-weighted distance, so no run is
lifted: a trajectory and its margins reach N = 2**52 with at most 2**16
queries, and the angle sum, one reduced run, N = 2**52.
Only `max_arcsin_probability_sum` imports numpy, on first use: the hybrid
checks and `zalka_error_bound` run without it.
"""
from __future__ import annotations

import math
import warnings
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

from .partial_search import Script, _group_stages, apply_script, apply_stages, validate_script
from .reduced import OperatorTag, ReducedState, reduced_init
from .statevector import MAX_N, BlockConfig, InvalidInstanceError, Record

_ORACLE_CALLS = (OperatorTag.ORACLE, OperatorTag.STEP3)
# Most queries a trajectory runs: T + 1 reduced runs of about 400 B each, about 25 MB and 1-3 s in all.
MAX_TRAJECTORY_QUERIES = 2**16
# Most floats one batch of sampled probability vectors holds: 16 MiB.
_CHUNK_FLOATS = 2**21


def _reduced_angle(v: ReducedState, w: ReducedState) -> float:
    """The ray angle arccos |<v|w>| of two reduced states of one config, from multiplicity-weighted distances."""
    n, m = v.cfg.n_addresses, v.cfg.block_size

    def dist2(s: float) -> float:  # |v - s * w|^2
        b2, c2 = (m - 1) * (v.b - s * w.b) ** 2, (n - m) * (v.c - s * w.c) ** 2
        return (v.a - s * w.a) ** 2 + b2 + c2 + (v.d - s * w.d) ** 2

    return 2.0 * math.asin(min(1.0, math.sqrt(min(dist2(1.0), dist2(-1.0))) / 2.0))


def zalka_error_bound(n: int, err: float, hidden_const: float = 1.0) -> float:
    """Query floor for search algorithms that err with probability <= err.

    The closed form is (pi/4) sqrt(N) (1 - C (sqrt(err) + N^(-1/4))),
    floored at zero.  The derivation assumes N >= 100 and err <= 0.1;
    outside that regime the value is still computed but tagged with a
    warning.
    """
    if not 1 <= n <= MAX_N:
        raise InvalidInstanceError(f"N must be in [1, 2**52], got {n}")
    if not 0.0 <= err <= 1.0:
        raise InvalidInstanceError(f"error probability must be in [0, 1], got {err}")
    if not 0.0 < hidden_const < math.inf:
        raise InvalidInstanceError(f"hidden_const must be positive and finite, got {hidden_const}")
    if n < 100 or err > 0.1:
        warnings.warn(
            f"outside the bound's stated regime (N >= 100, err <= 0.1): N={n}, err={err}",
            stacklevel=2,
        )
    value = (math.pi / 4.0) * math.sqrt(n) * (1.0 - hidden_const * (math.sqrt(err) + n**-0.25))
    return max(0.0, value)


class HybridTrajectory(Record):
    """Final states of hybrid-oracle runs for one marked address.

    ``states[i]`` is the reduced final state when the first T-i oracle calls
    are the identity and the last i are real (T = total query count); so
    states[0] is the oracle-free run and states[T] the real run.  Each reads
    back at every N; ``lift_to_dense(states[i])`` gives its amplitudes where
    N allows.  N, the target and the script are the caller's own arguments.
    """

    states: tuple[ReducedState, ...]

    @property
    def n_queries(self) -> int:
        return len(self.states) - 1


def hybrid_trajectory(n: int, script: Script, target: int, n_blocks: int = 1) -> HybridTrajectory:
    """Build all T+1 hybrid runs of a script on the reduced backend.

    The script's stages are Grover rounds and lone operators, so an oracle call
    leads its round and the rest of that round is a diffusion.  Diffusions fix
    the uniform state and an identity call does nothing, so the run with j
    identity calls is the reduced uniform state with j queries counted (moved
    out if call j was STEP3), then the rest of call j's stage and the later
    stages.  T is counted from the stages, and more than
    MAX_TRAJECTORY_QUERIES queries are refused before any run.
    """
    stages = _group_stages(validate_script(script))
    n_queries = sum(count for ops, count in stages if ops[0] in _ORACLE_CALLS)
    if n_queries > MAX_TRAJECTORY_QUERIES:
        raise InvalidInstanceError(
            f"N={n} with T={n_queries} queries exceeds {MAX_TRAJECTORY_QUERIES}, the most a trajectory runs"
        )
    cfg = BlockConfig(n, n_blocks, target)
    u = reduced_init(cfg)
    runs = [apply_stages(u, stages, cfg)]  # no identity call: the real run
    for s, (ops, count) in enumerate(stages):  # run j = len(runs) makes call j its last identity
        for r in range(count if ops[0] in _ORACLE_CALLS else 0):
            state = ReducedState(cfg, u.a, u.b, u.c, moved_out=ops[0] is OperatorTag.STEP3, queries=len(runs))
            runs.append(apply_stages(state, [(ops, count - r - 1), *stages[s + 1 :]], cfg))
    return HybridTrajectory(tuple(reversed(runs)))


class _Margins(tuple):
    def min(self) -> float:  # the array-style read that callers use
        return min(self)


def hybrid_step_margins(traj: HybridTrajectory) -> _Margins:
    """Slack in the per-swap bound angle <= 2 arcsin sqrt(p), one float per query.

    Entry i-1 compares states i-1 and i (the runs differing in query T-i+1)
    against 2 arcsin sqrt(1/N): the oracle-free run is uniform before every
    query, since diffusions fix it, so the bound holds with equality at an
    oracle call (margin 0 to rounding); a STEP3 call has 2 arcsin(N^-1/2) -
    2 arcsin((2N)^-1/2).  A negative margin beyond rounding falsifies the
    bound.  The angles come from the reduced runs, without numpy.
    """
    runs = traj.states
    bound = 2.0 * math.asin(1.0 / math.sqrt(runs[0].cfg.n_addresses))
    return _Margins(bound - _reduced_angle(v, w) for v, w in zip(runs, runs[1:]))


def total_angle_sum(n: int, script: Script, n_blocks: int = 1) -> tuple[float, float]:
    """Sum over marked addresses of the angle between real and oracle-free runs.

    Returns (sum, (pi/2) * N).  The bound's hidden constant is not pinned,
    so this is a diagnostic ratio rather than a pass/fail check; a
    zero-query script gives sum 0.  The oracle-free run ends uniform and the
    reduced run is the same for every marked address: N times one angle,
    taken from the multiplicity-weighted distances to the uniform state.
    """
    cfg = BlockConfig(n, n_blocks, 0)
    start = reduced_init(cfg)
    return n * _reduced_angle(apply_script(start, script, cfg), start), (math.pi / 2.0) * n


def max_arcsin_probability_sum(n: int, samples: int, seed: int) -> float:
    """Largest observed sum_y arcsin sqrt(p_y) over sampled probability vectors.

    Samples the simplex uniformly (flat Dirichlet) and adds the corners where
    a violation of the uniform-maximizer claim would show up: point masses,
    two-point mixtures, and near-uniform perturbations.  The claimed maximum
    is N * arcsin(1/sqrt(N)), attained by the uniform vector.
    """
    if not 2 <= n <= _CHUNK_FLOATS or samples < 1 or seed < 0:  # N = 1 has no two-point mixtures; a batch holds a row
        raise InvalidInstanceError(f"need 2 <= N <= 2**21, samples >= 1, seed >= 0; "
                                   f"got N={n}, samples={samples}, seed={seed}")
    import numpy as np
    rng = np.random.default_rng(seed)
    rows = _CHUNK_FLOATS // n  # drawn in chunks in stream order, so the draws do not depend on the chunk

    def dirichlet_max(alpha: float, size: int) -> float:
        draws = (rng.dirichlet(np.full(n, alpha), size=min(rows, size - lo)) for lo in range(0, size, rows))
        return max(map(_arcsin_sum, draws))

    best = max(_arcsin_sum(np.full((1, n), 1.0 / n)), dirichlet_max(1.0, samples))
    # Every point mass sums to arcsin 1, and a two-point row's zeros add nothing, so one row and two columns do.
    mix = np.linspace(0.0, 1.0, 201)
    best = max(best, _arcsin_sum(np.eye(1, n)), _arcsin_sum(np.column_stack([mix, 1.0 - mix])))
    return max(best, dirichlet_max(1000.0, 2000))  # near-uniform perturbations


def _arcsin_sum(p: np.ndarray) -> float:
    import numpy as np
    return float(np.arcsin(np.sqrt(np.clip(p, 0.0, 1.0))).sum(axis=1).max())
