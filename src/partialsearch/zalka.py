"""Numeric checks behind the erring-search query lower bound.

The bound follows Zalka's hybrid style of argument: compare a run of the
algorithm against runs where the first few oracle calls are replaced by
the identity.  Three facts carry the proof, and each has an exact or
sampled check here:

  * swapping one oracle call changes the final state by an angle of at
    most 2 arcsin sqrt(p), p the probability that the skipped query would
    have touched the marked address (`hybrid_step_margins`);
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
Every run is simulated on the reduced backend: a trajectory lifts a hybrid
run to a dense state on each read, so its margins lift at most 2**28
amplitudes (2 GiB) in all, two at a time, and the angle sum comes from one
reduced run, so it holds up to N = 2**52.  The array checks import numpy
on first use, so `zalka_error_bound` and `total_angle_sum` run without it.
"""
from __future__ import annotations

import math
import warnings
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

from .partial_search import Script, apply_script
from .reduced import OperatorTag, ReducedState, lift_to_dense, reduced_init
from .statevector import MAX_N, BlockConfig, DenseState, InvalidInstanceError, Record

_ORACLE_CALLS = (OperatorTag.ORACLE, OperatorTag.STEP3)
# Most amplitudes the margins of one trajectory lift in all, one run at a time: 2 GiB of float64.
MAX_TRAJECTORY_AMPLITUDES = 2**28
# Most floats one batch of sampled probability vectors holds: 16 MiB.
_CHUNK_FLOATS = 2**21


def angle_distance(v, w) -> float:
    """Angle between the rays of real unit states (arrays or dense states)."""
    import numpy as np
    va = _as_unit_array(v)
    wa = _as_unit_array(w)
    return _ray_angle(float(np.sum((va - wa) ** 2)), float(np.sum((va + wa) ** 2)))


def _ray_angle(dist2_minus: float, dist2_plus: float) -> float:
    """arccos |<v|w>| for unit v, w, from |v - w|**2 and |v + w|**2."""
    return 2.0 * math.asin(min(1.0, math.sqrt(min(dist2_minus, dist2_plus)) / 2.0))


def _as_unit_array(v) -> np.ndarray:
    import numpy as np
    arr = np.asarray(getattr(v, "amplitudes", v))
    norm = float(np.linalg.norm(arr))
    if np.iscomplexobj(arr) or not abs(norm - 1.0) <= 1e-6:
        raise ValueError(f"expected a real unit state, got {arr.dtype} with norm {norm!r}")
    return arr


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


class _LiftedRuns(Record):
    """Reduced runs read as dense states: each read lifts one run afresh."""

    runs: tuple[ReducedState, ...]

    def __len__(self) -> int:
        return len(self.runs)

    def __getitem__(self, i: int) -> DenseState:  # an IndexError past the end also ends iteration
        return lift_to_dense(self.runs[i])


class HybridTrajectory(Record):
    """Final states of hybrid-oracle runs for one marked address.

    ``states[i]`` is the final state when the first T-i oracle calls are
    the identity and the last i are real (T = total query count); so
    states[0] is the oracle-free run and states[T] the real run.  The runs
    are held reduced; each read of ``states[i]`` lifts one to a new read-only
    dense state.  N, the target and the script are the caller's own arguments.
    """

    states: Sequence[DenseState]

    @property
    def n_queries(self) -> int:
        return len(self.states) - 1


def hybrid_trajectory(n: int, script: Script, target: int, n_blocks: int = 1) -> HybridTrajectory:
    """Build all T+1 hybrid runs of a script on the reduced backend; ``states`` lifts them on read.

    Diffusions fix the uniform state and an identity call does nothing, so the
    run with j identity calls is the reduced uniform state with j queries
    counted (moved out if call j was STEP3), then the script after call j.
    The margins lift every run once: more than MAX_TRAJECTORY_AMPLITUDES
    amplitudes in all are refused before any run.
    """
    script = tuple(script)
    cfg = BlockConfig(n, n_blocks, target)
    calls = [i for i, op in enumerate(script) if op in _ORACLE_CALLS]
    amplitudes = (len(calls) + 1) * (2 * n if OperatorTag.STEP3 in script else n)
    if amplitudes > MAX_TRAJECTORY_AMPLITUDES:
        raise InvalidInstanceError(
            f"N={n} with T={len(calls)} queries needs {amplitudes} amplitudes of hybrid runs, "
            f"more than the {MAX_TRAJECTORY_AMPLITUDES} its margins may lift"
        )
    uniform = reduced_init(cfg)
    states = []
    for j in range(len(calls), -1, -1):  # j leading oracle calls are the identity
        start = calls[j - 1] + 1 if j else 0
        moved_out = j > 0 and script[start - 1] is OperatorTag.STEP3
        state = ReducedState(cfg, uniform.a, uniform.b, uniform.c, moved_out=moved_out, queries=j)
        states.append(apply_script(state, script[start:], cfg))
    return HybridTrajectory(_LiftedRuns(tuple(states)))


def hybrid_step_margins(traj: HybridTrajectory) -> np.ndarray:
    """Slack in the per-swap bound angle <= 2 arcsin sqrt(p), one entry per query.

    Entry i-1 compares states i-1 and i (the runs differing in query T-i+1)
    against 2 arcsin sqrt(1/N): the oracle-free run is uniform before every
    query, since diffusions fix it.  All entries should be >= -1e-9; a
    negative margin beyond floating error falsifies the bound.  The runs are
    read in order, each lifted once, so at most two dense states are alive.
    """
    import numpy as np
    runs = iter(traj.states)
    u = 1.0 / math.sqrt((prev := next(runs)).n_addresses)
    bound = 2.0 * math.asin(math.sqrt(u * u))
    margins = np.empty(traj.n_queries)
    for i, state in enumerate(runs):
        margins[i], prev = bound - angle_distance(prev, state), state
    return margins


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
    real = apply_script(start, script, cfg)
    m, u = cfg.block_size, start.a

    def dist2(sign: float) -> float:  # |real - sign * uniform|^2
        v = sign * u
        return (real.a - v) ** 2 + (m - 1) * (real.b - v) ** 2 + (n - m) * (real.c - v) ** 2 + real.d**2

    return n * _ray_angle(dist2(1.0), dist2(-1.0)), (math.pi / 2.0) * n


def max_arcsin_probability_sum(n: int, samples: int, seed: int) -> float:
    """Largest observed sum_y arcsin sqrt(p_y) over sampled probability vectors.

    Samples the simplex uniformly (flat Dirichlet) and adds the corners where
    a violation of the uniform-maximizer claim would show up: point masses,
    two-point mixtures, and near-uniform perturbations.  The claimed maximum
    is N * arcsin(1/sqrt(N)), attained by the uniform vector.
    """
    if n < 2 or samples < 1 or seed < 0:  # N = 1 has no two-point mixtures
        raise InvalidInstanceError(f"need N >= 2, samples >= 1, seed >= 0; got N={n}, samples={samples}, seed={seed}")
    import numpy as np
    rng = np.random.default_rng(seed)
    rows = max(1, _CHUNK_FLOATS // n)  # drawn in chunks in stream order, so the draws do not depend on the chunk

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
