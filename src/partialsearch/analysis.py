"""Query-count calculus for the three-step partial search algorithm.

The free parameter epsilon in [0, 1] controls how early the global
amplification stops: after step 1 the state sits at angle
theta = (pi/2) * epsilon from the target.  The blockwise phase must then
sweep the target-block vector through theta1 + theta2, where

    alpha_t = sqrt(1 - ((K-1)/K) sin^2 theta)           target-block weight
    theta1  = arcsin(sin theta / (alpha_t sqrt(K)))     start angle
    theta2  = arcsin((K-2) sin theta / (2 alpha_t sqrt(K)))   overshoot angle

and the cost per sqrt(N) of the whole run is

    f(eps, K) = (pi/4)(1 - eps) + (theta1 + theta2) / (2 sqrt(K)).

theta2's arcsin argument stays within 1 only while sin theta <= 2/sqrt(K);
beyond that the parameter choice is infeasible.  f is written once, in
`breakdown_for_theta`; `optimize_epsilon` minimizes it over the feasible
interval, one scalar evaluation at a time, and reproduces the known
query-count table.  The remaining functions give the matching lower bound,
the naive block-restricted baseline, and the large-K guarantee in closed form.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .statevector import MAX_N, InvalidInstanceError

# Arguments in (1, 1 + _CLAMP] count as exactly 1: floating point grazing the
# feasibility wall must not turn a boundary optimum into an error.
_CLAMP = 1e-12

_GRID_STEP = 1e-4
_MIN_GRID_POINTS = 65
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class InfeasibleEpsilonError(InvalidInstanceError):
    """The requested (epsilon, K) puts an arcsin argument above 1."""


@dataclass(frozen=True)
class CostBreakdown:
    """Step-2 angles and queries per sqrt(N) for the caller's (epsilon, K); None where infeasible."""

    theta1: float | None
    theta2: float | None
    coefficient: float | None
    feasible: bool


def theta_of_epsilon(epsilon: float) -> float:
    """Angle left between state and target after step 1 stops early."""
    return (math.pi / 2.0) * epsilon


def alpha_target(theta: float, k: int) -> float:
    """Amplitude weight of the target block after step 1."""
    if not 0.0 <= theta <= math.pi / 2.0 + 1e-12:
        raise ValueError(f"theta={theta} outside [0, pi/2]")
    if k < 1:
        raise InvalidInstanceError(f"K={k} must be >= 1")
    return math.sqrt(1.0 - ((k - 1) / k) * math.sin(theta) ** 2)


def theta1(theta: float, k: int) -> float:
    """Initial in-block angle between the target-block vector and the target."""
    arg = math.sin(theta) / (alpha_target(theta, k) * math.sqrt(k))
    return _checked_arcsin(arg, "sin(theta) <= alpha_t * sqrt(K)")


def theta2(theta: float, k: int) -> float:
    """Overshoot angle that balances the non-target average at half c."""
    arg = (k - 2) * math.sin(theta) / (2.0 * alpha_target(theta, k) * math.sqrt(k))
    return _checked_arcsin(arg, "sin(theta) <= 2/sqrt(K)")


def _checked_arcsin(arg: float, bound_name: str) -> float:
    if arg > 1.0 + _CLAMP:
        raise InfeasibleEpsilonError(
            f"arcsin argument {arg!r} exceeds 1: violated bound {bound_name}"
        )
    return math.asin(min(arg, 1.0))


def cost_coefficient(epsilon: float, k: int) -> CostBreakdown:
    """Queries per sqrt(N) for the full pipeline at this (epsilon, K).

    Infeasible parameters are data, not errors: the breakdown comes back
    with feasible=False and no coefficient.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise InvalidInstanceError(f"epsilon={epsilon} outside [0, 1]")
    if k < 2:
        raise InvalidInstanceError(f"partial search needs K >= 2, got K={k}")
    return breakdown_for_theta(theta_of_epsilon(epsilon), k, epsilon)


def breakdown_for_theta(theta: float, k: int, epsilon: float) -> CostBreakdown:
    """Breakdown with an explicitly supplied theta in [0, pi/2] (exact-angle studies)."""
    try:
        t1 = theta1(theta, k)
        t2 = theta2(theta, k)
    except InfeasibleEpsilonError:
        return CostBreakdown(None, None, None, feasible=False)
    coeff = (math.pi / 4.0) * (1.0 - epsilon) + (t1 + t2) / (2.0 * math.sqrt(k))
    return CostBreakdown(t1, t2, coeff, feasible=True)


def feasible_epsilon_interval(k: int) -> tuple[float, float]:
    """The closed interval of epsilon values with all arcsin arguments <= 1."""
    if k < 2:
        raise InvalidInstanceError(f"partial search needs K >= 2, got K={k}")
    if k > MAX_N:
        raise InvalidInstanceError(f"K={k} exceeds 2**52, the largest N")
    if k <= 4:
        return 0.0, 1.0
    return 0.0, (2.0 / math.pi) * math.asin(2.0 / math.sqrt(k))


def optimize_epsilon(k: int, tol: float = 1e-9) -> tuple[float, float]:
    """Minimize f(eps, K) over the feasible interval.

    A 1e-4 grid locates the minimum, then golden-section search refines it:
    f can take its optimum on the boundary (K=2) and has an infinite-slope
    arcsin wall, so derivative-based methods are unsafe here.  f is unimodal
    on the grid, so bisection over grid indices finds the grid minimum and
    the 8 best grid points are the run around it.  Ties within tol resolve
    to the smallest epsilon (fewer step-2 iterations).
    """
    if not 0.0 < tol < math.inf:
        raise InvalidInstanceError(f"tol must be positive and finite, got {tol}")
    lo, hi = feasible_epsilon_interval(k)
    # At huge K the feasible interval is narrower than one grid step; the
    # floor keeps the grid from collapsing onto the single point eps=0.
    n_pts = max(int(round((hi - lo) / _GRID_STEP)) + 1, _MIN_GRID_POINTS)
    step = (hi - lo) / (n_pts - 1)

    def point(i: int) -> float:  # the grid np.linspace(lo, hi, n_pts) would give
        return hi if i == n_pts - 1 else lo + i * step

    @functools.cache
    def value(i: int) -> float:
        return _scalar_coefficient(point(i), k)

    best, right = 0, n_pts - 1  # bisect for the first index where f stops falling
    while best < right:
        mid = (best + right) // 2
        if value(mid) <= value(mid + 1):
            right = mid
        else:
            best = mid + 1
    run_lo = run_hi = best  # grow the 8 best grid points from the minimum
    for _ in range(7):
        if run_hi == n_pts - 1 or (run_lo > 0 and value(run_lo - 1) <= value(run_hi + 1)):
            run_lo -= 1
        else:
            run_hi += 1

    bracket_lo = point(max(best - 1, 0))
    bracket_hi = point(min(best + 1, n_pts - 1))
    refined = _golden_section(lambda e: _scalar_coefficient(e, k), bracket_lo, bracket_hi, tol)

    candidates = [(point(i), value(i)) for i in range(run_lo, run_hi + 1)]
    candidates.append((refined, _scalar_coefficient(refined, k)))
    best_val = min(v for _, v in candidates)
    eps_star, coeff_star = min((e, v) for e, v in candidates if v <= best_val + tol)
    return eps_star, coeff_star


def _scalar_coefficient(epsilon: float, k: int) -> float:
    bd = cost_coefficient(epsilon, k)
    return bd.coefficient if bd.feasible else math.inf


def _golden_section(f, lo: float, hi: float, tol: float) -> float:
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    width = math.inf
    # A bracket a few ulps wide stops shrinking; a tol below that must not loop forever.
    while tol < hi - lo < width:
        width = hi - lo
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
    return (lo + hi) / 2.0


def lower_bound_coefficient(k: int) -> float:
    """Query floor per sqrt(N) from reducing full search to repeated partial search."""
    if k < 1:
        raise InvalidInstanceError(f"K={k} must be >= 1")
    return (math.pi / 4.0) * (1.0 - 1.0 / math.sqrt(k))


def large_k_guarantee(k: int) -> float:
    """Closed-form upper bound on the optimal coefficient for large K.

    Evaluating at epsilon = 1/sqrt(K) with sin theta ~ theta gives
    (pi/4)(1 - C0/sqrt(K)) with C0 = 1 - (2/pi) arcsin(pi/4) ~ 0.425.
    """
    if k < 2:
        raise InvalidInstanceError(f"partial search needs K >= 2, got K={k}")
    c0 = 1.0 - (2.0 / math.pi) * math.asin(math.pi / 4.0)
    return (math.pi / 4.0) * (1.0 - c0 / math.sqrt(k))


def naive_quantum_coefficient(k: int) -> float:
    """Cost of plain amplitude amplification restricted to K-1 random blocks."""
    if k < 2:
        raise InvalidInstanceError(f"partial search needs K >= 2, got K={k}")
    return (math.pi / 4.0) * math.sqrt((k - 1) / k)


def reduction_total_queries(alpha_coeff: float, k: int, n: int) -> float:
    """Total queries when full search is solved by repeated partial searches.

    Each round shrinks the database by a factor K, so the per-round costs form
    a geometric series summing to alpha * sqrt(N) * sqrt(K)/(sqrt(K) - 1).
    """
    if k < 2:
        raise InvalidInstanceError(f"the reduction needs K >= 2, got K={k}")
    if alpha_coeff <= 0:
        raise InvalidInstanceError(f"alpha_coeff must be positive, got {alpha_coeff}")
    rk = math.sqrt(k)
    return alpha_coeff * math.sqrt(n) * rk / (rk - 1.0)
