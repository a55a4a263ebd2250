"""Query-count calculus for the three-step partial search algorithm.

The free parameter epsilon in [0, 1] controls how early the global
amplification stops: after step 1 the state sits at angle
theta = (pi/2) * epsilon from the target.  The blockwise phase must then
sweep the target-block vector through theta1 + theta2, where

    alpha_t = sqrt(1 - ((K-1)/K) sin^2 theta)           target-block weight
    theta1  = arcsin(sin theta / (alpha_t sqrt(K)))     start angle
            = atan2(sin theta, sqrt(K) cos theta)       (the form computed)
    theta2  = arcsin((K-2) sin theta / (2 alpha_t sqrt(K)))   overshoot angle

and the cost per sqrt(N) of the whole run is

    f(eps, K) = (pi/4)(1 - eps) + (theta1 + theta2) / (2 sqrt(K)).

theta2's arcsin argument stays within 1 only while sin theta <= 2/sqrt(K);
past that wall every path raises `InfeasibleEpsilonError` naming the bound.
f is written once, in `breakdown_for_theta`; `optimize_epsilon` finds its
minimum in closed form, as a root of a quadratic in sin^2 theta, and
reproduces the known query-count table.  The remaining functions give the
matching lower bound, the naive block-restricted baseline, and the large-K
guarantee in closed form.
"""
from __future__ import annotations

import math

from .statevector import MAX_N, InvalidInstanceError, Record

# Arguments in (1, 1 + _CLAMP] count as exactly 1: floating point grazing the
# feasibility wall must not turn a boundary optimum into an error.
_CLAMP = 1e-12


class InfeasibleEpsilonError(InvalidInstanceError):
    """The requested (epsilon, K) puts an arcsin argument above 1."""


class CostBreakdown(Record):
    """Step-2 angles and queries per sqrt(N) for the caller's (epsilon, K)."""

    theta1: float
    theta2: float
    coefficient: float


def _check_k(k: int, least: int = 2) -> None:
    # Beyond 2**52 (the largest N) math.sqrt(k) rounds K or overflows.
    if not least <= k <= MAX_N:
        raise InvalidInstanceError(f"need K >= {least} and K <= 2**52, got K={k}")


def theta_of_epsilon(epsilon: float) -> float:
    """Angle left between state and target after step 1 stops early."""
    return (math.pi / 2.0) * epsilon


def alpha_target(theta: float, k: int) -> float:
    """Amplitude weight of the target block after step 1."""
    if not 0.0 <= theta <= math.pi / 2.0 + 1e-12:
        raise InvalidInstanceError(f"theta={theta} outside [0, pi/2]")
    _check_k(k, least=1)
    return math.sqrt(1.0 - ((k - 1) / k) * math.sin(theta) ** 2)


def theta1(theta: float, k: int) -> float:
    """Initial in-block angle between the target-block vector and the target.

    tan theta1 = tan theta / sqrt(K), so atan2 gives it to full precision,
    also where the arcsin form loses digits as its argument nears 1 (K = 2).
    """
    alpha_target(theta, k)  # for its checks of theta and K
    return math.atan2(math.sin(theta), math.sqrt(k) * math.cos(theta))


def theta2(theta: float, k: int) -> float:
    """Overshoot angle that balances the non-target average at half c."""
    arg = (k - 2) * math.sin(theta) / (2.0 * alpha_target(theta, k) * math.sqrt(k))
    if arg > 1.0 + _CLAMP:
        raise InfeasibleEpsilonError(f"arcsin argument {arg!r} exceeds 1: violated bound sin(theta) <= 2/sqrt(K)")
    return math.asin(min(arg, 1.0))


def cost_coefficient(epsilon: float, k: int) -> CostBreakdown:
    """Queries per sqrt(N) for the full pipeline at this (epsilon, K).

    An epsilon past `feasible_epsilon_interval` raises `InfeasibleEpsilonError`.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise InvalidInstanceError(f"epsilon={epsilon} outside [0, 1]")
    _check_k(k)
    return breakdown_for_theta(theta_of_epsilon(epsilon), k, epsilon)


def breakdown_for_theta(theta: float, k: int, epsilon: float) -> CostBreakdown:
    """Breakdown with an explicitly supplied theta in [0, pi/2] (exact-angle studies)."""
    t1, t2 = theta1(theta, k), theta2(theta, k)
    return CostBreakdown(t1, t2, (math.pi / 4.0) * (1.0 - epsilon) + (t1 + t2) / (2.0 * math.sqrt(k)))


def feasible_epsilon_interval(k: int) -> tuple[float, float]:
    """The closed interval of epsilon values with all arcsin arguments <= 1."""
    _check_k(k)
    if k <= 4:
        return 0.0, 1.0
    return 0.0, (2.0 / math.pi) * math.asin(2.0 / math.sqrt(k))


def optimize_epsilon(k: int) -> tuple[float, float]:
    """The epsilon minimizing f(eps, K) over the feasible interval, and f there.

    With x = sin^2 theta, theta1' = 1/(sqrt(K) alpha_t^2) and
    theta2' = (K-2) cos theta / (sqrt(K) alpha_t^2 sqrt(4 - K x)), so
    f' = 0, i.e. theta1' + theta2' = sqrt(K), reduces for cos theta > 0 to
    (K-2)/sqrt(4 - K x) = (K-1) cos theta.  Squared, with r = (K-2)/(K-1),
    that is K x^2 - (K+4) x + 4 - r^2 = 0.  Its larger root is >= 1 and never
    feasible; the smaller one, written without cancellation, is the minimum
    (f' < 0 at eps = 0, and for K > 4 f' grows without bound at the wall).
    K = 2 gives x = 1: the boundary optimum eps = 1.
    """
    _check_k(k)
    r2 = ((k - 2) / (k - 1)) ** 2
    x = 2.0 * (4.0 - r2) / (k + 4.0 + math.sqrt((k - 4.0) ** 2 + 4.0 * k * r2))
    eps_star = min(1.0, (2.0 / math.pi) * math.asin(math.sqrt(x)))
    return eps_star, cost_coefficient(eps_star, k).coefficient


def lower_bound_coefficient(k: int) -> float:
    """Query floor per sqrt(N) from reducing full search to repeated partial search."""
    _check_k(k, least=1)
    return (math.pi / 4.0) * (1.0 - 1.0 / math.sqrt(k))


def large_k_guarantee(k: int) -> float:
    """Closed-form upper bound on the optimal coefficient for large K.

    Evaluating at epsilon = 1/sqrt(K) with sin theta ~ theta gives
    (pi/4)(1 - C0/sqrt(K)) with C0 = 1 - (2/pi) arcsin(pi/4) ~ 0.425.
    """
    _check_k(k)
    c0 = 1.0 - (2.0 / math.pi) * math.asin(math.pi / 4.0)
    return (math.pi / 4.0) * (1.0 - c0 / math.sqrt(k))


def naive_quantum_coefficient(k: int) -> float:
    """Cost of plain amplitude amplification restricted to K-1 random blocks."""
    _check_k(k)
    return (math.pi / 4.0) * math.sqrt((k - 1) / k)


def reduction_total_queries(alpha_coeff: float, k: int, n: int) -> float:
    """Total queries when full search is solved by repeated partial searches.

    Each round shrinks the database by a factor K, so the per-round costs form
    a geometric series summing to alpha * sqrt(N) * sqrt(K)/(sqrt(K) - 1).
    """
    _check_k(k)
    if not alpha_coeff > 0 or not 1 <= n <= MAX_N:
        raise InvalidInstanceError(f"need alpha_coeff > 0 and N in [1, 2**52], got alpha_coeff={alpha_coeff}, N={n}")
    rk = math.sqrt(k)
    return alpha_coeff * math.sqrt(n) * rk / (rk - 1.0)
