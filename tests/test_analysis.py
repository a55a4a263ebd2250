import math
import random
import re

import numpy as np
import pytest

from partialsearch import (
    InfeasibleEpsilonError,
    alpha_target,
    cost_coefficient,
    feasible_epsilon_interval,
    large_k_guarantee,
    lower_bound_coefficient,
    naive_quantum_coefficient,
    optimize_epsilon,
    reduction_total_queries,
    theta1,
    theta2,
    theta_of_epsilon,
)
from partialsearch import analysis

PI = math.pi

# Reference query-count table: K -> (upper coefficient, lower coefficient).
TABLE = {
    2: (0.555, 0.230),
    3: (0.592, 0.332),
    4: (0.615, 0.393),
    5: (0.633, 0.434),
    8: (0.664, 0.508),
    32: (0.725, 0.647),
}


def brute_force_minimum(k, resolution=2e-5):
    """Independent oracle: dense scan of the cost coefficient, the grid's f written out in numpy."""
    lo, hi = feasible_epsilon_interval(k)
    eps = lo + resolution * np.arange(math.floor((hi - lo) / resolution) + 1)
    sin, cos = np.sin((PI / 2) * eps), np.cos((PI / 2) * eps)
    arg2 = (k - 2) * sin / (2 * np.sqrt(1 - (k - 1) / k * sin**2) * math.sqrt(k))
    assert arg2.max() <= 1 + 1e-12  # the package's clamp: no grid point is past the wall
    angles = np.arctan2(sin, math.sqrt(k) * cos) + np.arcsin(np.minimum(arg2, 1.0))
    best = ((PI / 4) * (1 - eps) + angles / (2 * math.sqrt(k))).min()
    return min(best, cost_coefficient(hi, k).coefficient)  # raises if the interval's edge is infeasible


class TestAngles:
    def test_alpha_target_no_spread(self):
        assert alpha_target(0.0, 5) == 1.0

    def test_alpha_target_full_angle(self):
        assert alpha_target(PI / 2, 2) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert alpha_target(PI / 2, 8) == pytest.approx(math.sqrt(1 / 8), abs=1e-12)

    def test_theta1_zero_angle(self):
        assert theta1(0.0, 4) == 0.0

    def test_theta1_boundary_k2(self):
        assert theta1(PI / 2, 2) == pytest.approx(PI / 2, abs=1e-6)

    def test_theta1_k8_numeric(self):
        assert theta1((PI / 2) / math.sqrt(8), 8) == pytest.approx(0.216, abs=1e-3)

    def test_theta2_vanishes_for_k2(self):
        for theta in np.linspace(0.0, PI / 2, 50):
            assert theta2(float(theta), 2) == 0.0

    def test_theta2_k3_full_angle(self):
        assert theta2(PI / 2, 3) == pytest.approx(PI / 6, abs=1e-12)

    def test_theta2_infeasible_k5(self):
        with pytest.raises(InfeasibleEpsilonError, match=r"2/sqrt\(K\)"):
            theta2(PI / 2, 5)

    def test_theta_of_epsilon(self):
        assert theta_of_epsilon(0.5) == pytest.approx(PI / 4, abs=1e-15)


class TestCostCoefficient:
    def test_zero_epsilon_is_full_search(self):
        for k in (2, 3, 4, 5, 8, 32):
            bd = cost_coefficient(0.0, k)
            assert bd.coefficient == pytest.approx(PI / 4, abs=1e-15)

    def test_k2_boundary_closed_form(self):
        bd = cost_coefficient(1.0, 2)
        assert bd.coefficient == pytest.approx(PI / (4 * math.sqrt(2)), abs=1e-6)

    def test_k8_at_inverse_sqrt_k(self):
        bd = cost_coefficient(1 / math.sqrt(8), 8)
        assert bd.coefficient == pytest.approx(0.670, abs=0.002)

    def test_infeasible_raises_naming_the_bound(self):
        msg = "arcsin argument 1.5000000000000002 exceeds 1: violated bound sin(theta) <= 2/sqrt(K)"
        with pytest.raises(InfeasibleEpsilonError, match=re.escape(msg)):
            cost_coefficient(1.0, 5)

    def test_no_nans_on_feasible_interval(self):
        for k in (2, 3, 4, 5, 8, 32):
            lo, hi = feasible_epsilon_interval(k)
            for eps in np.linspace(lo, hi, 400):
                bd = cost_coefficient(float(eps), k)  # raises if infeasible
                assert all(math.isfinite(x) for x in (bd.theta1, bd.theta2, bd.coefficient))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            cost_coefficient(-0.1, 4)
        with pytest.raises(ValueError):
            cost_coefficient(0.5, 1)

    @pytest.mark.parametrize("theta", [-1e-3, PI / 2 + 1e-6])
    def test_explicit_theta_outside_quarter_turn_names_theta(self, theta):
        with pytest.raises(ValueError, match=f"theta={theta}"):
            analysis.breakdown_for_theta(theta, 4, 0.5)


class TestFeasibleInterval:
    def test_small_k_whole_interval(self):
        for k in (2, 3, 4):
            assert feasible_epsilon_interval(k) == (0.0, 1.0)

    def test_k8_edge_is_half(self):
        # arcsin(2/sqrt(8)) = pi/4, so the edge is exactly 1/2.
        lo, hi = feasible_epsilon_interval(8)
        assert (lo, hi) == (0.0, pytest.approx(0.5, abs=1e-15))

    def test_edge_is_where_theta2_saturates(self):
        for k in (5, 8, 32):
            _, hi = feasible_epsilon_interval(k)
            assert math.isfinite(cost_coefficient(hi, k).coefficient)
            with pytest.raises(InfeasibleEpsilonError, match=r"2/sqrt\(K\)"):
                cost_coefficient(min(1.0, hi + 1e-4), k)


WALL_KS = [5, 8, 32, 1024, 2**20, 2**40, 2**52]


def reference_terms(eps, k, mpmath):
    """theta1, theta2, f and theta2's arcsin argument, in the arcsin forms, at the working precision."""
    s = mpmath.sin(mpmath.pi / 2 * eps)
    alpha = mpmath.sqrt(1 - mpmath.mpf(k - 1) / k * s**2)
    arg2 = (k - 2) * s / (2 * alpha * mpmath.sqrt(k))
    t1 = mpmath.asin(s / (alpha * mpmath.sqrt(k)))
    t2 = mpmath.asin(arg2)
    return t1, t2, mpmath.pi / 4 * (1 - eps) + (t1 + t2) / (2 * mpmath.sqrt(k)), arg2


def reference_breakdown(epsilon, k, mpmath):
    """theta1, theta2, f and sqrt(1 - arg2^2) at 50 digits, for the float epsilon."""
    with mpmath.workdps(50):
        t1, t2, coeff, arg2 = reference_terms(mpmath.mpf(epsilon), k, mpmath)
        return t1, t2, coeff, mpmath.sqrt(1 - arg2**2)


class TestNearTheWallAgainstMpmath:
    """f, theta1 and theta2 as epsilon approaches the sin(theta) = 2/sqrt(K) wall.

    j = 0 (the wall itself) is left out: there the double-rounded epsilon
    puts the exact argument about 5e-17 above 1, which the clamp accepts.
    """

    @pytest.mark.parametrize("k", WALL_KS)
    def test_angles_and_coefficient(self, k):
        mpmath = pytest.importorskip("mpmath")
        _, wall = feasible_epsilon_interval(k)
        for j in range(1, 13):
            epsilon = wall * (1 - 10.0**-j)
            bd = cost_coefficient(epsilon, k)
            t1, t2, coeff, slack = reference_breakdown(epsilon, k, mpmath)
            # arcsin's slope is infinite at 1, so theta2 (and f through it)
            # loses accuracy as 1/sqrt(1 - arg2^2).
            tol = 1e-14 / float(slack)
            assert bd.theta1 == pytest.approx(float(t1), rel=1e-14)
            assert bd.theta2 == pytest.approx(float(t2), rel=tol)
            assert bd.coefficient == pytest.approx(float(coeff), rel=tol)

    @pytest.mark.parametrize("k", WALL_KS)
    def test_optimum_coefficient(self, k):
        mpmath = pytest.importorskip("mpmath")
        eps, coeff = optimize_epsilon(k)
        assert coeff == pytest.approx(float(reference_breakdown(eps, k, mpmath)[2]), rel=1e-15)


def reference_optimum(k, mpmath):
    """(epsilon*, f*) at 40 digits, independent of the optimizer's quadratic.

    K = 2 is the closed form (1, pi/(4 sqrt 2)).  Otherwise mpmath brackets
    the root of its own numerical derivative of f: f' < 0 near 0, and f' > 0
    just short of the wall (K > 4) or of eps = 1, where f' vanishes again
    for K <= 4 because cos theta does.
    """
    with mpmath.workdps(40):
        if k == 2:
            return mpmath.mpf(1), mpmath.pi / (4 * mpmath.sqrt(2))
        if k <= 4:
            hi = mpmath.mpf("0.999")
        else:
            hi = 2 / mpmath.pi * mpmath.asin(2 / mpmath.sqrt(k)) * (1 - mpmath.mpf(10) ** -6)

        def f(e):
            return reference_terms(e, k, mpmath)[2]

        eps = mpmath.findroot(lambda e: mpmath.diff(f, e), (hi / 1000, hi), solver="anderson")
        return eps, f(eps)


# Every K in 2...128, the K named by the grid optimizer's worst errors, a
# seeded sample of 64 K in 129...2048, and 2^8...2^52 with 10^9 (about 2 s).
GATED_KS = sorted(
    {*range(2, 129), 12, 34, 438, 2032, *random.Random(23).sample(range(129, 2049), 64)}
    | {*(2**j for j in range(8, 53)), 10**9}
)


def check_against_reference_optimum(k):
    mpmath = pytest.importorskip("mpmath")
    eps, coeff = optimize_epsilon(k)
    ref_eps, ref_coeff = reference_optimum(k, mpmath)
    assert eps == pytest.approx(float(ref_eps), rel=1e-12, abs=0)
    assert coeff == pytest.approx(float(ref_coeff), rel=1e-15, abs=0)
    # The CLI prints 12 significant digits; both must be the optimum's.
    assert f"{eps:.12g}" == f"{float(mpmath.nstr(ref_eps, 12)):.12g}"
    assert f"{coeff:.12g}" == f"{float(mpmath.nstr(ref_coeff, 12)):.12g}"


@pytest.mark.parametrize("k", GATED_KS)
def test_optimum_against_mpmath(k):
    check_against_reference_optimum(k)


class TestOptimizer:
    # Exact answers, pinned across code versions: the mpmath gate above
    # allows 1e-12, these literals see a change in the last bit.  K=2 is the
    # boundary optimum; K=12 and 438 were the old grid optimizer's misses.
    PINNED = {
        2: "(1.0, 0.5553603672697958)",
        4: "(0.6081734479693928, 0.6154797086703874)",
        12: "(0.3277356499618493, 0.686612716673392)",
        438: "(0.052727191182646446, 0.7690363934212054)",
        2048: "(0.024369492202200745, 0.7778315325855875)",
        2**20: "(0.0010768145911809579, 0.7850637623933603)",
    }

    @pytest.mark.parametrize("k", sorted(PINNED))
    def test_pinned_answers(self, k):
        assert repr(optimize_epsilon(k)) == self.PINNED[k]

    @pytest.mark.parametrize("k", [2**40, 2**44, 2**48])
    def test_large_k_optimum_against_mpmath(self, k):
        # The old grid optimizer's tie rule left epsilon* 0.77% low here.
        check_against_reference_optimum(k)

    def test_k2_boundary_optimum(self):
        eps, coeff = optimize_epsilon(2)
        assert eps == 1.0
        assert coeff == pytest.approx(PI / (4 * math.sqrt(2)), rel=1e-15, abs=0)

    def test_k3_matches_table(self):
        _, coeff = optimize_epsilon(3)
        assert coeff == pytest.approx(0.592, abs=0.01)

    def test_k32_matches_table(self):
        _, coeff = optimize_epsilon(32)
        assert coeff == pytest.approx(0.725, abs=0.01)

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 32])
    def test_beats_brute_force_scan(self, k):
        eps, coeff = optimize_epsilon(k)
        scan = brute_force_minimum(k)
        assert coeff <= scan + 1e-9
        assert coeff >= scan - 1e-6

    def test_below_full_search(self):
        for k in (2, 3, 4, 8, 64):
            _, coeff = optimize_epsilon(k)
            assert coeff < PI / 4

    def test_monotone_in_k(self):
        coeffs = [optimize_epsilon(k)[1] for k in (2, 3, 4, 5, 8, 16, 32, 64)]
        assert all(a <= b + 1e-12 for a, b in zip(coeffs, coeffs[1:]))

    def test_deterministic(self):
        assert optimize_epsilon(8) == optimize_epsilon(8)


class TestBounds:
    def test_lower_bound_values(self):
        assert lower_bound_coefficient(1) == 0.0
        assert lower_bound_coefficient(2) == pytest.approx(0.2300, abs=5e-4)
        assert lower_bound_coefficient(32) == pytest.approx(0.6466, abs=5e-4)

    def test_large_k_constant(self):
        c0 = 1.0 - (2.0 / PI) * math.asin(PI / 4.0)
        assert c0 == pytest.approx(0.4249, abs=1e-3)
        assert c0 >= 0.42

    def test_large_k_values(self):
        assert large_k_guarantee(64) == pytest.approx(0.7437, abs=1e-3)
        assert large_k_guarantee(10**12) == pytest.approx(PI / 4, abs=1e-5)

    @pytest.mark.parametrize("k", [16, 24, 32, 48, 64])
    def test_guarantee_dominates_optimum_for_large_k(self, k):
        _, coeff = optimize_epsilon(k)
        assert coeff <= large_k_guarantee(k) + 0.005

    @pytest.mark.parametrize("k", [3] + [2**e for e in range(2, 53)] + [10**9])
    def test_optimum_between_lower_bound_and_guarantee(self, k):
        _, coeff = optimize_epsilon(k)
        assert lower_bound_coefficient(k) <= coeff <= large_k_guarantee(k)

    def test_naive_values(self):
        assert naive_quantum_coefficient(2) == pytest.approx(PI / (4 * math.sqrt(2)), abs=1e-12)
        assert naive_quantum_coefficient(4) == pytest.approx(0.680, abs=1e-3)

    def test_naive_sandwich(self):
        for k in TABLE:
            naive = naive_quantum_coefficient(k)
            assert lower_bound_coefficient(k) < naive < PI / 4
            _, coeff = optimize_epsilon(k)
            # K=2 is the coincidence point where both equal pi/(4 sqrt 2).
            assert coeff <= naive + 2 * math.ulp(naive)

    def test_reduction_telescopes_lower_bound(self):
        for k in (2, 3, 4, 8, 32):
            n = 2**20
            total = reduction_total_queries(lower_bound_coefficient(k), k, n)
            assert total == pytest.approx((PI / 4) * math.sqrt(n), abs=1e-9 * math.sqrt(n))

    def test_reduction_factor_k4(self):
        n = 2**20
        assert reduction_total_queries(0.615, 4, n) == pytest.approx(1.23 * math.sqrt(n), abs=1e-9)

    def test_reduction_limit_large_k(self):
        n = 2**20
        total = reduction_total_queries(0.7, 10**10, n)
        assert total == pytest.approx(0.7 * math.sqrt(n), rel=1e-4)


class TestTable:
    def test_matches_reference(self):
        for k in sorted(TABLE):
            upper, lower = TABLE[k]
            _, upper_coeff = optimize_epsilon(k)
            lower_coeff = lower_bound_coefficient(k)
            assert upper_coeff == pytest.approx(upper, abs=0.01)
            assert lower_coeff == pytest.approx(lower, abs=0.001)
            assert lower_coeff < upper_coeff < 0.7854
