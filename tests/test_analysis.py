import math

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
    """Independent oracle: dense scan of the cost coefficient."""
    lo, hi = feasible_epsilon_interval(k)
    best = math.inf
    eps = lo
    while eps <= hi + 1e-15:
        bd = cost_coefficient(min(eps, hi), k)
        if bd.feasible and bd.coefficient < best:
            best = bd.coefficient
        eps += resolution
    return best


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

    def test_infeasible_is_data(self):
        bd = cost_coefficient(1.0, 5)
        assert not bd.feasible
        assert bd.coefficient is None

    def test_no_nans_on_feasible_interval(self):
        for k in (2, 3, 4, 5, 8, 32):
            lo, hi = feasible_epsilon_interval(k)
            for eps in np.linspace(lo, hi, 400):
                bd = cost_coefficient(float(eps), k)
                assert bd.feasible
                assert math.isfinite(bd.coefficient)

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
            assert cost_coefficient(hi, k).feasible
            assert not cost_coefficient(min(1.0, hi + 1e-4), k).feasible


WALL_KS = [5, 8, 32, 1024, 2**20, 2**40, 2**52]


def reference_breakdown(epsilon, k, mpmath):
    """theta1, theta2, f and sqrt(1 - arg2^2) at 50 digits, for the float epsilon."""
    with mpmath.workdps(50):
        eps = mpmath.mpf(epsilon)
        s = mpmath.sin(mpmath.pi / 2 * eps)
        alpha = mpmath.sqrt(1 - mpmath.mpf(k - 1) / k * s**2)
        arg2 = (k - 2) * s / (2 * alpha * mpmath.sqrt(k))
        t1 = mpmath.asin(s / (alpha * mpmath.sqrt(k)))
        t2 = mpmath.asin(arg2)
        coeff = mpmath.pi / 4 * (1 - eps) + (t1 + t2) / (2 * mpmath.sqrt(k))
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


class TestOptimizer:
    def test_k2_boundary_optimum(self):
        eps, coeff = optimize_epsilon(2)
        assert eps == pytest.approx(1.0, abs=1e-3)
        assert coeff == pytest.approx(PI / (4 * math.sqrt(2)), abs=5e-4)

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

    @pytest.mark.parametrize("tol", [1e-16, 1e-17, 1e-300, 5e-324])
    @pytest.mark.parametrize("k", [2, 4, 32])
    def test_tol_below_float_spacing_returns(self, k, tol):
        # The bracket stops shrinking a few ulps wide; the search must end there.
        eps_default, coeff_default = optimize_epsilon(k)
        eps, coeff = optimize_epsilon(k, tol=tol)
        assert abs(eps - eps_default) <= 1e-9
        assert coeff <= coeff_default + 1e-12

    def test_below_full_search(self):
        for k in (2, 3, 4, 8, 64):
            _, coeff = optimize_epsilon(k)
            assert coeff < PI / 4

    def test_monotone_in_k(self):
        coeffs = [optimize_epsilon(k)[1] for k in (2, 3, 4, 5, 8, 16, 32, 64)]
        assert all(a <= b + 1e-12 for a, b in zip(coeffs, coeffs[1:]))

    def test_deterministic(self):
        assert optimize_epsilon(8) == optimize_epsilon(8)


def grid_coefficients(eps, k):
    """Vectorized f(eps, K) over a whole grid; nan where infeasible."""
    theta = (np.pi / 2.0) * eps
    s = np.sin(theta)
    alpha = np.sqrt(1.0 - ((k - 1) / k) * s**2)
    arg1 = s / (alpha * np.sqrt(k))
    arg2 = (k - 2) * s / (2.0 * alpha * np.sqrt(k))
    bad = (arg1 > 1.0 + 1e-12) | (arg2 > 1.0 + 1e-12)
    t1 = np.arcsin(np.clip(arg1, -1.0, 1.0))
    t2 = np.arcsin(np.clip(arg2, -1.0, 1.0))
    out = (np.pi / 4.0) * (1.0 - eps) + (t1 + t2) / (2.0 * np.sqrt(k))
    out[bad] = np.nan
    return out


def full_grid_optimum(k, tol=1e-9):
    """Reference optimizer: f on every point of the 1e-4 grid, then the same refinement."""
    lo, hi = feasible_epsilon_interval(k)
    n_pts = max(int(round((hi - lo) / 1e-4)) + 1, 65)
    grid = np.linspace(lo, hi, n_pts)
    values = grid_coefficients(grid, k)
    best = int(np.nanargmin(values))

    def f(e):
        bd = cost_coefficient(e, k)
        return bd.coefficient if bd.feasible else math.inf

    bracket = float(grid[max(best - 1, 0)]), float(grid[min(best + 1, n_pts - 1)])
    refined = analysis._golden_section(f, *bracket, tol)
    candidates = [(float(grid[i]), float(values[i])) for i in np.argsort(values)[:8]]
    candidates.append((refined, f(refined)))
    best_val = min(v for _, v in candidates)
    return min((e, v) for e, v in candidates if v <= best_val + tol)


class TestOptimizerAgainstFullGrid:
    """Bisection over grid indices finds what evaluating every grid point finds."""

    def test_bit_equal(self):
        mismatched = []
        for k in [*range(2, 2049), *(2**e for e in range(11, 53)), 10**9]:
            (eps, coeff), (ref_eps, ref_coeff) = optimize_epsilon(k), full_grid_optimum(k)
            # At K=438 the winning grid value comes from numpy's sin and arcsin
            # in the reference and from math's here; they differ in the last bit.
            coeff_ok = coeff == ref_coeff or (k == 438 and abs(coeff - ref_coeff) <= math.ulp(ref_coeff))
            if eps != ref_eps or not coeff_ok:
                mismatched.append((k, eps, ref_eps, coeff, ref_coeff))
        assert mismatched == []


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
        # Above K ~ 6.5e8 the feasible interval is narrower than one grid step.
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
            assert coeff <= naive + 1e-6

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
