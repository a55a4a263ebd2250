"""Reproduce the query-count table: optimal upper bounds vs lower bounds.

For each block count K, the optimizer picks the early-stopping parameter
epsilon minimizing total queries per sqrt(N).  The lower bound comes from
the reduction of full search to repeated partial searches; the naive
column is plain amplitude amplification restricted to K-1 random blocks,
which saves only O(1/K) instead of O(1/sqrt(K)).
"""
import math

from partialsearch import (
    large_k_guarantee,
    lower_bound_coefficient,
    naive_quantum_coefficient,
    optimize_epsilon,
    reduction_total_queries,
)

print(f"{'K':>4}  {'eps*':>8}  {'upper':>7}  {'lower':>7}  {'naive':>7}")
for k in (2, 3, 4, 5, 8, 16, 32, 64):
    eps_star, upper = optimize_epsilon(k)
    print(
        f"{k:>4}  {eps_star:>8.4f}  {upper:>7.4f}"
        f"  {lower_bound_coefficient(k):>7.4f}  {naive_quantum_coefficient(k):>7.4f}"
    )
print(f"\nfull search baseline: pi/4 = {math.pi / 4:.4f} per sqrt(N)")

# For large K the optimum is guaranteed below (pi/4)(1 - 0.42/sqrt(K)).
print("\nlarge-K guarantee (closed form) vs optimizer:")
for k in (16, 32, 64):
    _, coeff = optimize_epsilon(k)
    print(f"  K={k:>3}: optimizer {coeff:.4f} <= guarantee {large_k_guarantee(k):.4f}")

# Consistency of the reduction: plugging the lower-bound coefficient into the
# geometric series recovers the full-search cost exactly.
n = 2**20
total = reduction_total_queries(lower_bound_coefficient(4), 4, n)
print(f"\nreduction at the lower bound, K=4, N=2^20: {total:.3f}"
      f" = (pi/4) sqrt(N) = {(math.pi / 4) * math.sqrt(n):.3f}")
