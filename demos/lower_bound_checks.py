"""Numeric checks of the machinery behind the erring-search lower bound.

The lower bound on partial search rests on a hybrid argument: compare the
algorithm's run against runs whose first oracle calls are replaced by the
identity.  The pieces are all checkable numerically: the per-swap angle
bound, the telescoped distance sum, and the concavity fact that the
uniform distribution maximizes sum_y arcsin sqrt(p_y).
"""
import math

from partialsearch import (
    grover_script,
    hybrid_step_margins,
    hybrid_trajectory,
    iteration_counts,
    max_arcsin_probability_sum,
    optimize_epsilon,
    standard_pipeline_script,
    total_angle_sum,
    zalka_error_bound,
)

n, steps = 16, 3

# Per-swap bound: replacing one more oracle call moves the final state by
# at most 2 arcsin sqrt(p).  Margins are slack in that inequality.
worst = math.inf
for target in range(n):
    margins = hybrid_step_margins(hybrid_trajectory(n, grover_script(steps), target))
    worst = min(worst, float(margins.min()))
print(f"N={n}, {steps}-step amplification: worst per-swap margin over all")
print(f"targets and swap positions = {worst:.3e}  (>= 0 up to float noise)")

# The bound holds with equality at every oracle call, so in a partial-search
# pipeline only step 3 has slack: 2 asin(N^-1/2) - 2 asin((2N)^-1/2).
for log_n in (10, 20):
    n_pipe = 2**log_n
    l1, l2, _ = iteration_counts(n_pipe, 4, optimize_epsilon(4)[0])
    script = standard_pipeline_script(l1, l2)
    margins = hybrid_step_margins(hybrid_trajectory(n_pipe, script, n_pipe // 3, n_blocks=4))
    slack = 2 * math.asin(n_pipe**-0.5) - 2 * math.asin((2 * n_pipe) ** -0.5)
    print(f"N=2^{log_n}, K=4 pipeline: step-3 margin {margins[0]:.9e}, closed form {slack:.9e}"
          f" (off by {abs(margins[0] - slack):.1e}); largest oracle-call margin {max(map(abs, margins[1:])):.1e}")

# Endpoint distances, summed over targets, against the (pi/2) N yardstick.
total, reference = total_angle_sum(n, grover_script(steps))
print(f"\nsum of endpoint angles: {total:.4f};  (pi/2) N = {reference:.4f};"
      f"  ratio = {total / reference:.4f}")

# The arcsin-sum bound: sampled probability vectors plus adversarial corners
# never beat the uniform vector.
for size in (4, 16, 64):
    bound = size * math.asin(1 / math.sqrt(size))
    observed = max_arcsin_probability_sum(size, samples=50000, seed=7)
    print(f"arcsin-sum over simplex, N={size:>2}: max observed {observed:.6f}"
          f" <= bound {bound:.6f}")

# The resulting query floor for algorithms that may err.
print("\nquery floors (pi/4) sqrt(N) (1 - C (sqrt(err) + N^-1/4)), C=1:")
for n_db, err in [(10**4, 0.0), (10**4, 0.01), (10**6, 0.01), (10**6, 0.05)]:
    floor = zalka_error_bound(n_db, err)
    plain = (math.pi / 4) * math.sqrt(n_db)
    print(f"  N=10^{round(math.log10(n_db))}, err={err:<5}: {floor:>8.1f}"
          f"  (plain search optimum {plain:.1f})")
