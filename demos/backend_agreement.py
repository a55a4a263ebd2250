"""Two backends, one algorithm: dense ground truth vs the 4-number state.

Every operator in the pipeline treats the addresses within a block
symmetrically, so the whole run is captured by four real amplitudes.
The reduced backend exploits that: it follows the same dynamics in
float64 (a change of basis, not an approximation), runs a whole pipeline
in O(stages) (each stage of repeated rounds is one rotation), and scales
to databases of size 2^52.  There step 3's cancellation leaves only about
7 of the 12 printed digits of the miss probability (see the README's notes).
"""
import math

import numpy as np

from partialsearch import (
    BlockConfig,
    iteration_counts,
    lift_to_dense,
    optimize_epsilon,
    reduced_init,
    apply_script,
    run_partial_search,
    standard_pipeline_script,
    uniform_state,
)
from partialsearch.partial_search import apply_operator

# Side-by-side run at a size the dense backend still handles comfortably.
n, k = 4096, 4
eps, coeff = optimize_epsilon(k)
cfg = BlockConfig(n, k, target=2357)
l1, l2, _ = iteration_counts(n, k, eps)

dense = uniform_state(n)
reduced = reduced_init(cfg)
worst = 0.0
for op in standard_pipeline_script(l1, l2):
    dense = apply_operator(dense, op, cfg)
    reduced = apply_operator(reduced, op, cfg)
    worst = max(worst, float(np.max(np.abs(lift_to_dense(reduced).amplitudes - dense.amplitudes))))

print(f"N={n}, K={k}, eps*={eps:.4f}: l1={l1}, l2={l2}, queries={dense.queries}")
print(f"worst amplitude difference across every prefix of the run: {worst:.2e}")

# The reduced backend keeps going where dense arrays cannot exist.  The miss
# probability is summed directly over the non-target blocks: at large N,
# 1 - success would mostly measure rounding drift in the norm.
for exponent in (20, 30, 40, 48):
    n_big = 2**exponent
    big_cfg = BlockConfig(n_big, k, n_big // 7)
    report = run_partial_search(big_cfg, epsilon=eps)
    print(
        f"N=2^{exponent}: queries/sqrt(N) = {report.queries / math.sqrt(n_big):.4f}"
        f"  success = {report.success_prob:.12f}"
        f"  miss * sqrt(N) = {report.miss_prob * math.sqrt(n_big):.2e}"
    )
print("\nmiss * sqrt(N) never grows: the miss probability shrinks at least")
print("as fast as 1/sqrt(N).")

# A dense state is N amplitudes but only three distinct values: a (the
# target), b (the rest of its block) and c (every other block).  Step 1
# leaves b = c; step 2 rotates only the target block, so c stays put.
print("\nreduced (a, b, c) after each step, target N/3:")
for exponent in (12, 48):
    n_show = 2**exponent
    show_cfg = BlockConfig(n_show, k, n_show // 3)
    l1, l2, _ = iteration_counts(n_show, k, eps)
    after1 = apply_script(reduced_init(show_cfg), standard_pipeline_script(l1, 0)[:-1])
    after2 = apply_script(after1, standard_pipeline_script(0, l2)[:-1])
    for step, state in (("step 1", after1), ("step 2", after2)):
        print(f"N=2^{exponent}, after {step}: a={state.a:+.9f}  b={state.b:+.6e}  c={state.c:+.6e}")
