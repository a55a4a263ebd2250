"""The hybrid-oracle part of the bounds_mix workload, as one program run.

Runs `zalka.total_angle_sum` over the N=1024, K=4 pipeline script and one
`hybrid_trajectory` plus `hybrid_step_margins` at N=2**14, K=4, and prints
the results as JSON on stdout.  The benchmark starts it as a subprocess
for the untraced run and calls `run` in-process for the traced one.

    PYTHONPATH=src python3 perfbench/zalka_driver.py --seed 1
"""
from __future__ import annotations

import argparse
import json
import random

ANGLE_SUM_N = 1024
TRAJECTORY_N = 2**14
BLOCKS = 4


def pipeline_script(n: int, k: int):
    from partialsearch import analysis, partial_search

    epsilon, _ = analysis.optimize_epsilon(k)
    l1, l2, _ = partial_search.iteration_counts(n, k, epsilon)
    return l1, l2, partial_search.standard_pipeline_script(l1, l2)


def trajectory_target(seed: int) -> int:
    return random.Random(f"zalka-{seed}").randrange(TRAJECTORY_N)


def run(seed: int) -> dict:
    from partialsearch import statevector, zalka

    l1, l2, script = pipeline_script(ANGLE_SUM_N, BLOCKS)
    angle_sum, scale = zalka.total_angle_sum(ANGLE_SUM_N, script, n_blocks=BLOCKS)
    sum_queries = l1 + l2 + 1

    target = trajectory_target(seed)
    tl1, tl2, tscript = pipeline_script(TRAJECTORY_N, BLOCKS)
    traj = zalka.hybrid_trajectory(TRAJECTORY_N, tscript, target, n_blocks=BLOCKS)
    margins = zalka.hybrid_step_margins(traj)
    cfg = statevector.BlockConfig(TRAJECTORY_N, BLOCKS, target)
    block_probs = statevector.block_probabilities(traj.states[-1], cfg)
    target_block = target // (TRAJECTORY_N // BLOCKS)
    runs = len(traj.states)
    return {
        "angle_sum": {"n": ANGLE_SUM_N, "k": BLOCKS, "l1": l1, "l2": l2, "sum": angle_sum, "scale": scale},
        "trajectory": {
            "n": TRAJECTORY_N,
            "k": BLOCKS,
            "target": target,
            "l1": tl1,
            "l2": tl2,
            "queries": traj.n_queries,
            "runs": runs,
            "margins": [float(m) for m in margins],
            "non_target_mass": float(sum(p for i, p in enumerate(block_probs) if i != target_block)),
        },
        # Oracle calls processed: the oracle-free run plus one real run per
        # marked address, then every hybrid run of the trajectory.
        "queries_simulated": (ANGLE_SUM_N + 1) * sum_queries + runs * traj.n_queries,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(run(args.seed)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
