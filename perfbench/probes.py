"""Per-layer probes: fixed inputs, the same on every workload, timed in-process.

Each probe times one layer at the size the metric names.  Byte and flop
figures labelled "computed" come from array sizes and an access model, not
from hardware counters.  No DRAM bandwidth ratio is reported: an array
compliant with the usual 4x-last-level-cache rule would not fit a routine
run (see `run.machine_record`).
"""
from __future__ import annotations

import contextlib
import io
import random
import statistics
import time
import tracemalloc

import tracing
import workloads
import zalka_driver

DENSE_N = 2**20
SMALL_N = 1024
REDUCED_N = 2**34
PROBE_K = 4
CLASSICAL_PROBE_TRIALS = 10**6


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def statevector_probe(target: int, reps: int = 5) -> dict[str, float]:
    from partialsearch import statevector

    cfg = statevector.BlockConfig(DENSE_N, PROBE_K, target % DENSE_N)
    state = statevector.uniform_state(DENSE_N)
    samples = {"oracle": [], "global_diffusion": [], "block_diffusion": [], "step3_transfer": []}
    for _ in range(reps):
        dt, flipped = _timed(statevector.invert_target, state, cfg)
        samples["oracle"].append(dt)
        samples["global_diffusion"].append(_timed(statevector.global_diffusion, flipped)[0])
        samples["block_diffusion"].append(_timed(statevector.block_diffusion, flipped, cfg)[0])
        with_ancilla = statevector.attach_ancilla(flipped)
        samples["step3_transfer"].append(_timed(statevector.step3_transfer, with_ancilla, cfg)[0])
    med = {op: statistics.median(times) for op, times in samples.items()}
    out = {f"statevector.{op}.ns_per_elem": t / DENSE_N * 1e9 for op, t in med.items()}

    # Access model per operator: read the input state, write the output
    # state, read the output once more for the normalization check.  A round
    # is one oracle call plus one global diffusion.
    amps = state.amplitudes
    bytes_per_round = 2 * 3 * amps.nbytes
    # Flops per round: the diffusion's mean (one add per element) and 2m - x
    # (one subtract per element), for each real component of the dtype.
    components = 2 if amps.dtype.kind == "c" else 1
    flops_per_round = 2 * components * DENSE_N
    out["statevector.bytes_per_round"] = float(bytes_per_round)
    out["statevector.gb_per_s_computed"] = bytes_per_round / (med["oracle"] + med["global_diffusion"]) / 1e9
    out["statevector.flops_per_byte_computed"] = flops_per_round / bytes_per_round

    small_cfg = statevector.BlockConfig(SMALL_N, PROBE_K, target % SMALL_N)
    batches = []
    for _ in range(5):
        current = statevector.uniform_state(SMALL_N)
        t0 = time.perf_counter()
        for _ in range(100):
            current = statevector.global_diffusion(statevector.invert_target(current, small_cfg))
            current = statevector.block_diffusion(statevector.invert_target(current, small_cfg), small_cfg)
        batches.append((time.perf_counter() - t0) / 400)
    out["statevector.small_n.us_per_op"] = statistics.median(batches) * 1e6
    return out


def reduced_probe(target: int) -> dict[str, float]:
    """One traced reduced run at N=2^34, K=4: operator, dispatch and script costs."""
    from partialsearch import partial_search, statevector

    cfg = statevector.BlockConfig(REDUCED_N, PROBE_K, target % REDUCED_N)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        partial_search.run_partial_search(cfg, backend="reduced")
    totals = tracer.totals()
    ops, op_time, _ = totals.get("reduced.reduced_apply", (0, 0.0, 0.0))
    _, _, dispatch_self = totals.get("partial_search.apply_script", (0, 0.0, 0.0))
    per_op = max(ops, 1)
    return {
        "reduced.apply.ns_per_op": op_time / per_op * 1e9,
        "reduced.ops": float(ops),
        "partial_search.script_build.s": totals.get("partial_search.standard_pipeline_script", (0, 0.0, 0.0))[1],
        "partial_search.dispatch.ns_per_op": dispatch_self / per_op * 1e9,
        "partial_search.run.s": totals.get("partial_search.run_partial_search", (0, 0.0, 0.0))[1],
    }


def analysis_probe() -> dict[str, float]:
    from partialsearch import analysis

    times = [_timed(analysis.optimize_epsilon, k)[0] for k in workloads.TABLE_KS]
    return {
        "analysis.optimize_epsilon.p50_ms": statistics.median(times) * 1e3,
        "analysis.optimize_epsilon.max_ms": max(times) * 1e3,
    }


def classical_probe(seed: int) -> dict[str, float]:
    from partialsearch import classical

    n, k, trials = workloads.CLASSICAL["n"], workloads.CLASSICAL["k"], CLASSICAL_PROBE_TRIALS
    times = [_timed(classical.simulate_randomized, n, k, trials, seed)[0] for _ in range(3)]
    # numpy reports its buffers to tracemalloc, so the peak covers the arrays.
    tracemalloc.start()
    try:
        classical.simulate_randomized(n, k, trials, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"classical.ns_per_trial": statistics.median(times) / trials * 1e9, "classical.bytes_per_trial": peak / trials}


def zalka_probe(seed: int) -> dict[str, float]:
    from partialsearch import zalka

    n, k = zalka_driver.TRAJECTORY_N, zalka_driver.BLOCKS
    _, _, script = zalka_driver.pipeline_script(n, k)
    dt, traj = _timed(zalka.hybrid_trajectory, n, script, zalka_driver.trajectory_target(seed), n_blocks=k)
    _, _, small_script = zalka_driver.pipeline_script(zalka_driver.ANGLE_SUM_N, k)
    angle_s, _ = _timed(zalka.total_angle_sum, zalka_driver.ANGLE_SUM_N, small_script, n_blocks=k)
    return {
        "zalka.hybrid_trajectory.ms_per_query": dt / traj.n_queries * 1e3,
        "zalka.total_angle_sum.s": angle_s,
        "zalka.hybrid_runs": float(len(traj.states)),
    }


def cli_probe(import_s: float, target: int, reps: int = 5) -> dict[str, float]:
    """In-process `main` on a small reduced run: its own time and the rendering time."""
    from partialsearch import cli

    args = ["simulate", "--n", str(2**16), "--k", str(PROBE_K), "--target", str(target % 2**16), "--format", "json"]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        for _ in range(reps):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(args)
    own = tracer.self_times()
    dur = tracer.durations()
    main_id, render_id = tracer.name_index("cli.main"), tracer.name_index("cli.render_report")
    ids = list(tracer.name_id)
    return {
        "cli.import.s": import_s,
        "cli.main_overhead.ms": statistics.median(own[i] for i, n in enumerate(ids) if n == main_id) * 1e3,
        "cli.render_report.ms": statistics.median(dur[i] for i, n in enumerate(ids) if n == render_id) * 1e3,
    }


def run_all(seed: int, import_s: float) -> dict[str, float]:
    target = random.Random(f"probe-{seed}").randrange(REDUCED_N)
    out = {}
    out.update(statevector_probe(target))
    out.update(reduced_probe(target))
    out.update(analysis_probe())
    out.update(classical_probe(seed))
    out.update(zalka_probe(seed))
    out.update(cli_probe(import_s, target))
    return out
