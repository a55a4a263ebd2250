"""The partialsearch benchmark: real `partial-search` invocations, checked outputs.

    python3 perfbench/run.py --workload reduced_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare BASE.jsonl --results NEW.jsonl
    python3 -m pytest perfbench            # the benchmark's own self-tests

Untraced (--trace 0): a closed loop with one client.  Each invocation is a
fresh interpreter running the CLI from this checkout's `src/`, started only
after the previous one ended; the workload's invocation list is repeated
for about --seconds (at least once).  Prints the end-to-end metrics.

Traced (--trace 1): one pass of the workload as above, one pass in-process
without tracing, one in-process with the package's public functions
wrapped in spans, then the per-layer probes.  Prints the per-layer metrics
and writes the spans to perfbench/out/.  --seconds does not apply.

Every output is checked; a failed check is counted, never fatal.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; `failed` leaves out the known optimizer defect (see
workloads.py), which `fail_ratio` above it includes.  Each run is also
appended to the results file (perfbench/out/results.jsonl by default),
which comparison mode reads.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

CLI_BOOT = "import sys; from partialsearch.cli import main; sys.exit(main())"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150.0


@dataclass
class ChildRun:
    wall: float
    returncode: int
    stdout: str
    stderr: str = ""
    rss_mb: float = 0.0


@dataclass
class Phase:
    """What one pass or loop over a workload's invocations measured."""

    cycles: list[float] = field(default_factory=list)
    sim_queries: int = 0
    sim_wall: float = 0.0
    peak_rss_mb: float = 0.0
    walls_by_label: dict[str, list[float]] = field(default_factory=dict)

    @property
    def invocation_walls(self) -> list[float]:
        return [wall for walls in self.walls_by_label.values() for wall in walls]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict[str, str]) -> ChildRun:
    """Run one child to completion; wall time, exit code, output and its own peak RSS."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildRun(
            wall,
            proc.returncode,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
            usage.ru_maxrss / 1024.0,  # KiB on Linux
        )


def subprocess_invoker(env: dict[str, str]):
    def invoke(inv) -> ChildRun:
        if inv.kind == "zalka":
            argv = [sys.executable, str(HERE / "zalka_driver.py"), *inv.args]
        else:
            argv = [sys.executable, "-c", CLI_BOOT, *inv.args]
        return run_child(argv, env)

    return invoke


def in_process_invoker(tracer, seed: int):
    """Run invocations inside this interpreter; with a tracer, the driver is a root span."""
    import zalka_driver
    from partialsearch import cli

    def invoke(inv) -> ChildRun:
        t0 = time.perf_counter()
        if inv.kind == "zalka":
            try:
                doc = tracer.record("zalka_driver.run", zalka_driver.run, seed) if tracer else zalka_driver.run(seed)
            except Exception:  # noqa: BLE001 - a crash is a failed check, as for a child process
                traceback.print_exc()
                return ChildRun(time.perf_counter() - t0, 2, "")
            code, text = 0, json.dumps(doc)
        else:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(inv.args))  # a root span when instrument() is active
            text = buf.getvalue()
        return ChildRun(time.perf_counter() - t0, code, text)

    return invoke


def run_phase(invocations, seconds: float, checker, invoke) -> Phase:
    """Repeat the invocation list, one at a time, for about `seconds` (at least once)."""
    phase = Phase()
    started = time.perf_counter()
    while True:
        cycle = 0.0
        for inv in invocations:
            res = invoke(inv)
            cycle += res.wall
            phase.walls_by_label.setdefault(inv.label, []).append(res.wall)
            phase.peak_rss_mb = max(phase.peak_rss_mb, res.rss_mb)
            if res.returncode != 0 and res.stderr:
                print(f"{inv.label}: {res.stderr.strip().splitlines()[-1]}", file=sys.stderr)
            verdict = checker.check(inv, res.returncode, res.stdout)
            if inv.kind in ("simulate", "zalka"):
                phase.sim_queries += verdict.queries
                phase.sim_wall += res.wall
        phase.cycles.append(cycle)
        # Start another cycle only if it should end within half a cycle of the deadline.
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(phase.cycles) / 2 >= seconds:
            return phase


def end_to_end_metrics(phase: Phase, setup_s: float, checks) -> dict[str, float]:
    return {
        "wall_s": statistics.median(phase.cycles),
        # Median over the invocations of each one's median across cycles.  The
        # pooled median would sit in the gap between the fast and the slow
        # instances of a workload and follow their extremes.
        "invocation_p50_s": statistics.median(statistics.median(w) for w in phase.walls_by_label.values()),
        "setup_s": setup_s,
        "peak_rss_mb": phase.peak_rss_mb,
        "sim_queries_per_s": phase.sim_queries / phase.sim_wall if phase.sim_wall else 0.0,
        "check_pass_ratio": 1.0 - checks.fail_ratio(),
    }


def measure_setup(env: dict[str, str], code: str, samples: int) -> list[float]:
    """Wall times of fresh interpreters running `code` (the set-up every invocation pays)."""
    walls = []
    for _ in range(samples):
        res = run_child([sys.executable, "-c", code], env)
        if res.returncode != 0:
            raise RuntimeError(f"set-up failed: {res.stderr.strip()}")
        walls.append(res.wall)
    return walls


def traced_run(workload, seed, invocations, checker, env, setup_s):
    """Untraced pass, untraced and traced in-process passes, probes; returns (metrics, report lines)."""
    import probes
    import tracing

    untraced = run_phase(invocations, 0.0, checker, subprocess_invoker(env)).cycles[0]
    plain = run_phase(invocations, 0.0, checker, in_process_invoker(None, seed)).cycles[0]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced = run_phase(invocations, 0.0, checker, in_process_invoker(tracer, seed)).cycles[0]
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans_{workload}.npz")

    span_cost = tracing.span_cost_seconds()
    interpreter_s = statistics.median(measure_setup(env, "pass", 3))
    self_sum = float(tracer.self_times().sum())
    estimated = len(tracer) * span_cost
    measured = traced / plain - 1.0
    # In-process passes skip the interpreter start-up and import that every
    # untraced invocation pays; add it back to compare with the untraced pass.
    accounted = (self_sum - estimated + len(invocations) * setup_s) / untraced
    metrics = probes.run_all(seed, setup_s - interpreter_s)
    metrics.update(
        {
            "checks.miss_prob_rel_err": checker.checks.largest_miss_rel_err(),
            "trace.spans": float(len(tracer)),
            "trace.span_cost_ns": span_cost * 1e9,
            "trace.overhead_share": estimated / (self_sum - estimated),
            "trace.measured_overhead_share": measured,
            "trace.accounted_share": accounted,
        }
    )
    lines = [
        f"untraced subprocess pass {untraced:.3f} s over {len(invocations)} invocations "
        f"(set-up {setup_s:.3f} s each); in-process pass {plain:.3f} s untraced, {traced:.3f} s traced",
        f"tracing overhead {estimated:.3f} s estimated ({len(tracer)} spans at a calibrated {span_cost * 1e9:.0f} ns), "
        f"{measured:+.1%} measured (traced over untraced in-process pass, single passes)",
        f"self times - estimated overhead + set-up per invocation = {accounted:.1%} of the untraced pass",
        "self time per module in the traced pass:",
    ]
    for module, own in sorted(tracer.module_self_times().items(), key=lambda kv: -kv[1]):
        lines.append(f"  {module:<16} {own:10.4f} s  {own / self_sum:6.1%}")
    return metrics, lines


def machine_record(seed: int) -> dict:
    import mpmath
    import numpy

    record = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "mem_total_kb": _meminfo_total(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "seed": seed,
    }
    llc = max((c["bytes"] for c in record["caches"]), default=0)
    record["dram_bandwidth"] = (
        f"not measured: an array of 4x the last-level cache ({4 * llc / 2**30:.2f} GiB) "
        "does not fit a routine benchmark run"
    )
    return record


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> list[dict]:
    out = []
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        with contextlib.suppress(OSError, ValueError):
            size = (index / "size").read_text().strip()
            scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(size[-1], 1)
            out.append(
                {
                    "level": int((index / "level").read_text()),
                    "type": (index / "type").read_text().strip(),
                    "size": size,
                    "bytes": int(size.rstrip("KMG")) * scale,
                }
            )
    return out


def _meminfo_total() -> int | None:
    with contextlib.suppress(OSError, ValueError, IndexError):
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                return int(line.split()[1])
    return None


def parse_args(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description="partialsearch benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=OUT / "results.jsonl", help="append each run here")
    parser.add_argument("--compare", type=Path, default=None, metavar="BASE", help="compare BASE with --results")
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required unless --compare is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare is not None:
        import compare

        return compare.main(args.compare, args.results, SPEC)
    if not (SRC / "partialsearch" / "cli.py").is_file():
        print(f"error: no partialsearch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    env = child_env()
    invocations = workloads.build(args.workload, args.seed)
    setup_samples = measure_setup(env, "import partialsearch.cli", SETUP_SAMPLES)
    setup_s = statistics.median(setup_samples)
    checks = workloads.Checks()
    checker = workloads.Checker(checks)

    header = f"perfbench {args.workload} seed={args.seed} trace={args.trace}: closed loop, one client"
    if args.trace:
        values, detail = traced_run(args.workload, args.seed, invocations, checker, env, setup_s)
        samples = {}
    else:
        phase = run_phase(invocations, args.seconds, checker, subprocess_invoker(env))
        values = end_to_end_metrics(phase, setup_s, checks)
        detail = [
            f"{len(phase.cycles)} cycles of {len(invocations)} invocations ({len(phase.invocation_walls)} samples); "
            f"wall_s is the median cycle, invocation_p50_s the median over invocations of their median, "
            f"setup_s the median of {SETUP_SAMPLES} fresh interpreters"
        ]
        samples = {"cycles": phase.cycles, "walls": phase.walls_by_label}
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 2
    names = list(units)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}
    machine = machine_record(args.seed)
    print(header)
    print(
        f"machine: {machine['nproc']} CPUs, {machine['cpu_model']}, caches "
        f"{' '.join(c['size'] for c in machine['caches'])}, Python {machine['python']}, numpy {machine['numpy']}; "
        f"DRAM bandwidth {machine['dram_bandwidth']}"
    )
    for line in detail:
        print(line)
    for name in names:
        print(f"  {name:<42} {values[name]:>14.6g} {units[name]}")
    print(f"  miss_prob_rel_err {checks.largest_miss_rel_err():.6g} (largest of {len(checks.miss_rel_errs)} checked outputs)")
    print(
        f"  fail_ratio {checks.fail_ratio():.6g} ({checks.failed} failed and "
        f"{len(checks.known_defects)} known-defect checks of {checks.attempted})"
    )
    for what in checks.known_defects[:20]:
        print(f"  known defect: {what}")
    for what in checks.failures[:20]:
        print(f"  FAILED: {what}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "fail_ratio": checks.fail_ratio(),
        "miss_prob_rel_err": checks.largest_miss_rel_err(),
        "failures": checks.failures,
        "known_defects": checks.known_defects,
        "metrics": metrics,
        "machine": machine,
        "samples": {"setup": setup_samples, **samples},
    }
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with open(args.results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
