"""In-memory span recorder and the instrumentation of the package's public functions.

Spans are recorded from outside the package: `instrument` swaps the public
functions listed in BOUNDARIES for timing wrappers in every loaded
`partialsearch` module namespace, and puts the originals back on exit.
Nothing inside `src/` is changed.  Private helpers are not wrapped, so
their cost lands in the self time of the public function that called them
(for example `apply_operator`'s dispatch lands in `apply_script`).
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

import numpy as np

# Public functions timed per module.  Names missing from the package are
# skipped, so the list can outlive renames without breaking the benchmark.
BOUNDARIES = {
    "cli": ("main", "render_report"),
    "partial_search": (
        "run_partial_search",
        "run_full_grover",
        "run_script",
        "script_stages",
        "iteration_counts",
        "standard_pipeline_script",
        "grover_script",
        "apply_script",
    ),
    "reduced": ("reduced_init", "reduced_apply", "lift_to_dense"),
    "statevector": (
        "uniform_state",
        "attach_ancilla",
        "invert_target",
        "global_diffusion",
        "block_diffusion",
        "step3_transfer",
        "block_probabilities",
    ),
    "analysis": (
        "build_table",
        "optimize_epsilon",
        "lower_bound_coefficient",
        "naive_quantum_coefficient",
        "large_k_guarantee",
    ),
    "classical": ("simulate_randomized", "exact_expected_probes"),
    "zalka": ("hybrid_trajectory", "hybrid_step_margins", "total_angle_sum", "zalka_error_bound"),
}

MODULES = tuple(BOUNDARIES)


class Tracer:
    """Spans as parallel arrays: name id, parent index (-1 for a root), start, end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self.name_index(name)
        stack, clock = self._stack, time.perf_counter
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def record(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        return self.wrap(name, fn)(*args, **kwargs)

    def durations(self) -> np.ndarray:
        return np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        return self_times(self.durations(), np.frombuffer(self.parent, dtype=np.int32))

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (count, total duration, total self time)."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur, own = self.durations(), self.self_times()
        n = len(self.names)
        counts = np.bincount(ids, minlength=n)
        dsum = np.bincount(ids, weights=dur, minlength=n)
        ssum = np.bincount(ids, weights=own, minlength=n)
        return {name: (int(counts[i]), float(dsum[i]), float(ssum[i])) for i, name in enumerate(self.names)}

    def module_self_times(self) -> dict[str, float]:
        """Self time summed per package module (span names are 'module.function')."""
        out = {module: 0.0 for module in MODULES}
        for name, (_, _, own) in self.totals().items():
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + own
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def self_times(durations: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Duration minus the part covered by direct children (children never overlap)."""
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=durations[has_parent], minlength=len(durations))
    return durations - covered


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Replace every listed public function by a traced wrapper while the block runs."""
    patched = []  # (namespace, attribute, original)
    for module_name, func_names in BOUNDARIES.items():
        try:
            module = importlib.import_module(f"partialsearch.{module_name}")
        except ImportError:
            continue
        for func_name in func_names:
            original = getattr(module, func_name, None)
            if original is None:
                continue
            wrapped = tracer.wrap(f"{module_name}.{func_name}", original)
            for namespace in _package_namespaces():
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapped)
                        patched.append((namespace, attr, original))
    try:
        yield tracer
    finally:
        for namespace, attr, original in reversed(patched):
            setattr(namespace, attr, original)


def _package_namespaces():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "partialsearch" or name.startswith("partialsearch."))
    ]


def span_cost_seconds(samples: int = 20000) -> float:
    """Calibrated extra cost of one traced call over a plain call of a no-op."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("calibration", noop)
    best_plain = best_traced = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(samples):
            noop()
        t1 = time.perf_counter()
        for _ in range(samples):
            traced()
        t2 = time.perf_counter()
        best_plain = min(best_plain, t1 - t0)
        best_traced = min(best_traced, t2 - t1)
    return max(best_traced - best_plain, 0.0) / samples
