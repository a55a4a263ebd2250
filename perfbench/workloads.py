"""Workload definitions and the checks applied to every program output.

Each workload is a fixed list of program invocations, with targets drawn
from the seed and passed explicitly.  Why each workload exists:

- reduced_sweep: `simulate --backend reduced` over N in {2^16, 2^24, 2^32,
  2^34} x K in {2, 4, 32}.  All work is in `reduced` and `partial_search`;
  interpreter start-up is a large fixed share, which bounds what a
  reduced-only speed-up can save.
- dense_pipeline: `simulate --backend dense` at N=2^20, K=4 and N=2^18,
  K=32, each followed by the reduced backend on the same instance so the
  two can be compared.  The dense operators do almost all of the work, so
  this is where dense time and memory changes show.
- bounds_mix: the coefficient table over K = 2..2048 plus 2^12..2^40 and
  10^9, `bounds` at N=2^52, a 10^7-trial classical Monte Carlo and the
  hybrid-oracle checks (thousands of small dense arrays, where per-operator
  overhead dominates).  It covers `analysis`, `classical` and `zalka`,
  which the pipelines barely touch.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import reference

WORKLOADS = ("reduced_sweep", "dense_pipeline", "bounds_mix")

TABLE_KS = tuple(range(2, 2049)) + tuple(2**e for e in range(12, 41)) + (10**9,)
CLASSICAL = {"n": 1200, "k": 3, "trials": 10**7}
BOUNDS_N = 2**52

# Largest relative error of the non-target block mass against the 50-digit
# reference that still passes.  Today's worst case is about 2.5e-9 (N=2^32,
# K=32); the outputs are rounded to 12 significant digits.
MISS_REL_TOL = 1e-6
AGREEMENT_TOL = 1e-10
MARGIN_TOL = 1e-9

# Known defect, reported and never dropped: once the feasible epsilon
# interval is narrower than the optimizer's fixed 1e-4 grid step (K above
# about 6.5e8), `optimize_epsilon` returns pi/4, above the large-K guarantee.
# Violations in this range are listed as known defects; anywhere else they
# are failures.
OPTIMIZER_COLLAPSE_MIN_K = 6.5e8


@dataclass(frozen=True)
class Invocation:
    kind: str  # simulate, table, bounds, classical or zalka
    args: tuple[str, ...]
    n: int = 0
    k: int = 0
    target: int = 0
    backend: str = ""

    @property
    def label(self) -> str:
        if self.kind == "simulate":
            return f"simulate {self.backend} N=2^{self.n.bit_length() - 1} K={self.k} target={self.target}"
        return self.kind


def build(workload: str, seed: int) -> list[Invocation]:
    rng = random.Random(f"{workload}-{seed}")
    if workload == "reduced_sweep":
        return [
            _simulate(2**e, k, rng.randrange(2**e), "reduced") for e in (16, 24, 32, 34) for k in (2, 4, 32)
        ]
    if workload == "dense_pipeline":
        out = []
        for n, k in ((2**20, 4), (2**18, 32)):
            target = rng.randrange(n)
            out += [_simulate(n, k, target, "dense"), _simulate(n, k, target, "reduced")]
        return out
    if workload == "bounds_mix":
        return [
            Invocation("table", ("table", "--k", ",".join(map(str, TABLE_KS)), "--format", "json")),
            Invocation("bounds", ("bounds", "--n", str(BOUNDS_N), "--format", "json")),
            Invocation(
                "classical",
                (
                    "classical",
                    "--n", str(CLASSICAL["n"]),
                    "--k", str(CLASSICAL["k"]),
                    "--trials", str(CLASSICAL["trials"]),
                    "--seed", str(seed),
                    "--format", "json",
                ),
            ),
            Invocation("zalka", ("--seed", str(seed))),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def _simulate(n: int, k: int, target: int, backend: str) -> Invocation:
    args = ("simulate", "--n", str(n), "--k", str(k), "--target", str(target), "--backend", backend, "--format", "json")
    return Invocation("simulate", args, n, k, target, backend)


@dataclass
class Checks:
    """Every check made, and which failed.  A failed check never stops the run."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    known_defects: list[str] = field(default_factory=list)
    miss_rel_errs: list[float] = field(default_factory=list)

    def expect(self, ok: bool, what: str, known_defect: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            (self.known_defects if known_defect else self.failures).append(what)
        return ok

    def largest_miss_rel_err(self) -> float:
        """Worst miss-probability error seen; 1.0 when no output could be checked."""
        return max(self.miss_rel_errs, default=1.0)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail_ratio(self) -> float:
        """Failed checks, known defects included, over checks attempted."""
        return (len(self.failures) + len(self.known_defects)) / max(self.attempted, 1)


@dataclass
class Verdict:
    """What the benchmark takes from one checked output."""

    queries: int = 0
    miss_rel_err: float | None = None


class Checker:
    """Checks outputs one at a time; pairs dense and reduced runs of one instance."""

    def __init__(self, checks: Checks) -> None:
        self.checks = checks
        self._pending: dict[tuple[int, int, int], tuple[str, list[float]]] = {}

    def check(self, inv: Invocation, returncode: int, stdout: str) -> Verdict:
        expect = self.checks.expect
        if not expect(returncode == 0, f"{inv.label}: exit code {returncode}"):
            return Verdict()
        try:
            doc = json.loads(stdout)
        except ValueError:
            expect(False, f"{inv.label}: output is not JSON")
            return Verdict()
        try:
            verdict = getattr(self, f"_check_{inv.kind}")(inv, doc)
        except (ArithmeticError, KeyError, TypeError, ValueError, IndexError) as exc:
            expect(False, f"{inv.label}: malformed output ({type(exc).__name__}: {exc})")
            return Verdict()
        if verdict.miss_rel_err is not None:
            self.checks.miss_rel_errs.append(verdict.miss_rel_err)
        return verdict

    def _check_simulate(self, inv: Invocation, doc: dict) -> Verdict:
        expect = self.checks.expect
        n, k, target = inv.n, inv.k, inv.target
        l1, l2, queries = doc["l1"], doc["l2"], doc["queries"]
        block_probs = [float(p) for p in doc["block_probs"]]
        target_block = target // (n // k)
        expect(queries == l1 + l2 + 1, f"{inv.label}: queries {queries} != l1 + l2 + 1 = {l1 + l2 + 1}")
        expect(
            doc["predicted_block"] == target_block,
            f"{inv.label}: predicted block {doc['predicted_block']} != {target_block}",
        )
        floor = 1.0 - 10.0 / math.sqrt(n)
        expect(doc["success_prob"] >= floor, f"{inv.label}: success {doc['success_prob']} < {floor}")
        miss = math.fsum(p for i, p in enumerate(block_probs) if i != target_block)
        rel_err = reference.relative_error(miss, reference.miss_probability(n, k, l1, l2))
        expect(rel_err <= MISS_REL_TOL, f"{inv.label}: miss probability relative error {rel_err:.3g}")

        key = (n, k, target)
        other = self._pending.pop(key, None)
        if other is None:
            self._pending[key] = (inv.backend, block_probs)
        elif other[0] != inv.backend:
            diff = max(abs(a - b) for a, b in zip(other[1], block_probs, strict=True))
            expect(diff <= AGREEMENT_TOL, f"{inv.label}: dense and reduced block probabilities differ by {diff:.3g}")
        return Verdict(queries=queries, miss_rel_err=rel_err)

    def _check_table(self, inv: Invocation, doc: dict) -> Verdict:
        expect = self.checks.expect
        rows = doc["rows"]
        expect([row["K"] for row in rows] == list(TABLE_KS), "table: rows do not match the requested K list")
        for row in rows:
            k, upper, lower = row["K"], row["upper_coeff"], row["lower_coeff"]
            expect(lower <= upper, f"table K={k}: lower {lower} > upper {upper}")
            if k >= 3:  # the guarantee is asymptotic; K=2 lies above it by design
                limit = large_k_guarantee(k)
                expect(
                    upper <= limit,
                    f"table K={k}: upper {upper} > large-K guarantee {limit:.12g}",
                    known_defect=k > OPTIMIZER_COLLAPSE_MIN_K,
                )
        return Verdict()

    def _check_bounds(self, inv: Invocation, doc: dict) -> Verdict:
        expect = self.checks.expect
        for row in doc["rows"]:
            k = row["K"]
            for key, want in (
                ("lower_coeff", (math.pi / 4.0) * (1.0 - 1.0 / math.sqrt(k))),
                ("naive_coeff", (math.pi / 4.0) * math.sqrt((k - 1) / k)),
                ("large_k_coeff", large_k_guarantee(k)),
            ):
                expect(_close(row[key], want), f"bounds K={k}: {key} {row[key]} != {want:.12g}")
        floor = doc["erring_search"]
        n, err, c = floor["n"], floor["err"], floor["hidden_const"]
        want = max(0.0, (math.pi / 4.0) * math.sqrt(n) * (1.0 - c * (math.sqrt(err) + n**-0.25)))
        expect(n == BOUNDS_N and _close(floor["query_floor"], want), f"bounds: query floor {floor['query_floor']} != {want:.12g}")
        return Verdict()

    def _check_classical(self, inv: Invocation, doc: dict) -> Verdict:
        expect = self.checks.expect
        n, k = CLASSICAL["n"], CLASSICAL["k"]
        m = n - n // k
        exact = (1.0 - 1.0 / k) * (m + 1) / 2.0 + m / k
        expect(doc["trials"] == CLASSICAL["trials"], f"classical: {doc['trials']} trials")
        expect(_close(doc["exact_expected"], exact), f"classical: exact expectation {doc['exact_expected']} != {exact}")
        gap = abs(doc["sample_mean"] - exact)
        expect(
            gap <= 5.0 * doc["sample_std_err"],
            f"classical: sample mean {doc['sample_mean']} is {gap / doc['sample_std_err']:.1f} standard errors from {exact}",
        )
        return Verdict()

    def _check_zalka(self, inv: Invocation, doc: dict) -> Verdict:
        expect = self.checks.expect
        angle = doc["angle_sum"]
        expect(0.0 < angle["sum"] <= angle["scale"], f"zalka: angle sum {angle['sum']} outside (0, {angle['scale']}]")
        traj = doc["trajectory"]
        expect(traj["queries"] == traj["l1"] + traj["l2"] + 1, f"zalka: trajectory has {traj['queries']} queries")
        expect(traj["runs"] == traj["queries"] + 1, f"zalka: {traj['runs']} hybrid runs for {traj['queries']} queries")
        for i, margin in enumerate(traj["margins"]):
            expect(margin >= -MARGIN_TOL, f"zalka: hybrid margin {i} is {margin}")
        ref = reference.miss_probability(traj["n"], traj["k"], traj["l1"], traj["l2"])
        rel_err = reference.relative_error(traj["non_target_mass"], ref)
        expect(rel_err <= MISS_REL_TOL, f"zalka: miss probability relative error {rel_err:.3g}")
        return Verdict(queries=doc["queries_simulated"], miss_rel_err=rel_err)


def large_k_guarantee(k: int) -> float:
    """(pi/4)(1 - C0/sqrt(K)) with C0 = 1 - (2/pi) asin(pi/4), written out here
    so that the check does not rely on the package's own formula."""
    c0 = 1.0 - (2.0 / math.pi) * math.asin(math.pi / 4.0)
    return (math.pi / 4.0) * (1.0 - c0 / math.sqrt(k))


def _close(got: float, want: float, rel: float = 1e-9) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)
