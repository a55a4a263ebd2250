"""Comparison mode: two results files, side by side, with regressions flagged.

    python3 perfbench/run.py --compare BASE.jsonl --results NEW.jsonl

Each results file holds one JSON record per benchmark run.  For every
workload and metric the median and quartiles of each side are printed; an
end-to-end metric whose new median is worse than the base median by more
than its bound in BENCHMARK.json is flagged.
"""
from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(path: Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, one per run."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                for name, metric in record["metrics"].items():
                    values[(record["workload"], name)].append(float(metric["value"]))
    return values


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(base: dict, new: dict, spec: dict) -> tuple[list[str], list[str]]:
    """Report lines and the flagged regressions."""
    rules = {m["name"]: m for m in spec["end_to_end"]}
    rules.update({m["name"]: m for m in spec["per_layer"]})
    lines = [f"{'workload':<15} {'metric':<40} {'base q1/med/q3':>34} {'new q1/med/q3':>34} {'change':>8}"]
    flagged = []
    for key in sorted(set(base) | set(new)):
        workload, name = key
        if key not in base or key not in new:
            lines.append(f"{workload:<15} {name:<40} only in {'base' if key in base else 'new'}")
            continue
        b, n = summary(base[key]), summary(new[key])
        change = (n[1] - b[1]) / b[1] if b[1] else float("inf") if n[1] else 0.0
        rule = rules.get(name, {})
        mark = ""
        if "bound" in rule:
            worse = change if rule["better"] == "lower" else -change
            if worse > rule["bound"]:
                mark = f"  WORSE than bound {rule['bound']}"
                flagged.append(f"{workload} {name}: {change:+.1%} (bound {rule['bound']})")
        lines.append(
            f"{workload:<15} {name:<40} {_fmt(b):>34} {_fmt(n):>34} {change:>+8.1%}{mark}"
            f"  [{len(base[key])} vs {len(new[key])} runs]"
        )
    return lines, flagged


def _fmt(q: tuple[float, float, float]) -> str:
    return "/".join(f"{v:.4g}" for v in q)


def main(base_path: Path, new_path: Path, spec_path: Path) -> int:
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    lines, flagged = compare(load(base_path), load(new_path), spec)
    print("\n".join(lines))
    if flagged:
        print(f"{len(flagged)} metric(s) worse than their bound:")
        print("\n".join(f"  {line}" for line in flagged))
        return 1
    print("no end-to-end metric is worse than its bound")
    return 0
