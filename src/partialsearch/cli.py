"""Command-line front end: seeded experiment runs with text/JSON/CSV reports.

Every report embeds the tool version, the command line, the seed and the
backend, and a fixed seed gives byte-identical JSON/CSV output.  Exit
codes: 0 success, 1 invalid or infeasible input (`InvalidInstanceError`,
which `InfeasibleEpsilonError` subclasses), 2 any other exception.

Imports wait for their use: numpy for dense states, the seeded target draw
and `classical`, `csv` and `json` for their formats; so a reduced run with a
given target, `optimize`, `table` and `bounds` start without numpy.
"""
from __future__ import annotations

import argparse
import math
import re
import sys
import warnings

from . import __version__, analysis, partial_search
from .statevector import BlockConfig, InvalidInstanceError

_TOOL = "partialsearch"
# Most rows a report may list; only `simulate` and `grover` can pass it, with one
# row per block.  Reports are built in memory, about 2.5 KB a row: a reduced
# `simulate --format json` with K = 2**20 peaks at 2.6 GB.
MAX_REPORT_ROWS = 2**20


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        with warnings.catch_warnings():  # one line per warning, like the errors below; no source path
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            payload = _dispatch(args)
    except InvalidInstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - anything else is an internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    meta = {
        "tool": _TOOL,
        "version": __version__,
        "command": " ".join(argv),
        "seed": args.seed,
        "backend": getattr(args, "backend", None),
    }
    text = render_report(payload, args.format, meta)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse that reads -1e+19, -inf and -nan as values, as it reads -123 and -1.5, not as unknown flags."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="partial-search",
        description="Run partial quantum search experiments and bound calculators.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--output", default=None, help="write the report here instead of stdout")
    common.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="run the three-step pipeline")
    p.add_argument("--n", type=int, default=2**16)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--epsilon", type=float, default=None, help="default: optimizer's choice")
    p.add_argument("--backend", choices=("dense", "reduced"), default="reduced")
    p.add_argument("--target", type=int, default=None, help="default: drawn from the seed")
    p.add_argument("--exact-theta", action="store_true", help="use the exact post-step-1 angle")

    p = sub.add_parser("grover", parents=[common], help="run plain amplitude amplification")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--steps", type=int, default=None, help="default: round((pi/4) sqrt(N))")
    p.add_argument("--backend", choices=("dense", "reduced"), default="reduced")
    p.add_argument("--target", type=int, default=None)

    p = sub.add_parser("optimize", parents=[common], help="optimize epsilon for one K")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("table", parents=[common], help="upper/lower coefficient table over K")
    p.add_argument("--k", default="2,3,4,5,8,32", help="comma-separated block counts")

    p = sub.add_parser("classical", parents=[common], help="classical baselines and Monte Carlo")
    p.add_argument("--n", type=int, default=1200)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--trials", type=int, default=100000)

    p = sub.add_parser("bounds", parents=[common], help="closed-form bound coefficients")
    p.add_argument("--k", default="2,3,4,5,8,32", help="comma-separated block counts")
    p.add_argument("--n", type=int, default=2**16, help="database size for the erring-search floor")
    p.add_argument("--err", type=float, default=0.01)
    p.add_argument("--hidden-const", type=float, default=1.0)

    return parser


def _dispatch(args: argparse.Namespace) -> dict:
    if args.seed < 0:
        raise InvalidInstanceError(f"seed must be >= 0, got {args.seed}")
    return {
        "simulate": _cmd_simulate,
        "grover": _cmd_grover,
        "optimize": _cmd_optimize,
        "table": _cmd_table,
        "classical": _cmd_classical,
        "bounds": _cmd_bounds,
    }[args.command](args)


def _block_config(args: argparse.Namespace) -> BlockConfig:
    """The instance given by --n, --k and --target; with no target, one drawn from the seed."""
    cfg = BlockConfig(args.n, args.k, args.target or 0)  # checks N and K before any draw
    if args.target is None:
        import numpy as np
        cfg = BlockConfig(args.n, args.k, int(np.random.default_rng(args.seed).integers(0, args.n)))
    return cfg


def _check_report_rows(k: int) -> None:
    """Refuse, before any run, a report with more than MAX_REPORT_ROWS rows, one per block."""
    if k > MAX_REPORT_ROWS:
        raise InvalidInstanceError(
            f"K={k} asks for {k} report rows, more than the {MAX_REPORT_ROWS} a report may list"
        )


def _run_report_payload(cfg: BlockConfig, report: partial_search.RunReport) -> dict:
    """The instance and the report's fields, plus one row per block repeating the run-wide ones."""
    payload = {
        "n": cfg.n_addresses,
        "k": cfg.n_blocks,
        "target": cfg.target,
        "epsilon": report.epsilon,
        "l1": report.l1,
        "l2": report.l2,
        "queries": report.queries,
        "success_prob": report.success_prob,
        "target_prob": report.target_prob,
        "predicted_block": report.predicted_block,
        "block_probs": list(report.block_probs),
    }
    shared = {key: payload[key] for key in ("n", "k", "target", "queries", "success_prob", "target_prob")}
    rows = [{**shared, "block": i, "block_prob": p} for i, p in enumerate(report.block_probs)]
    return {**payload, "rows": rows}


def _cmd_simulate(args: argparse.Namespace) -> dict:
    cfg = _block_config(args)
    _check_report_rows(args.k)
    report = partial_search.run_partial_search(cfg, args.epsilon, args.backend, args.exact_theta)
    return _run_report_payload(cfg, report)


def _cmd_grover(args: argparse.Namespace) -> dict:
    cfg = _block_config(args)
    _check_report_rows(args.k)
    steps = args.steps if args.steps is not None else round((math.pi / 4.0) * math.sqrt(args.n))
    report = partial_search.run_full_grover(cfg, steps, backend=args.backend)
    return _run_report_payload(cfg, report)


def _cmd_optimize(args: argparse.Namespace) -> dict:
    row = _coefficient_row(args.k, *analysis.optimize_epsilon(args.k))
    return {**row, "rows": [row]}


def _cmd_table(args: argparse.Namespace) -> dict:
    return {"rows": [_coefficient_row(k, *analysis.optimize_epsilon(k)) for k in _parse_k_list(args.k)]}


def _coefficient_row(k: int, epsilon_star: float, upper_coeff: float) -> dict:
    """Optimizer result for one K beside its lower bound and the naive baseline."""
    return {
        "K": k,
        "epsilon_star": epsilon_star,
        "upper_coeff": upper_coeff,
        "lower_coeff": analysis.lower_bound_coefficient(k),
        "naive_coeff": analysis.naive_quantum_coefficient(k),
    }


def _cmd_classical(args: argparse.Namespace) -> dict:
    from . import classical
    report = classical.simulate_randomized(args.n, args.k, args.trials, args.seed)
    row = {
        "n": args.n,
        "k": args.k,
        "trials": args.trials,
        "expected_randomized": report.expected_randomized,
        "exact_expected": classical.exact_expected_probes(args.n, args.k),
        "deterministic": report.deterministic,
        "sample_mean": report.sample_mean,
        "sample_std_err": report.sample_std_err,
    }
    return {**row, "rows": [row]}


def _cmd_bounds(args: argparse.Namespace) -> dict:
    from . import zalka
    rows = [
        {
            "K": k,
            "lower_coeff": analysis.lower_bound_coefficient(k),
            "naive_coeff": analysis.naive_quantum_coefficient(k),
            "large_k_coeff": analysis.large_k_guarantee(k),
        }
        for k in _parse_k_list(args.k)
    ]
    floor = zalka.zalka_error_bound(args.n, args.err, args.hidden_const)
    return {
        "rows": rows,
        "erring_search": {
            "n": args.n,
            "err": args.err,
            "hidden_const": args.hidden_const,
            "query_floor": floor,
        },
    }


def _parse_k_list(raw: str) -> list[int]:
    try:
        ks = [int(part) for part in str(raw).split(",") if part.strip()]
    except ValueError as exc:
        raise InvalidInstanceError(f"bad K list {raw!r}: {exc}") from None
    if not ks:
        raise InvalidInstanceError("empty K list")
    return ks


# --- rendering ---------------------------------------------------------------


def render_report(payload: dict, fmt: str, meta: dict) -> str:
    if fmt == "json":
        return _render_json(payload, meta)
    if fmt == "csv":
        return _render_csv(payload, meta)
    return _render_text(payload, meta)


def _round_floats(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {key: _round_floats(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(item) for item in value]
    return value


def _render_json(payload: dict, meta: dict) -> str:
    import json
    doc = _round_floats({**meta, **payload})
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _render_csv(payload: dict, meta: dict) -> str:
    import csv
    import io
    buf = io.StringIO()
    for key in ("tool", "version", "command", "seed", "backend"):
        buf.write(f"# {key}={_format_cell(meta[key])}\n")
    for key, value in payload.items():
        if isinstance(value, dict):
            for field, item in value.items():
                buf.write(f"# {key}.{field}={_format_cell(item)}\n")
        elif key != "rows" and not isinstance(value, list):
            buf.write(f"# {key}={_format_cell(value)}\n")
    rows = payload.get("rows", [])
    writer = csv.writer(buf, lineterminator="\n")
    if rows:
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(row.get(key)) for key in header])
    return buf.getvalue()


def _render_text(payload: dict, meta: dict) -> str:
    lines = [f"{_TOOL} {meta['version']}  (command: {meta['command']}; seed: {meta['seed']})"]
    for key, value in payload.items():
        if key == "rows":
            continue
        if isinstance(value, dict):
            inner = ", ".join(f"{k}={_format_cell(v)}" for k, v in value.items())
            lines.append(f"{key:>18}: {inner}")
        elif isinstance(value, list):
            lines.append(f"{key:>18}: {', '.join(_format_cell(v) for v in value)}")
        else:
            lines.append(f"{key:>18}: {_format_cell(value)}")
    rows = payload.get("rows", [])
    if rows:
        header = list(rows[0].keys())
        table = [header] + [[_format_cell(row.get(k)) for k in header] for row in rows]
        widths = [max(len(line[i]) for line in table) for i in range(len(header))]
        lines.append("")
        for line in table:
            lines.append("  ".join(cell.rjust(width) for cell, width in zip(line, widths)))
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    raise SystemExit(main())
