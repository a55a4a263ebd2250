import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from partialsearch import (
    InvalidInstanceError,
    grover_script,
    iteration_counts,
    lower_bound_coefficient,
    naive_quantum_coefficient,
    optimize_epsilon,
    simulate_randomized,
    zalka_error_bound,
)
from partialsearch import partial_search, statevector
from partialsearch.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_module(*args):
    """`python -m partialsearch.cli` in a fresh process; a hang fails after 60 s."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "partialsearch.cli", *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--k", "4")
        assert code == 0
        assert "epsilon_star" in out

    def test_invalid_instance(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--n", "1000", "--k", "7")
        assert code == 1
        assert "does not divide" in err

    def test_single_block_rejected(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--n", "64", "--k", "1")
        assert code == 1
        assert "K >= 2" in err

    def test_infeasible_epsilon(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--n", "65536", "--k", "8", "--epsilon", "0.9")
        assert code == 1
        assert "2/sqrt(K)" in err

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_dense_cap_exceeded(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--n", str(2**26), "--k", "2", "--backend", "dense"
        )
        assert code == 1
        assert "reduced" in err

    def test_more_blocks_than_a_report_lists_names_k(self, capsys):
        # N = 2**52, K = 2**51 is a valid instance, but its report cannot list 2**51 blocks.
        code, out, err = run_cli(capsys, "simulate", "--n", str(2**52), "--k", str(2**51))
        assert (code, out) == (1, "")
        assert err == f"error: K={2**51} asks for {2**51} report rows, more than the {2**20} a report may list\n"

    @pytest.mark.parametrize(
        "args, quantity, rows",
        [
            (("simulate", "--n", str(2**52), "--k", str(2**24), "--target", "5"), f"K={2**24}", 2**24),
            (("grover", "--n", str(2**52), "--k", str(2**21)), f"K={2**21}", 2**21),
            (("demo", "--which", "step2-histogram", "--n", str(2**20)), f"N={2**20}", 2**21),
        ],
        ids=["simulate", "grover", "step2-histogram"],
    )
    def test_long_reports_are_refused_before_the_run(self, capsys, monkeypatch, args, quantity, rows):
        def never(*_args, **_kwargs):
            raise AssertionError("the run started")

        for name in ("run_partial_search", "run_full_grover", "apply_stages"):
            monkeypatch.setattr(partial_search, name, never)
        monkeypatch.setattr(statevector, "uniform_state", never)
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (1, "")
        assert err == f"error: {quantity} asks for {rows} report rows, more than the {2**20} a report may list\n"

    @pytest.mark.parametrize(
        "args, entry",
        [
            (("simulate", "--n", str(2**52), "--k", str(2**20), "--target", "5"), "run_partial_search"),
            (("grover", "--n", str(2**52), "--k", str(2**20), "--target", "5"), "run_full_grover"),
            (("demo", "--which", "step2-histogram", "--n", str(2**19)), "uniform_state"),
        ],
        ids=["simulate", "grover", "step2-histogram"],
    )
    def test_reports_at_the_row_limit_reach_the_run(self, capsys, monkeypatch, args, entry):
        # The longest accepted reports take tens of seconds and GBs to build; stop at the run's entry.
        def reached(*_args, **_kwargs):
            raise InvalidInstanceError("reached the run")

        monkeypatch.setattr(statevector if entry == "uniform_state" else partial_search, entry, reached)
        assert run_cli(capsys, *args) == (1, "", "error: reached the run\n")

    def test_reduced_grover_refuses_a_step_count_beyond_float_precision(self, capsys):
        # 10**20 rounds turn 2.5e19 rad; float64 would print target_prob 0.0277 for 0.9925.
        code, out, err = run_cli(capsys, "grover", "--n", "64", "--steps", str(10**20), "--target", "3")
        assert (code, out) == (1, "")
        assert err == (
            f"error: {10**20} Grover rounds exceed 16341, the most one stage turns at full precision\n"
        )

    @pytest.mark.parametrize("backend", ["dense", "reduced"])
    def test_grover_step_bound_is_the_same_on_both_backends(self, capsys, backend):
        args = ("grover", "--n", "64", "--target", "3", "--backend", backend, "--format", "json")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *args, "--steps", str(10**20))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (
            f"error: {10**20} Grover rounds exceed 16341, the most one stage turns at full precision\n"
        )
        code, out, err = run_cli(capsys, *args, "--steps", "16341")
        assert (code, err) == (0, "")
        assert json.loads(out)["target_prob"] == 0.270811631605

    def test_a_thousand_blocks_still_run(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--n", str(2**20), "--k", "1024", "--target", "5", "--format", "json"
        )
        assert (code, err) == (0, "")
        assert len(json.loads(out)["block_probs"]) == 1024

    def test_dense_cap_overridable(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys,
            "simulate", "--n", "256", "--k", "2", "--backend", "dense",
            "--dense-cap", "256", "--format", "json", "--output", str(out_path),
        )
        assert code == 0

    @pytest.mark.parametrize(
        "args",
        [
            ("simulate", "--backend", "dense", "--n", "256"),
            ("grover", "--backend", "dense", "--n", "256"),
            ("demo", "--which", "step2-histogram", "--n", "64"),
        ],
    )
    def test_dense_cap_lowered_refuses(self, capsys, args):
        cap = str(int(args[-1]) // 2)
        code, _, err = run_cli(capsys, *args, "--dense-cap", cap)
        assert code == 1
        assert f"cap {cap}" in err

    @pytest.mark.parametrize(
        "args",
        [("--n", "0"), ("--err", "nan"), ("--err", "1.5"), ("--hidden-const", "inf")],
    )
    def test_bad_bounds_input(self, capsys, args):
        code, out, err = run_cli(capsys, "bounds", "--format", "json", *args)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--n", "50"), "N=50, err=0.01"),
            (("--err", "0.5"), "N=65536, err=0.5"),
        ],
    )
    def test_bounds_outside_regime_warns_in_one_line(self, capsys, args, message):
        code, out, err = run_cli(capsys, "bounds", *args)
        assert code == 0
        assert "query_floor" in out
        assert err == f"warning: outside the bound's stated regime (N >= 100, err <= 0.1): {message}\n"

    @pytest.mark.parametrize(
        "args, quantity",
        [
            (("optimize", "--k", "1" + "0" * 20), "K="),
            (("table", "--k", "4," + "1" + "0" * 20), "K="),
            (("bounds", "--n", "1" + "0" * 400), "N must be"),
            (("bounds", "--n", str(2**52 + 1)), "N must be"),
        ],
        ids=["optimize-k", "table-k", "bounds-n-400-digits", "bounds-n-2**52+1"],
    )
    def test_beyond_largest_n_names_quantity(self, capsys, args, quantity):
        code, out, err = run_cli(capsys, *args)
        assert code == 1
        assert out == ""
        assert quantity in err and "2**52" in err

    @pytest.mark.parametrize(
        "args",
        [
            ("simulate", "--n", "0"),
            ("grover", "--n", "0"),
            ("demo", "--which", "step2-histogram", "--n", "0"),
            ("grover", "--n", "-4"),
        ],
    )
    def test_too_small_n_names_n(self, capsys, args):
        code, _, err = run_cli(capsys, *args)
        assert code == 1
        assert f"N={args[-1]}" in err

    @pytest.mark.parametrize("command", ["simulate", "grover", "classical"])
    def test_negative_seed_names_seed(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "args, quantity",
        [
            (("simulate", "--epsilon"), "epsilon"),
            (("demo", "--which", "step2-histogram", "--epsilon"), "epsilon"),
            (("optimize", "--k", "4", "--tol"), "tol"),
        ],
        ids=["simulate", "step2-histogram", "optimize"],
    )
    def test_non_finite_float_names_quantity(self, capsys, args, quantity, value):
        *head, flag = args
        code, out, err = run_cli(capsys, *head, f"{flag}={value}")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert quantity in err

    @pytest.mark.parametrize("command", ["optimize", "table", "classical", "bounds"])
    def test_dense_cap_only_on_dense_commands(self, capsys, command):
        code, _, _ = run_cli(capsys, command, "--k", "4", "--dense-cap", "64")
        assert code == 1

    def test_internal_failure_maps_to_2(self, capsys, monkeypatch):
        import partialsearch.cli as cli_mod

        def boom(args):
            raise AssertionError("synthetic failure")

        monkeypatch.setattr(cli_mod, "_dispatch", boom)
        code, _, err = run_cli(capsys, "optimize", "--k", "4")
        assert code == 2
        assert "internal" in err

    def test_internal_value_error_maps_to_2(self, capsys, monkeypatch):
        # Only InvalidInstanceError is bad input; a failed internal check is not.
        import partialsearch.cli as cli_mod

        def boom(args):
            raise ValueError("reduced state is not normalized")

        monkeypatch.setattr(cli_mod, "_dispatch", boom)
        code, out, err = run_cli(capsys, "optimize", "--k", "4")
        assert code == 2
        assert out == ""
        assert err == "internal error: ValueError: reduced state is not normalized\n"

    @pytest.mark.parametrize(
        "call",
        [
            lambda: optimize_epsilon(1),
            lambda: optimize_epsilon(4, tol=math.nan),
            lambda: iteration_counts(65536, 8, 0.9),
            lambda: simulate_randomized(12, 3, 0, 0),
            lambda: simulate_randomized(12, 3, 2**63, 0),
            lambda: simulate_randomized(2**64, 2, 10, 0),
            lambda: zalka_error_bound(0, 0.1),
            lambda: grover_script(-1),
            lambda: naive_quantum_coefficient(1),
            lambda: lower_bound_coefficient(0),
        ],
        ids=[
            "optimize-k1", "optimize-tol-nan", "infeasible-epsilon", "classical-no-trials",
            "classical-too-many-trials", "classical-huge-n", "zalka-n0", "grover-steps",
            "naive-k1", "lower-k0",
        ],
    )
    def test_library_input_errors_are_invalid_instance(self, call):
        with pytest.raises(InvalidInstanceError):
            call()

    def test_help_exits_zero(self, capsys):
        code, _, _ = run_cli(capsys, "--help")
        assert code == 0

    def test_runs_as_module(self):
        result = run_cli_module("optimize", "--k", "4", "--format", "json")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["K"] == 4

    def test_optimize_tol_below_float_spacing_returns(self):
        result = run_cli_module("optimize", "--k", "4", "--tol", "1e-16")
        assert result.returncode == 0, result.stderr


# Printed by the reduced backend with epsilon and target fixed, so neither the
# optimizer's last digits nor the seeded draw enter.  The literals pin the
# bytes across code versions; regenerate them only for an intended change.
GOLDEN_SIMULATE_ARGS = ("simulate", "--n", "65536", "--k", "4", "--epsilon", "0.5", "--target", "777")

GOLDEN_SIMULATE = {
    "json": """\
{
  "backend": "reduced",
  "block_probs": [
    0.999983279195,
    5.5736017818e-06,
    5.5736017818e-06,
    5.5736017818e-06
  ],
  "command": "simulate --n 65536 --k 4 --epsilon 0.5 --target 777 --format json",
  "epsilon": 0.5,
  "k": 4,
  "l1": 101,
  "l2": 59,
  "n": 65536,
  "predicted_block": 0,
  "queries": 161,
  "rows": [
    {
      "block": 0,
      "block_prob": 0.999983279195,
      "k": 4,
      "n": 65536,
      "queries": 161,
      "success_prob": 0.999983279195,
      "target": 777,
      "target_prob": 0.504228810903
    },
    {
      "block": 1,
      "block_prob": 5.5736017818e-06,
      "k": 4,
      "n": 65536,
      "queries": 161,
      "success_prob": 0.999983279195,
      "target": 777,
      "target_prob": 0.504228810903
    },
    {
      "block": 2,
      "block_prob": 5.5736017818e-06,
      "k": 4,
      "n": 65536,
      "queries": 161,
      "success_prob": 0.999983279195,
      "target": 777,
      "target_prob": 0.504228810903
    },
    {
      "block": 3,
      "block_prob": 5.5736017818e-06,
      "k": 4,
      "n": 65536,
      "queries": 161,
      "success_prob": 0.999983279195,
      "target": 777,
      "target_prob": 0.504228810903
    }
  ],
  "seed": 0,
  "success_prob": 0.999983279195,
  "target": 777,
  "target_prob": 0.504228810903,
  "tool": "partialsearch",
  "version": "0.1.0"
}
""",
    "csv": """\
# tool=partialsearch
# version=0.1.0
# command=simulate --n 65536 --k 4 --epsilon 0.5 --target 777 --format csv
# seed=0
# backend=reduced
# n=65536
# k=4
# target=777
# epsilon=0.5
# l1=101
# l2=59
# queries=161
# success_prob=0.999983279195
# target_prob=0.504228810903
# predicted_block=0
n,k,target,queries,success_prob,target_prob,block,block_prob
65536,4,777,161,0.999983279195,0.504228810903,0,0.999983279195
65536,4,777,161,0.999983279195,0.504228810903,1,5.5736017818e-06
65536,4,777,161,0.999983279195,0.504228810903,2,5.5736017818e-06
65536,4,777,161,0.999983279195,0.504228810903,3,5.5736017818e-06
""",
}


# The demos' pipelines and the text/CSV cell formatting, pinned the same way:
# (arguments, expected stdout).
GOLDEN_OTHER = {
    "twelve-items-csv": (
        ("demo", "--which", "twelve-items", "--format", "csv"),
        """\
# tool=partialsearch
# version=0.1.0
# command=demo --which twelve-items --format csv
# seed=0
# backend=
# queries=2
# success_prob=1
# target_prob=0.75
stage,block,slot,amplitude
0:start,0,0,0.288675134595
0:start,0,1,0.288675134595
0:start,0,2,0.288675134595
0:start,0,3,0.288675134595
0:start,1,0,0.288675134595
0:start,1,1,0.288675134595
0:start,1,2,0.288675134595
0:start,1,3,0.288675134595
0:start,2,0,0.288675134595
0:start,2,1,0.288675134595
0:start,2,2,0.288675134595
0:start,2,3,0.288675134595
1:oracle,0,0,0.288675134595
1:oracle,0,1,0.288675134595
1:oracle,0,2,0.288675134595
1:oracle,0,3,0.288675134595
1:oracle,1,0,0.288675134595
1:oracle,1,1,-0.288675134595
1:oracle,1,2,0.288675134595
1:oracle,1,3,0.288675134595
1:oracle,2,0,0.288675134595
1:oracle,2,1,0.288675134595
1:oracle,2,2,0.288675134595
1:oracle,2,3,0.288675134595
2:block_diffusion,0,0,0.288675134595
2:block_diffusion,0,1,0.288675134595
2:block_diffusion,0,2,0.288675134595
2:block_diffusion,0,3,0.288675134595
2:block_diffusion,1,0,0
2:block_diffusion,1,1,0.57735026919
2:block_diffusion,1,2,0
2:block_diffusion,1,3,0
2:block_diffusion,2,0,0.288675134595
2:block_diffusion,2,1,0.288675134595
2:block_diffusion,2,2,0.288675134595
2:block_diffusion,2,3,0.288675134595
3:oracle,0,0,0.288675134595
3:oracle,0,1,0.288675134595
3:oracle,0,2,0.288675134595
3:oracle,0,3,0.288675134595
3:oracle,1,0,0
3:oracle,1,1,-0.57735026919
3:oracle,1,2,0
3:oracle,1,3,0
3:oracle,2,0,0.288675134595
3:oracle,2,1,0.288675134595
3:oracle,2,2,0.288675134595
3:oracle,2,3,0.288675134595
4:global_diffusion,0,0,0
4:global_diffusion,0,1,0
4:global_diffusion,0,2,0
4:global_diffusion,0,3,0
4:global_diffusion,1,0,0.288675134595
4:global_diffusion,1,1,0.866025403784
4:global_diffusion,1,2,0.288675134595
4:global_diffusion,1,3,0.288675134595
4:global_diffusion,2,0,0
4:global_diffusion,2,1,0
4:global_diffusion,2,2,0
4:global_diffusion,2,3,0
""",
    ),
    "step2-histogram-csv": (
        ("demo", "--which", "step2-histogram", "--n", "16", "--k", "4", "--format", "csv"),
        """\
# tool=partialsearch
# version=0.1.0
# command=demo --which step2-histogram --n 16 --k 4 --format csv
# seed=0
# backend=
# n=16
# k=4
# epsilon=0.608173461021
# l1=1
# l2=1
stage,block,slot,amplitude
after_step1,0,0,0.1875
after_step1,0,1,0.1875
after_step1,0,2,0.1875
after_step1,0,3,0.1875
after_step1,1,0,0.1875
after_step1,1,1,0.1875
after_step1,1,2,0.1875
after_step1,1,3,0.1875
after_step1,2,0,0.1875
after_step1,2,1,0.1875
after_step1,2,2,0.1875
after_step1,2,3,0.1875
after_step1,3,0,0.1875
after_step1,3,1,0.6875
after_step1,3,2,0.1875
after_step1,3,3,0.1875
after_step2,0,0,0.1875
after_step2,0,1,0.1875
after_step2,0,2,0.1875
after_step2,0,3,0.1875
after_step2,1,0,0.1875
after_step2,1,1,0.1875
after_step2,1,2,0.1875
after_step2,1,3,0.1875
after_step2,2,0,0.1875
after_step2,2,1,0.1875
after_step2,2,2,0.1875
after_step2,2,3,0.1875
after_step2,3,0,-0.25
after_step2,3,1,0.625
after_step2,3,2,-0.25
after_step2,3,3,-0.25
""",
    ),
    "table-text": (
        ("table", "--k", "2,3,4,5,8,32"),
        """\
partialsearch 0.1.0  (command: table --k 2,3,4,5,8,32; seed: 0)

 K    epsilon_star     upper_coeff     lower_coeff     naive_coeff
 2               1  0.555360359819  0.230037796128   0.55536036727
 3  0.732279540784  0.590774502038  0.331948322339  0.641274915081
 4  0.608173461021   0.61547970867  0.392699081699  0.680174761588
 5  0.531884285291   0.63294423115  0.434157426845  0.702481473104
 8  0.407769176876  0.664520840011  0.507717979763  0.734672709909
32  0.197002523024  0.724870303933   0.64655807158  0.773028915353
""",
    ),
    "simulate-dense-json": (
        ("simulate", "--n", "4096", "--k", "4", "--target", "1234", "--backend", "dense", "--format", "json"),
        """\
{
  "backend": "dense",
  "block_probs": [
    0.000397425447527,
    0.998807723657,
    0.000397425447527,
    0.000397425447527
  ],
  "command": "simulate --n 4096 --k 4 --target 1234 --backend dense --format json",
  "epsilon": 0.608173461021,
  "k": 4,
  "l1": 20,
  "l2": 20,
  "n": 4096,
  "predicted_block": 1,
  "queries": 41,
  "rows": [
    {
      "block": 0,
      "block_prob": 0.000397425447527,
      "k": 4,
      "n": 4096,
      "queries": 41,
      "success_prob": 0.998807723657,
      "target": 1234,
      "target_prob": 0.323502610116
    },
    {
      "block": 1,
      "block_prob": 0.998807723657,
      "k": 4,
      "n": 4096,
      "queries": 41,
      "success_prob": 0.998807723657,
      "target": 1234,
      "target_prob": 0.323502610116
    },
    {
      "block": 2,
      "block_prob": 0.000397425447527,
      "k": 4,
      "n": 4096,
      "queries": 41,
      "success_prob": 0.998807723657,
      "target": 1234,
      "target_prob": 0.323502610116
    },
    {
      "block": 3,
      "block_prob": 0.000397425447527,
      "k": 4,
      "n": 4096,
      "queries": 41,
      "success_prob": 0.998807723657,
      "target": 1234,
      "target_prob": 0.323502610116
    }
  ],
  "seed": 0,
  "success_prob": 0.998807723657,
  "target": 1234,
  "target_prob": 0.323502610116,
  "tool": "partialsearch",
  "version": "0.1.0"
}
""",
    ),
    "simulate-dense-exact-theta-csv": (
        (
            "simulate", "--n", "1024", "--k", "8", "--target", "5",
            "--backend", "dense", "--exact-theta", "--format", "csv",
        ),
        """\
# tool=partialsearch
# version=0.1.0
# command=simulate --n 1024 --k 8 --target 5 --backend dense --exact-theta --format csv
# seed=0
# backend=dense
# n=1024
# k=8
# target=5
# epsilon=0.407769176876
# l1=15
# l2=6
# queries=22
# success_prob=0.999834847077
# target_prob=0.331751817819
# predicted_block=0
n,k,target,queries,success_prob,target_prob,block,block_prob
1024,8,5,22,0.999834847077,0.331751817819,0,0.999834847077
1024,8,5,22,0.999834847077,0.331751817819,1,2.35932747655e-05
1024,8,5,22,0.999834847077,0.331751817819,2,2.35932747655e-05
1024,8,5,22,0.999834847077,0.331751817819,3,2.35932747655e-05
1024,8,5,22,0.999834847077,0.331751817819,4,2.35932747655e-05
1024,8,5,22,0.999834847077,0.331751817819,5,2.35932747655e-05
1024,8,5,22,0.999834847077,0.331751817819,6,2.35932747655e-05
1024,8,5,22,0.999834847077,0.331751817819,7,2.35932747655e-05
""",
    ),
    "grover-dense-json": (
        ("grover", "--n", "1024", "--target", "3", "--backend", "dense", "--format", "json"),
        """\
{
  "backend": "dense",
  "block_probs": [
    1.0
  ],
  "command": "grover --n 1024 --target 3 --backend dense --format json",
  "epsilon": null,
  "k": 1,
  "l1": 25,
  "l2": 0,
  "n": 1024,
  "predicted_block": 0,
  "queries": 25,
  "rows": [
    {
      "block": 0,
      "block_prob": 1.0,
      "k": 1,
      "n": 1024,
      "queries": 25,
      "success_prob": 1.0,
      "target": 3,
      "target_prob": 0.999461244744
    }
  ],
  "seed": 0,
  "success_prob": 1.0,
  "target": 3,
  "target_prob": 0.999461244744,
  "tool": "partialsearch",
  "version": "0.1.0"
}
""",
    ),
    "bounds-text": (
        ("bounds", "--k", "4", "--n", "65536"),
        """\
partialsearch 0.1.0  (command: bounds --k 4 --n 65536; seed: 0)
     erring_search: n=65536, err=0.01, hidden_const=1, query_floor=168.389366232

K     lower_coeff     naive_coeff  large_k_coeff
4  0.392699081699  0.680174761588  0.61853385939
""",
    ),
    "bounds-csv": (
        ("bounds", "--k", "4", "--n", "65536", "--format", "csv"),
        """\
# tool=partialsearch
# version=0.1.0
# command=bounds --k 4 --n 65536 --format csv
# seed=0
# backend=
# erring_search.n=65536
# erring_search.err=0.01
# erring_search.hidden_const=1
# erring_search.query_floor=168.389366232
K,lower_coeff,naive_coeff,large_k_coeff
4,0.392699081699,0.680174761588,0.61853385939
""",
    ),
    # No --target: the target is drawn from the seed.
    "simulate-seeded-csv": (
        ("simulate", "--n", "4096", "--k", "4", "--seed", "9", "--format", "csv"),
        """\
# tool=partialsearch
# version=0.1.0
# command=simulate --n 4096 --k 4 --seed 9 --format csv
# seed=9
# backend=reduced
# n=4096
# k=4
# target=1726
# epsilon=0.608173461021
# l1=20
# l2=20
# queries=41
# success_prob=0.998807723657
# target_prob=0.323502610116
# predicted_block=1
n,k,target,queries,success_prob,target_prob,block,block_prob
4096,4,1726,41,0.998807723657,0.323502610116,0,0.000397425447527
4096,4,1726,41,0.998807723657,0.323502610116,1,0.998807723657
4096,4,1726,41,0.998807723657,0.323502610116,2,0.000397425447527
4096,4,1726,41,0.998807723657,0.323502610116,3,0.000397425447527
""",
    ),
    # The instance columns come from the command line, the rest from the run.
    "classical-json": (
        ("classical", "--n", "1200", "--k", "3", "--trials", "100000", "--seed", "0", "--format", "json"),
        """\
{
  "backend": null,
  "command": "classical --n 1200 --k 3 --trials 100000 --seed 0 --format json",
  "deterministic": 800.0,
  "exact_expected": 533.666666667,
  "expected_randomized": 533.333333333,
  "k": 3,
  "n": 1200,
  "rows": [
    {
      "deterministic": 800.0,
      "exact_expected": 533.666666667,
      "expected_randomized": 533.333333333,
      "k": 3,
      "n": 1200,
      "sample_mean": 532.88108,
      "sample_std_err": 0.841938996717,
      "trials": 100000
    }
  ],
  "sample_mean": 532.88108,
  "sample_std_err": 0.841938996717,
  "seed": 0,
  "tool": "partialsearch",
  "trials": 100000,
  "version": "0.1.0"
}
""",
    ),
    "classical-csv": (
        ("classical", "--n", "1200", "--k", "3", "--trials", "100000", "--seed", "0", "--format", "csv"),
        """\
# tool=partialsearch
# version=0.1.0
# command=classical --n 1200 --k 3 --trials 100000 --seed 0 --format csv
# seed=0
# backend=
# n=1200
# k=3
# trials=100000
# expected_randomized=533.333333333
# exact_expected=533.666666667
# deterministic=800
# sample_mean=532.88108
# sample_std_err=0.841938996717
n,k,trials,expected_randomized,exact_expected,deterministic,sample_mean,sample_std_err
1200,3,100000,533.333333333,533.666666667,800,532.88108,0.841938996717
""",
    ),
    "optimize-csv": (
        ("optimize", "--k", "4", "--format", "csv"),
        """\
# tool=partialsearch
# version=0.1.0
# command=optimize --k 4 --format csv
# seed=0
# backend=
# K=4
# epsilon_star=0.608173461021
# upper_coeff=0.61547970867
# lower_coeff=0.392699081699
# naive_coeff=0.680174761588
K,epsilon_star,upper_coeff,lower_coeff,naive_coeff
4,0.608173461021,0.61547970867,0.392699081699,0.680174761588
""",
    ),
}


class TestGoldenOutput:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_simulate_stdout(self, capsys, fmt):
        code, out, err = run_cli(capsys, *GOLDEN_SIMULATE_ARGS, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == GOLDEN_SIMULATE[fmt]

    @pytest.mark.parametrize("name", sorted(GOLDEN_OTHER))
    def test_other_stdout(self, capsys, name):
        args, expected = GOLDEN_OTHER[name]
        code, out, err = run_cli(capsys, *args)
        assert (code, err) == (0, "")
        assert out == expected


# Runs that need no arrays: reduced runs with a given target, the optimizer and the closed-form bounds.
NUMPY_FREE_RUNS = [
    ["simulate", "--n", str(2**34), "--k", "4", "--target", "5", "--format", "json"],
    ["grover", "--n", "1024", "--k", "4", "--target", "3", "--format", "csv"],
    ["optimize", "--k", "4"],
    ["table"],
    ["bounds"],
]

RUN_IN_FRESH_PROCESS = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None  # every later numpy import raises ImportError
from partialsearch.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        results.append([main(argv), out.getvalue()])
print(json.dumps({"results": results, "numpy_loaded": sys.modules.get("numpy") is not None}))
"""


@pytest.mark.parametrize("mode", ["block", "allow"])
def test_reduced_runs_load_no_numpy(capsys, mode):
    # Dense runs and the seeded target draw, which do load numpy, keep their
    # bytes in GOLDEN_OTHER ("simulate-dense-json", "simulate-seeded-csv").
    expected = [[0, run_cli(capsys, *argv)[1]] for argv in NUMPY_FREE_RUNS]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", RUN_IN_FRESH_PROCESS, mode, json.dumps(NUMPY_FREE_RUNS)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == {"results": expected, "numpy_loaded": False}


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_simulate_bytes_identical(self, capsys, tmp_path, fmt):
        path = tmp_path / f"report.{fmt}"
        args = (
            "simulate", "--n", "4096", "--k", "4", "--seed", "9",
            "--format", fmt, "--output", str(path),
        )
        assert run_cli(capsys, *args)[0] == 0
        first = path.read_bytes()
        assert run_cli(capsys, *args)[0] == 0
        assert path.read_bytes() == first

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_table_bytes_identical(self, capsys, tmp_path, fmt):
        path = tmp_path / f"table.{fmt}"
        args = ("table", "--k", "2,3,4", "--format", fmt, "--output", str(path))
        assert run_cli(capsys, *args)[0] == 0
        first = path.read_bytes()
        assert run_cli(capsys, *args)[0] == 0
        assert path.read_bytes() == first

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_stdout_bytes_identical(self, capsys, fmt):
        args = ("simulate", "--n", "4096", "--k", "4", "--seed", "9", "--format", fmt)
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b

    def test_different_seed_changes_target(self, capsys):
        _, out_a, _ = run_cli(capsys, "simulate", "--n", "4096", "--k", "2", "--seed", "1", "--format", "json")
        _, out_b, _ = run_cli(capsys, "simulate", "--n", "4096", "--k", "2", "--seed", "2", "--format", "json")
        assert json.loads(out_a)["target"] != json.loads(out_b)["target"]


class TestReports:
    def test_json_metadata(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--k", "8", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["tool"] == "partialsearch"
        assert doc["version"]
        assert doc["command"] == "optimize --k 8 --format json"
        assert doc["seed"] == 0

    def test_table_csv_schema_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--k", "2,3,4,5,8,32", "--format", "csv")
        assert code == 0
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        assert lines[0] == "K,epsilon_star,upper_coeff,lower_coeff,naive_coeff"
        reference = {
            "2": 0.555, "3": 0.592, "4": 0.615, "5": 0.633, "8": 0.664, "32": 0.725,
        }
        for line in lines[1:]:
            k, _, upper, lower, naive = line.split(",")
            assert float(upper) == pytest.approx(reference[k], abs=0.01)
            assert float(naive) > float(lower)

    def test_simulate_uses_optimizer_by_default(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--n", "65536", "--k", "4", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["epsilon"] == pytest.approx(optimize_epsilon(4)[0], abs=1e-9)
        assert doc["queries"] == doc["l1"] + doc["l2"] + 1
        assert doc["success_prob"] > 0.95

    def test_grover_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "grover", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["queries"] == round((math.pi / 4) * 32)
        assert doc["target_prob"] >= 0.999

    def test_classical_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "classical", "--n", "120", "--k", "3", "--trials", "2000", "--format", "json"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["expected_randomized"] == pytest.approx(60 * (1 - 1 / 9), abs=1e-9)
        assert doc["sample_mean"] is not None

    def test_bounds_report(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--k", "4,16", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["erring_search"]["query_floor"] > 0
        assert [row["K"] for row in doc["rows"]] == [4, 16]

    def test_demo_twelve_items(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "--which", "twelve-items", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["queries"] == 2
        assert doc["success_prob"] == pytest.approx(1.0, abs=1e-9)
        assert doc["target_prob"] == pytest.approx(0.75, abs=1e-9)
        assert len(doc["rows"]) == 5 * 12

    def test_demo_histogram_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "demo", "--which", "step2-histogram", "--n", "64", "--k", "4", "--format", "csv"
        )
        assert code == 0
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        assert lines[0] == "stage,block,slot,amplitude"
        assert len(lines) == 1 + 2 * 64

    def test_empty_k_list_rejected(self, capsys):
        code, _, err = run_cli(capsys, "table", "--k", ",")
        assert code == 1
        assert "empty" in err

    def test_output_file_written_once(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "table", "--k", "2", "--format", "csv", "--output", str(out_path))
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("# tool=partialsearch")


class TestOutputErrors:
    def test_unwritable_output_path(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "optimize", "--k", "4", "--output", str(tmp_path / "no" / "such" / "dir.json")
        )
        assert code == 1
        assert "cannot write" in err
