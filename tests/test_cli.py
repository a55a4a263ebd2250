import json
import math
import os
import subprocess
import sys
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
from partialsearch.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "partialsearch.cli", "optimize", "--k", "4", "--format", "json"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["K"] == 4


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


class TestGoldenOutput:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_simulate_stdout(self, capsys, fmt):
        code, out, err = run_cli(capsys, *GOLDEN_SIMULATE_ARGS, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == GOLDEN_SIMULATE[fmt]


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
