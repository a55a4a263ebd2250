"""The CLI's exit codes as a property: no argument vector of the six commands exits 2 (an internal error), and a
vector prints the same bytes each time it runs.  A numeric option reads its value the same way as ``--opt V`` and as
``--opt=V``, negative values in e-notation included.

Each value is mostly a valid one and now and then one at or past an edge the command checks.  Dense instances keep
N <= 2**12 (an edge past that is refused before any run), Monte Carlo runs at most 10**4 trials and report tables
stay short, so the whole search takes a second or two.
"""
import contextlib
import io
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from partialsearch.cli import main  # noqa: E402

DENSE_N = 2**12
MAX_TRIALS = 10**4
COMMANDS = ["simulate", "grover", "optimize", "table", "classical", "bounds"]

# Too small, or past a limit: the report's 2**20 rows, the dense cap 2**24, the float-exact 2**52, int64's 2**63.
LOW = st.integers(max_value=1)
BAD_INT = st.one_of(LOW, st.sampled_from([2**20 + 1, 2**24 + 4, 2**52 + 4, 2**53, 2**63, 2**64]))
BAD_FLOAT = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, -1e-300, -1.0, 1.0 + 2**-52, 1e308])
# Tokens the parser refuses where it wants a number or an integer.
JUNK = st.sampled_from(["", "x", "1e3", "0x10", "2.5", "--"])


def either(valid, edge):
    """Mostly a valid value; one time in four a value at or past an edge."""
    return st.integers(0, 3).flatmap(lambda i: edge if i == 3 else valid)


def option(flag, values):
    """``flag=value``, so a value such as -1e+16 is not read as an option, or nothing, so the default holds."""
    return st.one_of(st.just([]), values.map(lambda value: [f"{flag}={value}"]))


@st.composite
def instance(draw, top, least_k=1, target=True):
    """--n, a multiple of --k up to ``top``, and --target in range, each sometimes past an edge instead."""
    k = draw(either(st.integers(least_k, 64), st.one_of(LOW, st.sampled_from([2**20 + 1, 2**53]))))
    past = st.sampled_from([p for p in (2**24 + 4, 2**52 + 4, 2**63, 2**64) if p > max(top, 2**24)])
    n = draw(either(st.integers(1, max(1, top // max(k, 1))).map(lambda m: k * m), st.one_of(LOW, past)))
    args = [f"--n={n}", f"--k={k}"]
    if target:
        args += draw(option("--target", either(st.integers(0, max(n - 1, 0)), BAD_INT)))
    return args


@st.composite
def argv(draw, command):
    args = [command]
    args += draw(option("--format", st.sampled_from(["text", "json", "csv"])))
    args += draw(option("--seed", either(st.integers(0, 2**64), st.integers(max_value=-1))))
    epsilon = option("--epsilon", either(st.floats(0.0, 1.0), BAD_FLOAT))
    k_list = st.lists(either(st.integers(1, 2**52), BAD_INT), min_size=1, max_size=5)
    if command in ("simulate", "grover"):
        backend = draw(st.sampled_from(["dense", "reduced"]))
        least_k = 2 if command == "simulate" else 1
        args += [f"--backend={backend}", *draw(instance(DENSE_N if backend == "dense" else 2**52, least_k))]
        if command == "simulate":
            args += draw(epsilon) + draw(st.sampled_from([[], ["--exact-theta"]]))
        else:
            args += draw(option("--steps", either(st.integers(0, 4096), BAD_INT)))
    elif command == "optimize":
        args += [f"--k={draw(either(st.integers(2, 2**52), BAD_INT))}"]
    elif command in ("table", "bounds"):
        args += draw(option("--k", k_list.map(lambda ks: ",".join(map(str, ks)))))
    if command == "classical":
        args += draw(instance(2**63, target=False))
        args += draw(option("--trials", either(st.integers(1, MAX_TRIALS), st.sampled_from([-1, 0, 2**63]))))
    elif command == "bounds":
        args += draw(option("--n", either(st.integers(1, 2**52), BAD_INT)))
        args += draw(option("--err", either(st.floats(0.0, 1.0), BAD_FLOAT)))
        args += draw(option("--hidden-const", either(st.floats(1e-3, 10.0), BAD_FLOAT)))
    if draw(st.integers(0, 9)) == 9:  # one token the parser refuses
        args[draw(st.integers(0, len(args) - 1))] = draw(JUNK)
    return args


def run(args):
    """One in-process run: its exit code, stdout and stderr.  The suite's filters turn a RuntimeWarning into an
    error, so a run that warns of overflow or an invalid value exits 2 here and fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
@settings(derandomize=True, database=None, max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_never_exits_2_and_repeats_its_output(command, data):
    args = data.draw(argv(command))
    code, out, err = run(args)
    assert code in (0, 1), err
    assert run(args)[:2] == (code, out)


# Each command's numeric options, after arguments that keep its run small; a drawn option overrides a fixed one.
NUMERIC_OPTIONS = {
    "simulate": (["--n=64", "--k=4", "--target=1"], ["--seed", "--n", "--k", "--epsilon", "--target"]),
    "grover": (["--n=64", "--target=1"], ["--seed", "--n", "--k", "--steps", "--target"]),
    "optimize": (["--k=4"], ["--seed", "--k"]),
    "table": ([], ["--seed", "--k"]),
    "classical": (["--trials=100"], ["--seed", "--n", "--k", "--trials"]),
    "bounds": ([], ["--seed", "--k", "--n", "--err", "--hidden-const"]),
}
# Numbers as a user might type them: integers, and floats in repr, e- and G-notation, signed, inf and nan included.
NUMBER = st.one_of(
    st.integers(-(2**64), 2**10).map(str),
    st.tuples(st.floats(max_value=2**10), st.sampled_from([repr, "{:e}".format, "{:G}".format])).map(
        lambda pair: pair[1](pair[0])
    ),
)


@st.composite
def numeric_option(draw):
    command = draw(st.sampled_from(COMMANDS))
    fixed, flags = NUMERIC_OPTIONS[command]
    return [command, *fixed], draw(st.sampled_from(flags)), draw(NUMBER)


@settings(derandomize=True, database=None, max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=numeric_option())
@example(case=(["simulate", "--n", "64", "--k", "4", "--target", "1"], "--epsilon", "-1.2e+19"))
def test_separate_and_joined_values_agree(case):
    # argparse once read -1.2e+19 after --epsilon as an unknown flag: `expected one argument`, where
    # --epsilon=-1.2e+19 reached the range check.
    args, flag, value = case
    separate, joined = run([*args, flag, value]), run([*args, f"{flag}={value}"])
    assert separate[0] in (0, 1), separate[2]
    assert (separate[0], separate[2]) == (joined[0], joined[2])
