"""End-to-end command-line behavior.

Covers the serialization contracts (fixed CSV header, NDJSON rows,
17-significant-digit round-tripping), exit codes, grid ordering, and
byte-level determinism of seeded runs.  Most tests run ``cli.main`` in
this process; the ones about the process itself (cold-start imports,
determinism across fresh interpreters, the exit status of
``python -m recinacc``) start real subprocesses.
"""

import ast
import contextlib
import io
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from conftest import CHILD_ENV
from recinacc import cli


def run_cli(*args):
    """``recinacc ARGS`` in this process: its stdout, its stderr (warnings
    included, as a fresh process would print them) and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse rejected the arguments
            code = 0 if exc.code is None else exc.code
    shown = "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught
    )
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue() + shown)


def run_module(*args):
    """``python -m recinacc ARGS`` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "recinacc", *args],
        capture_output=True,
        text=True,
        timeout=600,
        env=CHILD_ENV,
    )


HEADER = "measure,dist,params,side,n,k,method,value,abs_error_estimate,seed"


class TestCompute:
    def test_exponential_kerridge_example(self):
        res = run_cli(
            "compute", "--dist", "exponential", "--param", "theta=2",
            "--measure", "kerridge", "--side", "upper", "--n", "3", "--k", "2",
        )
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == HEADER
        fields = lines[1].split(",")
        assert fields[0] == "kerridge"
        assert fields[2] == "theta=2"
        assert fields[6] == "closed_form"
        assert float(fields[7]) == pytest.approx(1.5 - math.log(2.0), abs=1e-15)

    def test_uniform_cri_json(self):
        res = run_cli(
            "compute", "--dist", "uniform", "--measure", "cri",
            "--side", "upper", "--n", "2", "--k", "1", "--format", "json",
        )
        assert res.returncode == 0
        row = json.loads(res.stdout.strip())
        assert row["value"] == 0.5
        assert row["method"] == "closed_form"
        assert row["params"] == {}
        assert "seed" not in row

    def test_uniform_lower_kerridge_vanishes(self):
        res = run_cli(
            "compute", "--dist", "uniform", "--measure", "kerridge",
            "--side", "lower", "--n", "4", "--k", "3",
        )
        assert res.returncode == 0
        assert res.stdout.splitlines()[1].split(",")[7] == "0"

    def test_value_round_trips_through_text(self):
        res = run_cli(
            "compute", "--dist", "exponential", "--param", "theta=3",
            "--measure", "kerridge", "--side", "upper", "--n", "1", "--k", "1",
        )
        printed = float(res.stdout.splitlines()[1].split(",")[7])
        assert printed == 1.0 - math.log(3.0)

    def test_mc_records_seed(self):
        res = run_cli(
            "compute", "--dist", "exponential", "--param", "theta=1",
            "--measure", "kerridge", "--side", "upper", "--n", "2", "--k", "1",
            "--method", "mc", "--seed", "5", "--format", "json",
        )
        assert res.returncode == 0
        row = json.loads(res.stdout.strip())
        assert row["seed"] == 5
        assert row["method"] == "monte_carlo"
        assert abs(row["value"] - 2.0) <= row["abs_error_estimate"]

    def test_generic_measure_between_record_law_and_parent(self):
        res = run_cli(
            "compute", "--dist", "uniform", "--measure", "kl",
            "--side", "upper", "--n", "1", "--k", "1", "--format", "json",
        )
        assert res.returncode == 0
        row = json.loads(res.stdout.strip())
        # first record equals the parent itself, so the divergence is zero
        assert abs(row["value"]) < 1e-9
        assert row["method"] == "quadrature"


class TestRowBytes:
    def test_closed_form_csv_row(self):
        res = run_cli(
            "compute", "--dist", "exponential", "--param", "theta=2",
            "--measure", "cri", "--side", "upper", "--n", "3", "--k", "2",
        )
        assert res.stdout == HEADER + "\ncri,exponential,theta=2,upper,3,2,closed_form,0.75,0,\n"

    def test_seeded_monte_carlo_json_row(self):
        res = run_cli(
            "compute", "--dist", "exponential", "--param", "theta=1",
            "--measure", "kerridge", "--side", "upper", "--n", "2", "--k", "1",
            "--method", "mc", "--seed", "5", "--format", "json",
        )
        assert res.stdout == (
            '{"measure": "kerridge", "dist": "exponential", "params": {"theta": 1}, '
            '"side": "upper", "n": 2, "k": 1, "method": "monte_carlo", '
            '"value": 1.9967062565014453, "abs_error_estimate": 0.01338352574517236, '
            '"seed": 5}\n'
        )

    @pytest.mark.parametrize("argv, row", [
        (("--dist", "pareto", "--param", "theta=2", "--measure", "kl", "--side", "upper",
          "--n", "2", "--k", "1"),
         HEADER + "\nkl,pareto,theta=2,upper,2,1,quadrature,0.42278433509854318,"
         "1.2210902356720795e-10,\n"),
        (("--dist", "weibull", "--param", "lambda=2", "--param", "beta=0.5", "--measure", "kl",
          "--side", "lower", "--n", "3", "--k", "2", "--format", "json"),
         '{"measure": "kl", "dist": "weibull", "params": {"lambda": 2, "beta": 0.5}, '
         '"side": "lower", "n": 3, "k": 2, "method": "quadrature", '
         '"value": 0.34556867019746645, "abs_error_estimate": 1.4994146261903468e-10}\n'),
        (("--dist", "pareto", "--param", "theta=2", "--measure", "kij", "--side", "upper",
          "--n", "2", "--k", "1"),
         HEADER + "\nkij,pareto,theta=2,upper,2,1,quadrature,-0.1600000000000158,"
         "7.3833697070167095e-11,\n"),
        (("--dist", "weibull", "--param", "lambda=2", "--param", "beta=0.5", "--measure", "kij",
          "--side", "lower", "--n", "3", "--k", "2", "--format", "json"),
         '{"measure": "kij", "dist": "weibull", "params": {"lambda": 2, "beta": 0.5}, '
         '"side": "lower", "n": 3, "k": 2, "method": "quadrature", '
         '"value": -6.6301283392054779, "abs_error_estimate": 2.9127170434150523e-09}\n'),
    ], ids=["kl-csv", "kl-json", "kij-csv", "kij-json"])
    def test_quadrature_only_measure_rows(self, argv, row):
        res = run_cli("compute", *argv)
        assert res.returncode == 0, res.stderr
        assert res.stdout == row

    def test_json_error_row(self):
        res = run_cli(
            "table", "--dist", "power-inc", "--param", "m=2", "--measure", "cpi",
            "--side", "lower", "--n", "1", "--k", "1", "--method", "closed",
            "--format", "json",
        )
        assert res.returncode == 2
        assert res.stdout == (
            '{"measure": "cpi", "dist": "power-inc", "params": {"m": 2}, '
            '"side": "lower", "n": 1, "k": 1, "method": "error", "value": null, '
            '"abs_error_estimate": null, '
            '"error": "no closed form is known for past inaccuracy on power_increasing"}\n'
        )

    def test_redirect_stdout_captures_main(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([
                "compute", "--dist", "uniform", "--measure", "cri",
                "--side", "upper", "--n", "2", "--k", "1",
            ])
        assert code == 0
        assert buf.getvalue().splitlines()[0] == HEADER


class TestExitCodes:
    def test_missing_parameter_is_usage_error(self):
        res = run_cli(
            "compute", "--dist", "exponential", "--measure", "kerridge",
            "--side", "upper", "--n", "1", "--k", "1",
        )
        assert res.returncode == 2
        assert "theta" in res.stderr

    def test_unknown_measure_is_usage_error(self):
        res = run_cli(
            "compute", "--dist", "uniform", "--measure", "entropy",
            "--side", "upper", "--n", "1", "--k", "1",
        )
        assert res.returncode == 2

    def test_method_without_route_is_usage_error(self):
        res = run_cli(
            "compute", "--dist", "uniform", "--measure", "kij",
            "--side", "upper", "--n", "1", "--k", "1", "--method", "gamma",
        )
        assert res.returncode == 2
        assert res.stderr == "error: no gamma_expectation route is known for extropy inaccuracy\n"

    def test_measure_choices_are_the_record_measure_table(self):
        # one list of measures: the CLI offers the table's keys, in its order
        assert tuple(cli.MEASURES) == (
            "kerridge", "cri", "cpi", "cpij", "crij", "kij", "kl", "relinfo")
        for command in ("compute", "table"):
            res = run_cli(command, "--help")
            assert "--measure {kerridge,cri,cpi,cpij,crij,kij,kl,relinfo}" in res.stdout

    def test_wrong_side_for_cri_is_usage_error(self):
        res = run_cli(
            "compute", "--dist", "uniform", "--measure", "cri",
            "--side", "lower", "--n", "1", "--k", "1",
        )
        assert res.returncode == 2

    @pytest.mark.parametrize("cell, code, stderr", [
        (("--dist", "weibull", "--param", "lambda=1e-300", "--param", "beta=1e-300",
          "--n", "2"), 0, ""),
        (("--dist", "exponential", "--param", "theta=1", "--n", "100000000", "--method", "mc"),
         2, "error: count * n = 10000000000000 draws exceeds the budget of 100000000\n"),
    ], ids=["weibull-product-underflows", "mc-draw-budget"])
    def test_extreme_arguments_exit_without_a_traceback(self, cell, code, stderr):
        # both raised bare Python exceptions: ValueError, MemoryError
        res = run_cli("compute", *cell, "--measure", "kerridge", "--side", "upper", "--k", "1")
        assert res.returncode == code
        assert res.stderr == stderr

    def test_divergent_measure_exits_three(self):
        res = run_cli(
            "compute", "--dist", "exponential", "--param", "theta=1",
            "--measure", "cpij", "--side", "upper", "--n", "2", "--k", "1",
        )
        assert res.returncode == 3
        assert "diverg" in res.stderr.lower()

    def test_heavy_tail_divergence_exits_three(self):
        res = run_cli(
            "compute", "--dist", "pareto", "--param", "theta=0.5",
            "--measure", "cri", "--side", "upper", "--n", "1", "--k", "1",
        )
        assert res.returncode == 3

    def test_value_past_the_double_range_exits_three(self):
        # auto keeps the gamma route's failure, where quadrature in its
        # place said "divergent: ... appears divergent"
        res = run_cli(
            "compute", "--dist", "pareto", "--param", "theta=2",
            "--measure", "cri", "--side", "upper", "--n", "3000", "--k", "1",
        )
        assert res.returncode == 3
        assert res.stderr.startswith("quadrature failure: the gamma route cannot evaluate ")
        assert res.stderr.endswith(" passes the double range, and so does the value\n")

    def test_table_missing_parameter_is_usage_error(self):
        # the same message and exit code as compute, not a traceback
        args = ("--dist", "exponential", "--measure", "kerridge", "--side", "upper")
        res = run_cli("table", *args, "--n", "1..2", "--k", "1")
        single = run_cli("compute", *args, "--n", "1", "--k", "1")
        assert res.returncode == single.returncode == 2
        assert res.stdout == ""
        assert res.stderr == single.stderr
        assert "missing ['theta']" in res.stderr

    @pytest.mark.parametrize("command, args, message", [
        ("compute", ("--n", "1", "--param", "theta"), "--param expects name=value, got 'theta'"),
        ("compute", ("--n", "1", "--param", "theta=abc"),
         "parameter theta has non-numeric value 'abc'"),
        ("table", ("--n", "1..x", "--param", "theta=1"), "--n expects INT or LO..HI, got '1..x'"),
        ("table", ("--n", "1", "--param-grid", "theta"),
         "--param-grid expects name=v1,v2,..., got 'theta'"),
        ("table", ("--n", "1", "--param-grid", "theta=a,b"),
         "--param-grid 'theta=a,b' has a non-numeric value"),
        ("compute", ("--n", "1", "--param", "theta=1", "--param", "theta=2"),
         "parameter theta is given twice"),
        ("table", ("--n", "1", "--param", "theta=2", "--param-grid", "theta=3"),
         "parameter theta is given twice"),
        ("table", ("--n", "1", "--param-grid", "theta=2", "--param-grid", "theta=3"),
         "parameter theta is given twice"),
        ("table", ("--n", "1", "--param-grid", "theta=2,1,2.0"),
         "--param-grid 'theta=2,1,2.0' lists a value twice"),
    ], ids=["param-without-value", "param-not-a-number", "range-not-an-int",
            "grid-without-values", "grid-not-numbers", "param-twice", "param-and-grid",
            "grid-twice", "grid-value-twice"])
    def test_parse_errors_are_usage_errors(self, command, args, message):
        res = run_cli(command, "--dist", "exponential", "--measure", "kerridge",
                      "--side", "upper", "--k", "1", *args)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("m", ["inf", "nan", "2.5"])
    def test_non_integer_power_is_usage_error(self, m):
        res = run_cli(
            "compute", "--dist", "power-inc", "--param", f"m={m}",
            "--measure", "cpi", "--side", "lower", "--n", "1", "--k", "1",
        )
        assert res.returncode == 2
        assert res.stderr == f"error: parameter m must be an integer, got {float(m)!r}\n"

    # one cell of each failure kind: a usage error, a divergence and a
    # Monte Carlo estimate contaminated by non-finite values
    @pytest.mark.parametrize("cell", [
        ("--dist", "uniform", "--measure", "kij", "--method", "gamma", "--side", "upper"),
        ("--dist", "pareto", "--param", "theta=0.5", "--measure", "cri", "--side", "upper"),
        ("--dist", "pareto", "--param", "theta=0.001", "--measure", "cpi",
         "--side", "lower", "--method", "mc"),
    ])
    def test_compute_exits_like_a_one_cell_table(self, cell):
        single = run_cli("compute", *cell, "--n", "1", "--k", "1")
        table = run_cli("table", *cell, "--n", "1", "--k", "1")
        assert single.returncode == table.returncode in (2, 3)
        assert single.stdout == ""
        assert len(single.stderr.splitlines()) == 1
        assert "Traceback" not in single.stderr

    def test_contamination_exits_three(self):
        res = run_cli(
            "compute", "--dist", "pareto", "--param", "theta=0.001", "--measure", "cpi",
            "--side", "lower", "--n", "1", "--k", "1", "--method", "mc",
        )
        assert res.returncode == 3
        assert res.stderr.startswith("failed: cpi term 0: ")
        assert res.stderr.endswith("non-finite, above the 0.01% tolerance\n")

    def test_empty_range_exits_two(self):
        res = run_cli(
            "table", "--dist", "uniform", "--measure", "cri",
            "--side", "upper", "--n", "5..2", "--k", "1",
        )
        assert res.returncode == 2


class TestTable:
    def test_grid_values_and_order(self):
        res = run_cli(
            "table", "--dist", "exponential", "--param", "theta=1",
            "--measure", "kerridge", "--side", "upper", "--n", "1..5", "--k", "1..3",
        )
        assert res.returncode == 0
        rows = [line.split(",") for line in res.stdout.splitlines()[1:]]
        assert len(rows) == 15
        seen = [(int(r[4]), int(r[5])) for r in rows]
        assert seen == sorted(seen)
        for r in rows:
            assert float(r[7]) == pytest.approx(int(r[4]) / int(r[5]), abs=1e-12)

    def test_uniform_partial_sums(self):
        res = run_cli(
            "table", "--dist", "uniform", "--measure", "cri",
            "--side", "upper", "--n", "1..3", "--k", "1",
        )
        values = [float(line.split(",")[7]) for line in res.stdout.splitlines()[1:]]
        assert values == [0.25, 0.5, 0.6875]

    def test_param_grid_sorted_within_cell(self):
        res = run_cli(
            "table", "--dist", "pareto", "--measure", "kerridge", "--side", "upper",
            "--n", "1..2", "--k", "1", "--param-grid", "theta=2,0.5,1",
        )
        assert res.returncode == 0
        rows = res.stdout.splitlines()[1:]
        assert len(rows) == 6
        keys = [(int(r.split(",")[4]), r.split(",")[2]) for r in rows]
        assert keys == [
            (1, "theta=0.5"), (1, "theta=1"), (1, "theta=2"),
            (2, "theta=0.5"), (2, "theta=1"), (2, "theta=2"),
        ]

    def test_partial_failures_keep_exit_zero(self):
        res = run_cli(
            "table", "--dist", "pareto", "--measure", "cri", "--side", "upper",
            "--n", "1..1", "--k", "1..1", "--param-grid", "theta=0.5,3",
            "--format", "json",
        )
        assert res.returncode == 0
        rows = [json.loads(line) for line in res.stdout.splitlines()]
        assert len(rows) == 2
        failed = [r for r in rows if r["method"] == "error"]
        good = [r for r in rows if r["method"] != "error"]
        assert len(failed) == 1 and len(good) == 1
        assert failed[0]["value"] is None
        assert "error" in failed[0]
        assert good[0]["params"] == {"theta": 3}

    def test_all_cells_divergent_exits_three(self):
        res = run_cli(
            "table", "--dist", "pareto", "--param", "theta=0.5",
            "--measure", "cri", "--side", "upper", "--n", "1..2", "--k", "1",
        )
        assert res.returncode == 3


# one parameter set per --dist choice
TABLE_FAMILIES = [
    ("exponential", "theta=2"),
    ("pareto", "theta=2"),
    ("weibull", "lambda=2", "beta=0.5"),
    ("uniform",),
    ("power-dec",),
    ("power-inc", "m=2"),
]
PINNED = Path(__file__).parent / "pinned"


def default_tables() -> str:
    """Default ``table`` output (CSV, n 1..3, k 1..2) of cri upper and cpi
    lower on every family, each after the command that printed it."""
    text = []
    for dist, *params in TABLE_FAMILIES:
        for measure, side in (("cri", "upper"), ("cpi", "lower")):
            argv = ["table", "--dist", dist, *(a for p in params for a in ("--param", p)),
                    "--measure", measure, "--side", side, "--n", "1..3", "--k", "1..2"]
            res = run_cli(*argv)
            assert (res.returncode, res.stderr) == (0, ""), argv
            text.append("$ recinacc " + " ".join(argv) + "\n" + res.stdout)
    return "".join(text)


def test_default_tables_are_pinned():
    # a change of the route auto takes, or of its digits, shows up as a diff
    assert default_tables() == (PINNED / "table_default.txt").read_text()


class TestNumpyWarnings:
    # both print correct error rows; numpy's warnings about the same
    # non-finite values would only be noise above them
    def test_overflowing_generic_measure_table(self):
        res = run_cli(
            "table", "--dist", "weibull", "--param", "lambda=2", "--param", "beta=0.5",
            "--measure", "kij", "--side", "lower", "--n", "2..4", "--k", "1..2",
        )
        assert res.returncode == 0
        assert ",error,,," in res.stdout
        assert "RuntimeWarning" not in res.stderr

    def test_contaminated_monte_carlo_table(self):
        res = run_cli(
            "table", "--dist", "pareto", "--param", "theta=0.001", "--measure", "cpi",
            "--side", "lower", "--n", "1", "--k", "1", "--method", "mc",
        )
        assert res.returncode == 3
        assert "RuntimeWarning" not in res.stderr


class TestModuleEntryPoint:
    # the exit status a shell sees from python -m recinacc
    @pytest.mark.parametrize("code, args", [
        (0, ("--dist", "exponential", "--param", "theta=2", "--measure", "kerridge",
             "--side", "upper")),
        (2, ("--dist", "exponential", "--measure", "kerridge", "--side", "upper")),
        (3, ("--dist", "pareto", "--param", "theta=0.001", "--measure", "cpi",
             "--side", "lower", "--method", "mc")),
    ])
    def test_exit_status(self, code, args):
        res = run_module("compute", *args, "--n", "1", "--k", "1")
        assert res.returncode == code
        assert "Traceback" not in res.stderr
        assert bool(res.stdout) == (code == 0)
        assert len(res.stderr.splitlines()) == (code != 0)


class TestDeterminism:
    def test_seeded_tables_are_byte_identical(self):
        args = (
            "table", "--dist", "exponential", "--param", "theta=1",
            "--measure", "kerridge", "--side", "upper", "--n", "1..2", "--k", "1..2",
            "--method", "mc", "--seed", "11",
        )
        first = run_module(*args)
        second = run_module(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        other = run_module(*args[:-1], "12")
        assert other.stdout != first.stdout


class TestVerify:
    def test_reference_suite_passes(self):
        res = run_cli("verify", "--suite", "paper-examples")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        report = json.loads(lines[-1])
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"])
        assert any(line.startswith("PASS") for line in lines)

    def test_unknown_suite_rejected(self):
        res = run_cli("verify", "--suite", "everything")
        assert res.returncode == 2

    def test_oracle_suite_reports_generator(self):
        res = run_cli("verify", "--suite", "oracle", "--seed", "42")
        assert res.returncode == 0
        report = json.loads(res.stdout.splitlines()[-1])
        assert "PCG64" in report["generator"]
        assert report["seed"] == 42

    def test_negative_oracle_seed_is_usage_error(self):
        # the samplers reject the seed themselves, so it is one stderr line
        res = run_cli("verify", "--suite", "oracle", "--seed", "-1")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.strip() == "error: seed must be an integer >= 0, got -1"


class TestColdStart:
    def test_scipy_loads_on_first_use(self):
        # scipy takes a large share of a cold start; numerics loads it on
        # first use, so import, help, the closed forms, a closed-form table
        # and Monte Carlo never load it.  The gamma route and the oracle
        # suite load scipy.special's compiled ufuncs alone: not the
        # scipy.special package, whose init imports its array-API layer and
        # with it numpy.f2py, numpy.testing and numpy.ma; nor scipy.stats
        # (the suite computes its KS p-values itself) nor scipy.linalg
        # (nothing needs it).  numpy.random waits for the first sampler:
        # Monte Carlo here
        args = {
            "compute exponential cri": "compute --dist exponential --param theta=2 --measure cri"
                                       " --side upper --n 3 --k 2",
            "compute pareto kerridge": "compute --dist pareto --param theta=2 --measure kerridge"
                                       " --side upper --n 3 --k 2",
            "compute uniform cpi": "compute --dist uniform --measure cpi --side lower --n 3 --k 2",
            "compute power-dec kerridge": "compute --dist power-dec --measure kerridge"
                                          " --side upper --n 3 --k 2",
            "table exponential": "table --dist exponential --param theta=2 --measure kerridge"
                                 " --side upper --n 1..3 --k 1..2",
            "compute exponential mc": "compute --dist exponential --param theta=2 --measure kerridge"
                                      " --side upper --n 3 --k 2 --method mc --seed 7",
            "compute exponential gamma": "compute --dist exponential --param theta=2"
                                         " --measure kerridge --side upper --n 3 --k 2 --method gamma",
            "verify oracle": "verify --suite oracle --seed 0",
        }
        probe = "\n".join([
            "import contextlib, io, json, sys",
            "def loaded(step):",
            "    heavy = ('numpy.random', 'scipy', 'scipy.special._ufuncs', 'scipy.special',",
            "             'scipy._lib._array_api', 'scipy.stats', 'scipy.linalg', 'numpy.f2py',",
            "             'numpy.testing', 'numpy.ma')",
            "    print(json.dumps([step, [m for m in heavy if m in sys.modules]]))",
            "import recinacc",
            "loaded('import recinacc')",
            "from recinacc import cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    try:",
            "        cli.main(['--help'])",
            "    except SystemExit:",
            "        pass",
            "loaded('--help')",
            f"for step, argv in {args!r}.items():",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert cli.main(argv.split()) == 0, step",
            "    loaded(step)",
        ])
        res = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=600,
            env=CHILD_ENV,
        )
        assert res.returncode == 0, res.stderr
        steps = dict(json.loads(line) for line in res.stdout.splitlines())
        assert len(steps) == len(args) + 2
        assert {step: mods for step, mods in steps.items() if mods} == {
            "compute exponential mc": ["numpy.random"],
            "compute exponential gamma": ["numpy.random", "scipy", "scipy.special._ufuncs"],
            "verify oracle": ["numpy.random", "scipy", "scipy.special._ufuncs"],
        }

    def test_no_module_imports_scipy_stats(self):
        # the cold start above follows one seed's path; no path of any module
        # may import scipy.stats, which takes 0.6-0.7 s to load
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                else:
                    continue
                stats = [n for n in names if n == "scipy.stats" or n.startswith("scipy.stats.")]
                assert not stats, f"{path.name}:{node.lineno} imports {stats[0]}"
