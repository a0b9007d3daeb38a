"""End-to-end tests of the command-line surface and its exit-code contract."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import kuiperpair
from kuiperpair.cli import format_number, main, render_table, round_half_away
from kuiperpair.quantile import TestKind, kuiper_ltq, kuiper_utq
from reference_tables import VN_PAIRS, VNN_PAIRS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormatting:
    def test_half_away_from_zero(self):
        assert round_half_away(0.00005, 4) == 0.0001
        assert round_half_away(-0.00005, 4) == -0.0001
        assert round_half_away(1.23445, 4) == 1.2345
        assert round_half_away(2.5, 0) == 3.0

    def test_format_number(self):
        assert format_number(1.67581564, 4) == "1.6758"
        assert format_number(0.0, 4) == "0.0000"
        assert format_number(-1e-9, 4) == "0.0000"
        assert format_number(0.30596, 2) == "0.31"


class TestPairCommand:
    def test_one_sample_reference(self, capsys):
        code, out, err = run_cli(capsys, "pair", "--alpha", "0.05", "--n", "30")
        assert code == 0
        assert out == "c=1.6758 v=0.3060\n"

    def test_two_sample_reference(self, capsys):
        code, out, _ = run_cli(
            capsys, "pair", "--alpha", "0.05", "--n", "30", "--test", "vnn"
        )
        assert code == 0
        assert out == "c=2.4430 v=0.4460\n"

    def test_extreme_alpha_at_infinity(self, capsys):
        code, out, _ = run_cli(capsys, "pair", "--alpha", "1e-10", "--n", "inf")
        assert code == 0
        assert out.startswith("c=3.7226")
        assert out.endswith("v=0.0000\n")

    def test_direct_method_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "pair", "--alpha", "0.05", "--n", "30",
            "--method", "direct", "--guess", "1.5",
        )
        assert code == 0
        assert out == "c=1.6758 v=0.3060\n"

    def test_decimals_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "pair", "--alpha", "0.05", "--n", "30", "--decimals", "6"
        )
        assert code == 0
        assert out == "c=1.675816 v=0.305961\n"

    def test_solver_error_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "pair", "--alpha", "0.05", "--n", "5")
        assert code == 1
        assert "NumericalDomainError" in err
        assert out == ""

    def test_two_sample_rising_branch_root_exits_one(self, capsys):
        with pytest.warns(kuiperpair.GuessWindowWarning):
            code, out, err = run_cli(
                capsys, "pair", "--alpha", "0.05", "--n", "30", "--test", "vnn",
                "--guess", "0.505",
            )
        assert code == 1 and out == ""
        assert err.startswith("InadmissibleRootError: solved critical value 0.512208")

    def test_guess_warning_is_one_line_on_stderr(self):
        # A fresh interpreter with default warning filters, as a user runs it.
        src = str(Path(kuiperpair.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "kuiperpair", "pair", "--alpha", "0.1", "--n", "30",
             "--guess", "0.3"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            "GuessWindowWarning: guess 0.3 is at or below 0.5, the smallest "
            "admissible root for vn; attempting the solve anyway\n"
            "InadmissibleRootError: solved critical value 0.297428 is outside the "
            "admissible range (0.5, sqrt(n) = 5.47723) for vn, alpha=0.1, n=30\n"
        )

    def test_guess_warning_raised_as_error_is_one_line(self):
        # Under -W error the warning is an exception; it still ends as one line.
        src = str(Path(kuiperpair.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-W", "error::UserWarning", "-m", "kuiperpair", "pair",
             "--alpha", "0.1", "--n", "30", "--guess", "0.3"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            "GuessWindowWarning: guess 0.3 is at or below 0.5, the smallest "
            "admissible root for vn; attempting the solve anyway\n"
        )

    def test_main_restores_the_warning_format(self, capsys):
        before = warnings.formatwarning
        with pytest.warns(kuiperpair.GuessWindowWarning):
            run_cli(capsys, "pair", "--alpha", "0.1", "--n", "30", "--guess", "0.3")
        assert warnings.formatwarning is before

    @pytest.mark.parametrize(
        "argv",
        [
            ("pair", "--alpha", "1.5", "--n", "30"),
            ("pair", "--alpha", "0.05", "--n", "0"),
            ("pair", "--alpha", "0.05", "--n", "ten"),
            ("pair", "--alpha", "0.05"),
        ],
    )
    def test_usage_errors_exit_two(self, capsys, argv):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 2

    @pytest.mark.parametrize("guess", ["nan", "inf", "-1"])
    def test_bad_guess_exits_two_without_warning(self, capsys, guess):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "pair", "--alpha", "0.05", "--n", "30", "--guess", guess
            )
        assert code == 2 and out == ""
        assert err == f"error: guess must be finite and positive, got {float(guess)}\n"

    @pytest.mark.parametrize("extra", [("--guess", "1e103"),
                                       ("--test", "vnn", "--guess", "1e200")])
    def test_huge_guess_exits_one_on_one_line(self, capsys, extra):
        code, out, err = run_cli(capsys, "pair", "--alpha", "0.05", "--n", "30", *extra)
        assert code == 1 and out == ""
        assert err.startswith("NumericalDomainError: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "pair", "--alpha", "0.01", "--n", "30")
        _, second, _ = run_cli(capsys, "pair", "--alpha", "0.01", "--n", "30")
        assert first == second


class TestTableCommand:
    def test_csv_long_form_round_trip(self, capsys):
        code, out, err = run_cli(
            capsys, "table",
            "--alphas", "0.10,0.05,0.01", "--ns", "10,20,30", "--test", "vn",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r.strip() for r in out.splitlines()[0].split(",")] == ["alpha", "n", "c", "v"]
        assert len(rows) == 9
        parsed = {
            (float(row["alpha"]), int(row["n"])): (float(row["c"]), float(row["v"]))
            for row in rows
        }
        assert parsed[(0.05, 30)] == (1.6758, 0.3060)
        assert parsed[(0.01, 30)] == (1.9252, 0.3515)

    def test_markdown_single_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--alphas", "0.10", "--ns", "inf",
            "--format", "markdown",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "| alpha | n=inf |"
        assert "(1.6196, 0.0000)" in lines[2]

    def test_vnn_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--alphas", "0.05", "--ns", "30", "--test", "vnn"
        )
        assert code == 0
        assert "0.05,30,2.4430,0.4460" in out

    def test_full_one_sample_reference_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "table",
            "--alphas", "0.10,0.05,0.01",
            "--ns", "10,20,30,40,100,180,1000000",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 21
        for row in rows:
            key = (float(row["alpha"]), int(row["n"]))
            c_ref, v_ref = VN_PAIRS[key]
            assert abs(float(row["c"]) - c_ref) <= 5e-4, key
            assert abs(float(row["v"]) - v_ref) <= 5e-4, key

    def test_full_two_sample_reference_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "table",
            "--alphas", "0.01,0.02,0.03,0.04,0.05,0.06,0.07,0.08,0.09,0.10",
            "--ns", "10,20,30,40,100,inf", "--test", "vnn",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 60
        for row in rows:
            # The published limit column was tabulated at n = 1e8; the exact
            # limit lands within the same tolerance.
            n_key = 10**8 if row["n"] == "inf" else int(row["n"])
            c_ref, v_ref = VNN_PAIRS[(float(row["alpha"]), n_key)]
            assert abs(float(row["c"]) - c_ref) <= 5e-4, row
            if row["n"] != "inf":
                assert abs(float(row["v"]) - v_ref) <= 5e-4, row

    def test_unsolvable_cell_renders_na_and_exits_one(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "--alphas", "0.05", "--ns", "5,30"
        )
        assert code == 1
        assert "0.05,5,NA,NA" in out
        assert "0.05,30,1.6758,0.3060" in out
        assert "unsolvable" in err
        assert "NumericalDomainError" in err

    def test_decimals_out_of_range_exits_two(self, capsys):
        code, _, _ = run_cli(
            capsys, "table", "--alphas", "0.05", "--ns", "30", "--decimals", "13"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("--alphas", ",", "--ns", "30"),
            ("--alphas", "0.05", "--ns", " "),
            ("--alphas", "0.05", "--ns", "30", "--format", "html"),
        ],
    )
    def test_empty_list_or_unknown_format_exits_two(self, capsys, argv):
        code, out, err = run_cli(capsys, "table", *argv)
        assert code == 2 and out == ""
        assert "usage:" in err

    def test_render_table_reports_failures(self):
        text, failures = render_table((0.05,), (5,), TestKind.ONE_SAMPLE)
        assert "NA,NA" in text
        assert len(failures) == 1


class TestQuantileCommands:
    def test_utq(self, capsys):
        code, out, _ = run_cli(capsys, "utq", "--alpha", "0.05", "--n", "30")
        assert code == 0 and out == "0.3060\n"

    def test_utq_guard(self, capsys):
        code, out, _ = run_cli(capsys, "utq", "--alpha", "0.99995", "--n", "17")
        assert code == 0 and out == "0.0000\n"

    def test_ltq(self, capsys):
        code, out, _ = run_cli(capsys, "ltq", "--alpha", "0.95", "--n", "30")
        assert code == 0 and out == "0.3060\n"

    def test_ltq_guard(self, capsys):
        code, out, _ = run_cli(capsys, "ltq", "--alpha", "0.00005", "--n", "30")
        assert code == 0 and out == "0.0000\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("utq", "--alpha", "1.5"), "alpha must lie in (0, 1], got 1.5"),
            (("utq", "--alpha", "0"), "alpha must lie in (0, 1], got 0.0"),
            (("ltq", "--alpha", "-2"), "alpha must lie in [0, 1), got -2.0"),
            (("ltq", "--alpha", "1"), "alpha must lie in [0, 1), got 1.0"),
            (("invcdf", "--p", "1.5"), "p must lie in [0, 1], got 1.5"),
        ],
    )
    def test_level_out_of_range_exits_two(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv, "--n", "30")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_invcdf(self, capsys):
        code, out, _ = run_cli(capsys, "invcdf", "--p", "0.90", "--n", "100")
        assert code == 0 and out == "0.1584\n"

    def test_invcdf_p_one_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "invcdf", "--p", "1.0", "--n", "30")
        assert code == 1
        assert "UnboundedQuantileError" in err


class TestCurveCommand:
    def test_contains_reference_row(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--n", "30", "--points", "4999")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p,x"
        assert len(lines) == 5000
        target = [line for line in lines if line.startswith("0.95,")]
        assert target == ["0.95,0.3060"]

    def test_delegation_identity_at_half(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--n", "30", "--points", "4999")
        row = [line for line in out.splitlines() if line.startswith("0.5,")][0]
        assert float(row.split(",")[1]) == pytest.approx(kuiper_ltq(0.5, 30), abs=5e-5)

    def test_steeper_cdf_at_larger_n(self, capsys):
        _, out_small, _ = run_cli(capsys, "curve", "--n", "10", "--points", "4999")
        _, out_large, _ = run_cli(capsys, "curve", "--n", "1000", "--points", "4999")
        row = lambda text: [l for l in text.splitlines() if l.startswith("0.95,")][0]
        x_small = float(row(out_small).split(",")[1])
        x_large = float(row(out_large).split(",")[1])
        assert x_large < x_small

    def test_unsolvable_cells_render_na(self, capsys):
        # n = 5 sits outside the hard-coded solve guess's evaluable region.
        code, out, _ = run_cli(capsys, "curve", "--n", "5", "--points", "3")
        assert code == 0
        assert out.splitlines()[1:] == ["0.0002,NA", "0.5,NA", "0.9998,NA"]

    def test_too_few_points_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "curve", "--n", "30", "--points", "1")
        assert code == 2


class TestTestCommand:
    @staticmethod
    def _write(tmp_path, name, values, header_comment=True):
        lines = ["# generated test data", ""] if header_comment else []
        lines += [repr(v) for v in values]
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_clustered_data_rejected(self, tmp_path, capsys):
        # 30 values crammed into [0, 0.25] stray far from uniform.
        values = [0.25 * (i + 1) / 30 for i in range(30)]
        path = self._write(tmp_path, "clustered.txt", values)
        code, out, _ = run_cli(
            capsys, "test", "--data", path, "--alpha", "0.05", "--pit"
        )
        assert code == 3
        assert "decision=REJECT" in out
        assert "v_alpha=0.3060" in out

    def test_evenly_spread_data_accepted(self, tmp_path, capsys):
        values = [(i + 1) / 31 for i in range(30)]
        path = self._write(tmp_path, "spread.txt", values)
        code, out, _ = run_cli(
            capsys, "test", "--data", path, "--alpha", "0.05", "--pit"
        )
        assert code == 0
        assert "decision=ACCEPT" in out
        assert "p_value=" in out

    def test_uniform_distribution_transform(self, tmp_path, capsys):
        values = [10.0 + 80.0 * (i + 1) / 21 for i in range(20)]
        path = self._write(tmp_path, "uniform.txt", values)
        code, out, _ = run_cli(
            capsys, "test", "--data", path, "--alpha", "0.05",
            "--dist", "uniform", "--params", "10", "90",
        )
        assert code == 0
        assert "decision=ACCEPT" in out

    def test_normal_distribution_transform(self, tmp_path, capsys):
        values = [-1.6, -1.1, -0.7, -0.4, -0.2, 0.0, 0.2, 0.4, 0.7, 1.1, 1.6]
        path = self._write(tmp_path, "normal.txt", values)
        code, out, _ = run_cli(
            capsys, "test", "--data", path, "--alpha", "0.05",
            "--dist", "normal", "--params", "0", "1",
        )
        assert code == 0
        assert "decision=ACCEPT" in out

    def test_negative_params_with_exponent(self, tmp_path, capsys):
        values = [-1.6, -1.1, -0.7, -0.4, -0.2, 0.0, 0.2, 0.4, 0.7, 1.1, 1.6]
        path = self._write(tmp_path, "normal.txt", values)
        outputs = [
            run_cli(
                capsys, "test", "--data", path, "--alpha", "0.05",
                "--dist", "normal", "--params", mu, "1",
            )
            for mu in ("-0.001", "-1e-3", "-1E-3", "-.001")
        ]
        assert outputs[0][0] == 0 and "decision=ACCEPT" in outputs[0][1]
        assert all(output == outputs[0] for output in outputs)

    def test_pit_out_of_range_exits_two(self, tmp_path, capsys):
        path = self._write(tmp_path, "bad.txt", [0.2, 0.5, 1.5])
        code, _, err = run_cli(
            capsys, "test", "--data", path, "--alpha", "0.05", "--pit"
        )
        assert code == 2
        assert "OutOfRange" in err

    def test_malformed_line_exits_two(self, tmp_path, capsys):
        path = tmp_path / "malformed.txt"
        path.write_text("0.5\nnot-a-number\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "test", "--data", str(path), "--alpha", "0.05", "--pit"
        )
        assert code == 2
        assert "not a decimal number" in err

    def test_non_finite_value_exits_two(self, tmp_path, capsys):
        path = tmp_path / "nonfinite.txt"
        path.write_text("0.5\nnan\n0.7\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "test", "--data", str(path), "--alpha", "0.05", "--pit"
        )
        assert code == 2
        assert "non-finite" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "test", "--data", "/nonexistent/file.txt", "--alpha", "0.05"
        )
        assert code == 2

    def test_empty_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# only a comment\n\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "test", "--data", str(path), "--alpha", "0.05", "--pit"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "dist,params",
        [
            ("uniform", ("nan", "5")),
            ("uniform", ("0", "nan")),
            ("normal", ("0", "nan")),
            ("normal", ("nan", "1")),
            ("uniform", ("0", "inf")),
            ("normal", ("0", "inf")),
            ("normal", ("inf", "1")),
        ],
    )
    def test_non_finite_params_exit_two(self, tmp_path, capsys, dist, params):
        # NaN passes the B > A and sigma > 0 comparisons, and an infinite
        # uniform bound maps every value to 0: both must blame --params.
        path = self._write(tmp_path, "three.txt", [1.0, 2.0, 3.0])
        code, out, err = run_cli(
            capsys, "test", "--data", path, "--alpha", "0.05",
            "--dist", dist, "--params", *params,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --params must be finite numbers")
        assert "OutOfRange" not in err

    def test_guard_alpha_exits_one_with_the_solver_error(self, tmp_path, capsys):
        # Not utq's guard value 0.0, which would reject every sample.
        path = self._write(tmp_path, "guard.txt", [(i + 0.5) / 100 for i in range(100)])
        code, out, err = run_cli(capsys, "test", "--data", path, "--alpha", "0.99995",
                                 "--pit")
        assert code == 1 and out == ""
        assert err.startswith("NumericalDomainError: ") and err.count("\n") == 1

    def test_report_fields_present(self, tmp_path, capsys):
        values = [(i + 1) / 11 for i in range(10)]
        path = self._write(tmp_path, "fields.txt", values)
        _, out, _ = run_cli(capsys, "test", "--data", path, "--alpha", "0.05", "--pit")
        for key in ("n=", "d_plus=", "d_minus=", "v=", "k=", "v_alpha=", "p_value=", "decision="):
            assert key in out


class TestSimulateCommand:
    def test_matches_target(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "30", "--alpha", "0.05",
            "--reps", "20000", "--seed", "42",
        )
        assert code == 0
        fields = dict(part.split("=") for part in out.split())
        assert fields["reps"] == "20000"
        assert fields["seed"] == "42"
        assert fields["target"] == "0.05"
        assert 0.04 <= float(fields["empirical"]) <= 0.06

    def test_single_replication(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "10", "--alpha", "0.05",
            "--reps", "1", "--seed", "9",
        )
        assert code == 0
        fields = dict(part.split("=") for part in out.split())
        assert float(fields["empirical"]) in (0.0, 1.0)

    def test_deterministic(self, capsys):
        args = ("simulate", "--n", "20", "--alpha", "0.10", "--reps", "5000", "--seed", "11")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_zero_reps_exits_two(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--n", "30", "--alpha", "0.05",
            "--reps", "0", "--seed", "1",
        )
        assert code == 2

    def test_guard_alpha_exits_one_with_the_solver_error(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--n", "100", "--alpha", "0.99995",
            "--reps", "10", "--seed", "1",
        )
        assert code == 1 and out == ""
        assert err.startswith("NumericalDomainError: ") and err.count("\n") == 1

    def test_infinite_n_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--n", "inf", "--alpha", "0.05",
            "--reps", "10", "--seed", "1",
        )
        assert code == 2


# Runs in a fresh interpreter: the solver commands and calls with numpy
# blocked, then the data commands with numpy allowed again.
NUMPY_BLOCKED_SCRIPT = """
import contextlib, io, json, sys

sys.modules["numpy"] = None  # every `import numpy` now raises ImportError
import kuiperpair
import kuiperpair.cli

def run(argvs):
    results = []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = kuiperpair.cli.main(argv)
        results.append([code, out.getvalue()])
    return results

solver_argvs, calls, data_argvs = json.loads(sys.argv[1])
report = {
    "solver": run(solver_argvs),
    "calls": [repr(eval(call, vars(kuiperpair))) for call in calls],
    "blocked": sys.modules["numpy"] is None,
}
del sys.modules["numpy"]
report["data"] = run(data_argvs)
report["numpy_loaded"] = "numpy" in sys.modules
print(json.dumps(report))
"""


class TestSolverPathWithoutNumpy:
    SOLVER_ARGVS = [
        ["pair", "--alpha", "0.05", "--n", "30"],
        ["pair", "--alpha", "0.05", "--n", "30", "--test", "vnn", "--decimals", "8"],
        ["table", "--alphas", "0.1,0.05,0.01", "--ns", "10,100,inf"],
        ["table", "--alphas", "0.1,0.01", "--ns", "30,inf", "--test", "vnn",
         "--format", "markdown"],
        ["utq", "--alpha", "0.05", "--n", "30"],
        ["ltq", "--alpha", "0.05", "--n", "30"],
        ["invcdf", "--p", "0.95", "--n", "30"],
        ["curve", "--n", "30", "--points", "11"],
        ["--help"],
        ["pair", "--help"],
    ]
    CALLS = [
        "kuiper_pair_solver(2.45, 0.05, 30)",
        "kuiper_pair_solver(2.45, 0.05, 30, TestKind.TWO_SAMPLE_EQUAL)",
        "kuiper_utq(0.01, 100)",
        "kuiper_inv_cdf(0.9, 50)",
        "survival_vn(1.6, 10)",
        "survival_vnn(1.6, 10)",
    ]

    def test_solver_commands_never_import_numpy(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # the same --help wrapping in both processes
        data = tmp_path / "data.txt"
        data.write_text("".join(f"{(i + 0.5) / 40!r}\n" for i in range(40)), encoding="utf-8")
        data_argvs = [
            ["test", "--data", str(data), "--alpha", "0.05", "--pit"],
            ["simulate", "--n", "30", "--alpha", "0.05", "--reps", "2000", "--seed", "42"],
        ]
        src = str(Path(kuiperpair.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_BLOCKED_SCRIPT,
             json.dumps([self.SOLVER_ARGVS, self.CALLS, data_argvs])],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["blocked"]

        def in_process(argvs):
            results = []
            for argv in argvs:
                code = main(argv)
                results.append([code, capsys.readouterr().out])
            return results

        expected = in_process(self.SOLVER_ARGVS)
        assert all(code == 0 for code, _ in expected)
        assert report["solver"] == expected
        assert report["calls"] == [repr(eval(call, vars(kuiperpair))) for call in self.CALLS]
        assert report["data"] == in_process(data_argvs)
        assert report["numpy_loaded"]
