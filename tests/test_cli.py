import csv
import errno
import functools
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import click
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import intertwinor
from intertwinor import cli, verify
from intertwinor.cli import main
from intertwinor.spectra import BundleParams


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args, **kwargs):
    result = runner.invoke(main, args, **kwargs)
    assert result.exit_code == 0, result.output
    return result


class TestEval:
    def test_normalized_record(self, runner):
        result = run_ok(runner, ["eval", "--p", "4", "--q", "6", "--k", "2", "--a", "1",
                                 "--jp", "1", "--j", "2", "--r", "1",
                                 "--family", "m1-delta"])
        record = json.loads(result.output)
        assert record["s"] == "2" and record["Jp"] == "2" and record["J"] == "4"
        assert record["coeff"] == "-3" and record["radicand"] == "3"
        assert record["family"] == "coexact"

    def test_r_zero_is_unit(self, runner):
        result = run_ok(runner, ["eval", "--p", "5", "--q", "4", "--k", "2", "--a", "1",
                                 "--jp", "2", "--j", "3", "--r", "0",
                                 "--family", "coexact"])
        record = json.loads(result.output)
        assert record["coeff"] == "1" and record["radicand"] == "1"

    def test_mixed_family_reports_trace_and_det(self, runner):
        result = run_ok(runner, ["eval", "--p", "4", "--q", "6", "--k", "2", "--a", "1",
                                 "--jp", "1", "--j", "2", "--r", "1", "--family", "m2"])
        record = json.loads(result.output)
        assert "det" in record and "trace_unit_seed" in record and "seed_squared" in record

    def test_even_order_operator(self, runner):
        result = run_ok(runner, ["eval", "--p", "4", "--q", "6", "--k", "2", "--a", "1",
                                 "--jp", "1", "--j", "2", "--r", "2",
                                 "--family", "coexact", "--operator", "even-order"])
        record = json.loads(result.output)
        assert record["operator"] == "even-order"
        assert "value" in record

    def test_nonexistent_type_fails(self, runner):
        result = runner.invoke(main, ["eval", "--p", "4", "--q", "6", "--k", "2", "--a", "1",
                                      "--jp", "0", "--j", "2", "--r", "1",
                                      "--family", "m1-d"])
        assert result.exit_code != 0
        assert "empty" in result.output

    def test_empty_label_names_the_bundle(self, runner):
        result = runner.invoke(main, ["eval", "--p", "4", "--q", "6", "--k", "0", "--a", "0",
                                      "--jp", "1", "--j", "1", "--r", "1",
                                      "--family", "exact"])
        assert result.exit_code == 1
        assert_clean_error(result)
        assert result.output == \
            "Error: exact type at (j'=1, j=1) is empty for p=4, q=6, k=0, a=0\n"

    def test_exact_mode_rejects_non_integer_r(self, runner):
        result = runner.invoke(main, ["eval", "--p", "4", "--q", "6", "--k", "2", "--a", "1",
                                      "--jp", "1", "--j", "2", "--r", "1/2",
                                      "--family", "coexact"])
        assert result.exit_code != 0
        assert "integer" in result.output

    def test_float_mode_accepts_real_r(self, runner):
        result = run_ok(runner, ["eval", "--p", "4", "--q", "6", "--k", "2", "--a", "1",
                                 "--jp", "1", "--j", "2", "--r", "0.5",
                                 "--family", "coexact", "--mode", "float"])
        record = json.loads(result.output)
        assert record["mode"] == "float"
        assert "value_float" in record

    @pytest.mark.parametrize("family, key, default, short", [
        ("coexact", "coeff", "4.7627871090308345", "4.7628"),
        ("mixed", "det", "11.42468321205996", "11.425"),
    ])
    def test_float_values_honor_precision(self, runner, family, key, default, short):
        args = ["eval", "--p", "4", "--q", "6", "--k", "2", "--a", "1", "--jp", "1",
                "--j", "2", "--family", family, "--mode", "float", "--r", "1.5"]
        assert json.loads(run_ok(runner, args).output)[key] == default
        assert json.loads(run_ok(runner, args + ["--precision", "5"]).output)[key] == short

    def test_float_mode_integral_r_takes_exact_path(self, runner):
        # the value sits on a numeric gamma pole pair but is finite exactly
        result = run_ok(runner, ["eval", "--p", "4", "--q", "6", "--k", "2", "--a", "1",
                                 "--jp", "1", "--j", "2", "--r", "1.0",
                                 "--family", "coexact", "--mode", "float"])
        record = json.loads(result.output)
        assert record["coeff"] == "-3" and not record["pole"]

    def test_degenerate_normalization_fails(self, runner):
        # p = q = 2, k = 0 has s = 1 = r
        result = runner.invoke(main, ["eval", "--p", "2", "--q", "2", "--k", "0", "--a", "0",
                                      "--jp", "1", "--j", "1", "--r", "1",
                                      "--family", "coexact"])
        assert result.exit_code != 0


    def test_indeterminate_seed_is_data(self, runner):
        # the s = r pole of the seed meets a vanishing gamma part
        result = run_ok(runner, ["eval", "--p", "5", "--q", "9", "--k", "4", "--a", "4",
                                 "--jp", "10", "--j", "6", "--r", "2", "--family", "mixed"])
        record = json.loads(result.output)
        assert record["seed_squared"] == "indeterminate"
        assert record["det"] == "0"

    def test_values_beyond_the_digit_limit_fail_cleanly(self, runner):
        # the exact eigenvalue at j' = 10^12, r = 256 has more than 4300 digits
        result = runner.invoke(main, ["eval", "--p", "4", "--q", "6", "--k", "2", "--a", "1",
                                      "--jp", "1000000000000", "--j", "2",
                                      "--family", "coexact", "--r", "256"])
        assert result.exit_code == 1
        assert_clean_error(result)
        assert result.output == ("Error: the exact value has more than 4300 digits "
                                 "and cannot be written as a record\n")

    def test_float_pole_is_an_error(self, runner):
        result = runner.invoke(main, ["eval", "--p", "7", "--q", "8", "--k", "5", "--a", "3",
                                      "--jp", "1", "--j", "2", "--r", "0.5",
                                      "--family", "coexact", "--mode", "float"])
        assert result.exit_code == 1
        assert result.output == "Error: pole has no finite value\n"


class TestTable:
    ARGS = ["table", "--p", "4", "--q", "6", "--k", "2", "--a", "1",
            "--jp-max", "2", "--j-max", "2", "--r", "1", "--family", "m1-delta"]

    def test_csv_deterministic(self, runner):
        first = run_ok(runner, self.ARGS).output
        second = run_ok(runner, self.ARGS).output
        assert first == second
        header, *rows = first.splitlines()
        assert header.startswith("p,q,k,a,jp,j,r,family,operator")
        assert rows  # grid is nonempty

    @pytest.mark.parametrize("family, column", [("coexact", "coeff"), ("mixed", "det")])
    def test_csv_floats_honor_precision(self, runner, family, column):
        args = ["table", "--p", "4", "--q", "6", "--k", "2", "--a", "1", "--jp-max", "3",
                "--j-max", "3", "--r", "1.5", "--family", family, "--mode", "float"]
        full, short = (list(csv.DictReader(io.StringIO(run_ok(runner, args + extra).output)))
                       for extra in ([], ["--precision", "5"]))
        assert full and len(full) == len(short)
        for wide, narrow in zip(full, short):
            assert narrow[column] == format(float(wide[column]), ".5g")

    def test_rows_are_lexicographic(self, runner):
        out = run_ok(runner, self.ARGS).output
        keys = [tuple(map(int, line.split(",")[4:6])) for line in out.splitlines()[1:]]
        assert keys == sorted(keys)

    def test_empty_grid(self, runner):
        # the m1-delta family has no type at levels (0, 0) of this bundle
        args = self.ARGS.copy()
        args[args.index("--jp-max") + 1] = "0"
        args[args.index("--j-max") + 1] = "0"
        out = run_ok(runner, args).output
        assert out.splitlines()[1:] == []

    def test_jsonl_format(self, runner):
        out = run_ok(runner, self.ARGS + ["--format", "jsonl"]).output
        records = [json.loads(line) for line in out.splitlines()]
        assert records and all(rec["p"] == 4 for rec in records)

    def test_output_file_and_outdir_override(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("INTERTWINOR_OUTDIR", str(tmp_path))
        run_ok(runner, self.ARGS + ["-o", "table.csv"])
        assert (tmp_path / "table.csv").exists()

    def test_degenerate_rows_are_marked(self, runner):
        out = run_ok(runner, ["table", "--p", "2", "--q", "2", "--k", "0", "--a", "0",
                              "--jp-max", "1", "--j-max", "1", "--r", "1",
                              "--family", "coexact"]).output
        rows = out.splitlines()[1:]
        assert rows and all(",degenerate," in row for row in rows)


    def test_float_pole_rows_are_data(self, runner):
        out = run_ok(runner, ["table", "--p", "7", "--q", "8", "--k", "5", "--a", "3",
                              "--jp-max", "5", "--j-max", "5", "--r", "0.5",
                              "--family", "coexact", "--mode", "float",
                              "--format", "jsonl"]).output
        records = [json.loads(line) for line in out.splitlines()]
        poles = [rec for rec in records if rec["pole"]]
        assert poles and len(poles) < len(records)
        assert all(rec["coeff"] == "pole" and rec["value_float"] == "pole" for rec in poles)

    def test_indeterminate_seed_rows_are_data(self, runner):
        out = run_ok(runner, ["table", "--p", "2", "--q", "6", "--k", "1", "--a", "1",
                              "--jp-max", "5", "--j-max", "5", "--r", "2",
                              "--family", "mixed", "--format", "jsonl"]).output
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 25
        assert any(rec["seed_squared"] == "indeterminate" for rec in records)


@pytest.mark.parametrize("args", [
    ["table", "--p", "5", "--q", "6", "--k", "2", "--a", "1", "--jp-max", "3", "--j-max", "4",
     "--r", "2", "--family", "mixed"],
    ["eval", "--p", "5", "--q", "6", "--k", "2", "--a", "1", "--jp", "3", "--j", "2",
     "--r", "2", "--family", "mixed"],
], ids=["table", "eval"])
def test_bundle_weight_is_read_once_per_command(runner, monkeypatch, args):
    # the bundle part of the record head is built once per command, and the
    # mixed seed reads the doubled weight 2s instead of the Fraction s
    reads = []
    weight = BundleParams.s
    monkeypatch.setattr(BundleParams, "s",
                        property(lambda params: reads.append(params) or weight.fget(params)))
    assert run_ok(runner, args).output
    assert len(reads) == 1


def _pinned_commands():
    """Point queries over every {normalized exact, normalized float, even-order} x
    {coexact, exact, mixed} stratum in both family spellings, CSV and JSONL
    tables, and the clean errors."""
    strata = [["--r", r, "--mode", mode, "--operator", operator]
              for operator, mode, orders in (("normalized", "exact", ("2", "-1")),
                                             ("normalized", "float", ("1.25", "-0.75")),
                                             ("even-order", "exact", ("1", "3")))
              for r in orders]
    spellings = (("coexact", "m1-delta"), ("exact", "m1-d"), ("mixed", "m2"))
    commands = []
    for stratum in strata:
        for names in spellings:
            for family, (p, q, k, a, jp, j) in zip(names, ((5, 6, 2, 1, 3, 2),
                                                           (4, 7, 2, 1, 2, 5))):
                bundle = ["--p", str(p), "--q", str(q), "--k", str(k), "--a", str(a),
                          "--family", family]
                commands.append(["eval", *bundle, "--jp", str(jp), "--j", str(j), *stratum])
                commands.append(["table", *bundle, "--jp-max", "3", "--j-max", "4",
                                 "--format", "csv" if family == names[0] else "jsonl",
                                 *stratum])
    return commands + [
        # degenerate normalization: an error for eval, marked rows in a table
        ["eval", "--p", "2", "--q", "2", "--k", "0", "--a", "0", "--jp", "1", "--j", "1",
         "--r", "1", "--family", "coexact"],
        ["table", "--p", "2", "--q", "2", "--k", "0", "--a", "0", "--jp-max", "2",
         "--j-max", "2", "--r", "1", "--family", "m1-delta", "--format", "jsonl"],
        # empty labels, and a family with no K-types at all
        ["eval", "--p", "4", "--q", "6", "--k", "0", "--a", "0", "--jp", "1", "--j", "1",
         "--r", "1", "--family", "exact"],
        ["table", "--p", "2", "--q", "6", "--k", "0", "--a", "0", "--jp-max", "2",
         "--j-max", "2", "--r", "1", "--family", "exact"],
        # a float pole: an error for eval, data in a table
        ["eval", "--p", "7", "--q", "8", "--k", "5", "--a", "3", "--jp", "1", "--j", "2",
         "--r", "0.5", "--family", "coexact", "--mode", "float"],
        ["table", "--p", "7", "--q", "8", "--k", "5", "--a", "3", "--jp-max", "3",
         "--j-max", "3", "--r", "0.5", "--family", "coexact", "--mode", "float"],
        # the indeterminate seed, which is data
        ["eval", "--p", "5", "--q", "9", "--k", "4", "--a", "4", "--jp", "10", "--j", "6",
         "--r", "2", "--family", "mixed"],
        ["table", "--p", "2", "--q", "6", "--k", "1", "--a", "1", "--jp-max", "3",
         "--j-max", "3", "--r", "2", "--family", "m2"],
    ]


def test_point_query_outcomes_are_pinned(runner):
    # sha256 over the exit code, stdout and stderr of every command, as written by
    # the Fraction-level point path before the wrappers passed int doubled levels
    lines = []
    for args in _pinned_commands():
        result = runner.invoke(main, args)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        lines.append(json.dumps([args, result.exit_code, result.stdout, result.stderr]))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "d38a010c2721add7b8e93d8d09637a1160fd59a443f9eb048f6768645bed557f"


def _torus_commands():
    """Exact and float torus runs for every k, at a small and the benchmark's M,
    over passing, pole and float orders."""
    return [["torus", "--k", k, "--r", r, "--M", m, "--mode", mode]
            for k in ("0", "1", "2") for m in ("3", "8")
            for mode, orders in (("exact", ("0", "1", "2", "3", "-1")),
                                 ("float", ("0.5", "1.5", "2.5", "2")))
            for r in orders]


def test_torus_outcomes_are_pinned(runner):
    # sha256 over the exit code, stdout and stderr of every command, as for the
    # point queries; the float orders run the log-gamma quotients
    lines, codes = [], []
    for args in _torus_commands():
        result = runner.invoke(main, args)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        codes.append(result.exit_code)
        lines.append(json.dumps([args, result.exit_code, result.stdout, result.stderr]))
    assert (len(codes), codes.count(0), codes.count(1)) == (54, 48, 6)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "ccee1f1f3148b507c02157164c43afc372117097371dcc3bd1e879b8cad9aaf5"


class TestVerify:
    def test_exit_zero_and_report(self, runner, tmp_path):
        report = tmp_path / "report.jsonl"
        result = run_ok(runner, ["verify", "--suite", "scalar", "--p-max", "3",
                                 "--q-max", "3", "--j-max", "2", "--r-max", "2",
                                 "-o", str(report)])
        assert "scalar:" in result.output
        lines = report.read_text().splitlines()
        assert lines and all(json.loads(line)["check"] == "scalar-reduction"
                             for line in lines)

    def test_all_suites_small_grid(self, runner, tmp_path):
        report = tmp_path / "report.jsonl"
        result = run_ok(runner, ["verify", "--p-max", "3", "--q-max", "3",
                                 "--j-max", "2", "--r-max", "1", "-o", str(report)])
        for name in ("diamond", "interface", "det", "even-order", "scalar"):
            assert f"{name}:" in result.output

    def test_report_bytes_are_pinned(self, runner, tmp_path):
        # sha256 of the report written by the Fraction-based suites before the
        # integer kernels; the report must not change by one byte
        report = tmp_path / "report.jsonl"
        run_ok(runner, ["verify", "--suite", "all", "--p-max", "4", "--q-max", "4",
                        "--j-max", "3", "--r-max", "3", "-o", str(report)])
        data = report.read_bytes()
        assert data.count(b"\n") == 4974
        assert hashlib.sha256(data).hexdigest() == \
            "4c9b802c8f7e619520da5e80ffabe4d6fc2c765322e5eacc3fac394235440cb4"

    def test_suites_run_one_slice_at_a_time(self, runner, tmp_path, monkeypatch):
        calls = []
        for name, suite in verify.SUITES.items():
            def recorded(grid, name=name, suite=suite):
                calls.append((name, grid))
                return suite(grid)
            monkeypatch.setitem(verify.SUITES, name, recorded)
        report = tmp_path / "report.jsonl"
        result = run_ok(runner, ["verify", "--suite", "all", "--p-max", "4", "--q-max", "4",
                                 "--j-max", "3", "--r-max", "3", "-o", str(report)])
        assert result.output.splitlines()[:-1] == [
            "diamond: total=1872 pass=1872 fail=0 skipped=0",
            "interface: total=540 pass=503 fail=0 skipped=37",
            "det: total=540 pass=503 fail=0 skipped=37",
            "even-order: total=1590 pass=1590 fail=0 skipped=0",
            "scalar: total=432 pass=352 fail=0 skipped=80",
        ]
        # suite-major, then p, then q: the order of the whole-grid report
        assert [(name, grid.p_min, grid.p_max, grid.q_min, grid.q_max) for name, grid in calls] \
            == [(name, p, p, q, q) for name in verify.SUITES
                for p in range(2, 5) for q in range(2, 5)]
        assert all(grid.j_max == 3 and grid.r_values == (1, 2, 3) for _, grid in calls)
        assert hashlib.sha256(report.read_bytes()).hexdigest() == \
            "4c9b802c8f7e619520da5e80ffabe4d6fc2c765322e5eacc3fac394235440cb4"

    @pytest.mark.parametrize("args, line", [
        (["--suite", "scalar", "--p-max", "2", "--q-max", "2", "--j-max", "0", "--r-max", "1"],
         "scalar: total=1 pass=0 fail=0 skipped=1"),
        (["--suite", "interface", "--p-max", "2", "--q-max", "3", "--j-max", "0",
          "--r-max", "1"], "interface: total=0 pass=0 fail=0 skipped=0"),
    ], ids=["all-skipped", "empty"])
    def test_no_vacuous_pass(self, runner, tmp_path, args, line):
        # a suite with no passing record proves nothing, so the gate fails
        result = runner.invoke(main, ["verify", "-o", str(tmp_path / "r.jsonl")] + args)
        assert result.exit_code == 1
        suite = args[1]
        assert result.output.splitlines()[:2] == [line, f"{suite}: no record passed"]

    @pytest.mark.parametrize("bad, accepted", [(["--r-max", "0"], "1<=x<=256"),
                                               (["--j-max", "-1"], "0<=x<=9223372036854775807"),
                                               (["--p-max", "1"], "2<=x<=9223372036854775807")])
    def test_bad_ranges_fail_cleanly(self, runner, tmp_path, bad, accepted):
        # an empty grid is a usage error that names the range the option accepts
        result = runner.invoke(main, ["verify", "-o", str(tmp_path / "r.jsonl")] + bad)
        assert result.exit_code == 2
        assert_clean_error(result)
        assert (f"Invalid value for '{bad[0]}': {bad[1]} is not in the range {accepted}"
                in result.output)
        assert not (tmp_path / "r.jsonl").exists()

    def test_help_states_the_accepted_ranges(self, runner):
        result = run_ok(runner, ["verify", "--help"])
        for option, accepted in (("--p-max", "2<=x<=9223372036854775807"),
                                 ("--q-max", "2<=x<=9223372036854775807"),
                                 ("--j-max", "0<=x<=9223372036854775807"),
                                 ("--r-max", "1<=x<=256")):
            line = next(line for line in result.output.splitlines() if option in line)
            assert accepted in line


class TestTorus:
    def test_pass_record(self, runner):
        result = run_ok(runner, ["torus", "--k", "1", "--r", "1", "--M", "6"])
        record = json.loads(result.output.splitlines()[-1])
        assert record["status"] == "pass"
        assert record["check"] == "intertwining-residual"
        assert record["lhs"] == "0.0"
        assert record["point"]["M"] == 6

    def test_strict_tolerance_failure_exit(self, runner):
        # float mode at a non-integer order leaves roundoff above a tiny tolerance
        result = runner.invoke(main, ["torus", "--k", "0", "--r", "1.5", "--m", "6",
                                      "--mode", "float", "--tol", "1e-300"])
        assert result.exit_code == 1
        record = json.loads(result.output.splitlines()[-1])
        assert record["status"] == "fail"

    @pytest.mark.parametrize("r, mode", [("0.5", "float"), ("1", "exact")])
    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_non_finite_or_non_positive_tolerance_is_a_usage_error(self, runner, tol, r, mode):
        # inf would pass every residual and NaN, 0 or -1 none
        result = runner.invoke(main, ["torus", "--k", "1", "--r", r, "--M", "4",
                                      "--mode", mode, "--tol", tol])
        assert result.exit_code == 2
        assert_clean_error(result)
        assert "Invalid value for '--tol': the tolerance must be finite and > 0" in result.output

    @pytest.mark.parametrize("m_trunc", ["257", "0", "-5"])
    def test_truncation_outside_its_range_is_a_usage_error(self, runner, tmp_path, m_trunc):
        # the residual visits each of the (2M + 1)^2 modes, and has none below M = 1
        out = tmp_path / "torus.jsonl"
        start = time.perf_counter()
        result = runner.invoke(main, ["torus", "--k", "1", "--r", "2", "--M", m_trunc,
                                      "-o", str(out)])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert_clean_error(result)
        assert (f"Invalid value for '--m' / '--M': {m_trunc} is not in the range 1<=x<=256"
                in result.output)
        assert "{" not in result.output and not out.exists()

    def test_help_states_the_truncation_range(self, runner):
        result = run_ok(runner, ["torus", "--help"])
        line = next(line for line in result.output.splitlines() if "--M" in line)
        assert "1<=x<=256" in line
        assert "9223372036854775807" not in result.output

    def test_exact_mode_rejects_non_integer(self, runner):
        result = runner.invoke(main, ["torus", "--k", "0", "--r", "0.5", "--m", "6"])
        assert result.exit_code != 0

    @pytest.mark.parametrize("k", ["0", "1", "2"])
    def test_pole_fails_cleanly(self, runner, k):
        result = runner.invoke(main, ["torus", "--k", k, "--r", "-1", "--M", "4"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("Error: ") and "pole" in result.output
        assert "Traceback" not in result.output

    def test_no_columns_fails(self, runner):
        result = runner.invoke(main, ["torus", "--k", "1", "--r", "2", "--M", "1"])
        assert result.exit_code == 1
        record = json.loads(result.output.splitlines()[-1])
        assert record["point"]["columns"] == 0 and record["status"] == "fail"

    @pytest.mark.parametrize("k", ["0", "1"])
    @pytest.mark.parametrize("r, mode", [("1", "exact"), ("0.5", "float")])
    def test_no_interior_neighbor_fails(self, runner, k, r, mode):
        # at M = 2 every shift from the one interior mode leaves the interior
        result = runner.invoke(main, ["torus", "--k", k, "--r", r, "--M", "2",
                                      "--mode", mode])
        assert result.exit_code == 1
        record = json.loads(result.output.splitlines()[-1])
        assert record["point"]["columns"] == 0 and record["status"] == "fail"

    def test_columns_checked_pass(self, runner):
        result = run_ok(runner, ["torus", "--k", "1", "--r", "2", "--M", "8"])
        record = json.loads(result.output.splitlines()[-1])
        assert record["point"]["columns"] > 0 and record["status"] == "pass"

    def test_exact_mode_demands_exact_zero(self, runner, monkeypatch):
        from intertwinor import torus

        def off_by_a_little(M, k, r, mode="exact"):
            return torus.ResidualResult(k=k, r=r, M=M, mode=mode, residual=1e-12, columns=9)

        monkeypatch.setattr(torus, "intertwining_residual", off_by_a_little)
        result = runner.invoke(main, ["torus", "--k", "0", "--r", "1", "--M", "6"])
        assert result.exit_code == 1
        assert json.loads(result.output)["status"] == "fail"


def test_cli_import_leaves_numpy_out():
    src_dir = str(Path(intertwinor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src_dir] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, intertwinor.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


ORDER_COMMANDS = [
    ["eval", "--p", "4", "--q", "6", "--k", "2", "--a", "1", "--jp", "1", "--j", "2",
     "--family", "coexact"],
    ["table", "--p", "4", "--q", "6", "--k", "2", "--a", "1", "--jp-max", "2",
     "--j-max", "2", "--family", "coexact"],
    ["torus", "--k", "1", "--M", "6"],
]


def assert_clean_error(result):
    assert isinstance(result.exception, SystemExit)  # no uncaught exception
    assert any(line.startswith("Error") for line in result.output.splitlines())
    assert "Traceback" not in result.output


@pytest.mark.parametrize("r", ["1/0", "inf", "-inf", "1e400", "nan"])
@pytest.mark.parametrize("args", ORDER_COMMANDS, ids=["eval", "table", "torus"])
def test_non_finite_float_order_fails_cleanly(runner, args, r):
    result = runner.invoke(main, args + ["--r", r, "--mode", "float"])
    assert result.exit_code != 0
    assert_clean_error(result)


@pytest.mark.parametrize("args", ORDER_COMMANDS[:2], ids=["eval", "table"])
def test_even_order_rejects_non_integer_r(runner, args):
    # the even-order operators take integer orders in either mode
    result = runner.invoke(main, args + ["--operator", "even-order", "--mode", "float",
                                         "--r", "1.5"])
    assert result.exit_code == 2
    assert_clean_error(result)
    assert "even-order operators need an integer r, got 1.5" in result.output
    assert "--mode float" not in result.output.splitlines()[-1]


BUNDLE_AT = ["--jp", "0", "--j", "0", "--r", "1", "--family", "coexact"]
TABLE_AT = ["--jp-max", "1", "--j-max", "1", "--r", "1", "--family", "coexact"]


@pytest.mark.parametrize("args, message", [
    (["eval", "--p", "1", "--q", "3", "--k", "0", "--a", "0"] + BUNDLE_AT,
     "require p, q >= 2, got p=1, q=3"),
    (["eval", "--p", "3", "--q", "3", "--k", "0", "--a", "1"] + BUNDLE_AT,
     "require 0 <= a <= k, got a=1, k=0"),
    (["table", "--p", "3", "--q", "3", "--k", "5", "--a", "0"] + TABLE_AT,
     "first factor degree 5 exceeds dim 2"),
], ids=["p-below-two", "a-above-k", "degree-above-dim"])
def test_bad_bundle_fails_cleanly(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert_clean_error(result)
    assert result.output == f"Error: {message}\n"


ORDER_MODES = {"exact": ["--mode", "exact"], "even-order": ["--operator", "even-order"],
               "float": ["--mode", "float"]}
EVAL_AT = ["eval", "--p", "4", "--q", "6", "--k", "2", "--a", "1", "--jp", "1", "--j", "2",
           "--family", "coexact"]


# each order text with the plain integer it reads as, or its usage error; the
# outcomes were recorded before plain integers were parsed with int()
@pytest.mark.parametrize("text, reads_as", [
    ("4", "4"), (" 4 ", "4"), ("+4", "4"), ("-0", "0"), ("4_0", "40"), ("\u0663", "3"),
    ("6/2", "3"), ("3.0", "3"), ("1e1", "10"),
    ("0x10", "could not parse r='0x10'"), ("1_", "could not parse r='1_'"),
    ("\u00b2", "could not parse r='\u00b2'"),
    ("257", "integer orders need |r| <= 256, got r=257"),
    ("-257", "integer orders need |r| <= 256, got r=-257"),
])
@pytest.mark.parametrize("mode", ORDER_MODES)
def test_order_texts_parse_as_before(runner, mode, text, reads_as):
    result = runner.invoke(main, EVAL_AT + ORDER_MODES[mode] + ["--r", text])
    outcome = (result.exit_code, result.stdout, result.stderr)
    if reads_as.isascii() and reads_as.isdigit():
        plain = runner.invoke(main, EVAL_AT + ORDER_MODES[mode] + ["--r", reads_as])
        assert outcome == (plain.exit_code, plain.stdout, plain.stderr)
        if (mode, reads_as) == ("even-order", "0"):
            assert outcome == (1, "", "Error: even-order operators need integer r >= 1, got 0\n")
        else:
            assert result.exit_code == 0 and json.loads(result.stdout)["r"] == reads_as
    else:
        assert outcome == (2, "", "Usage: main eval [OPTIONS]\nTry 'main eval --help' for help."
                                  f"\n\nError: Invalid value: {reads_as}\n")


@pytest.mark.parametrize("args", [
    ["eval", "--p", "2", "--q", "6", "--k", "0", "--a", "0", "--jp", "0", "--j", "3",
     "--family", "coexact"],
    ["table", "--p", "2", "--q", "6", "--k", "0", "--a", "0", "--jp-max", "1", "--j-max", "4",
     "--family", "coexact"],
    ["torus", "--k", "0", "--M", "4"],
], ids=["eval", "table", "torus"])
@pytest.mark.parametrize("r", ["2.000000001", "0.000000001"])
def test_indeterminate_float_orders_fail_cleanly(runner, args, r):
    # within EPS_POLE of an integer, both gamma arguments sit on poles
    result = runner.invoke(main, args + ["--r", r, "--mode", "float"])
    assert result.exit_code == 1
    assert_clean_error(result)
    assert "both gamma arguments at poles" in result.output


@pytest.mark.parametrize("extra, exit_code", [
    (["--mode", "float", "--r", "300.5"], 1),  # the float gamma quotient overflows
    (["--mode", "float", "--r", "1e15"], 2),   # integral, so on the exact path
    (["--r", "257"], 2),
    (["--r", "-257"], 2),
    (["--r", "1e400"], 2),
], ids=["overflow", "integral-float", "above-cap", "below-cap", "huge"])
@pytest.mark.parametrize("args", ORDER_COMMANDS, ids=["eval", "table", "torus"])
def test_bad_orders_fail_fast_and_cleanly(runner, args, extra, exit_code):
    start = time.perf_counter()
    result = runner.invoke(main, args + extra)
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == exit_code, result.output
    assert_clean_error(result)
    if exit_code == 1:
        assert "gamma quotient G((x+r)/2)/G((x-r)/2) at x=" in result.output
        assert "r=300.5 exceeds the float range" in result.output


@pytest.mark.parametrize("args", [
    # finite gamma quotients whose product overflows
    ["eval", "--p", "4", "--q", "6", "--k", "2", "--a", "1", "--jp", "30", "--j", "2",
     "--r", "160.5", "--family", "coexact", "--mode", "float"],
    ["eval", "--p", "4", "--q", "6", "--k", "2", "--a", "1", "--jp", "30", "--j", "2",
     "--r", "160.5", "--family", "mixed", "--mode", "float"],
    # a finite coefficient 6.1e307 whose product with sqrt(-397) overflows
    ["eval", "--p", "100", "--q", "100", "--k", "0", "--a", "0", "--jp", "40", "--j", "0",
     "--r", "99.5", "--family", "coexact", "--mode", "float"],
    # finite blocks whose residual products overflow to inf - inf
    ["torus", "--k", "0", "--r", "115.5", "--mode", "float", "--M", "4"],
    # blocks beyond the float range
    ["torus", "--k", "1", "--r", "116.5", "--mode", "float", "--M", "6"],
    ["torus", "--k", "2", "--r", "150.25", "--mode", "float", "--M", "8"],
    # blocks beyond the float range from x = 13 on: the first evaluated is at
    # (8, 8), on an outer ring, whose blocks the residual does not read
    ["torus", "--k", "2", "--r", "200.5", "--mode", "float", "--M", "8"],
], ids=["coexact-product", "mixed-det", "radical", "torus-k0", "torus-k1", "torus-k2",
        "torus-outer-ring"])
def test_values_beyond_the_float_range_fail(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # no uncaught exception
    assert "Traceback" not in result.output
    if "200.5" in args:
        assert result.output == ("Error: gamma quotient G((x+r)/2)/G((x-r)/2) at x=17.0, "
                                 "r=200.5 exceeds the float range\n")
    elif args[0] == "eval":
        assert result.output.startswith("Error: ") and "exceeds the float range" in result.output
    elif result.output.startswith("{"):  # a record, which must say it failed
        assert json.loads(result.output)["status"] == "fail"


#: each command with all its options set; tests swap one value for a rejected
#: one, never for a huge accepted one, on which verify would not finish
OPTION_COMMANDS = [args + ["--r", "1"] for args in ORDER_COMMANDS] + [
    ["verify", "--suite", "scalar", "--p-max", "2", "--q-max", "2", "--j-max", "1",
     "--r-max", "1"]]
INT64_OPTIONS = ([(0, option) for option in ("--p", "--q", "--k", "--a", "--jp", "--j")]
                 + [(1, option) for option in ("--p", "--q", "--k", "--a", "--jp-max", "--j-max")]
                 + [(2, "--M")]
                 + [(3, option) for option in ("--p-max", "--q-max", "--j-max", "--r-max")])
#: the range an option accepts where it is narrower than the signed 64-bit one
ACCEPTED = {(1, "--jp-max"): "0<=x<=9223372036854775807",
            (1, "--j-max"): "0<=x<=9223372036854775807",
            (2, "--M"): "1<=x<=256",
            (3, "--p-max"): "2<=x<=9223372036854775807",
            (3, "--q-max"): "2<=x<=9223372036854775807",
            (3, "--j-max"): "0<=x<=9223372036854775807",
            (3, "--r-max"): "1<=x<=256"}


@pytest.mark.parametrize("value", ["9223372036854775808", "-9223372036854775809",
                                   "100000000000000000000"])
@pytest.mark.parametrize("command, option", INT64_OPTIONS,
                         ids=[OPTION_COMMANDS[c][0] + option for c, option in INT64_OPTIONS])
def test_integers_beyond_64_bits_are_usage_errors(runner, command, option, value):
    # records carry these integers, and the encoder takes signed 64-bit ones
    args = OPTION_COMMANDS[command].copy()
    args[args.index(option) + 1] = value
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert_clean_error(result)
    accepted = ACCEPTED.get((command, option), "-9223372036854775808<=x<=9223372036854775807")
    assert f"{value} is not in the range {accepted}" in result.output


def test_integers_at_the_64_bit_bounds_are_evaluated(runner):
    result = run_ok(runner, ["eval", "--p", "9223372036854775807", "--q", "6", "--k", "1",
                             "--a", "1", "--jp", "1", "--j", "1", "--r", "2",
                             "--family", "coexact"])
    assert json.loads(result.output)["p"] == 2**63 - 1
    args = ORDER_COMMANDS[1] + ["--r", "1", "--format", "jsonl"]
    args[args.index("--p") + 1] = "9223372036854775807"
    records = [json.loads(line) for line in run_ok(runner, args).output.splitlines()]
    assert records and all(rec["p"] == 2**63 - 1 for rec in records)


@pytest.mark.parametrize("value", ["-1", "-9223372036854775808"])
@pytest.mark.parametrize("option", ["--jp-max", "--j-max"])
def test_negative_level_maxima_are_usage_errors(runner, option, value):
    # an empty level range is a mistyped grid, not an empty table
    args = OPTION_COMMANDS[1].copy()
    args[args.index(option) + 1] = value
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert_clean_error(result)
    assert (f"Invalid value for '{option}': {value} is not in the range "
            "0<=x<=9223372036854775807" in result.output)


def _table_at(jp_max, j_max):
    args = OPTION_COMMANDS[1].copy()
    args[args.index("--jp-max") + 1] = jp_max
    args[args.index("--j-max") + 1] = j_max
    return args


def _no_rows(*args):
    raise AssertionError("a row was evaluated")


@pytest.mark.parametrize("jp_max, j_max, cells", [
    ("255", "256", 65792), ("65536", "0", 65537), ("100000", "100000", 10000200001),
    ("9223372036854775807", "9223372036854775807", 2**126),
], ids=["one-column-over", "one-row-over", "huge", "int64-max"])
def test_tables_beyond_the_cell_cap_are_usage_errors(runner, monkeypatch, jp_max, j_max,
                                                       cells):
    # the table holds all its rows before writing, so its size is capped up front
    monkeypatch.setattr(cli, "_table_rows", _no_rows)
    result = runner.invoke(main, _table_at(jp_max, j_max))
    assert result.exit_code == 2
    assert_clean_error(result)
    assert result.output.splitlines()[-1] == \
        f"Error: a table takes at most 65536 cells, (--jp-max + 1)(--j-max + 1); got {cells}"


@pytest.mark.parametrize("jp_max, j_max", [("255", "255"), ("65535", "0"), ("0", "65535")])
def test_tables_at_the_cell_cap_are_evaluated(runner, monkeypatch, jp_max, j_max):
    monkeypatch.setattr(cli, "_table_rows", lambda *args: iter(()))
    assert run_ok(runner, _table_at(jp_max, j_max)).output == ",".join(cli.TABLE_HEADER) + "\n"


@pytest.mark.parametrize("args, message", [
    (["table", "--p", "4", "--q", "6", "--k", "2", "--a", "1", "--jp-max", "3",
      "--j-max", "3", "--family", "exact", "--r", "1000"], "|r| <= 256"),
    (["torus", "--k", "0", "--r", "20000", "--M", "4"], "|r| <= 256"),
    (["verify", "--r-max", "257"], "257 is not in the range 1<=x<=256"),
], ids=["table", "torus", "verify"])
def test_orders_above_the_cap_are_usage_errors(runner, tmp_path, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)  # where verify's default report would go
    start = time.perf_counter()
    result = runner.invoke(main, args)
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert message in result.output
    assert_clean_error(result)
    assert not any(tmp_path.iterdir())


def test_order_at_the_cap_is_evaluated(runner):
    run_ok(runner, ORDER_COMMANDS[0] + ["--r", "-256"])


@pytest.mark.parametrize("case", ["directory", "outdir-is-a-file"])
@pytest.mark.parametrize("args", OPTION_COMMANDS, ids=["eval", "table", "torus", "verify"])
def test_unwritable_outputs_fail_cleanly(runner, tmp_path, monkeypatch, args, case):
    if case == "directory":
        target = tmp_path / "out"
        target.mkdir()
        output = f"{target}/"
    else:
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("INTERTWINOR_OUTDIR", str(blocker))
        output = "record.json"
        target = blocker / output
    result = runner.invoke(main, args + ["-o", output])
    assert result.exit_code == 1
    assert_clean_error(result)
    assert f"Error: cannot write {target}: " in result.output


# -- the request commands' own parse of well-formed ``--name value`` sequences -----------

SUBCOMMANDS = ("eval", "table")  # the request commands; the others parse with click
#: a few accepted values of each option, by parameter name
OPTION_VALUES = {
    "p": ("3", "5"), "q": ("3", "4"), "k": ("0", "1", "2"), "a": ("0", "1"),
    "jp": ("1", "2"), "j": ("2", "3"), "jp_max": ("2",), "j_max": ("1", "3"),
    "r_text": ("2", "1.5", "-1"), "family": ("coexact", "m1-d", "mixed"),
    "operator": ("normalized", "even-order"), "mode": ("exact", "float"),
    "fmt": ("csv", "jsonl"), "precision": ("17", "5"), "output": ("-", "out.json"),
}
#: out-of-range, ill-typed and option-like values
BAD_VALUES = ("1e3", "1", "COEXACT", "0", "x", "--p", "--", "", "-o",
              "9223372036854775808")
#: tokens outside the strict form
ODD_TOKENS = ("--help", "--", "--r=2", "-ofile", "--bogus")


#: ``main`` as click's own ``Group.main`` runs it, for ``CliRunner.invoke``
CLICKS = SimpleNamespace(name=main.name, main=functools.partial(click.Group.main, main))


def _click_parse():
    """Requests run through click's own ``Group.main``: its contexts and its parser."""
    return mock.patch.object(type(main), "main", click.Group.main)


def _outcome(cli_, argv, **kwargs):
    """What ``cli_.main(argv, prog_name="intertwinor")`` does in an empty working
    directory: its exit code, return value, stdout and stderr bytes, the uncaught
    exception other than SystemExit, and the files it writes."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        result = runner.invoke(cli_, list(argv), prog_name="intertwinor", **kwargs)
        files = {path.name: path.read_bytes() for path in sorted(Path().iterdir())}
    stop = result.exception
    return (result.exit_code, result.return_value, result.stdout_bytes, result.stderr_bytes,
            None if stop is None or isinstance(stop, SystemExit) else repr(stop), files)


#: a well-formed request, which the group runs itself unless a test says otherwise
REQUEST = EVAL_AT + ["--r", "3/2", "--mode", "float"]


def _refuse_clicks_stack(monkeypatch):
    """Make click's context stack, group invocation, parsers and ``main`` raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("click's context stack ran")

    for owner, name in ((click.Context, "__enter__"), (click.Group, "invoke"),
                        (click.Command, "parse_args"), (click.Group, "parse_args"),
                        (click.Command, "make_context"), (click.Group, "main")):
        monkeypatch.setattr(owner, name, refuse)


@st.composite
def _argvs(draw):
    """A request command and an argv: its options in `--name value` pairs, in any order,
    then at most two splices of dropped, repeated, bad or odd tokens."""
    name = draw(st.sampled_from(SUBCOMMANDS))
    params = main.commands[name].params
    tokens = []
    for param in draw(st.permutations(params)):
        if param.required or draw(st.booleans()):
            tokens += [draw(st.sampled_from(param.opts)),
                       draw(st.sampled_from(OPTION_VALUES[param.name]))]
    loose = [opt for param in params for opt in param.opts] + list(BAD_VALUES + ODD_TOKENS)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(tokens)))
        tokens[at:at + draw(st.integers(0, 2))] = draw(
            st.lists(st.sampled_from(loose), max_size=2))
    return name, tokens


#: what a whole argv starts with, for a request command's tokens: its name, another
#: command's name, group-level tokens, or nothing
HEADS = (("{name}",), ("torus",), ("--help",), ("--",), ("--", "{name}"), ("bogus",),
         ("--help", "{name}"), ())


@st.composite
def _whole_argvs(draw):
    name, tokens = draw(_argvs())
    return [token.format(name=name) for token in draw(st.sampled_from(HEADS))] + tokens


def test_subcommand_options_are_plain():
    # the conditions under which the subcommands' own parse matches click's
    unset = click.Option(["--probe"]).default  # what an option without a default holds
    for name in SUBCOMMANDS:
        cmd = main.commands[name]
        assert cmd.params and not cmd.no_args_is_help
        for param in cmd.params:
            assert isinstance(param, click.Option), param.name
            assert param.nargs == 1 and not param.multiple and not param.is_flag
            assert not param.deprecated and param.expose_value
            assert param.envvar is None and param.callback is None and param.prompt is None
            assert param.required or param.default is not unset, param.name
            # types whose values are immutable, so one stored value serves many requests
            assert isinstance(param.type, (click.IntRange, click.Choice)) \
                or param.type is click.STRING, param.name


def test_the_group_has_no_options_of_its_own():
    # the conditions under which the group's own dispatch matches click's: no
    # group options, no chain, no result callback and nothing deprecated
    assert not main.params and not main.chain and main._result_callback is None
    assert not main.deprecated
    assert not any(main.commands[name].deprecated for name in SUBCOMMANDS)


def test_verify_and_torus_use_clicks_parser():
    for name in ("torus", "verify"):
        assert type(main.commands[name]) is click.Command


@pytest.mark.parametrize("name, argv", [
    ("eval", ORDER_COMMANDS[0][1:] + ["--r", "1", "-o", "x.json"]),
    ("table", ORDER_COMMANDS[1][1:] + ["--r", "1"]),
], ids=SUBCOMMANDS)
def test_well_formed_options_skip_clicks_parser(monkeypatch, name, argv):
    # no context is entered, no group invoked and no parser built, and the
    # outcome, the record file included, is click's
    want = _outcome(CLICKS, [name] + argv)
    assert want[0] == 0
    _refuse_clicks_stack(monkeypatch)
    assert _outcome(main, [name] + argv) == want


def test_a_repeated_option_keeps_its_last_value(monkeypatch):
    # as click's parser keeps it, and without click's context stack
    argv = ORDER_COMMANDS[0] + ["--r", "1", "-o", "first.json", "--j", "3",
                                "--output", "last.json"]
    want = _outcome(CLICKS, argv)
    assert want[0] == 0 and list(want[5]) == ["last.json"]
    assert json.loads(want[5]["last.json"])["j"] == 3
    _refuse_clicks_stack(monkeypatch)
    assert _outcome(main, argv) == want


def test_a_repeated_request_processes_only_its_given_values(runner, monkeypatch):
    # the parse table, defaults included, is built once per command, and each
    # distinct (option, text) is processed once
    cmd = main.commands["eval"]
    monkeypatch.setattr(cmd, "_table", None)
    argv = ORDER_COMMANDS[0] + ["--r", "1", "--mode", "exact", "--precision", "17"]
    jp = argv.index("--jp") + 1
    changed = argv[:jp] + ["2"] + argv[jp + 1:]
    name_of = {opt: param.name for param in cmd.params for opt in param.opts}
    calls = []
    with mock.patch.object(click.Option, "process_value", autospec=True,
                           side_effect=click.Option.process_value) as process:
        for args in (argv, argv, changed):
            process.reset_mock()
            run_ok(runner, args)
            calls.append([(call.args[0].name, call.args[2]) for call in process.call_args_list])
    defaults = [("operator", "normalized"), ("mode", "exact"), ("precision", 17),
                ("output", None), ("help", False)]
    given = [(name_of[opt], text) for opt, text in zip(argv[1::2], argv[2::2])]
    assert calls == [defaults + given, [], [("jp", "2")]]


def _known(cmd):
    """The command's stored values, keyed by (parameter name, text)."""
    return {(param.name, text): value for (param, text), value in cmd._table[3].items()}


def test_the_value_table_stops_at_its_bound(monkeypatch):
    # a full table still processes new texts as click does, and keeps the first ones
    cmd = main.commands["eval"]
    monkeypatch.setattr(cmd, "_table", None)
    monkeypatch.setattr(cli, "MAX_KNOWN_VALUES", 3)
    argv = ORDER_COMMANDS[0] + ["--r", "2"]
    p = argv.index("--p") + 1
    argvs = [argv, argv[:p] + ["5"] + argv[p + 1:]]
    want = [_outcome(CLICKS, args) for args in argvs]
    _refuse_clicks_stack(monkeypatch)
    assert [_outcome(main, args) for args in argvs] == want
    assert _known(cmd) == {("p", "4"): 4, ("q", "6"): 6, ("k", "2"): 2}


@pytest.mark.parametrize("option, text", [("--family", "bogus"), ("--p", "x")])
def test_a_rejected_value_is_not_stored(runner, monkeypatch, option, text):
    cmd = main.commands["eval"]
    monkeypatch.setattr(cmd, "_table", None)
    good = ORDER_COMMANDS[0] + ["--r", "1"]
    run_ok(runner, good)
    known = _known(cmd)
    at = good.index(option) + 1
    bad = good[:at] + [text] + good[at + 1:]
    with _click_parse():
        want = runner.invoke(main, bad)
    got = runner.invoke(main, bad)
    assert got.exit_code == want.exit_code == 2
    assert got.stderr == want.stderr != ""
    assert _known(cmd) == known


@pytest.mark.parametrize("settings_", [
    {"default_map": {"precision": "5"}},
    {"auto_envvar_prefix": "INTERTWINOR_TEST"},
], ids=["default-map", "envvar-prefix"])
def test_context_settings_go_to_click(monkeypatch, settings_):
    # values from outside argv: the precision's source is the default map, the
    # mode's the environment
    monkeypatch.setenv("INTERTWINOR_TEST_MODE", "float")
    argv = ORDER_COMMANDS[0][1:] + ["--r", "1/2"]
    cmd = main.commands["eval"]
    with _click_parse():
        want = cmd.make_context("eval", list(argv), **settings_)
    ctx = cmd.make_context("eval", list(argv), **settings_)
    assert ctx.params == want.params
    assert all(ctx.get_parameter_source(p.name) == want.get_parameter_source(p.name)
               for p in cmd.params)


# other names than --help are left out: click caches the help option the first
# time it is asked for, so they would rename it for every later test
@pytest.mark.parametrize("names", [[], ["--help"]], ids=["none", "--help"])
def test_help_option_names_are_clicks(monkeypatch, names):
    # help option names set for the group are click's to apply, to a request
    # and to a request for help
    monkeypatch.setattr(main, "context_settings", {"help_option_names": names})
    for argv in (REQUEST, REQUEST + ["--help"]):
        assert _outcome(main, argv) == _outcome(CLICKS, argv)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_whole_argvs())
@example([])
@example(["--help"])
@example(["bogus"])
@example(["--", "eval"] + ORDER_COMMANDS[0][1:] + ["--r", "2"])
@example(["eval"] + ORDER_COMMANDS[0][1:] + ["--r", "2"])
# a repeated option: its first value rejected, its last value rejected, both accepted
@example(["eval", "--p", "x"] + ORDER_COMMANDS[0][1:] + ["--r", "2"])
@example(ORDER_COMMANDS[0] + ["--r", "2", "--p", "x"])
@example(ORDER_COMMANDS[0] + ["--r", "1", "-o", "first.json", "--j", "3", "--output", "last.json"])
def test_fast_parse_matches_clicks(argv):
    # whole outcomes, files written included; the second run reads the stored values
    fast = [_outcome(main, argv) for _ in range(2)]
    assert fast == [_outcome(CLICKS, argv)] * 2


def _raise(error):
    def raiser(*args, **kwargs):
        raise error
    return raiser


@pytest.mark.parametrize("argv, error, code", [
    (_table_at("255", "256"), None, 2),
    (EVAL_AT + ["--r", "1/2"], None, 2),
    (["eval", "--p", "1", "--q", "3", "--k", "0", "--a", "0"] + BUNDLE_AT, None, 1),
    (EVAL_AT + ["--r", "2"], KeyboardInterrupt(), 1),
    (EVAL_AT + ["--r", "2"], BrokenPipeError(errno.EPIPE, "Broken pipe"), 1),
    (EVAL_AT + ["--r", "2"], RuntimeError("a fault in the record"), 1),
], ids=["cell-cap", "exact-half-order", "bad-bundle", "interrupt", "broken-pipe", "crash"])
def test_request_errors_end_as_in_clicks_main(monkeypatch, argv, error, code):
    # errors raised in a request callback end the run as click's main ends it:
    # usage errors with their Usage and Try lines, Aborted!, a quiet broken pipe,
    # and any other exception left to the caller
    if error is not None:
        monkeypatch.setattr(cli, "_eval_record", _raise(error))
    want = _outcome(CLICKS, argv)
    _refuse_clicks_stack(monkeypatch)
    got = _outcome(main, argv)
    assert got == want and got[0] == code
    assert (b"Usage: intertwinor " in got[3]) == (code == 2)


@pytest.mark.parametrize("case", ["group-settings", "command-settings", "default-map",
                                  "not-standalone", "completing"])
def test_requests_the_fast_path_declines_go_to_click(monkeypatch, case):
    kwargs = {}
    if case == "group-settings":
        monkeypatch.setattr(main, "context_settings", {"max_content_width": 60})
    elif case == "command-settings":
        monkeypatch.setattr(main.commands["eval"], "context_settings",
                            {"max_content_width": 60})
    elif case == "default-map":  # a keyword for click's context, which sets the precision
        kwargs["default_map"] = {"eval": {"precision": 5}}
        assert _outcome(CLICKS, REQUEST, **kwargs) != _outcome(CLICKS, REQUEST)
    elif case == "not-standalone":  # the callback's return value, and no exit
        kwargs["standalone_mode"] = False
    else:
        words = ["intertwinor"] + REQUEST + ["--"]
        kwargs["env"] = {"_INTERTWINOR_COMPLETE": "bash_complete",
                         "COMP_WORDS": " ".join(words), "COMP_CWORD": str(len(words) - 1)}
    want = _outcome(CLICKS, REQUEST, **kwargs)
    calls = []

    def clicks_main(self, *args, **options):
        calls.append(args)
        return CLICKS.main(*args, **options)

    monkeypatch.setattr(click.Group, "main", clicks_main)
    monkeypatch.setattr(cli._PairsCommand, "_pairs", _raise(AssertionError("parsed")))
    assert _outcome(main, REQUEST, **kwargs) == want
    if case == "completing":  # click's _main_shell_completion answers and exits first
        assert want[0] == 0 and b"--precision" in want[2] and calls == []
    else:
        assert len(calls) == 1


def test_the_click_names_the_fast_path_uses_are_pinned(monkeypatch):
    # the private and module-level click names that _RequestGroup.main calls or
    # mirrors; a click release that moves or reshapes one fails here first
    assert list(inspect.signature(click.Group.main).parameters) == [
        "self", "args", "prog_name", "complete_var", "standalone_mode",
        "windows_expand_args", "extra"]
    assert list(inspect.signature(click.Command._main_shell_completion).parameters) == [
        "self", "ctx_args", "prog_name", "complete_var"]
    monkeypatch.delenv("_INTERTWINOR_COMPLETE", raising=False)
    assert main._main_shell_completion({}, "intertwinor", None) is None
    assert cli._detect_program_name is click.utils._detect_program_name
    assert isinstance(cli._detect_program_name(), str)
    assert cli.PacifyFlushWrapper is click.utils.PacifyFlushWrapper
    assert cli.augment_usage_errors is click.core.augment_usage_errors
    assert cli.Exit is click.exceptions.Exit


@pytest.mark.parametrize("line", [
    "intertwinor eval --p 3 --",
    "intertwinor eval --p 3 --q 3 --k 1 --a 0 --jp 2 --j 2 --r 2 --family coexact --",
    "intertwinor torus --k 1 --mode ",
])
def test_completion_is_clicks(runner, line):
    env = {"_INTERTWINOR_COMPLETE": "bash_complete", "COMP_WORDS": line,
           "COMP_CWORD": str(len(line.split(" ")) - 1)}
    fast = runner.invoke(main, [], env=env, prog_name="intertwinor")
    with _click_parse():
        slow = runner.invoke(main, [], env=env, prog_name="intertwinor")
    assert fast.exit_code == slow.exit_code == 0
    assert fast.stdout_bytes == slow.stdout_bytes != b""


def test_completion_script_is_printed(runner):
    result = runner.invoke(main, [], env={"_INTERTWINOR_COMPLETE": "bash_source"},
                           prog_name="intertwinor")
    assert result.exit_code == 0
    assert "_INTERTWINOR_COMPLETE=bash_complete" in result.output
