"""Every record kind encodes to the bytes of the stdlib JSON encoder.

``verify.encode_lines`` is the one encoder of report and CLI records.  It
must write one line per record, each what ``json.dumps(record,
sort_keys=True, separators=(",", ":"))`` writes, and pure ASCII, since it
never escapes non-ASCII text.
"""

import io
import json

import pytest
from click.testing import CliRunner

from intertwinor import arithmetic, blocks, spectra, verify
from intertwinor.cli import main
from intertwinor.spectra import Family

TINY = verify.GridSpec(p_max=3, q_max=3, j_max=3, r_values=(1, 2))


def stdlib_lines(records):
    return "".join(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
                   for record in records).encode()


def assert_stdlib_bytes(records):
    assert records
    data = verify.encode_lines(records)
    assert data == stdlib_lines(records)
    assert data.isascii()


def suite_records(grid):
    return [rep for suite in verify.SUITES.values() for rep in suite(grid)]


def test_pass_and_skipped_records():
    records = suite_records(TINY)
    assert {rep["status"] for rep in records} == {verify.PASS, verify.SKIP}
    assert_stdlib_bytes(records)


def test_fail_records_with_witnesses(monkeypatch):
    real_gamma, real_block = arithmetic.gamma_product, blocks.block_pair
    real_floor, real_product = spectra.level_floor, blocks.even_product

    def gamma_product(xs2, r):
        num, den = real_gamma(xs2, r)
        return num + den, den

    def block_pair(b, jp2, j2, r2):
        (e11, e12, e21, e22), den = real_block(b, jp2, j2, r2)
        return (e11 + den, e12, e21, e22), den

    def level_floor(params, family):
        if params.k == 0 and family is Family.EXACT:
            return 1, 1
        return real_floor(params, family)

    monkeypatch.setattr(arithmetic, "gamma_product", gamma_product)
    monkeypatch.setattr(blocks, "block_pair", block_pair)
    monkeypatch.setattr(spectra, "level_floor", level_floor)
    monkeypatch.setattr(blocks, "even_product",
                        lambda v1, v2, r: real_product(v1, v2, r) * (2 if r == 2 else 1))
    records = suite_records(TINY)
    failed = [rep for rep in records if rep["status"] == verify.FAIL]
    assert {rep["check"] for rep in failed} == {
        "diamond", "interface", "det", "even-order", "scalar-reduction"}
    assert all("lhs" in rep and "rhs" in rep for rep in failed)
    assert any(rep["point"].get("identity") == "leading-symbol" for rep in failed)
    assert_stdlib_bytes(records)


def test_witnesses_that_look_like_boundaries():
    # a record boundary is `},{"`; inside a string its quote is escaped
    records = [
        verify.check_report("demo", {"p": 2, "r": '},{"'}, verify.FAIL,
                            lhs='}\n{"check"', rhs='\\"},{"\\'),
        verify.check_report("demo", {"p": 3}, verify.SKIP, lhs='}},{{"'),
        verify.check_report("demo", {}, verify.PASS),
    ]
    assert_stdlib_bytes(records)
    assert len(verify.encode_lines(records).splitlines()) == len(records)


def test_no_records_give_no_bytes():
    assert verify.encode_lines([]) == b""
    assert verify.encode_lines(()) == b""


def test_append_report_writes_batches(monkeypatch):
    monkeypatch.setattr(verify, "REPORT_BATCH", 3)
    records = suite_records(TINY)[:7]
    writes = []

    class Sink(io.BytesIO):
        def write(self, data):
            writes.append(data)
            return super().write(data)

    sink = Sink()
    verify.append_report(records, sink)
    assert sink.getvalue() == b"".join(verify.encode_lines([rec]) for rec in records)
    assert sink.getvalue() == stdlib_lines(records)
    assert [data.count(b"\n") for data in writes] == [3, 3, 1]


BUNDLE = ["--p", "4", "--q", "6", "--k", "2", "--a", "1"]
CLI_RECORDS = [
    ["eval"] + BUNDLE + ["--jp", "1", "--j", "2", "--r", "1", "--family", "m1-delta"],
    ["eval"] + BUNDLE + ["--jp", "1", "--j", "2", "--r", "1", "--family", "mixed"],
    ["eval"] + BUNDLE + ["--jp", "1", "--j", "2", "--r", "2", "--family", "coexact",
                         "--operator", "even-order"],
    ["eval"] + BUNDLE + ["--jp", "1", "--j", "2", "--r", "2", "--family", "mixed",
                         "--operator", "even-order"],
    ["eval"] + BUNDLE + ["--jp", "1", "--j", "2", "--r", "0.5", "--family", "coexact",
                         "--mode", "float", "--precision", "9"],
    # a negative radicand: the float value splits into re and im
    ["eval", "--p", "3", "--q", "3", "--k", "2", "--a", "1", "--jp", "1", "--j", "1",
     "--r", "0.5", "--family", "coexact", "--mode", "float"],
    ["eval", "--p", "9223372036854775807", "--q", "6", "--k", "1", "--a", "1",
     "--jp", "1", "--j", "1", "--r", "2", "--family", "coexact"],
    # float rows with poles
    ["table", "--p", "7", "--q", "8", "--k", "5", "--a", "3", "--jp-max", "5",
     "--j-max", "5", "--r", "0.5", "--family", "coexact", "--mode", "float",
     "--format", "jsonl"],
    # degenerate normalizations at s = +-r
    ["table", "--p", "2", "--q", "2", "--k", "0", "--a", "0", "--jp-max", "1",
     "--j-max", "1", "--r", "1", "--family", "coexact", "--format", "jsonl"],
    # indeterminate squared seeds
    ["table", "--p", "2", "--q", "6", "--k", "1", "--a", "1", "--jp-max", "5",
     "--j-max", "5", "--r", "2", "--family", "mixed", "--format", "jsonl"],
    ["torus", "--k", "1", "--r", "1", "--M", "6"],
]


@pytest.mark.parametrize("args", CLI_RECORDS, ids=lambda args: "-".join(args[:1] + args[-3:]))
def test_cli_records(monkeypatch, args):
    # each command encodes its records in one list
    batches = []

    def encode_lines(records):
        batches.append(records)
        return real(records)

    real = verify.encode_lines
    monkeypatch.setattr(verify, "encode_lines", encode_lines)
    result = CliRunner().invoke(main, args)
    monkeypatch.undo()
    assert result.exit_code == 0, result.output
    [records] = batches
    assert_stdlib_bytes(records)
    assert result.output.encode() == real(records)


def test_cli_records_cover_every_marker():
    # the cases above reach each marker that records carry as data
    runner = CliRunner()
    lines = [line for args in CLI_RECORDS
             for line in runner.invoke(main, args).output.splitlines()]
    records = [json.loads(line) for line in lines]
    assert any(rec.get("pole") is True and rec.get("value_float") == "pole" for rec in records)
    assert any(isinstance(rec.get("value_float"), dict) for rec in records)
    assert any(rec.get("value") == "degenerate" for rec in records)
    assert any(rec.get("seed_squared") == "indeterminate" for rec in records)
    assert any(rec.get("check") == "intertwining-residual" for rec in records)
