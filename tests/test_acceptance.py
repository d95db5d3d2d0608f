"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
the exact grids and tolerances are pinned here and nowhere else.
"""

import hashlib
import time
from fractions import Fraction

import pytest

import torus_reference
from intertwinor import arithmetic, blocks, spectra, torus, verify
from intertwinor.arithmetic import (
    POLE,
    IndeterminateError,
    gamma_ratio,
    gamma_ratio_numeric,
)
from intertwinor.spectra import Family

DEFAULT_GRID = verify.GridSpec(p_max=7, q_max=7, j_max=8, r_values=(1, 2, 3, 4))
TINY_GRID = verify.GridSpec(p_max=3, q_max=3, j_max=3, r_values=(1, 2))


def _verdict(num, name, ok, detail):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def timed_suites():
    """Each verify suite, run once on the default grid, with its runtime."""
    out = {}
    for name, fn in verify.SUITES.items():
        start = time.perf_counter()
        reports = fn(DEFAULT_GRID)
        out[name] = (reports, time.perf_counter() - start)
    return out


def test_default_grid_report_bytes_are_pinned(timed_suites):
    # the bytes of `intertwinor verify --suite all` on the default grid
    digest = hashlib.sha256()
    for name in verify.SUITES:
        reports, _ = timed_suites[name]
        digest.update(b"".join(verify.encode(rep) + b"\n" for rep in reports))
    assert digest.hexdigest() == \
        "885343ac1b5560d0339a79d0ac03d36c658c3ef701bcefd4d15e6d407737749c"


def test_criterion_1_gamma_engine():
    start = time.perf_counter()
    # functional equation, exact, over a deterministic sweep
    identity_checked = 0
    for num in range(-50, 51, 5):
        x = Fraction(num, 2)
        for r1 in range(-4, 5, 2):
            for r2 in range(-3, 4, 3):
                whole = gamma_ratio(x, r1 + r2)
                left = gamma_ratio(x + r2, r1)
                right = gamma_ratio(x - r1, r2)
                if POLE in (whole, left, right):
                    continue
                assert whole == left * right
                identity_checked += 1
    # exact vs numeric agreement at relative 1e-10
    agreement_checked = 0
    for num in range(-100, 101):
        x = Fraction(num, 2)
        for r in range(0, 13, 1):
            exact = gamma_ratio(x, r)
            if exact is POLE or exact == 0:
                continue
            try:
                numeric = gamma_ratio_numeric(float(x), float(r))
            except IndeterminateError:
                continue
            if numeric is POLE or numeric == 0:
                continue
            rel = abs(numeric - float(exact)) / abs(float(exact))
            assert rel < 1e-10, (x, r, rel)
            agreement_checked += 1
    elapsed = time.perf_counter() - start
    ok = identity_checked > 200 and agreement_checked >= 1000 and elapsed < 5.0
    _verdict(1, "exact gamma engine", ok,
             f"{identity_checked} identity points, {agreement_checked} "
             f"agreement points at rel 1e-10, {elapsed:.2f}s < 5s")


def test_criterion_2_diamond_consistency(timed_suites):
    reports, elapsed = timed_suites["diamond"]
    counts = verify.summarize(reports)
    valid = counts[verify.PASS] + counts[verify.FAIL]
    ok = counts[verify.FAIL] == 0 and valid >= 10_000 and elapsed < 60.0
    _verdict(2, "diamond consistency", ok,
             f"{valid} valid points, {counts[verify.FAIL]} failures, "
             f"{elapsed:.1f}s < 60s")


def test_criterion_3_interface_equations(timed_suites):
    reports, elapsed = timed_suites["interface"]
    counts = verify.summarize(reports)
    ok = counts[verify.FAIL] == 0 and counts[verify.PASS] > 0
    _verdict(3, "interface equations", ok,
             f"{counts[verify.PASS]} points exact, {counts[verify.SKIP]} "
             f"degenerate skipped, {counts[verify.FAIL]} failures, {elapsed:.1f}s")


def test_criterion_4_determinant_factorization(timed_suites):
    det_reports, det_elapsed = timed_suites["det"]
    det_counts = verify.summarize(det_reports)
    # proportionality of the even-order block det against the gamma det is
    # part of the even-order suite; pull those sub-checks out
    even_reports, _ = timed_suites["even-order"]
    prop_fail = [rep for rep in even_reports
                 if rep["status"] == verify.FAIL
                 and rep["point"].get("identity") == "det-proportionality"]
    ok = det_counts[verify.FAIL] == 0 and not prop_fail and det_counts[verify.PASS] > 0
    _verdict(4, "determinant factorization", ok,
             f"{det_counts[verify.PASS]} factorizations exact, "
             f"{det_counts[verify.SKIP]} degenerate skipped, "
             f"{len(prop_fail)} proportionality failures, {det_elapsed:.1f}s")


def test_criterion_5_order2_consistency(timed_suites):
    reports, elapsed = timed_suites["even-order"]
    counts = verify.summarize(reports)
    ok = counts[verify.FAIL] == 0 and counts[verify.PASS] > 0
    _verdict(5, "second-order reproduction and family ratio", ok,
             f"{counts[verify.PASS]} points (r=1 reproduction, family ratio, "
             f"block checks), {counts[verify.FAIL]} failures, {elapsed:.1f}s")


def test_criterion_6_leading_symbol(timed_suites):
    reports, _ = timed_suites["even-order"]
    symbol = [rep for rep in reports
              if rep["point"].get("identity") == "leading-symbol"]
    by_r = {}
    for rep in symbol:
        point = rep["point"]
        by_r.setdefault(point["r"], set()).add((point["p"], point["q"], point["k"], point["a"]))
    bad = [rep for rep in symbol if rep["status"] == verify.FAIL]
    enough = all(len(by_r.get(str(r), ())) >= 20 for r in (1, 2, 3, 4))
    ok = not bad and enough
    _verdict(6, "leading symbol", ok,
             f"exact top-degree identity on {min(len(v) for v in by_r.values())} "
             f"parameter sets per order, orders 1..4, {len(bad)} failures")


def test_criterion_7_torus_realization():
    start = time.perf_counter()
    columns = []
    for k in (0, 1, 2):
        for r in (1, 2, 3):
            result = torus.intertwining_residual(24, k, r, mode="exact")
            assert result.exact_zero and result.columns > 0, (k, r, result)
            columns.append(result.columns)
    # assembly identities, exact, every degree, against the geometric reference
    for k in (0, 1, 2):
        basis = torus.TorusBasis(6, k)
        phi, nabla = torus.assemble("phi-mult", basis), torus_reference.operator("nabla_T", 6, k)
        comm = torus.half_commutator_with_phi(basis) - nabla - phi
        lie = (torus_reference.lie_derivative(6, k) - nabla) \
            - (phi.scaled(k) - torus.assemble("P", basis))
        for op in (comm, lie):
            assert torus_reference.is_zero(op)
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    _verdict(7, "torus realization", ok,
             f"residual exactly zero over k in {{0,1,2}}, r in {{1,2,3}}, M=24, "
             f"at least {min(columns)} columns each; assembly identities exact; "
             f"{elapsed:.1f}s < 120s")


def _skew_transition(real):
    def skewed(mixed, jp2, j2, r2, djp, dj):
        (num, den), *rest = real(mixed, jp2, j2, r2, djp, dj)
        return ((num + 2, den), *rest) if (djp, dj) == (1, 1) else ((num, den), *rest)
    return skewed


def _skew_entries(real):
    def skewed(b, jp2, j2, r2):
        (e11, e12, e21, e22), den = real(b, jp2, j2, r2)
        return (e11 + den, e12, e21, e22), den
    return skewed


def _skew_det(real):
    def skewed(xs2, r):
        num, den = real(xs2, r)
        return (7 * num, den) if len(xs2) == 4 else (num, den)
    return skewed


def _skew_even(real):
    def skewed(family, b, jp2, j2, r):
        value, scale = real(family, b, jp2, j2, r)
        return (value + scale, scale) if family is Family.COEXACT else (value, scale)
    return skewed


def _skew_floor(real):
    def skewed(params, family):
        if params.k == 0 and family is Family.MIXED:
            return 1, 1
        return real(params, family)
    return skewed


def test_criterion_8_negative_controls(monkeypatch):
    # per suite: the library function it calls, and an edit built from the real one
    edits = {
        "diamond": (spectra, "transition_factors", _skew_transition),
        "interface": (blocks, "block_pair", _skew_entries),
        "det": (arithmetic, "gamma_product", _skew_det),
        "even-order": (blocks, "even_order_pair", _skew_even),
        "scalar": (spectra, "level_floor", _skew_floor),
    }
    flagged = {}
    for name, (module, attr, skew) in edits.items():
        with monkeypatch.context() as patch:
            patch.setattr(module, attr, skew(getattr(module, attr)))
            flagged[name] = any(rep["status"] == verify.FAIL
                                for rep in verify.SUITES[name](TINY_GRID))

    ok = all(flagged.values())
    _verdict(8, "negative controls", ok,
             "library edits flagged per suite: "
             + ", ".join(f"{name}={'yes' if hit else 'NO'}"
                         for name, hit in flagged.items()))
