import hashlib
import inspect
import itertools
import json
import re
from fractions import Fraction

import pytest

from intertwinor import arithmetic, blocks, spectra, torus, verify
from intertwinor.arithmetic import POLE, IndeterminateError
from intertwinor.spectra import DegenerateNormalizationError, Family
from intertwinor.verify import (
    FAIL,
    PASS,
    SKIP,
    SUITES,
    GridSpec,
    check_report,
    encode,
    iter_bundles,
    run_even_order_checks,
    run_det_checks,
    run_diamond_checks,
    run_interface_checks,
    run_scalar_reduction,
    slice_grids,
    summarize,
    write_report,
)

SMALL = GridSpec(p_max=4, q_max=4, j_max=4, r_values=(1, 2))
TINY = GridSpec(p_max=3, q_max=3, j_max=3, r_values=(1, 2))


def failures(reports):
    return [rep for rep in reports if rep["status"] == FAIL]


def levels(grid):
    """Every level pair (j', j) of the grid, in sweep order."""
    return itertools.product(range(grid.j_max + 1), repeat=2)


class TestGridSpec:
    def test_rejects_empty_ranges(self):
        with pytest.raises(ValueError):
            GridSpec(p_max=1)
        with pytest.raises(ValueError):
            GridSpec(r_values=())

    def test_rejects_negative_orders(self):
        with pytest.raises(ValueError, match="r=-1"):
            GridSpec(p_max=3, q_max=3, j_max=3, r_values=(2, -1))

    @pytest.mark.parametrize("r", [1.5, 2.0, Fraction(3, 2), True])
    def test_rejects_non_integer_orders(self, r):
        # a float or Fraction order raised a TypeError in four suites and
        # passed the interface suite; True wrote records at "r":"True"
        with pytest.raises(ValueError, match=re.escape(f"r={r!r}")):
            GridSpec(p_max=3, q_max=3, j_max=1, r_values=(1, r))

    @pytest.mark.parametrize("field, value", [
        ("p_max", 3.5), ("q_max", 3.0), ("j_max", 1.5), ("j_max", True),
        ("p_min", 2.0), ("q_min", True),
    ])
    def test_rejects_bounds_that_are_not_ints(self, field, value):
        # a float bound made the suites raise a TypeError from range, and
        # j_max=True ran as j_max = 1
        with pytest.raises(ValueError, match=re.escape(f"{field}={value!r}")):
            GridSpec(**{field: value})

    @pytest.mark.parametrize("field", ["p_min", "q_min"])
    def test_rejects_sphere_minimum_below_two(self, field):
        # a suite failed on it only when it built its first bundle
        with pytest.raises(ValueError, match=f"{field}=1"):
            GridSpec(**{field: 1})

    def test_bundle_iteration_respects_caps(self):
        for params in iter_bundles(SMALL):
            assert 2 <= params.p <= 4 and 2 <= params.q <= 4
            assert params.k <= min(params.p, params.q) - 1
            assert 0 <= params.a <= params.k


class TestSuitesPass:
    @pytest.mark.parametrize("suite", [
        run_diamond_checks, run_interface_checks, run_det_checks,
        run_even_order_checks, run_scalar_reduction,
    ])
    def test_zero_failures_on_small_grid(self, suite):
        reports = suite(SMALL)
        counts = summarize(reports)
        assert counts[FAIL] == 0
        assert counts[PASS] > 0

    def test_suites_take_only_the_grid(self):
        # bench/ and the CLI call every suite as SUITES[name](grid)
        for name, suite in SUITES.items():
            assert list(inspect.signature(suite).parameters) == ["grid"], name

    def test_diamond_covers_all_families(self):
        reports = run_diamond_checks(TINY)
        families = {rep["point"]["family"] for rep in reports}
        assert families == {"coexact", "exact", "mixed"}

    def test_order_zero_grid_passes_trivially(self):
        grid = GridSpec(p_max=3, q_max=3, j_max=3, r_values=(0,))
        for suite in (run_diamond_checks, run_interface_checks, run_det_checks,
                      run_even_order_checks, run_scalar_reduction):
            counts = summarize(suite(grid))
            assert counts[FAIL] == 0

    def test_degenerates_are_counted_not_dropped(self):
        reports = run_interface_checks(SMALL)
        counts = summarize(reports)
        assert counts[SKIP] > 0
        skipped = [rep for rep in reports if rep["status"] == SKIP]
        assert all(rep["lhs"] for rep in skipped)  # reason recorded


class TestDeterminism:
    def test_identical_runs(self):
        first = [encode(rep).decode() for rep in run_diamond_checks(TINY)]
        second = [encode(rep).decode() for rep in run_diamond_checks(TINY)]
        assert first == second

    def test_reports_serialize_to_json_lines(self, tmp_path):
        reports = run_scalar_reduction(TINY)
        path = tmp_path / "report.jsonl"
        write_report(reports, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(reports)
        for line in lines:
            record = json.loads(line)
            assert {"check", "point", "status"} <= set(record)


class TestNegativeControls:
    """Each suite flags an edit of the library kernel it calls."""

    def test_perturbed_eigenvalue_is_flagged(self, monkeypatch):
        real = arithmetic.gamma_product

        def skewed(xs2, r):
            # the multiplicity-one eigenvalue doubled where 2J' = 2J
            num, den = real(xs2, r)
            return (2 * num, den) if len(xs2) == 2 and xs2[1] == 2 else (num, den)

        monkeypatch.setattr(arithmetic, "gamma_product", skewed)
        assert failures(run_diamond_checks(TINY))

    def test_perturbed_entries_are_flagged(self, monkeypatch):
        real = blocks.block_pair

        def skewed(b, jp2, j2, r2):
            (e11, e12, e21, e22), den = real(b, jp2, j2, r2)
            return (e11 + den, e12, e21, e22), den

        monkeypatch.setattr(blocks, "block_pair", skewed)
        bad = failures(run_interface_checks(TINY))
        assert bad
        assert all(rep["point"].get("equation") for rep in bad)

    def test_perturbed_det_is_flagged(self, monkeypatch):
        monkeypatch.setattr(arithmetic, "gamma_product", _scale_determinant(5, 4))
        assert failures(run_det_checks(TINY))

    def test_perturbed_even_order_is_flagged(self, monkeypatch):
        real = blocks.even_order_pair

        def skewed(family, b, jp2, j2, r):
            value, scale = real(family, b, jp2, j2, r)
            return (value + scale, scale) if family is Family.COEXACT else (value, scale)

        monkeypatch.setattr(blocks, "even_order_pair", skewed)
        assert failures(run_even_order_checks(TINY))

    def test_perturbed_symbol_is_flagged(self, monkeypatch):
        real = blocks.symbol_row

        def skewed(r):
            # the x1^(2r) coefficient of the symbol's row with its sign flipped at r = 2
            row = real(r)
            if r == 2:
                coeffs = dict(row.coeffs)
                coeffs[4, 0] = -coeffs[4, 0]
                row = blocks.BivariatePoly(coeffs)
            return row

        assert not failures(run_even_order_checks(TINY))
        monkeypatch.setattr(blocks, "symbol_row", skewed)
        bad = failures(run_even_order_checks(TINY))
        assert bad
        for rep in bad:
            assert rep["point"]["identity"] == "leading-symbol" and rep["point"]["r"] == "2"
            assert rep["lhs"].startswith("BivariatePoly(")
            assert rep["rhs"].startswith("BivariatePoly(")
            assert rep["lhs"] != rep["rhs"]

    def test_symbol_row_is_built_once_per_order(self, monkeypatch):
        # the leading-symbol identity is bundle-free, so a suite call builds
        # each order's row once, however many bundles and families it sweeps
        real, orders = blocks.symbol_row, []

        def counted(r):
            orders.append(r)
            return real(r)

        monkeypatch.setattr(blocks, "symbol_row", counted)
        grid = GridSpec(p_max=4, q_max=4, j_max=1, r_values=(0, 1, 2, 3))
        run_even_order_checks(grid)
        assert orders == [1, 2, 3]

    def test_empty_function_family_is_flagged(self, monkeypatch):
        real = spectra.level_floor

        def skewed(params, family):
            if params.k == 0 and family is Family.COEXACT:
                return None  # wrongly claims no functions at k=0
            return real(params, family)

        monkeypatch.setattr(spectra, "level_floor", skewed)
        reports = run_scalar_reduction(TINY)
        bad = failures(reports)
        assert bad and len(bad) == len(reports)
        assert all(rep["lhs"] == "function family empty" for rep in bad)

    @pytest.mark.parametrize("family, lhs", [
        (Family.EXACT, "exact family nonempty at k=0"),
        (Family.MIXED, "mixed family nonempty at k=0"),
    ], ids=["exact", "mixed"])
    def test_perturbed_existence_is_flagged(self, monkeypatch, family, lhs):
        real = spectra.level_floor

        def skewed(params, fam):
            if params.k == 0 and fam is family:
                return 1, 1  # wrongly claims types of the family at k=0
            return real(params, fam)

        monkeypatch.setattr(spectra, "level_floor", skewed)
        bad = failures(run_scalar_reduction(TINY))
        assert bad and all(rep["lhs"] == lhs for rep in bad)

    def test_pole_in_function_spectrum_is_flagged(self, monkeypatch):
        real = arithmetic.gamma_product

        def pole(xs2, r):
            num, _ = real(xs2, r)
            return num, 0  # a zero denominator: the eigenvalue is a pole

        assert not failures(run_scalar_reduction(TINY))
        monkeypatch.setattr(arithmetic, "gamma_product", pole)
        bad = failures(run_scalar_reduction(TINY))
        assert bad and all(rep["lhs"] == "pole in function spectrum" for rep in bad)

    def test_witnesses_carry_both_sides(self, monkeypatch):
        monkeypatch.setattr(arithmetic, "gamma_product", _scale_determinant(7, 1))
        bad = failures(run_det_checks(TINY))
        assert bad and "lhs" in bad[0] and "rhs" in bad[0]


def _scale_determinant(num_factor, den_factor):
    """An edit of gamma_product scaling the four-argument (determinant) products."""
    real = arithmetic.gamma_product

    def skewed(xs2, r):
        num, den = real(xs2, r)
        return (num_factor * num, den_factor * den) if len(xs2) == 4 else (num, den)
    return skewed


def _assert_same_value(call, num, den):
    """A public value against its kernel's integer pair; returns the case.

    A zero denominator is a pole, and (0, 0) is indeterminate.
    """
    if num == 0 and den == 0:
        with pytest.raises(IndeterminateError):
            call()
        return "indeterminate"
    value = call()
    if den == 0:
        assert value is POLE
        return "pole"
    assert value is not POLE and value == Fraction(num, den)
    return "value"


class TestLibraryEdits:
    """The default gates run the library's own kernels, so edits there show,
    and the public wrappers that users call equal those kernels."""

    def test_edited_transition_is_flagged(self, monkeypatch):
        real = spectra.transition_factors

        def skewed(mixed, jp2, j2, r2, djp, dj):
            # one extra unit in one numerator of the diamond
            (num, den), *rest = real(mixed, jp2, j2, r2, djp, dj)
            if djp == 1 and dj == 1:
                num += 2
            return ((num, den), *rest)

        assert not failures(run_diamond_checks(TINY))
        monkeypatch.setattr(spectra, "transition_factors", skewed)
        bad = failures(run_diamond_checks(TINY))
        assert bad and all(rep["lhs"] and rep["rhs"] for rep in bad)

    def test_edited_gamma_product_is_flagged(self, monkeypatch):
        real = arithmetic.gamma_product

        def skewed(xs2, r):
            num, den = real(xs2, r)
            return num + den, den  # every product off by one

        assert not failures(run_diamond_checks(TINY))
        monkeypatch.setattr(arithmetic, "gamma_product", skewed)
        assert failures(run_diamond_checks(TINY))

    def test_edited_even_order_product_is_flagged(self, monkeypatch):
        real = blocks.even_product

        def skewed(v1, v2, r):
            return real(v1, v2, r) + 1  # one unit off at every order

        assert not failures(run_even_order_checks(TINY))
        monkeypatch.setattr(blocks, "even_product", skewed)
        bad = failures(run_even_order_checks(TINY))
        assert bad and all(rep["lhs"] and rep["rhs"] for rep in bad)

    def test_edited_entry_sums_are_flagged(self, monkeypatch):
        real = blocks.entry_sums

        def skewed(b, lap1, lap2, r2):
            e11, e22 = real(b, lap1, lap2, r2)
            return e11 + 1, e22

        assert not failures(run_interface_checks(TINY))
        assert not failures(run_det_checks(TINY))
        monkeypatch.setattr(blocks, "entry_sums", skewed)
        bad = failures(run_interface_checks(TINY))
        assert bad and all(rep["point"].get("equation") for rep in bad)
        assert failures(run_det_checks(TINY))

    @pytest.mark.parametrize("r, want", [(1, 0.015625), (2, 0.0234375), (3, 0.0439453125)])
    def test_edited_entry_sums_reach_the_torus(self, monkeypatch, r, want):
        # the torus k = 1 block is core_pair's, so the exact residual sees the edit
        real = blocks.entry_sums

        def skewed(b, lap1, lap2, r2):
            e11, e22 = real(b, lap1, lap2, r2)
            return e11 + 1, e22

        assert torus.intertwining_residual(6, 1, r).residual == 0.0
        monkeypatch.setattr(blocks, "entry_sums", skewed)
        assert torus.intertwining_residual(6, 1, r).residual == want

    def test_edited_level_map_is_flagged(self, monkeypatch):
        # the diamond, det, even-order and scalar identities hold at any
        # levels; the interface equations and the torus tie the map to geometry
        assert not failures(run_interface_checks(TINY))
        monkeypatch.setattr(spectra, "doubled_level", lambda p, j: 2 * j + p - 1)
        bad = failures(run_interface_checks(TINY))
        assert bad and all(rep["point"].get("equation") for rep in bad)
        for k, r in itertools.product((0, 1, 2), (1, 2)):
            assert torus.intertwining_residual(6, k, r).residual > 0, (k, r)

    def test_public_functions_match_the_default_gate(self):
        orders = (-1, 0) + SMALL.r_values  # a negative order reaches the gamma poles
        cases = set()
        for params in iter_bundles(SMALL):
            for jp, j in levels(SMALL):
                pt = spectra.spectral_point(params, jp, j)
                jp2, j2 = pt.jp2, pt.j2
                for r in orders:
                    for mixed, transition, gamma in (
                            (False, spectra.mult1_transition, spectra.mult1_eigenvalue),
                            (True, spectra.mult2_transition, spectra.mult2_det)):
                        for d in spectra.DIRECTIONS:
                            num = den = 1
                            for n, m in spectra.transition_factors(
                                    mixed, jp2, j2, 2 * r, d.djp, d.dj):
                                num, den = num * n, den * m
                            cases.add(_assert_same_value(
                                lambda: transition(pt, r, d), num, den))
                        cases.add(_assert_same_value(
                            lambda: gamma(pt, r),
                            *arithmetic.gamma_product(spectra.gamma_args(mixed, jp2, j2), r)))
        assert cases == {"value", "pole", "indeterminate"}

    def test_public_blocks_match_the_default_gates(self):
        orders = (-1, 0) + SMALL.r_values
        for params in iter_bundles(SMALL):
            for jp, j in levels(SMALL):
                pt = spectra.spectral_point(params, jp, j)
                jp2, j2 = pt.jp2, pt.j2
                for r in orders:
                    try:
                        entries, den = blocks.block_pair(params, jp2, j2, 2 * r)
                    except DegenerateNormalizationError as err:
                        with pytest.raises(DegenerateNormalizationError, match=re.escape(str(err))):
                            blocks.intertwinor_block(params, pt, r)
                    else:
                        block = blocks.intertwinor_block(params, pt, r)
                        assert (block.e11, block.e12, block.e21, block.e22) == \
                            tuple(Fraction(e, den) for e in entries)
                    if r >= 1:
                        for family in (Family.COEXACT, Family.EXACT):
                            assert blocks.even_order_eigenvalue(family, params, pt, r) == \
                                Fraction(*blocks.even_order_pair(family, params, jp2, j2, r))


def _edit_transition(real):
    def skewed(mixed, jp2, j2, r2, djp, dj):
        (num, den), *rest = real(mixed, jp2, j2, r2, djp, dj)
        return ((num + 2, den), *rest) if (djp, dj) == (1, 1) else ((num, den), *rest)
    return skewed


def _edit_gamma_product(real):
    def skewed(xs2, r):
        num, den = real(xs2, r)
        return num + den, den
    return skewed


def _edit_even_product_plus_one(real):
    return lambda v1, v2, r: real(v1, v2, r) + 1


def _edit_even_product_doubled_at_3(real):
    return lambda v1, v2, r: real(v1, v2, r) * 2 if r == 3 else real(v1, v2, r)


def _edit_direction(d0):
    # one direction's transitions scaled by a level-dependent factor, which
    # breaks the two corners that step along it and leaves the other two, so
    # the bytes pin each corner's least label offset
    def edit(real):
        def skewed(mixed, jp2, j2, r2, djp, dj):
            (num, den), *rest = real(mixed, jp2, j2, r2, djp, dj)
            if (djp, dj) == d0:
                num *= jp2 + 2 * j2 + 3
            return ((num, den), *rest)
        return skewed
    return edit


PIN_GRID = GridSpec(p_max=4, q_max=4, j_max=3, r_values=(1, 2, 3))


class TestPinnedReports:
    """Report bytes of the diamond, det and even-order suites, clean and under library edits."""

    @pytest.mark.parametrize("module, name, edit, suite, digest, failed", [
        (None, None, None, run_diamond_checks,
         "10a18eed8f6e29bdbf187483854578368d27dafdd4b17aef38ef2db033002111", 0),
        (None, None, None, run_det_checks,
         "1af9fd5cbea276b1892bfbcef744349e9875cbdeaf391d97f9e49e4b230d5f75", 0),
        (None, None, None, run_even_order_checks,
         "0bb9b0ea2b46722293555ba01eb6891cd8ad889ebb02866fdcf8ec573d7c2a5c", 0),
        (spectra, "transition_factors", _edit_transition, run_diamond_checks,
         "1fae0f7e29f1c2b854ca3d6c69ab8a94d7a4cef229057ed1cf4bb06b4befacb4", 1420),
        (arithmetic, "gamma_product", _edit_gamma_product, run_diamond_checks,
         "39670011b5b52e7aff54e2e4fe3109ed1ada5b77d6721060dda951d1e02818a5", 1872),
        (arithmetic, "gamma_product", _edit_gamma_product, run_det_checks,
         "b4ffbdb81a1177047525da1235400c98ad853126b0698c02e7873be34a8ecc3a", 503),
        (arithmetic, "gamma_product", _edit_gamma_product, run_even_order_checks,
         "4d82a9e5a8bf508ffef10de279bbdee441c03044ef30aed04f5907da7fa5f4a5", 1104),
        (blocks, "even_product", _edit_even_product_plus_one, run_even_order_checks,
         "b61e934f5b1e2885997401f53a88e3f7bed0314be10d7fd6a76eac3d948f99b6", 1219),
        (blocks, "even_product", _edit_even_product_doubled_at_3, run_even_order_checks,
         "0e6be2a37b8c7e2c3e3eaf3225b09678631c0653946df88e33ddd84f4258bd68", 85),
        (spectra, "transition_factors", _edit_direction((-1, 1)), run_diamond_checks,
         "8aa02a6ac28e55a5770ef74a62ae7771f4996bbf6d49e62a8c52df641a015cc4", 1087),
        (spectra, "transition_factors", _edit_direction((1, 1)), run_diamond_checks,
         "630abfff949b57ef1af8021cb528313067743330d5ca7350722f2f65b9834e77", 1656),
        (spectra, "transition_factors", _edit_direction((-1, -1)), run_diamond_checks,
         "90e2498b62fd49941e23c62954ea093f91c9447632a74f36e60dce079f9b79ec", 780),
        (spectra, "transition_factors", _edit_direction((1, -1)), run_diamond_checks,
         "036569c58489b0a3ca1655322d5ae628a54c73a40009a53186880fe61b62273e", 1087),
    ], ids=["diamond", "det", "even-order", "transition-diamond", "gamma-diamond",
            "gamma-det", "gamma-even-order", "even-product-plus-one",
            "even-product-doubled-at-3", "direction-(-1,+1)", "direction-(+1,+1)",
            "direction-(-1,-1)", "direction-(+1,-1)"])
    def test_report_digest(self, monkeypatch, module, name, edit, suite, digest, failed):
        if module is not None:
            monkeypatch.setattr(module, name, edit(getattr(module, name)))
        reports = suite(PIN_GRID)
        data = "".join(encode(rep).decode() + "\n" for rep in reports).encode()
        assert len(failures(reports)) == failed
        assert hashlib.sha256(data).hexdigest() == digest

    def test_corners_need_both_midpoints(self, monkeypatch):
        # with no vanishing step anywhere, every corner route is defined on
        # the lattice, so a bundle must skip a corner by its missing labels
        def nowhere_zero(mixed, jp2, j2, r2, djp, dj):
            # (2J' + 3J + djp + 7 + r) / (5 + dj) as one factor in lowest terms,
            # since gamma-transition witnesses print the integers unreduced
            step = Fraction(2 * jp2 + 3 * j2 + 2 * djp + 14 + r2, 2 * (5 + dj))
            return ((step.numerator, step.denominator),)

        monkeypatch.setattr(spectra, "transition_factors", nowhere_zero)
        reports = run_diamond_checks(PIN_GRID)
        data = "".join(encode(rep).decode() + "\n" for rep in reports).encode()
        assert len(failures(reports)) == 1826
        assert hashlib.sha256(data).hexdigest() == \
            "2d20f254c486b45b6094c630f334ed4ef8518f29dd0fc820f91b693faec94ef3"


def _nowhere_zero(real):
    # the transition edit of test_corners_need_both_midpoints
    def step(mixed, jp2, j2, r2, djp, dj):
        value = Fraction(2 * jp2 + 3 * j2 + 2 * djp + 14 + r2, 2 * (5 + dj))
        return ((value.numerator, value.denominator),)
    return step


@pytest.mark.parametrize("module, name, edit", [
    (None, None, None),
    (spectra, "transition_factors", _edit_transition),
    (arithmetic, "gamma_product", _edit_gamma_product),
    (spectra, "transition_factors", _nowhere_zero),
], ids=["clean", "transition", "gamma-product", "nowhere-zero"])
@pytest.mark.parametrize("suite", SUITES)
def test_whole_grid_is_its_slices_joined(monkeypatch, suite, module, name, edit):
    # a suite's tables live for one call, so one call over the whole grid and
    # one call per (p, q) slice write the same bytes
    if module is not None:
        monkeypatch.setattr(module, name, edit(getattr(module, name)))

    def encoded(reports):
        return b"".join(encode(rep) + b"\n" for rep in reports)

    whole = encoded(SUITES[suite](PIN_GRID))
    assert whole == b"".join(encoded(SUITES[suite](part)) for part in slice_grids(PIN_GRID))


class TestScalarReduction:
    def test_only_function_family_at_k0(self):
        reports = run_scalar_reduction(SMALL)
        counts = summarize(reports)
        assert counts[FAIL] == 0
        # the s = +-r degeneracies are present and counted
        assert counts[SKIP] > 0

    def test_report_points_are_k0(self):
        for rep in run_scalar_reduction(TINY):
            assert rep["point"]["k"] == 0


#: the families whose floors each suite reads, and whether it sweeps k = 0 only
SWEPT_FAMILIES = {
    "diamond": (tuple(Family), False),
    "interface": ((Family.MIXED,), False),
    "det": ((Family.MIXED,), False),
    "even-order": (tuple(Family), False),
    "scalar": (tuple(Family), True),
}


@pytest.mark.parametrize("suite", SUITES)
def test_floors_are_read_once_per_bundle(monkeypatch, suite):
    real = spectra.level_floor
    calls = []

    def counted(params, family):
        calls.append((params, family))
        return real(params, family)

    monkeypatch.setattr(spectra, "level_floor", counted)
    SUITES[suite](SMALL)
    families, k0_only = SWEPT_FAMILIES[suite]
    bundles = [params for params in iter_bundles(SMALL) if params.k == 0 or not k0_only]
    assert sorted(calls, key=repr) == sorted(
        ((params, family) for params in bundles for family in families), key=repr)


def test_even_order_heads_only_where_a_family_exists(monkeypatch):
    # the even-order sweep starts at the least of the bundle's floors, so it
    # builds no record head at a level where no family has a K-type; the
    # scalar suite still sweeps from (0, 0), since it reports empty levels
    real = verify._levels
    visited = []

    def recorded(params, floor, j_max, extra=None):
        for level in real(params, floor, j_max, extra):
            visited.append((params, level[0], level[1]))
            yield level

    monkeypatch.setattr(verify, "_levels", recorded)
    grid = GridSpec(p_max=5, q_max=5, j_max=2, r_values=(1, 2))
    run_even_order_checks(grid)
    assert visited
    empty = [(params, jp, j) for params, jp, j in visited
             if not any(spectra.above_floor(spectra.level_floor(params, family), jp, j)
                        for family in Family)]
    assert empty == []
    visited.clear()
    run_scalar_reduction(grid)
    assert visited[0][1:] == (0, 0)


def test_even_order_writes_nothing_above_no_floor(monkeypatch):
    # a negative control on edited floors: the sweep starts at (0, 0), the
    # least of a coexact floor (0, 1) and an exact floor (1, 0), and at (0, 0)
    # neither family exists, so no record may be written there
    real = spectra.level_floor
    bundle = spectra.BundleParams(3, 3, 1, 0)
    edited = {Family.COEXACT: (0, 1), Family.EXACT: (1, 0)}

    def skewed(params, family):
        if params == bundle and family in edited:
            return edited[family]
        return real(params, family)

    monkeypatch.setattr(spectra, "level_floor", skewed)
    reports = run_even_order_checks(GridSpec(p_max=3, q_max=3, j_max=1, r_values=(1, 2)))
    at = {(rep["point"]["jp"], rep["point"]["j"]) for rep in reports
          if tuple(rep["point"][key] for key in "pqka") == (3, 3, 1, 0)}
    assert {(0, 1), (1, 0), (1, 1)} <= at
    assert (0, 0) not in at


def test_check_report_json_shape():
    rep = check_report("demo", {"p": 2}, FAIL, lhs="1", rhs="2")
    record = json.loads(encode(rep).decode())
    assert record == {"check": "demo", "point": {"p": 2}, "status": "fail",
                      "lhs": "1", "rhs": "2"}
    # an unset witness is left out, and a set empty one kept
    assert check_report("demo", {}, PASS) == {"check": "demo", "point": {}, "status": PASS}
    assert check_report("demo", {}, SKIP, lhs="why") == {
        "check": "demo", "point": {}, "status": SKIP, "lhs": "why"}
    assert check_report("demo", {}, FAIL, lhs="", rhs="")["rhs"] == ""
