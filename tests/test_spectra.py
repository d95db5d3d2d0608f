import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intertwinor.spectra import (
    DIRECTIONS,
    DOWN_RIGHT,
    UP_RIGHT,
    BundleParams,
    DegenerateNormalizationError,
    Direction,
    Family,
    KTypeLabel,
    NonexistentKTypeError,
    RadicalValue,
    SpectralPoint,
    gamma_args,
    gamma_quotient,
    ktype_exists,
    level_floor,
    mult1_eigenvalue,
    mult1_transition,
    mult2_det,
    mult2_transition,
    normalized_eigenvalue,
    spectral_point,
    transition_factors,
)
from intertwinor.arithmetic import POLE, IndeterminateError, gamma_ratio, gamma_ratio_numeric
from intertwinor.blocks import block_scale_squared


def pt(jp2, j2):
    """The point at doubled levels (2J', 2J)."""
    return SpectralPoint(jp2=jp2, j2=j2)


class TestBundleParams:
    def test_weight_parameter(self):
        assert BundleParams(4, 6, 2, 1).s == 2
        assert BundleParams(2, 2, 1, 1).s == 0
        assert BundleParams(3, 3, 0, 0).s == 2

    @pytest.mark.parametrize("bad", [
        (1, 3, 0, 0),       # p too small
        (3, 3, 2, 3),       # a > k
        (2, 4, 3, 1),       # first factor degree exceeds dim
        (4, 2, 2, 2),       # second factor degree exceeds dim
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            BundleParams(*bad)

    @pytest.mark.parametrize("bad, field", [
        ((3.0, 3, 0, 0), "p=3.0"),  # spectral_point raised a TypeError
        ((3, 3.5, 0, 0), "q=3.5"),
        ((3, 3, 0.0, 0), "k=0.0"),
        ((3, 3, 1, True), "a=True"),
    ])
    def test_fields_are_plain_ints(self, bad, field):
        with pytest.raises(ValueError, match=field):
            BundleParams(*bad)


class TestSpectralPoint:
    def test_no_shift_at_p_q_2(self):
        assert spectral_point(BundleParams(2, 2, 1, 1), 3, 1) == pt(6, 2)

    def test_integer_shifts(self):
        assert spectral_point(BundleParams(4, 6, 2, 1), 1, 2) == pt(4, 8)

    def test_half_integer_shifts(self):
        got = spectral_point(BundleParams(3, 3, 0, 0), 0, 0)
        assert got == pt(1, 1)
        assert (got.Jp, got.J) == (Fraction(1, 2), Fraction(1, 2))

    def test_existence_gate(self):
        params = BundleParams(4, 6, 2, 1)
        with pytest.raises(NonexistentKTypeError):
            spectral_point(params, 0, 2, family=Family.EXACT)
        assert spectral_point(params, 1, 2, family=Family.EXACT) == pt(4, 8)

    def test_negative_levels(self):
        with pytest.raises(NonexistentKTypeError):
            spectral_point(BundleParams(2, 2, 0, 0), -1, 0)

    def test_levels_are_keywords(self):
        # a positional pair could be either levels or doubled levels, so none is read
        with pytest.raises(TypeError):
            SpectralPoint(3, 1)
        assert SpectralPoint(jp2=3, j2=1).Jp == Fraction(3, 2)


class TestKTypeExists:
    def test_function_case(self):
        params = BundleParams(5, 5, 0, 0)
        assert ktype_exists(params, KTypeLabel(Family.COEXACT, 0, 0))
        assert ktype_exists(params, KTypeLabel(Family.COEXACT, 3, 7))
        assert not ktype_exists(params, KTypeLabel(Family.EXACT, 3, 7))
        assert not ktype_exists(params, KTypeLabel(Family.MIXED, 3, 7))
        assert not ktype_exists(params, KTypeLabel(Family.COEXACT, -1, 0))

    def test_exact_needs_positive_level_and_degree(self):
        params = BundleParams(4, 6, 2, 1)
        assert ktype_exists(params, KTypeLabel(Family.EXACT, 1, 1))
        assert not ktype_exists(params, KTypeLabel(Family.EXACT, 0, 1))
        assert not ktype_exists(params, KTypeLabel(Family.EXACT, 1, 0))

    def test_coexact_degree_range(self):
        # top-degree coexact forms do not exist on the second factor
        params = BundleParams(4, 3, 3, 2)
        assert not ktype_exists(params, KTypeLabel(Family.COEXACT, 1, 1))

    def test_mixed_needs_both_summands(self):
        params = BundleParams(4, 6, 2, 1)
        assert ktype_exists(params, KTypeLabel(Family.MIXED, 1, 1))
        assert not ktype_exists(params, KTypeLabel(Family.MIXED, 0, 1))
        # torus middle degree: the pair exists away from the boundary lines
        torus = BundleParams(2, 2, 1, 1)
        assert ktype_exists(torus, KTypeLabel(Family.MIXED, 1, 1))
        assert not ktype_exists(torus, KTypeLabel(Family.MIXED, 0, 1))

    def test_torus_top_degree(self):
        params = BundleParams(2, 2, 2, 1)
        assert ktype_exists(params, KTypeLabel(Family.EXACT, 1, 1))
        assert not ktype_exists(params, KTypeLabel(Family.COEXACT, 1, 1))

    def test_floors_pinned(self):
        # every bundle with p, q <= 12; the digest was computed from an
        # independent per-level existence test on j', j <= 14, whose sets were
        # each exactly the quadrant above the floor listed here
        lines = []
        for p, q in itertools.product(range(2, 13), repeat=2):
            for c1, a in itertools.product(range(p), range(q)):
                params = BundleParams(p, q, c1 + a, a)
                for family in Family:
                    lines.append(f"{p} {q} {c1 + a} {a} {family.value} "
                                 f"{level_floor(params, family)}\n")
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == \
            "13f59573c5fc45e2e7d05f8945c5ac4f390dff725a49fa0a06d6d305317841bd"


class TestMult1Transition:
    def test_up_right(self):
        assert mult1_transition(pt(3, 5), 1, UP_RIGHT) \
            == Fraction(3, 2)

    def test_r_zero_is_one(self):
        for direction in DIRECTIONS:
            assert mult1_transition(pt(8, 14), 0, direction) == 1

    def test_pole_when_x_equals_r(self):
        assert mult1_transition(pt(4, 2), 2, DOWN_RIGHT) is POLE

    def test_zero_when_x_equals_minus_r(self):
        assert mult1_transition(pt(2, 8), 2, DOWN_RIGHT) == 0

    def test_indeterminate(self):
        with pytest.raises(IndeterminateError):
            mult1_transition(pt(1, -3), 0, UP_RIGHT)

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            Direction(0, 1)


class TestMult1Eigenvalue:
    def test_half_integer_point(self):
        # G(2)G(3/2) / (G(1)G(1/2)) = 1 * 1/2
        assert mult1_eigenvalue(pt(3, 1), 1) == Fraction(1, 2)

    def test_r_zero(self):
        assert mult1_eigenvalue(pt(9, 6), 0) == 1

    def test_order_two(self):
        # rising(1,2) * rising(1/2,2) = 2 * 3/4
        assert mult1_eigenvalue(pt(5, 1), 2) == Fraction(3, 2)

    def test_quotient_matches_transition(self):
        # target-over-source ratio reproduces the one-step transition quantity
        source = pt(3, 1)
        target = pt(5, 3)
        ratio = mult1_eigenvalue(target, 1) / mult1_eigenvalue(source, 1)
        assert ratio == mult1_transition(source, 1, UP_RIGHT)

    @given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8),
           st.sampled_from([2, 3, 4, 5]), st.sampled_from([2, 3, 4, 5]),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=150, deadline=None)
    def test_inverse_pairing(self, jp, j, p, q, r):
        point = spectral_point(BundleParams(p, q, 0, 0), jp, j)
        fwd = mult1_eigenvalue(point, r)
        bwd = mult1_eigenvalue(point, -r)
        if POLE in (fwd, bwd) or 0 in (fwd, bwd):
            return
        assert fwd * bwd == 1

    def test_float_path_agrees(self):
        point = pt(7, 3)
        exact = mult1_eigenvalue(point, 2)
        numeric = mult1_eigenvalue(point, 2.0)
        assert numeric == pytest.approx(float(exact), rel=1e-10)


class TestDoubledLevelFormulas:
    def test_transition_factors(self):
        # x = J' + J + 1 = 5 at (3/2, 5/2): (x + r)/(x - r) on doubled values
        assert transition_factors(False, 3, 5, 2, 1, 1) == ((12, 8),)
        # mixed pair at y = J' - J = 2: factors at y and y + 2
        assert transition_factors(True, 6, 2, 2, 1, -1) == ((6, 2), (10, 6))

    def test_gamma_args_order(self):
        assert gamma_args(False, 7, 3) == (12, 6)
        assert gamma_args(True, 7, 3) == (10, 14, 4, 8)

    def test_float_transition_keeps_its_rounding(self):
        # same float operations as (x + r)/(x - r) and its two-factor mixed form
        point, r = pt(7, 3), 0.3
        x = float(point.Jp + point.J + 1)
        assert mult1_transition(point, r, UP_RIGHT) == (x + r) / (x - r)
        y = float(point.Jp - point.J)
        want = (y + r) / (y - r) * ((y + 2 + r) / (y + 2 - r))
        assert mult2_transition(point, r, DOWN_RIGHT) == want


class TestPublicValuesPinned:
    @staticmethod
    def _outcome(f, wrapped=False):
        # ``wrapped`` renders a finite value as the text the digest was
        # pinned with, when values were ExtendedScalar(...) objects
        try:
            value = f()
        except Exception as err:
            return type(err).__name__
        if wrapped and value is not POLE:
            return f"ExtendedScalar({value!r})"
        return repr(value)

    def test_float_and_exact_values_are_pinned(self):
        # every bundle with p, q <= 5 and levels j', j <= 2, at float, Fraction
        # and int orders: the repr keeps both the value bits and its type, so
        # a float branch that changes its rounding changes the digest
        orders = (0.5, 1.5, 2.0, -0.5, 0.0, Fraction(1, 3), 3)
        lines = []
        for p, q in itertools.product(range(2, 6), repeat=2):
            for c1, a in itertools.product(range(p), range(q)):
                params = BundleParams(p, q, c1 + a, a)
                for r in orders:
                    for jp, j in itertools.product(range(3), repeat=2):
                        point = spectral_point(params, jp, j)
                        for family in (Family.COEXACT, Family.EXACT):
                            lines.append(self._outcome(lambda: normalized_eigenvalue(
                                family, params, point, r).radicand))
                        for d in DIRECTIONS:
                            lines.append(self._outcome(lambda: mult1_transition(point, r, d),
                                                       wrapped=True))
                            lines.append(self._outcome(lambda: mult2_transition(point, r, d),
                                                       wrapped=True))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
            "e5bff976438a4e5cf55b040af30d95268b6f19d8c260ee74c4d5026978333983"


class TestMult2:
    def test_transition_up_right(self):
        assert mult2_transition(pt(5, 1), 1, UP_RIGHT) == 3

    def test_transition_r_zero(self):
        assert mult2_transition(pt(12, 4), 0, UP_RIGHT) == 1

    def test_transition_down_right_negative(self):
        assert mult2_transition(pt(3, 3), 1, DOWN_RIGHT) == -3

    def test_det_values(self):
        assert mult2_det(pt(5, 1), 1) == Fraction(3, 2)
        assert mult2_det(pt(8, 8), 0) == 1
        assert mult2_det(pt(2, 2), 1) == Fraction(-3, 16)

    def test_det_quotient_matches_transition(self):
        source = pt(6, 4)
        target = pt(8, 2)  # down-right neighbor
        ratio = mult2_det(target, 2) / mult2_det(source, 2)
        assert ratio == mult2_transition(source, 2, DOWN_RIGHT)


class TestNormalizedEigenvalue:
    def test_coexact_radical(self):
        params = BundleParams(4, 6, 2, 1)  # s = 2
        value = normalized_eigenvalue(Family.COEXACT, params,
                                      pt(3, 1), 1)
        assert value.coeff == Fraction(1, 2)
        assert value.radicand == 3

    def test_exact_radical_is_reciprocal(self):
        params = BundleParams(4, 6, 2, 1)
        value = normalized_eigenvalue(Family.EXACT, params,
                                      pt(3, 1), 1)
        assert value.coeff == Fraction(1, 2)
        assert value.radicand == Fraction(1, 3)

    def test_r_zero_is_one(self):
        params = BundleParams(4, 6, 2, 1)
        for family in (Family.COEXACT, Family.EXACT):
            value = normalized_eigenvalue(family, params, pt(10, 6), 0)
            assert value.coeff == 1 and value.radicand == 1

    def test_family_ratio_as_radical_pair(self):
        params = BundleParams(5, 4, 2, 1)  # s = 3/2
        point = pt(7, 4)
        for r in (1, 2):
            co = normalized_eigenvalue(Family.COEXACT, params, point, r)
            ex = normalized_eigenvalue(Family.EXACT, params, point, r)
            assert co.coeff == ex.coeff
            want = (Fraction(params.s + r) / Fraction(params.s - r)) ** 2
            assert co.radicand / ex.radicand == want

    def test_numeric_ratio_where_real(self):
        params = BundleParams(4, 6, 1, 0)  # s = 3
        point = pt(6, 8)
        co = normalized_eigenvalue(Family.COEXACT, params, point, 1)
        ex = normalized_eigenvalue(Family.EXACT, params, point, 1)
        assert co.to_complex() / ex.to_complex() == pytest.approx(2.0, rel=1e-12)

    def test_degenerate_normalization(self):
        params = BundleParams(2, 2, 0, 0)  # s = 1
        with pytest.raises(DegenerateNormalizationError):
            normalized_eigenvalue(Family.COEXACT, params, pt(4, 2), 1)
        with pytest.raises(DegenerateNormalizationError):
            normalized_eigenvalue(Family.EXACT, params, pt(4, 2), -1)

    def test_mixed_family_rejected(self):
        with pytest.raises(ValueError):
            normalized_eigenvalue(Family.MIXED, BundleParams(4, 6, 2, 1), pt(4, 8), 1)

    def test_complex_evaluation_for_negative_radicand(self):
        params = BundleParams(2, 4, 2, 1)  # s = 0
        value = normalized_eigenvalue(Family.COEXACT, params, pt(4, 6), 1)
        assert value.radicand == -1
        z = value.to_complex()
        assert z.real == pytest.approx(0.0, abs=1e-15)

    def test_pole_has_no_complex_value(self):
        with pytest.raises(ValueError, match="pole has no finite value"):
            RadicalValue(POLE, 2).to_complex()

    def test_complex_value_beyond_the_float_range_raises(self):
        # finite coefficients whose product with the radical overflows
        for coeff, radicand in ((1e308, 4.0), (-1e308, -397.0)):
            with pytest.raises(OverflowError, match="exceeds the float range"):
                RadicalValue(coeff, radicand).to_complex()
        with pytest.raises(OverflowError):  # a Fraction beyond the float range
            RadicalValue(Fraction(10 ** 400), 2).to_complex()
        assert RadicalValue(1e307, 4.0).to_complex() == 2e307


class TestValueTypes:
    def test_exact_path_gives_fractions(self):
        point = pt(5, 1)
        values = (gamma_ratio(3, 1), mult1_eigenvalue(point, 1), mult2_det(point, 1),
                  mult1_transition(point, 1, UP_RIGHT), mult2_transition(point, 1, UP_RIGHT),
                  block_scale_squared(BundleParams(4, 6, 2, 1), point, 1))
        assert [type(v) for v in values] == [Fraction] * len(values)

    def test_float_path_gives_floats(self):
        point = pt(5, 1)
        values = (gamma_ratio_numeric(3.0, 0.5), mult1_eigenvalue(point, 0.5),
                  mult2_det(point, 0.5), mult1_transition(point, 0.5, UP_RIGHT),
                  mult2_transition(point, 0.5, UP_RIGHT))
        assert [type(v) for v in values] == [float] * len(values)

    def test_float_product_beyond_the_range_raises(self):
        # each quotient is finite, only their product overflows
        xs2 = (72, 56)
        assert all(gamma_ratio_numeric(x2 / 2, 160.5) < 1e308 for x2 in xs2)
        with pytest.raises(OverflowError, match="exceeds the float range"):
            gamma_quotient(xs2, 160.5)


class TestDiamondPathIndependence:
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8),
           st.sampled_from([2, 3, 4, 5, 6]), st.sampled_from([2, 3, 4, 5, 6]),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_two_step_products_commute(self, jp, j, p, q, r):
        point = spectral_point(BundleParams(p, q, 0, 0), jp, j)
        up, down = Direction(+1, +1), Direction(+1, -1)
        # both orders of (j' + 2) via j +- 1
        first = mult1_transition(point, r, up)
        point_up = pt(point.jp2 + 2, point.j2 + 2)
        second = mult1_transition(point_up, r, down)
        alt_first = mult1_transition(point, r, down)
        point_dn = pt(point.jp2 + 2, point.j2 - 2)
        alt_second = mult1_transition(point_dn, r, up)
        values = [first, second, alt_first, alt_second]
        if POLE in values or 0 in values:
            return
        assert first * second == alt_first * alt_second
