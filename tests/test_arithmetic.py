import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intertwinor import arithmetic
from intertwinor.arithmetic import (
    POLE,
    IndeterminateError,
    format_fraction,
    gamma_product,
    gamma_ratio,
    gamma_ratio_numeric,
    is_integral,
    quotient,
    rising_factorial,
    rising_product,
    serialize,
    times,
)


class TestRisingFactorial:
    def test_single_step_is_the_argument(self):
        assert rising_factorial(Fraction(1, 2), 1) == Fraction(1, 2)

    def test_empty_product(self):
        assert rising_factorial(Fraction(7, 3), 0) == 1
        assert rising_factorial(Fraction(-5), 0) == 1

    def test_negative_start(self):
        # (-3/2)(-1/2)(1/2)(3/2)
        assert rising_factorial(Fraction(-3, 2), 4) == Fraction(9, 16)

    def test_against_log_gamma(self):
        # same quantity as G(2.5)/G(-1.5); both gammas are positive there
        oracle = math.exp(math.lgamma(2.5) - math.lgamma(-1.5))
        assert float(rising_factorial(Fraction(-3, 2), 4)) == pytest.approx(oracle, rel=1e-12)

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            rising_factorial(Fraction(1), -1)


class TestGammaProduct:
    def test_rising_product_is_scaled_rising_factorial(self):
        # (-3)(-1)(1)(3) = 2^4 * rising(-3/2, 4)
        assert rising_product(-3, 2, 4) == 9
        assert rising_product(Fraction(1, 3), 1, 0) == 1

    def test_integer_pair_matches_gamma_ratio(self):
        for xs2 in ((7,), (2, -4, 9), (Fraction(2, 3), 5)):
            for r in range(-4, 5):
                want = quotient(1, 1)
                for x2 in xs2:
                    want = times(want, gamma_ratio(Fraction(x2) / 2, r))
                num, den = gamma_product(xs2, r)
                assert isinstance(num, int) and isinstance(den, int)
                assert quotient(num, den) == want

    def test_unreduced_scale(self):
        # G(2)/G(1) at x = 3, r = 1, doubled argument 6: numerator 4, scale 4
        assert gamma_product((6,), 1) == (4, 4)
        assert gamma_product((6, 4), 0) == (1, 1)

    def test_pole_is_zero_denominator(self):
        # G(-1)/G(2) at x = 1, r = -3: the numerator gamma sits at a pole
        assert gamma_product((2,), -3)[1] == 0
        assert gamma_ratio(1, -3) is POLE


class TestGammaRatio:
    def test_contract_values(self):
        assert gamma_ratio(3, 1) == Fraction(1)
        assert gamma_ratio(2, 1) == Fraction(1, 2)
        assert gamma_ratio(Fraction(17, 3), 0) == Fraction(1)
        assert gamma_ratio(1, 3) == Fraction(0)

    def test_negative_r_is_reciprocal(self):
        assert gamma_ratio(3, -1) == Fraction(1)
        assert gamma_ratio(2, -1) == Fraction(2)

    def test_negative_r_pole(self):
        # reciprocal of a vanishing rising factorial
        assert gamma_ratio(1, -3) is POLE

    def test_non_integer_r_rejected(self):
        with pytest.raises(ValueError):
            gamma_ratio(Fraction(3), Fraction(1, 2))

    @given(st.fractions(min_value=-20, max_value=20, max_denominator=8),
           st.integers(min_value=-6, max_value=6),
           st.integers(min_value=-6, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_functional_equation(self, x, r1, r2):
        whole = gamma_ratio(x, r1 + r2)
        left = gamma_ratio(x + r2, r1)
        right = gamma_ratio(x - r1, r2)
        if POLE in (whole, left, right):
            return
        assert whole == left * right

    @given(st.fractions(min_value=-20, max_value=20, max_denominator=8),
           st.integers(min_value=-8, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_inverse_identity(self, x, r):
        fwd = gamma_ratio(x, r)
        bwd = gamma_ratio(x, -r)
        if POLE in (fwd, bwd) or 0 in (fwd, bwd):
            return
        assert fwd * bwd == 1


class TestGammaRatioNumeric:
    def test_matches_exact_path(self):
        assert gamma_ratio_numeric(3.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_r_zero(self):
        assert gamma_ratio_numeric(2.0, 0.0) == 1.0

    def test_half_integer_order(self):
        # G(1.25)/G(0.75), frozen from a 40-digit evaluation
        assert gamma_ratio_numeric(2.0, 0.5) == pytest.approx(
            0.7396687797971597, rel=1e-12)

    def test_negative_arguments_sign(self):
        # G(-0.25)/G(-1.75), frozen from a 40-digit evaluation; sign flips once
        assert gamma_ratio_numeric(-2.0, 1.5) == pytest.approx(
            -1.7744428801766224, rel=1e-12)

    def test_numerator_pole(self):
        # (x+r)/2 = -1 exactly while (x-r)/2 = -1.5 stays regular
        assert gamma_ratio_numeric(-2.5, 0.5) is POLE

    def test_denominator_pole_gives_zero(self):
        value = gamma_ratio_numeric(1.0, 3.0)
        assert value == 0 and type(value) is float

    def test_double_pole_is_indeterminate(self):
        with pytest.raises(IndeterminateError):
            gamma_ratio_numeric(-3.0, 1.0 + 1e-12)

    def test_pole_proximity_radius(self):
        with pytest.raises(IndeterminateError):
            gamma_ratio_numeric(-3.0 + 1e-10, 1.0 + 2e-10)
        # a wider argument offset clears the default radius on the numerator side
        wide = gamma_ratio_numeric(-3.0 + 1e-3, 1.0)
        assert wide is not POLE

    def test_agreement_with_exact_grid(self):
        checked = 0
        for num in range(-60, 61, 3):
            x = Fraction(num, 2)
            for r in range(0, 7):
                exact = gamma_ratio(x, r)
                if exact is POLE or exact == 0:
                    continue
                try:
                    numeric = gamma_ratio_numeric(float(x), float(r))
                except IndeterminateError:
                    continue
                if numeric is POLE or numeric == 0:
                    continue
                checked += 1
                assert numeric == pytest.approx(float(exact), rel=1e-10)
        assert checked > 150


class TestExtendedScalar:
    """The extended value domain: a Fraction, a float, or the marker POLE."""

    def test_pole_absorbs_nonzero(self):
        assert times(POLE, Fraction(3, 2)) is POLE
        assert times(Fraction(2), POLE) is POLE
        assert times(0.5, POLE) is POLE
        assert times(POLE, POLE) is POLE

    def test_pole_times_zero_raises(self):
        for x, y in ((POLE, Fraction(0)), (Fraction(0), POLE), (POLE, 0.0), (0.0, POLE)):
            with pytest.raises(IndeterminateError, match="pole \\* 0 is indeterminate"):
                times(x, y)

    def test_finite_products_are_plain(self):
        assert times(Fraction(3, 2), Fraction(-2, 3)) == -1
        assert type(times(Fraction(3, 2), Fraction(2, 3))) is Fraction
        assert times(0.5, 3.0) == 1.5 and type(times(0.5, 3.0)) is float
        assert times(Fraction(0), 0.0) == 0

    def test_only_extended_scalars_multiply(self):
        # the pole takes part in no arithmetic, in either operand order
        for other in (2, Fraction(1, 2), 0.5, POLE):
            for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a / b):
                with pytest.raises(TypeError):
                    op(POLE, other)
                with pytest.raises(TypeError):
                    op(other, POLE)
        with pytest.raises(TypeError):
            -POLE

    def test_finite_zero_is_not_pole(self):
        for zero in (quotient(0, 3), quotient(0.0, 3), gamma_ratio(1, 3)):
            assert zero == 0 and zero is not POLE
        assert POLE != 0 and POLE != 0.0

    def test_quotient_helper(self):
        assert quotient(1, 2) == Fraction(1, 2) and type(quotient(1, 2)) is Fraction
        assert quotient(3, 0) is POLE
        with pytest.raises(IndeterminateError):
            quotient(0, 0)
        # a float operand gives the float quotient, with the same pole rules
        assert quotient(Fraction(1, 2), 0.25) == 2.0
        assert type(quotient(1, 3.0)) is float
        assert quotient(1, 3.0) == 1 / 3.0
        assert quotient(-1.5, 0.0) is POLE
        with pytest.raises(IndeterminateError, match="0 / 0 is indeterminate"):
            quotient(0.0, 0)

    def test_serialize(self):
        assert serialize(Fraction(-3, 4)) == "-3/4"
        assert serialize(Fraction(7)) == "7"
        assert serialize(POLE) == "pole"
        assert serialize(0.1) == "0.1" and serialize(-2.0) == "-2.0"

    def test_repr_evaluates_in_the_module(self):
        assert repr(POLE) == "POLE"
        assert eval(repr(POLE), vars(arithmetic)) is POLE

    def test_immutability(self):
        with pytest.raises(AttributeError):
            POLE._value = 1  # type: ignore[attr-defined]

    def test_copies_are_the_marker(self):
        assert copy.copy(POLE) is POLE and copy.deepcopy([POLE])[0] is POLE
        assert pickle.loads(pickle.dumps(POLE)) is POLE


def test_format_fraction():
    assert format_fraction(Fraction(6, 4)) == "3/2"
    assert format_fraction(5) == "5"
    assert format_fraction(Fraction(-1, 3)) == "-1/3"
    assert format_fraction(-7) == "-7" and format_fraction(0) == "0"
    assert format_fraction(-10 ** 4299) == "-1" + "0" * 4299
    for too_long in (Fraction(1, 10 ** 4300), 10 ** 4300, -10 ** 4300):
        with pytest.raises(ValueError, match="more than 4300 digits and cannot be written"):
            format_fraction(too_long)


def test_is_integral():
    assert is_integral(4) and is_integral(Fraction(8, 2))
    assert not is_integral(Fraction(1, 2)) and not is_integral(2.0)
    assert not is_integral(True) and not is_integral(False)
