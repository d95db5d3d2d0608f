"""Exact and floating scalar arithmetic with pole tracking.

All spectral quantities in this package are quotients of gamma functions at
half-integer-shifted arguments.  When the two gamma arguments differ by an
integer the quotient reduces to a rational rising factorial and is evaluated
exactly over ``fractions.Fraction``; otherwise it is evaluated in floating
point through log-gamma with explicit sign tracking for negative arguments.

Poles and zeros of these quotients are meaningful spectral data (kernels and
cokernels of the intertwinors).  A value is a plain Fraction (exact path) or
float (float path), and the one value beyond them is the marker
:data:`POLE`: :func:`quotient` returns it at a zero denominator instead of
raising.  The marker supports no arithmetic, so products that may meet a
pole go through :func:`times`.  Truly indeterminate configurations (0/0 in
:func:`quotient`, pole times zero) are always reported as errors, never
silently resolved.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Tuple, Union

Rational = Union[int, Fraction]
ScalarLike = Union[int, Fraction, float]

#: proximity radius around nonpositive integers treated as a gamma pole
EPS_POLE = 1e-8


class IndeterminateError(ArithmeticError):
    """An expression of the form 0/0 or pole*0 was encountered."""


class _Pole:
    """The pole marker, the one value outside the finite Fractions and floats.

    It supports no arithmetic, so a pole cannot enter a sum or a product
    unnoticed: products go through :func:`times`.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "POLE"

    def __reduce__(self) -> str:
        return "POLE"  # a copy or an unpickled pole is the one marker


#: the shared pole value; test a value with ``x is POLE``
POLE = _Pole()

#: a Fraction on the exact path, a float on the float path, or the pole
Extended = Union[Fraction, float, _Pole]


def times(x: Extended, y: Extended) -> Extended:
    """x * y with the pole rules: a pole absorbs any nonzero value, and pole
    times zero raises :class:`IndeterminateError`."""
    if x is POLE or y is POLE:
        if x == 0 or y == 0:
            raise IndeterminateError("pole * 0 is indeterminate")
        return POLE
    return x * y


def serialize(x: Extended) -> str:
    """Fixed string form: 'pole', 'num/den' for a Fraction, repr for a float."""
    if x is POLE:
        return "pole"
    if isinstance(x, Fraction):
        return format_fraction(x)
    return repr(x)


def format_fraction(x: Rational) -> str:
    """Serialize an int or a Fraction as ``num`` or ``num/den`` (den > 0, lowest terms).

    A part longer than the interpreter's integer-string limit (4300 digits
    by default, left as it is) raises a ValueError that names the limit.
    """
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        raise ValueError(f"the exact value has more than {sys.get_int_max_str_digits()} "
                         "digits and cannot be written as a record") from None


def is_integral(r: ScalarLike) -> bool:
    """True for ints and integer-valued Fractions; floats are never integral."""
    if isinstance(r, bool):
        return False
    if isinstance(r, int):
        return True
    if isinstance(r, Fraction):
        return r.denominator == 1
    return False


def require_ints(**values) -> None:
    """Raise ValueError naming the first value that is not a plain int; a bool
    or an integer-valued float is not one."""
    for name, value in values.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {name}={value!r}")


def rising_product(n: Rational, d: Rational, m: int) -> Rational:
    """The product n (n+d) (n+2d) ... (n+(m-1)d); the empty product is 1.

    Over integers this is d^m times the rising factorial of z = n/d, so the
    integer numerator can be accumulated first and divided out once.
    """
    out = 1
    for i in range(m):
        out *= n + i * d
    return out


def rising_factorial(z: Rational, m: int) -> Fraction:
    """Exact rising factorial z (z+1) ... (z+m-1); the empty product is 1.

    Realizes the gamma quotient G(z+m)/G(z) for nonnegative integer m,
    including the regularized finite limit when both arguments sit at poles.
    """
    if m < 0:
        raise ValueError(f"rising_factorial needs m >= 0, got {m}")
    z = Fraction(z)
    return Fraction(rising_product(z.numerator, z.denominator, m), z.denominator ** m)


def gamma_product(xs2, r: int) -> Tuple[int, int]:
    """Product of the quotients G((x+r)/2) / G((x-r)/2) over doubled arguments 2x.

    ``xs2`` holds the doubled arguments (ints or Fractions), ``r`` is an
    integer order.  Each quotient is the rising factorial of length |r| at
    (x - |r|)/2 = n/d, taken for r >= 0 and inverted for r < 0; the result is
    the unreduced integer pair (numerator, denominator) of the whole product,
    with the numerators prod(n + i*d) accumulated before any division.  A
    zero denominator is a pole: it happens only for r < 0, where the whole
    product is the reciprocal of a vanishing rising factorial.
    """
    m = abs(r)
    num = den = 1
    for x2 in xs2:
        d = 4 * x2.denominator
        num *= rising_product(x2.numerator - 2 * m * x2.denominator, d, m)
        den *= d ** m
    return (num, den) if r >= 0 else (den, num)


def quotient(num: ScalarLike, den: ScalarLike) -> Extended:
    """num/den, or the pole at den == 0; 0/0 raises.

    The value is a Fraction for exact operands and a float as soon as either
    operand is a float.
    """
    if den == 0:
        if num == 0:
            raise IndeterminateError("0 / 0 is indeterminate")
        return POLE
    if isinstance(num, float) or isinstance(den, float):
        return num / den
    return Fraction(num, den)


def gamma_ratio(x: Rational, r: int) -> Extended:
    """G((x+r)/2) / G((x-r)/2) for rational x and integer r, exactly.

    For r >= 0 this is the rising factorial of length r starting at (x-r)/2;
    a zero value is legal (the denominator gamma sits at a pole).  For r < 0
    it is the reciprocal, which is a pole when the rising factorial vanishes.
    Configurations where both gammas sit at poles reduce to the finite limit
    value of the quotient, which is what the rising factorial computes.
    """
    if not is_integral(r):
        raise ValueError(f"exact gamma_ratio needs integer r, got {r!r}; "
                         "use gamma_ratio_numeric")
    return quotient(*gamma_product((2 * x,), int(r)))


def _gamma_sign(v: float) -> int:
    """Sign of G(v) for non-pole v; negative arguments alternate by interval."""
    if v > 0:
        return 1
    return 1 if math.floor(v) % 2 == 0 else -1


def _near_nonpositive_integer(v: float) -> bool:
    n = round(v)
    return n <= 0 and abs(v - n) < EPS_POLE


def gamma_ratio_numeric(x: float, r: float) -> Extended:
    """G((x+r)/2) / G((x-r)/2) in floating point.

    Negative arguments are handled through log-gamma of the absolute value
    with the reflection sign tracked explicitly.  Arguments within
    ``EPS_POLE`` of a nonpositive integer are treated as gamma poles: a pole
    in the numerator gives a pole result, one in the denominator gives 0.0,
    and one on both sides raises :class:`IndeterminateError` naming the
    offending arguments.
    """
    a = (float(x) + float(r)) / 2.0
    b = (float(x) - float(r)) / 2.0
    a_pole = _near_nonpositive_integer(a)
    b_pole = _near_nonpositive_integer(b)
    if a_pole and b_pole:
        raise IndeterminateError(
            f"both gamma arguments at poles: (x+r)/2={a!r}, (x-r)/2={b!r}")
    if a_pole:
        return POLE
    if b_pole:
        return 0.0
    sign = _gamma_sign(a) * _gamma_sign(b)
    try:
        magnitude = math.exp(math.lgamma(a) - math.lgamma(b))
    except OverflowError:
        raise OverflowError(
            f"gamma quotient G((x+r)/2)/G((x-r)/2) at x={x!r}, r={r!r} "
            "exceeds the float range") from None
    return sign * magnitude
