"""K-type bookkeeping and spectral formulas on products of spheres.

Forms on S^(p-1) x S^(q-1) split under K = SO(p) x SO(q) into two families of
multiplicity-one modules (both factors coexact-type, or both exact-type) and
one multiplicity-two family (a mixed pair).  Each module is indexed by the
pair of harmonic levels (j', j); the spectral formulas are functions of the
shifted levels J' = j' + (p-2)/2 and J = j + (q-2)/2.

Conventions: every transition quantity is oriented target over source, with
the four neighbor directions given by unit steps in (j', j).  Each family's
K-types fill a quadrant j' >= lo1, j >= lo2 of levels; :func:`level_floor`
states that floor in closed form and centralizes which Hodge summands are
nonempty, so adjust there if a different boundary convention is needed.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Tuple, Union

from .arithmetic import (
    POLE,
    Extended,
    ScalarLike,
    format_fraction,
    gamma_product,
    gamma_ratio_numeric,
    is_integral,
    quotient,
    require_ints,
    times,
)


class NonexistentKTypeError(ValueError):
    """The requested (family, j', j) labels an empty module."""


class DegenerateNormalizationError(ValueError):
    """A normalization constant degenerates (vanishing denominator)."""


class Family(enum.Enum):
    """The three module families: coexact pair, exact pair, mixed 2x2 pair."""

    COEXACT = "coexact"
    EXACT = "exact"
    MIXED = "mixed"

    @classmethod
    def parse(cls, name: str) -> "Family":
        try:
            return FAMILY_ALIASES[name.lower()]
        except KeyError:
            raise ValueError(f"unknown family {name!r}") from None


#: every accepted family spelling, in the order the CLI lists them
FAMILY_ALIASES = {
    "coexact": Family.COEXACT,
    "exact": Family.EXACT,
    "mixed": Family.MIXED,
    "m1-delta": Family.COEXACT,
    "m1-d": Family.EXACT,
    "m2": Family.MIXED,
}


@dataclass(frozen=True)
class BundleParams:
    """Geometry and bidegree: sphere parameters (p, q), form degree k, split a.

    The first wedge factor carries degree k - a on S^(p-1), the second degree
    a on S^(q-1); both must fit on their spheres.
    """

    p: int
    q: int
    k: int
    a: int
    # the kernels' constants on doubled levels, set once, outside repr, == and hash:
    root1: int = field(init=False, repr=False, compare=False)  # first centered degree
    root_mix2: int = field(init=False, repr=False, compare=False)  # second centered degree
    sign: int = field(init=False, repr=False, compare=False)  # (-1)^(k-a+1)
    s2: int = field(init=False, repr=False, compare=False)  # 2s = p + q - 2 - 2k
    w2: int = field(init=False, repr=False, compare=False)  # 2w, the diagonal weight

    def __post_init__(self):
        require_ints(p=self.p, q=self.q, k=self.k, a=self.a)
        if self.p < 2 or self.q < 2:
            raise ValueError(f"require p, q >= 2, got p={self.p}, q={self.q}")
        if not 0 <= self.a <= self.k:
            raise ValueError(f"require 0 <= a <= k, got a={self.a}, k={self.k}")
        if self.k - self.a > self.p - 1:
            raise ValueError(f"first factor degree {self.k - self.a} exceeds dim {self.p - 1}")
        if self.a > self.q - 1:
            raise ValueError(f"second factor degree {self.a} exceeds dim {self.q - 1}")
        # 2((p-2)/2 - (k-a)) and 2((q-2)/2 - (a-1)), whose sum is 2s and difference 2w
        root1, root_mix2 = self.p - 2 - 2 * (self.k - self.a), self.q - 2 * self.a
        object.__setattr__(self, "root1", root1)
        object.__setattr__(self, "root_mix2", root_mix2)
        object.__setattr__(self, "sign", -1 if (self.k - self.a) % 2 == 0 else 1)
        object.__setattr__(self, "s2", root1 + root_mix2)
        object.__setattr__(self, "w2", root_mix2 - root1)

    @property
    def s(self) -> Fraction:
        """Half of n - 2k; the conformal weight parameter of the bundle."""
        return Fraction(self.s2, 2)


@dataclass(frozen=True)
class KTypeLabel:
    family: Family
    jp: int
    j: int


def doubled_level(p: int, j: int) -> int:
    """2J = 2j + p - 2, the doubled shifted level of the harmonic level j on S^(p-1).

    The one place the level map is written: the library, the gates and the
    torus all take their doubled levels from here.
    """
    return 2 * j + p - 2


@dataclass(frozen=True, kw_only=True)
class SpectralPoint:
    """Doubled shifted levels (2J', 2J) = (2j' + p - 2, 2j + q - 2).

    :func:`spectral_point` builds one from harmonic levels, where both are
    ints; the kernels take ``jp2`` and ``j2`` as they are, so a point off a
    bundle's lattice (other ints, or Fractions) also evaluates where the
    formulas allow.  ``Jp`` and ``J`` read the shifted levels as Fractions.
    """

    jp2: int
    j2: int

    @property
    def Jp(self) -> Fraction:
        return Fraction(self.jp2, 2)

    @property
    def J(self) -> Fraction:
        return Fraction(self.j2, 2)


@dataclass(frozen=True)
class Direction:
    """One of the four diagonal neighbor steps in the (j', j) lattice."""

    djp: int
    dj: int

    def __post_init__(self):
        if self.djp not in (-1, 1) or self.dj not in (-1, 1):
            raise ValueError("direction components must be +1 or -1")


UP_LEFT = Direction(-1, +1)
UP_RIGHT = Direction(+1, +1)
DOWN_LEFT = Direction(-1, -1)
DOWN_RIGHT = Direction(+1, -1)
DIRECTIONS = (UP_LEFT, UP_RIGHT, DOWN_LEFT, DOWN_RIGHT)


# -- existence floors ----------------------------------------------------------

def coexact_floor(dim: int, c: int) -> Optional[int]:
    """Least level of the coexact c-forms on S^dim; the constants sit at c = 0, j = 0."""
    if c == 0:
        return 0
    return 1 if 1 <= c <= dim - 1 else None


def exact_floor(dim: int, c: int) -> Optional[int]:
    """Least level of the exact c-forms on S^dim."""
    return 1 if 1 <= c <= dim else None


def level_floor(params: BundleParams, family: Family) -> Optional[Tuple[int, int]]:
    """The least levels (j', j) of the family's K-types, or None if it has none.

    Each factor summand exists from its floor level on, so the family's
    labels are exactly the quadrant j' >= lo1, j >= lo2.  Mixed labels
    require both constituents of the pair, so the 2x2 machinery applies;
    single-summand boundary degenerations are treated as nonexistent here
    and handled separately where they matter (the torus realization).
    """
    p1, p2 = params.p - 1, params.q - 1
    c1, c2 = params.k - params.a, params.a
    if family is Family.COEXACT:
        first, second = (coexact_floor(p1, c1),), (coexact_floor(p2, c2),)
    elif family is Family.EXACT:
        first, second = (exact_floor(p1, c1),), (exact_floor(p2, c2),)
    else:
        first = (coexact_floor(p1, c1), exact_floor(p1, c1 + 1))
        second = (exact_floor(p2, c2), coexact_floor(p2, c2 - 1))
    if None in first or None in second:
        return None
    return max(first), max(second)


def above_floor(floor: Optional[Tuple[int, int]], jp: int, j: int) -> bool:
    """Whether the levels (j', j) lie in the quadrant of a :func:`level_floor`."""
    return floor is not None and jp >= floor[0] and j >= floor[1]


def ktype_exists(params: BundleParams, label: KTypeLabel) -> bool:
    """Whether (family, j', j) labels a nonempty module for these parameters."""
    return above_floor(level_floor(params, label.family), label.jp, label.j)


def spectral_point(params: BundleParams, jp: int, j: int,
                   family: Optional[Family] = None) -> SpectralPoint:
    """Shifted levels for integer harmonic levels (j', j) >= 0.

    When a family is given, the label is required to exist.
    """
    if jp < 0 or j < 0:
        raise NonexistentKTypeError(f"negative levels ({jp}, {j})")
    if family is not None and not ktype_exists(params, KTypeLabel(family, jp, j)):
        raise NonexistentKTypeError(
            f"{family.value} type at (j'={jp}, j={j}) is empty for "
            f"p={params.p}, q={params.q}, k={params.k}, a={params.a}")
    return SpectralPoint(jp2=doubled_level(params.p, jp), j2=doubled_level(params.q, j))


# -- transition quantities and eigenvalue formulas ----------------------------
#
# Each formula is written once, on doubled levels 2J', 2J and doubled order
# 2r, where every half-integer shift clears and lattice points give plain
# integers.  The bodies are type-generic: the levels are the ints of the
# verification sweeps or of a point's ``jp2`` and ``j2``, and the doubled
# order ``2 * r`` that the public wrappers below pass is an int, a Fraction
# or a float, as r is.

def transition_factors(mixed: bool, jp2, j2, r2, djp: int, dj: int):
    """Transition quotient to the (dj', dj) neighbor as (numerator, denominator) pairs.

    With X = dj'*2J' + dj*2J + 2, a multiplicity-one type has the single
    factor (X + 2r)/(X - 2r); a mixed pair has the two factors at X - 2 and
    X + 2.  The quotient is the product of the factors.
    """
    x = djp * jp2 + dj * j2 + 2
    if mixed:
        return ((x - 2 + r2, x - 2 - r2), (x + 2 + r2, x + 2 - r2))
    return ((x + r2, x - r2),)


def gamma_args(mixed: bool, jp2, j2):
    """Doubled gamma-quotient arguments of the eigenvalue or the mixed-pair determinant.

    Multiplicity one: J' + J + 1 and J' - J + 1.  Mixed pair: J' + J,
    J' + J + 2, J' - J and J' - J + 2.  Each argument x enters as the
    quotient G((x+r)/2) / G((x-r)/2).
    """
    plus, minus = jp2 + j2, jp2 - j2
    if mixed:
        return (plus, plus + 4, minus, minus + 4)
    return (plus + 2, minus + 2)


def seed_gamma_args(jp2, j2):
    """Doubled gamma-quotient arguments of the mixed-pair normalization seed.

    J' + J + 2 and J' - J: the seed's gamma part is the product of the two
    quotients, and its square enters the seed's squared value.
    """
    return (jp2 + j2 + 4, jp2 - j2)


def _transition(mixed: bool, pt: SpectralPoint, r: ScalarLike,
                direction: Direction) -> Extended:
    """The transition quotient as the :func:`times` product of its factors' ratios."""
    factors = transition_factors(mixed, pt.jp2, pt.j2, 2 * r, direction.djp, direction.dj)
    out = quotient(*factors[0])
    for num, den in factors[1:]:
        out = times(out, quotient(num, den))
    return out


def gamma_quotient(xs2, r: ScalarLike) -> Extended:
    """Product of the quotients G((x+r)/2) / G((x-r)/2) over doubled arguments 2x.

    ``xs2`` holds the doubled arguments, those of :func:`gamma_args` or
    :func:`seed_gamma_args`.  Exact (rising factorials) for integer r; for
    any other r each quotient is a float through log-gamma, multiplied in
    turn onto 1.0, so a pole of one factor times a zero of another raises,
    and so does a product of finite quotients beyond the float range.
    """
    if is_integral(r):
        return quotient(*gamma_product(xs2, int(r)))
    out = 1.0
    for x2 in xs2:
        out = times(out, gamma_ratio_numeric(float(x2 / 2), float(r)))
    if out is not POLE and not math.isfinite(out):
        xs = tuple(float(x2 / 2) for x2 in xs2)
        raise OverflowError(f"product of gamma quotients G((x+r)/2)/G((x-r)/2) at x in {xs!r}, "
                            f"r={r!r} exceeds the float range")
    return out


def mult1_transition(pt: SpectralPoint, r: ScalarLike, direction: Direction) -> Extended:
    """Eigenvalue quotient to the (dj', dj) neighbor on a multiplicity-one type.

    With x = dj'*J' + dj*J + 1, the quotient is (x + r)/(x - r): a pole at
    x = r, zero at x = -r, indeterminate when x = r = 0.
    """
    return _transition(False, pt, r, direction)


def mult1_eigenvalue(pt: SpectralPoint, r: ScalarLike) -> Extended:
    """The gamma-quotient eigenvalue on a multiplicity-one type.

    Product of the two gamma ratios at arguments J' + J + 1 and J' - J + 1;
    exact (rising factorial) for integer r, floating otherwise.
    """
    return gamma_quotient(gamma_args(False, pt.jp2, pt.j2), r)


def mult2_transition(pt: SpectralPoint, r: ScalarLike, direction: Direction) -> Extended:
    """Determinant quotient to the (dj', dj) neighbor on a mixed pair.

    With x = dj'*J' + dj*J, the quotient is the two-step product
    (x+r)(x+2+r) / ((x-r)(x+2-r)), evaluated as a :func:`times` product of
    ratios so that pole/zero collisions are reported, not silently cancelled.
    """
    return _transition(True, pt, r, direction)


def mult2_det(pt: SpectralPoint, r: ScalarLike) -> Extended:
    """Determinant of the intertwinor on a mixed pair (gamma-quotient form)."""
    return gamma_quotient(gamma_args(True, pt.jp2, pt.j2), r)


@dataclass(frozen=True)
class RadicalValue:
    """A value coeff * sqrt(radicand) with the radical kept symbolic.

    The radicand is the only irrational (possibly negative) factor appearing
    in the normalized eigenvalues; keeping it split lets exact tests avoid
    floating square roots.  It is a Fraction on the exact path and a float
    on the floating path.
    """

    coeff: Extended
    radicand: Union[Fraction, float]

    def to_complex(self) -> complex:
        """coeff * sqrt(radicand) in floats; a pole, or a value beyond the float
        range, raises."""
        if self.coeff is POLE:
            raise ValueError("pole has no finite value")
        z = complex(self.coeff) * cmath.sqrt(complex(self.radicand))
        if not cmath.isfinite(z):
            raise OverflowError("the normalized eigenvalue exceeds the float range")
        return z


def normalized_eigenvalue(family: Family, params: BundleParams,
                          pt: SpectralPoint, r: ScalarLike) -> RadicalValue:
    """Normalized intertwinor eigenvalue on a multiplicity-one family.

    The gamma-quotient part is carried exactly in ``coeff``; the family's
    normalization radical sqrt((s+r)/(s-r)) (coexact) or its reciprocal
    (exact) is returned as the radicand.  Degenerates when s = +-r.
    """
    if family is Family.MIXED:
        raise ValueError("mixed family carries a 2x2 block, not a single eigenvalue")
    s2, r2 = params.s2, 2 * r
    if s2 == r2 or s2 == -r2:
        raise DegenerateNormalizationError(
            f"normalization breaks at s = {format_fraction(params.s)} with r = {r}")
    if isinstance(r, float):
        s = s2 / 2  # exactly s, in the undoubled form so that 2r cannot overflow
        ratio = (s + r) / (s - r)
    else:
        ratio = Fraction(s2 + r2, s2 - r2)
    radicand = ratio if family is Family.COEXACT else 1 / ratio
    return RadicalValue(mult1_eigenvalue(pt, r), radicand)
