"""Multiplicity-two block data and the even-order operator factorizations.

On a mixed pair the intertwinor is a 2x2 matrix whose entries are fixed, up
to one overall scale, by compressing the intertwining relation.  The entries
here use the convention that the off-diagonal coupling is 2r times the
relevant second-derivative factor; individual off-diagonal entries depend on
that basis normalization, so only trace and determinant are contractual.

The first factor sphere carries the negative-definite metric, so its
second-order quantities enter with a flipped sign: the stored first-factor
value is ``h_co1 - J'^2`` (the split-signature eigenvalue), whose negative is
the round-sphere one.  All square-root operators then act by J' and J
exactly: with lambda a factor sphere's eigenvalue and o the family's doubled
centered degree on that factor, 4*lambda + o^2 is the square of 2J' or 2J
at every level, so the even-order products take the doubled levels directly.

Each formula is written once, on doubled levels 2J' = 2j' + p - 2,
2J = 2j + q - 2 (:func:`~intertwinor.spectra.doubled_level`), 2s and 2r,
where every half-integer shift clears and lattice points give plain
integers.  A quantity of degree d in the levels
then comes out 2^d times too large, so every kernel returns its values with
a fixed power-of-two scale, as an unreduced integer ``(value, scale)`` pair
where a caller needs one.  The kernel bodies are type-generic (ints on the
verification sweeps and at lattice points, Fractions at other rational
points, polynomials for the leading symbol); the public functions taking a
:class:`SpectralPoint` are thin Fraction-returning wrappers over them, which
pass the point's ``jp2`` and ``j2`` and the doubled order ``2 * r``.  A kernel
takes the bundle itself and reads it only through the five doubled-level
constants that :class:`BundleParams` sets once (``root1``, ``root_mix2``,
``sign``, ``s2`` and ``w2``), so any object carrying those attributes serves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod
from typing import Tuple

from .arithmetic import (
    Extended,
    Rational,
    gamma_product,
    is_integral,
    quotient,
    times,
)
from . import spectra
from .spectra import (
    BundleParams,
    DegenerateNormalizationError,
    Family,
    SpectralPoint,
    seed_gamma_args,
)


# -- per-block Laplacian data ---------------------------------------------------

@dataclass(frozen=True)
class LaplaceData:
    """Factor Laplacian eigenvalues and centered offsets for a mixed pair.

    ``lap1`` is the split-signature second-order value on the first factor
    (equal on both summands of the pair), ``lap2`` the round value on the
    second factor.  The four offsets are the squared centered degrees entering
    the square-root operators; ``lap1 = h_co1 - J'^2`` and
    ``lap2 = J^2 - h_mix2`` hold identically.
    """

    lap1: Fraction
    lap2: Fraction
    h_co1: Fraction
    h_co2: Fraction
    h_ex2: Fraction
    h_mix2: Fraction


def laplace_values(params: BundleParams, jp2, j2):
    """Four times (lap1, lap2) at doubled levels (2J', 2J)."""
    return params.root1 * params.root1 - jp2 * jp2, j2 * j2 - params.root_mix2 * params.root_mix2


def laplace_data(params: BundleParams, pt: SpectralPoint) -> LaplaceData:
    root1, root_mix2 = params.root1, params.root_mix2
    values = laplace_values(params, pt.jp2, pt.j2) + (
        root1 ** 2, (root_mix2 - 2) ** 2, (root_mix2 + 2) ** 2, root_mix2 ** 2)
    return LaplaceData(*(Fraction(v, 4) for v in values))


# -- Casimir-type shifts ---------------------------------------------------------

@dataclass(frozen=True)
class CasimirShifts:
    """Differences of auxiliary Bochner eigenvalues, target minus source.

    ``n1`` steps from the mixed pair's partner at level (j', j+1) on the
    coexact side into the pair's second summand; ``n2`` steps from the exact
    partner at (j', j+1) into the first summand.  Both pairs share a bidegree,
    so the curvature terms cancel and the shifts are plain Laplacian
    differences.
    """

    n1: Fraction
    n2: Fraction


def shift_values(params: BundleParams, j2):
    """The shifts (n1, n2) at doubled level 2J; integers on the lattice."""
    return -(params.root1 + j2), params.root1 - j2


def interface_shifts(params: BundleParams, pt: SpectralPoint) -> CasimirShifts:
    n1, n2 = shift_values(params, pt.j2)
    return CasimirShifts(n1=Fraction(n1), n2=Fraction(n2))


def interface_constants(params: BundleParams, j: int) -> Tuple[Fraction, Fraction]:
    """The two commutation constants c1, c2 of the level-lowering projections.

    c1 = nu/(nu-1) on coexact (a-1)-forms at level j+1, c2 = alpha/(alpha-1)
    on exact a-forms at level j+1, both on the second factor sphere, where
    nu = q - a + j and alpha = j + a.  Each degenerates when its denominator
    vanishes.
    """
    nu, alpha = params.q - params.a + j, j + params.a
    if nu == 1:
        raise DegenerateNormalizationError("c1 degenerates: nu = 1")
    if alpha == 1:
        raise DegenerateNormalizationError("c2 degenerates: alpha = 1")
    return Fraction(nu, nu - 1), Fraction(alpha, alpha - 1)


# -- 2x2 blocks ------------------------------------------------------------------

@dataclass(frozen=True)
class TwoByTwo:
    """A 2x2 block with exact entries; trace and det are the invariants."""

    e11: Fraction
    e12: Fraction
    e21: Fraction
    e22: Fraction

    @property
    def trace(self) -> Fraction:
        return self.e11 + self.e22

    @property
    def det(self) -> Fraction:
        return self.e11 * self.e22 - self.e12 * self.e21


def two_by_two(entries, scale) -> TwoByTwo:
    """The block of a kernel's integer (entries, scale) pair."""
    return TwoByTwo(*(Fraction(e, scale) for e in entries))


def entry_sums(params: BundleParams, lap1, lap2, r2):
    """Eight times the diagonal entry cores (e11, e22) of the order-2r block.

    ``lap1``, ``lap2`` are the doubled values of :func:`laplace_values`.
    """
    sp, sm, w2 = params.s2 + r2, params.s2 - r2, params.w2
    return (sp * lap1 + sm * lap2 + sp * sm * (w2 - r2),
            sm * lap1 + sp * lap2 + sp * sm * (w2 + r2))


def core_pair(params: BundleParams, jp2, j2, r2):
    """The core block's entries (e11, e12, e21, e22) with their common scale 16."""
    lap1, lap2 = laplace_values(params, jp2, j2)
    e11, e22 = entry_sums(params, lap1, lap2, r2)
    coupling = params.sign * r2
    return (2 * e11, 16 * coupling, coupling * lap1 * lap2, 2 * e22), 16


def block_pair(params: BundleParams, jp2, j2, r2):
    """The unit-seed intertwinor block as (entries, denominator).

    Raises exactly when the denominator, built from the doubled factors
    (J'+J+r), (J'-J-r) and (s+r), is 0, naming the first factor that vanishes.
    """
    factors = (jp2 + j2 + r2, jp2 - j2 - r2, params.s2 + r2)
    # the core times -1/((J'+J+r)(J'-J-r)(s+r)); the core's scale 16 over
    # the doubled factors' 8 leaves 2
    den = -2 * prod(factors)
    if den == 0:
        name = ("J'+J+r", "J'-J-r", "s+r")[factors.index(0)]
        raise DegenerateNormalizationError(f"normalization factor {name} vanishes")
    entries, _ = core_pair(params, jp2, j2, r2)
    return entries, den


def intertwinor_block(params: BundleParams, pt: SpectralPoint, r: Rational,
                      scale: Rational = 1) -> TwoByTwo:
    """The compressed intertwinor on a mixed pair in the given normalization.

    ``scale`` is the eigenvalue on the neighboring coexact type at level
    (j', j+1) that seeds the normalization; entries are homogeneous of degree
    one in it.  Raises when a factor of the normalization denominator
    (J'+J+r), (J'-J-r) or (s+r) vanishes, naming the factor.
    """
    entries, den = block_pair(params, pt.jp2, pt.j2, 2 * r)
    scale = Fraction(scale)
    return TwoByTwo(*(scale * e / den for e in entries))


def block_scale_squared(params: BundleParams, pt: SpectralPoint, r: int) -> Extended:
    """Square of the normalization seed: (s+r)/(s-r) times a squared gamma part.

    A pole at s = r; a zero when the gamma part vanishes (operator kernel).
    """
    if not is_integral(r):
        raise ValueError(f"the exact seed needs integer r, got {r!r}")
    gamma_part = quotient(*gamma_product(seed_gamma_args(pt.jp2, pt.j2), int(r)))
    s2, r2 = params.s2, 2 * r
    return times(times(quotient(s2 + r2, s2 - r2), gamma_part), gamma_part)


# -- order-2 and order-2r operators ------------------------------------------------

def order2_pair(family: Family, params: BundleParams, jp2, j2):
    """The second-order eigenvalue (s -+ 1)(J+J')(J-J') as (value, scale 8)."""
    factor = params.s2 + 2 if family is Family.COEXACT else params.s2 - 2
    return factor * (j2 + jp2) * (j2 - jp2), 8


def even_product(v1, v2, r: int):
    """4^r times the family-independent product factor of the order-2r eigenvalues.

    At doubled values (2v1, 2v2): (v2+v1)(v2-v1) times even-shifted squares
    for odd r, odd-shifted squares for even r.  The multiplicity-one
    eigenvalue is (s +- r) times the product, and the mixed block is the
    order-2(r-1) product times the core block.  Type-generic, so it serves
    integers and the leading-symbol polynomials alike.
    """
    sum_v, diff_v = v1 + v2, v1 - v2
    out = (v2 + v1) * (v2 - v1) if r % 2 else 1
    for off in range(1 + r % 2, r, 2):
        off2 = 4 * off * off
        out = out * (sum_v * sum_v - off2) * (diff_v * diff_v - off2)
    return out


def order_prefactor(family: Family, params: BundleParams, r: int) -> int:
    """2(s+r) on the coexact family, 2(s-r) on the exact one."""
    return params.s2 + 2 * r if family is Family.COEXACT else params.s2 - 2 * r


def even_order_pair(family: Family, params: BundleParams, jp2, j2, r: int):
    """The order-2r eigenvalue at doubled levels (2J', 2J) as (value, scale 2 * 4^r)."""
    return order_prefactor(family, params, r) * even_product(jp2, j2, r), 2 * 4 ** r


def even_block_pair(params: BundleParams, jp2, j2, r: int):
    """The order-2r mixed block at doubled levels (2J', 2J) as (entries, common scale)."""
    prefactor = even_product(jp2, j2, r - 1)
    entries, scale = core_pair(params, jp2, j2, 2 * r)
    return tuple(prefactor * e for e in entries), scale * 4 ** (r - 1)


def _check_order(r) -> int:
    if not is_integral(r) or r < 1:
        raise ValueError(f"even-order operators need integer r >= 1, got {r!r}")
    return int(r)


def even_order_eigenvalue(family: Family, params: BundleParams,
                          pt: SpectralPoint, r: int) -> Fraction:
    """Order-2r operator eigenvalue on a multiplicity-one family, r >= 1.

    Assembled from the square-root operator constants of the family, which
    are J' and J, times (s+r) on the coexact family and (s-r) on the exact
    one.  Normalized so that r = 1 reproduces the second-order operator.
    """
    r = _check_order(r)
    if family is Family.MIXED:
        raise ValueError("mixed family carries a block; use even_order_block")
    return Fraction(*even_order_pair(family, params, *_lattice_levels(params, pt), r))


def even_order_block(params: BundleParams, pt: SpectralPoint, r: int) -> TwoByTwo:
    """Order-2r operator on a mixed pair, r >= 1: scalar product times the core block."""
    r = _check_order(r)
    return two_by_two(*even_block_pair(params, *_lattice_levels(params, pt), r))


def _lattice_levels(params: BundleParams, pt: SpectralPoint) -> Tuple[int, int]:
    """The point's (2J', 2J), checked to be the bundle's doubled levels of integers j', j >= 0."""
    # 2j' and 2j: each doubled level's offset from that of level 0
    levels2 = (pt.jp2 - spectra.doubled_level(params.p, 0),
               pt.j2 - spectra.doubled_level(params.q, 0))
    if not all(is_integral(x) and x >= 0 and x % 2 == 0 for x in levels2):
        raise ValueError(f"point {pt} is not on the level lattice of {params}")
    return pt.jp2, pt.j2


# -- exact bivariate polynomials for the leading-symbol check ----------------------

class BivariatePoly:
    """Polynomial in two variables with exact (int or Fraction) coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {key: val for key, val in (coeffs or {}).items() if val}

    @classmethod
    def const(cls, c) -> "BivariatePoly":
        return cls({(0, 0): c})

    @classmethod
    def var1(cls) -> "BivariatePoly":
        return cls({(1, 0): 1})

    @classmethod
    def var2(cls) -> "BivariatePoly":
        return cls({(0, 1): 1})

    def __add__(self, other) -> "BivariatePoly":
        if not isinstance(other, BivariatePoly):
            other = BivariatePoly.const(other)
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            out[key] = out.get(key, 0) + val
        return BivariatePoly(out)

    def __sub__(self, other) -> "BivariatePoly":
        return self + (other * -1 if isinstance(other, BivariatePoly)
                       else BivariatePoly.const(-other))

    def __mul__(self, other) -> "BivariatePoly":
        if not isinstance(other, BivariatePoly):
            return BivariatePoly({k: other * v for k, v in self.coeffs.items()})
        out = {}
        for (i1, j1), v1 in self.coeffs.items():
            for (i2, j2), v2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + v1 * v2
        return BivariatePoly(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, BivariatePoly) and self.coeffs == other.coeffs

    @property
    def degree(self) -> int:
        return max((i + j for i, j in self.coeffs), default=-1)

    def top_part(self) -> "BivariatePoly":
        d = self.degree
        return BivariatePoly({k: v for k, v in self.coeffs.items() if k[0] + k[1] == d})

    def __repr__(self) -> str:
        terms = sorted(self.coeffs.items())
        return "BivariatePoly(" + ", ".join(f"x^{i} y^{j}: {v}" for (i, j), v in terms) + ")"


def symbol_row(r: int) -> BivariatePoly:
    """The binomial row (x2^2 - x1^2)^r in the doubled levels (x1, x2) = (2J', 2J).

    Its x1^(2i) x2^(2(r-i)) coefficient is (-1)^i C(r, i).  Times a family's
    prefactor it is the top part of the symbol prefactor * (x2^2 - x1^2 + c)^r,
    whose lower terms carry the family's constant c and are not built; the
    top part of :func:`even_product` at order r must equal it, for every bundle.
    """
    return BivariatePoly({(2 * i, 2 * (r - i)): (-1) ** i * comb(r, i) for i in range(r + 1)})


def leading_symbol_polynomials(family: Family, params: BundleParams, r: int):
    """Top-degree (operator, symbol) polynomial pair in the shifted levels (J', J).

    The first polynomial is the top part of the order-2r eigenvalue on the
    family; the second is the top part of the compressed eigenvalue of
    (s+r)(delta d)^r + (s-r)(d delta)^r on the split-signature product, one
    of whose terms dies on each multiplicity-one family.  Both are homogeneous
    of degree 2r, or zero where the prefactor vanishes, and they agree
    exactly, which is the leading-term consistency check.
    """
    if family is Family.MIXED:
        raise ValueError("leading-symbol polynomials cover the multiplicity-one families")
    r = _check_order(r)
    prefactor = order_prefactor(family, params, r)
    top = even_product(BivariatePoly.var1(), BivariatePoly.var2(), r).top_part()
    return in_levels(top * prefactor, r), in_levels(symbol_row(r) * prefactor, r)


def in_levels(poly: BivariatePoly, r: int) -> BivariatePoly:
    """An order-r polynomial in the doubled levels, over its scale 2 * 4^r, in (J', J)."""
    return BivariatePoly({(i, j): Fraction(c * 2 ** (i + j), 2 * 4 ** r)
                          for (i, j), c in poly.coeffs.items()})
