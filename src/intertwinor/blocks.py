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
exactly, which is checked by exact square-root extraction when the even-order
products are assembled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .arithmetic import (
    ExtendedScalar,
    Rational,
    gamma_ratio,
    is_integral,
    quotient,
    sqrt_exact,
)
from .spectra import (
    BundleParams,
    DegenerateNormalizationError,
    Family,
    SpectralPoint,
    coexact_laplacian,
    exact_laplacian,
)


# -- projection commutation constants --------------------------------------------

@dataclass(frozen=True)
class ProjectionConstants:
    """Scaling constants for conformal-factor projections on a round sphere.

    For degree-k level-j harmonic forms on S^n, multiplying by a first-order
    conformal factor and projecting to a neighboring level commutes with d
    and delta up to these ratios.
    """

    mu: Fraction
    nu: Fraction
    alpha: Fraction
    beta: Fraction


def projection_constants(n: int, k: int, j: int) -> ProjectionConstants:
    """The four constants mu, nu, alpha, beta for S^n, degree k, level j."""
    if n < 1 or j < 0:
        raise ValueError(f"need sphere dimension >= 1 and level >= 0, got n={n}, j={j}")
    return ProjectionConstants(
        mu=Fraction(j + k),
        nu=Fraction(n - 1 - k + j),
        alpha=Fraction(j - 1 + k),
        beta=Fraction(n - k + j),
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


def _root1(params: BundleParams) -> Fraction:
    """Signed centered degree (p-2)/2 - (k-a) on the first factor."""
    return params.shift1 - (params.k - params.a)


def _root_mix2(params: BundleParams) -> Fraction:
    """Signed centered degree (q-2)/2 - (a-1) on the second factor."""
    return params.shift2 - (params.a - 1)


def laplace_data(params: BundleParams, pt: SpectralPoint) -> LaplaceData:
    v = params.shift2
    a = params.a
    h_co1 = _root1(params) ** 2
    h_mix2 = _root_mix2(params) ** 2
    return LaplaceData(
        lap1=h_co1 - pt.Jp ** 2,
        lap2=pt.J ** 2 - h_mix2,
        h_co1=h_co1,
        h_co2=(v - a) ** 2,
        h_ex2=(v - (a - 2)) ** 2,
        h_mix2=h_mix2,
    )


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


def interface_shifts(params: BundleParams, pt: SpectralPoint) -> CasimirShifts:
    g1 = _root1(params)
    return CasimirShifts(n1=-2 * (g1 + pt.J), n2=2 * (g1 - pt.J))


def interface_constants(params: BundleParams, j: int) -> Tuple[Fraction, Fraction]:
    """The two commutation constants c1, c2 of the level-lowering projections.

    c1 = nu/(nu-1) on coexact (a-1)-forms at level j+1, c2 = alpha/(alpha-1)
    on exact a-forms at level j+1, both on the second factor sphere.  Each
    degenerates when its denominator vanishes.
    """
    n = params.q - 1
    nu = projection_constants(n, params.a - 1, j + 1).nu
    alpha = projection_constants(n, params.a, j + 1).alpha
    if nu == 1:
        raise DegenerateNormalizationError("c1 degenerates: nu = 1")
    if alpha == 1:
        raise DegenerateNormalizationError("c2 degenerates: alpha = 1")
    return nu / (nu - 1), alpha / (alpha - 1)


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

    def scaled(self, c: Rational) -> "TwoByTwo":
        c = Fraction(c)
        return TwoByTwo(c * self.e11, c * self.e12, c * self.e21, c * self.e22)


def _sign(params: BundleParams) -> int:
    """(-1)^(k-a+1), the parity sign of the off-diagonal coupling."""
    return -1 if (params.k - params.a) % 2 == 0 else 1


def _entry_sums(params: BundleParams, pt: SpectralPoint, r: Rational) -> Tuple[Fraction, Fraction]:
    """Diagonal entry cores of the order-2r block on a mixed pair."""
    data = laplace_data(params, pt)
    s = params.s
    w = Fraction(params.q - params.p, 2) + params.k - 2 * params.a + 1
    e11 = (s + r) * data.lap1 + (s - r) * data.lap2 + (s + r) * (s - r) * (w - r)
    e22 = (s - r) * data.lap1 + (s + r) * data.lap2 + (s + r) * (s - r) * (w + r)
    return e11, e22


def intertwinor_block(params: BundleParams, pt: SpectralPoint, r: Rational,
                      scale: Rational = 1) -> TwoByTwo:
    """The compressed intertwinor on a mixed pair in the given normalization.

    ``scale`` is the eigenvalue on the neighboring coexact type at level
    (j', j+1) that seeds the normalization; entries are homogeneous of degree
    one in it.  Raises when a factor of the normalization denominator
    (J'+J+r), (J'-J-r) or (s+r) vanishes, naming the factor.
    """
    r = Fraction(r)
    s = params.s
    for value, name in ((pt.Jp + pt.J + r, "J'+J+r"),
                        (pt.Jp - pt.J - r, "J'-J-r"),
                        (s + r, "s+r")):
        if value == 0:
            raise DegenerateNormalizationError(f"normalization factor {name} vanishes")
    t = -Fraction(scale) / ((pt.Jp + pt.J + r) * (pt.Jp - pt.J - r) * (s + r))
    e11, e22 = _entry_sums(params, pt, r)
    sg = _sign(params)
    data = laplace_data(params, pt)
    return TwoByTwo(
        e11=t * e11,
        e12=t * sg * 2 * r,
        e21=t * sg * 2 * r * data.lap1 * data.lap2,
        e22=t * e22,
    )


def block_scale_squared(params: BundleParams, pt: SpectralPoint, r: int) -> ExtendedScalar:
    """Square of the normalization seed: (s+r)/(s-r) times a squared gamma part.

    A pole at s = r; a zero when the gamma part vanishes (operator kernel).
    """
    gamma_part = gamma_ratio(pt.Jp + pt.J + 2, r) * gamma_ratio(pt.Jp - pt.J, r)
    s = params.s
    return quotient(s + r, s - r) * gamma_part * gamma_part


# -- square-root operator values --------------------------------------------------

def _sqrt_value(lap_signed: Fraction, offset: Fraction) -> Fraction:
    """Value of sqrt(-lap + offset) from a split-signature eigenvalue.

    The combination is a perfect rational square exactly when the offset
    matches the summand; extraction failure means inconsistent data.
    """
    return sqrt_exact(-lap_signed + offset)


def factor_values(family: Family, params: BundleParams, jp: int, j: int) -> Tuple[Fraction, Fraction]:
    """The constants by which the family's square-root operators act.

    Computed from the factor sphere spectra and the family's offsets, not
    from (J', J) directly; both routes agreeing is part of the design.
    """
    d1, d2 = params.p - 1, params.q - 1
    c1, c2 = params.k - params.a, params.a
    if family is Family.COEXACT:
        lap1 = -coexact_laplacian(d1, c1, jp)      # split signature flips factor one
        off1 = _root1(params) ** 2
        lap2 = coexact_laplacian(d2, c2, j)
        off2 = (params.shift2 - params.a) ** 2
        return _sqrt_value(lap1, off1), sqrt_exact(lap2 + off2)
    if family is Family.EXACT:
        lap1 = -exact_laplacian(d1, c1, jp)
        off1 = (params.shift1 - (params.k - params.a) + 1) ** 2
        lap2 = exact_laplacian(d2, c2, j)
        off2 = _root_mix2(params) ** 2
        return _sqrt_value(lap1, off1), sqrt_exact(lap2 + off2)
    # mixed pair: same value on both summands of each factor
    lap1 = -coexact_laplacian(d1, c1, jp)
    off1 = _root1(params) ** 2
    lap2 = exact_laplacian(d2, c2, j)
    off2 = _root_mix2(params) ** 2
    return _sqrt_value(lap1, off1), sqrt_exact(lap2 + off2)


# -- order-2 and order-2r operators ------------------------------------------------

def order2_eigenvalue(family: Family, params: BundleParams, pt: SpectralPoint) -> Fraction:
    """Second-order operator on a multiplicity-one family: (s -+ 1)(J+J')(J-J')."""
    if family is Family.MIXED:
        raise ValueError("mixed family carries a block; use order2_block")
    factor = (params.s + 1) if family is Family.COEXACT else (params.s - 1)
    return factor * (pt.J + pt.Jp) * (pt.J - pt.Jp)


def order2_block(params: BundleParams, pt: SpectralPoint) -> TwoByTwo:
    """Second-order operator block on a mixed pair (off-diagonals in the 2r convention)."""
    return core_block(params, pt, 1)


def core_block(params: BundleParams, pt: SpectralPoint, r: int) -> TwoByTwo:
    """The polynomial 2x2 core of the order-2r operator on a mixed pair."""
    e11, e22 = _entry_sums(params, pt, Fraction(r))
    sg = _sign(params)
    data = laplace_data(params, pt)
    return TwoByTwo(e11, Fraction(sg * 2 * r), sg * 2 * r * data.lap1 * data.lap2, e22)


def _even_product(sum_v: Fraction, diff_v: Fraction, offsets) -> Fraction:
    out = Fraction(1)
    for off in offsets:
        out *= (sum_v ** 2 - off ** 2) * (diff_v ** 2 - off ** 2)
    return out


def even_order_product(pt: SpectralPoint, r: int) -> Fraction:
    """The family-independent product factor of the order-2r eigenvalues.

    (J+J')(J-J') times even-shifted squares for odd r, odd-shifted squares
    for even r; the multiplicity-one eigenvalue is (s +- r) times this.
    """
    if r % 2 == 1:
        return ((pt.J + pt.Jp) * (pt.J - pt.Jp)
                * _even_product(pt.Jp + pt.J, pt.Jp - pt.J, range(2, r, 2)))
    return _even_product(pt.Jp + pt.J, pt.Jp - pt.J, range(1, r, 2))


def even_order_mixed_prefactor(pt: SpectralPoint, r: int) -> Fraction:
    """Scalar multiplying the core block in the order-2r mixed operator."""
    if r % 2 == 1:
        return _even_product(pt.Jp + pt.J, pt.Jp - pt.J, range(1, r, 2))
    return ((pt.J + pt.Jp) * (pt.J - pt.Jp)
            * _even_product(pt.Jp + pt.J, pt.Jp - pt.J, range(2, r, 2)))


def even_order_eigenvalue(family: Family, params: BundleParams,
                          pt: SpectralPoint, r: int) -> Fraction:
    """Order-2r operator eigenvalue on a multiplicity-one family, r >= 1.

    Assembled from the square-root operator constants of the family (values
    extracted exactly from the factor sphere spectra), times (s+r) on the
    coexact family and (s-r) on the exact one.  Normalized so that r = 1
    reproduces the second-order operator.
    """
    if not is_integral(r) or r < 1:
        raise ValueError(f"even-order operators need integer r >= 1, got {r!r}")
    if family is Family.MIXED:
        raise ValueError("mixed family carries a block; use even_order_block")
    jp, j = _levels(params, pt)
    v1, v2 = factor_values(family, params, jp, j)
    s = params.s
    prefactor = (s + r) if family is Family.COEXACT else (s - r)
    return prefactor * even_order_product(SpectralPoint(v1, v2), r)


def even_order_block(params: BundleParams, pt: SpectralPoint, r: int) -> TwoByTwo:
    """Order-2r operator on a mixed pair, r >= 1: scalar product times the core block."""
    if not is_integral(r) or r < 1:
        raise ValueError(f"even-order operators need integer r >= 1, got {r!r}")
    jp, j = _levels(params, pt)
    v1, v2 = factor_values(Family.MIXED, params, jp, j)
    return core_block(params, pt, r).scaled(
        even_order_mixed_prefactor(SpectralPoint(v1, v2), r))


def _levels(params: BundleParams, pt: SpectralPoint) -> Tuple[int, int]:
    jp = pt.Jp - params.shift1
    j = pt.J - params.shift2
    if jp.denominator != 1 or j.denominator != 1 or jp < 0 or j < 0:
        raise ValueError(f"point {pt} is not on the level lattice of {params}")
    return int(jp), int(j)


# -- exact bivariate polynomials for the leading-symbol check ----------------------

class BivariatePoly:
    """Polynomial in the two shifted levels with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for key, val in coeffs.items():
                val = Fraction(val)
                if val:
                    self.coeffs[key] = val

    @classmethod
    def const(cls, c) -> "BivariatePoly":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def var1(cls) -> "BivariatePoly":
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def var2(cls) -> "BivariatePoly":
        return cls({(0, 1): Fraction(1)})

    def __add__(self, other) -> "BivariatePoly":
        if not isinstance(other, BivariatePoly):
            other = BivariatePoly.const(other)
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + val
        return BivariatePoly(out)

    def __sub__(self, other) -> "BivariatePoly":
        return self + (other * -1 if isinstance(other, BivariatePoly)
                       else BivariatePoly.const(-Fraction(other)))

    def __mul__(self, other) -> "BivariatePoly":
        if not isinstance(other, BivariatePoly):
            c = Fraction(other)
            return BivariatePoly({k: c * v for k, v in self.coeffs.items()})
        out = {}
        for (i1, j1), v1 in self.coeffs.items():
            for (i2, j2), v2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + v1 * v2
        return BivariatePoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BivariatePoly":
        out = BivariatePoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, BivariatePoly) and self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def degree(self) -> int:
        return max((i + j for i, j in self.coeffs), default=-1)

    def top_part(self) -> "BivariatePoly":
        d = self.degree
        return BivariatePoly({k: v for k, v in self.coeffs.items() if k[0] + k[1] == d})

    def __repr__(self) -> str:
        terms = sorted(self.coeffs.items())
        return "BivariatePoly(" + ", ".join(f"x^{i} y^{j}: {v}" for (i, j), v in terms) + ")"


def proportional(p1: BivariatePoly, p2: BivariatePoly):
    """(True, c) if p1 == c * p2 with a single nonzero rational c."""
    if not p1.coeffs and not p2.coeffs:
        return True, Fraction(1)
    if set(p1.coeffs) != set(p2.coeffs):
        return False, None
    ratios = {p1.coeffs[k] / p2.coeffs[k] for k in p1.coeffs}
    if len(ratios) == 1:
        return True, next(iter(ratios))
    return False, None


def leading_symbol_polynomials(family: Family, params: BundleParams, r: int):
    """Exact (operator, symbol) polynomial pair in the shifted levels (J', J).

    The first polynomial is the order-2r eigenvalue on the family; the second
    is the compressed eigenvalue of (s+r)(delta d)^r + (s-r)(d delta)^r on
    the split-signature product, one of whose terms dies on each
    multiplicity-one family.  Their top-degree parts are proportional, which
    is the leading-term consistency check.
    """
    if family is Family.MIXED:
        raise ValueError("leading-symbol polynomials cover the multiplicity-one families")
    if r < 1:
        raise ValueError("need r >= 1")
    x1, x2 = BivariatePoly.var1(), BivariatePoly.var2()
    s = params.s
    sum_p, diff_p = x1 + x2, x1 - x2

    def even_prod(offsets):
        out = BivariatePoly.const(1)
        for off in offsets:
            out = out * (sum_p * sum_p - BivariatePoly.const(off * off))
            out = out * (diff_p * diff_p - BivariatePoly.const(off * off))
        return out

    if r % 2 == 1:
        x_poly = (x2 + x1) * (x2 - x1) * even_prod(range(2, r, 2))
    else:
        x_poly = even_prod(range(1, r, 2))
    p_op = x_poly * ((s + r) if family is Family.COEXACT else (s - r))

    if family is Family.COEXACT:
        h1 = _root1(params) ** 2
        h2 = (params.shift2 - params.a) ** 2
        compressed = (BivariatePoly.const(h1) - x1 * x1) + (x2 * x2 - BivariatePoly.const(h2))
        p_sym = compressed ** r * (s + r)
    else:
        h1 = (params.shift1 - (params.k - params.a) + 1) ** 2
        h2 = _root_mix2(params) ** 2
        compressed = (BivariatePoly.const(h1) - x1 * x1) + (x2 * x2 - BivariatePoly.const(h2))
        p_sym = compressed ** r * (s - r)
    return p_op, p_sym
