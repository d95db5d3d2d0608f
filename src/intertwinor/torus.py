"""Explicit truncated-basis realization on the two-torus (p = q = 2).

Forms on S^1 x S^1 are expanded over complex Fourier modes e^(i m tau)
e^(i n rho) times a component frame {1}, {dtau, drho}, {dtau^drho}.  All the
operators entering the intertwining relation have exact entries there, so the
relation can be checked in exact rational arithmetic; the float path of the
same computation is available for non-integer orders.

Sign conventions, fixed once for the split metric -dtau^2 + drho^2 and used
consistently by the assembler:

    component metric:   <dtau, dtau> = -1,  <drho, drho> = +1
    coderivative:       delta(u dtau + v drho) = +du/dtau - dv/drho
                        delta(w dtau^drho)     = (dw/drho) dtau + (dw/dtau) drho
    contraction:        iota(dtau) dtau = -1,  iota(drho) drho = +1
    auxiliary Bochner:  N = -(d/dtau)^2 - (d/drho)^2 componentwise (round metric)

Operators that shift modes drop contributions outside the truncation; the
residual is therefore evaluated on interior modes with a margin of two, where
no truncation error can enter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .arithmetic import (
    gamma_ratio,
    gamma_ratio_numeric,
    is_integral,
)
from .spectra import SpectralPoint, mult1_eigenvalue

Mode = Tuple[int, int, str]
Column = Dict[Mode, object]


class PoleOnModeError(ArithmeticError):
    """The spectral operator has a pole on a retained mode."""

    def __init__(self, mode, detail=""):
        self.mode = mode
        super().__init__(f"spectral operator pole on mode {mode} {detail}".strip())


class ExactComplex:
    """Gaussian rational a + b i; the exact scalar ring of the assembler."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = _coerce(other)
        return ExactComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return ExactComplex(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, ExactComplex):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re or self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ExactComplex({self.re}, {self.im})"


def _coerce(x) -> ExactComplex:
    if isinstance(x, ExactComplex):
        return x
    return ExactComplex(Fraction(x))


_COMPONENTS = {0: ("1",), 1: ("dt", "dr"), 2: ("dtdr",)}


@dataclass(frozen=True)
class TorusBasis:
    """Truncated Fourier form basis: modes |m|, |n| <= M times the k-frame.

    Basis order is lexicographic in (m, n, component index); the dimension is
    (2M+1)^2 times the number of components.
    """

    M: int
    k: int

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("need truncation M >= 1")
        if self.k not in (0, 1, 2):
            raise ValueError(f"form degree must be 0, 1 or 2, got {self.k}")

    @property
    def components(self) -> Tuple[str, ...]:
        return _COMPONENTS[self.k]

    @property
    def dim(self) -> int:
        return (2 * self.M + 1) ** 2 * len(self.components)

    def keys(self) -> Iterator[Mode]:
        for m in range(-self.M, self.M + 1):
            for n in range(-self.M, self.M + 1):
                for comp in self.components:
                    yield (m, n, comp)

    def index(self, key: Mode) -> int:
        m, n, comp = key
        side = 2 * self.M + 1
        ci = self.components.index(comp)
        return ((m + self.M) * side + (n + self.M)) * len(self.components) + ci

    def contains(self, m: int, n: int) -> bool:
        return abs(m) <= self.M and abs(n) <= self.M


class OperatorMatrix:
    """An operator between truncated bases, stored by exact columns.

    Columns are indexed by domain basis keys; values live in the Gaussian
    rationals (or plain Fractions for real operators).  ``dense`` materializes
    the full complex matrix; composition and arithmetic stay exact.
    """

    def __init__(self, name: str, domain: TorusBasis, codomain: TorusBasis,
                 columns: Dict[Mode, Column]):
        self.name = name
        self.domain = domain
        self.codomain = codomain
        self.columns = columns

    def column(self, key: Mode) -> Column:
        return self.columns.get(key, {})

    def apply(self, vec: Column) -> Column:
        out: Column = {}
        for key, val in vec.items():
            for row, coef in self.columns.get(key, {}).items():
                cur = out.get(row)
                new = coef * val if cur is None else cur + coef * val
                if new:
                    out[row] = new
                elif cur is not None:
                    del out[row]
        return out

    def compose(self, inner: "OperatorMatrix", name: Optional[str] = None) -> "OperatorMatrix":
        """self after inner."""
        cols = {key: self.apply(col) for key, col in inner.columns.items()}
        return OperatorMatrix(name or f"{self.name}*{inner.name}",
                              inner.domain, self.codomain, cols)

    def _combine(self, other: "OperatorMatrix", c_self, c_other, name: str) -> "OperatorMatrix":
        cols: Dict[Mode, Column] = {}
        for key in set(self.columns) | set(other.columns):
            col: Column = {}
            for row, val in self.columns.get(key, {}).items():
                col[row] = c_self * val
            for row, val in other.columns.get(key, {}).items():
                cur = col.get(row)
                new = c_other * val if cur is None else cur + c_other * val
                if new:
                    col[row] = new
                elif cur is not None:
                    del col[row]
            cols[key] = {row: val for row, val in col.items() if val}
        return OperatorMatrix(name, self.domain, self.codomain, cols)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, 1, 1, f"{self.name}+{other.name}")

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, 1, -1, f"{self.name}-{other.name}")

    def scaled(self, c, name: Optional[str] = None) -> "OperatorMatrix":
        cols = {key: {row: c * val for row, val in col.items() if c * val}
                for key, col in self.columns.items()}
        return OperatorMatrix(name or f"{c}*{self.name}", self.domain, self.codomain, cols)

    def dense(self) -> np.ndarray:
        out = np.zeros((self.codomain.dim, self.domain.dim), dtype=complex)
        for key, col in self.columns.items():
            ci = self.domain.index(key)
            for row, val in col.items():
                out[self.codomain.index(row), ci] = complex(val) \
                    if isinstance(val, ExactComplex) else complex(float(val), 0.0)
        return out

    def float_columns(self) -> Dict[Mode, Dict[Mode, complex]]:
        return {key: {row: (complex(val) if isinstance(val, ExactComplex)
                            else complex(float(val), 0.0))
                      for row, val in col.items()}
                for key, col in self.columns.items()}


# -- assembly -----------------------------------------------------------------------

def _shift_columns(basis: TorusBasis, codomain: TorusBasis,
                   terms, comp_map=None) -> Dict[Mode, Column]:
    """Columns of a componentwise shift operator.

    ``terms`` is a list of (dm, dn, coeff(m, n)); ``comp_map`` optionally sends
    a domain component to a codomain component (identity by default).
    Contributions falling outside the truncation are dropped.
    """
    cols: Dict[Mode, Column] = {}
    for key in basis.keys():
        m, n, comp = key
        target_comp = comp if comp_map is None else comp_map[comp]
        col: Column = {}
        for dm, dn, coeff in terms:
            mm, nn = m + dm, n + dn
            if not codomain.contains(mm, nn):
                continue
            val = coeff(m, n) if callable(coeff) else coeff
            if val:
                col[(mm, nn, target_comp)] = val
        cols[key] = col
    return cols


def _quarter(sign: int) -> Fraction:
    return Fraction(sign, 4)


_PHI_TERMS = [(1, 1, _quarter(1)), (1, -1, _quarter(1)),
              (-1, 1, _quarter(1)), (-1, -1, _quarter(1))]

# dtau(T) = cos rho sin tau and drho(T) = cos tau sin rho as shift tables
_COS_R_SIN_T = [(1, 1, ExactComplex(0, Fraction(-1, 4))),
                (1, -1, ExactComplex(0, Fraction(-1, 4))),
                (-1, 1, ExactComplex(0, Fraction(1, 4))),
                (-1, -1, ExactComplex(0, Fraction(1, 4)))]
_COS_T_SIN_R = [(1, 1, ExactComplex(0, Fraction(-1, 4))),
                (-1, 1, ExactComplex(0, Fraction(-1, 4))),
                (1, -1, ExactComplex(0, Fraction(1, 4))),
                (-1, -1, ExactComplex(0, Fraction(1, 4)))]
_SIN_T_SIN_R = [(1, 1, _quarter(-1)), (1, -1, _quarter(1)),
                (-1, 1, _quarter(1)), (-1, -1, _quarter(-1))]

_NABLA_T_TERMS = [
    (1, 1, lambda m, n: Fraction(m + n, 4)),
    (1, -1, lambda m, n: Fraction(m - n, 4)),
    (-1, 1, lambda m, n: Fraction(n - m, 4)),
    (-1, -1, lambda m, n: Fraction(-m - n, 4)),
]


def assemble(name: str, basis: TorusBasis) -> OperatorMatrix:
    """Assemble a named operator over the truncated basis, exactly.

    Supported names: 'phi-mult', 'N', 'nabla_T', 'P', 'd', 'delta', 'iota_T'
    and 'L_T' (the Lie derivative along the conformal field, built from
    Cartan's formula).  'd' needs k <= 1, 'delta', 'iota_T', 'L_T' any k;
    'P' is the zero operator away from k = 1.
    """
    k, M = basis.k, basis.M
    if name == "phi-mult":
        return OperatorMatrix(name, basis, basis, _shift_columns(basis, basis, _PHI_TERMS))
    if name == "N":
        cols = {key: {key: Fraction(key[0] ** 2 + key[1] ** 2)} for key in basis.keys()}
        return OperatorMatrix(name, basis, basis, cols)
    if name == "nabla_T":
        return OperatorMatrix(name, basis, basis, _shift_columns(basis, basis, _NABLA_T_TERMS))
    if name == "P":
        if k != 1:
            return OperatorMatrix(name, basis, basis, {key: {} for key in basis.keys()})
        swap = {"dt": "dr", "dr": "dt"}
        return OperatorMatrix(name, basis, basis,
                              _shift_columns(basis, basis, _SIN_T_SIN_R, comp_map=swap))
    if name == "d":
        if k == 2:
            raise ValueError("d is unsupported on top-degree forms")
        codomain = TorusBasis(M, k + 1)
        cols: Dict[Mode, Column] = {}
        for m, n, comp in basis.keys():
            if k == 0:
                col: Column = {}
                if m:
                    col[(m, n, "dt")] = ExactComplex(0, m)
                if n:
                    col[(m, n, "dr")] = ExactComplex(0, n)
            else:
                # d(u dt + v dr) = (dv/dtau - du/drho) dt^dr
                col = {}
                val = ExactComplex(0, -n) if comp == "dt" else ExactComplex(0, m)
                if val:
                    col[(m, n, "dtdr")] = val
            cols[(m, n, comp)] = col
        return OperatorMatrix(name, basis, codomain, cols)
    if name == "delta":
        if k == 0:
            raise ValueError("delta is unsupported on functions")
        codomain = TorusBasis(M, k - 1)
        cols = {}
        for m, n, comp in basis.keys():
            if k == 1:
                val = ExactComplex(0, m) if comp == "dt" else ExactComplex(0, -n)
                cols[(m, n, comp)] = {(m, n, "1"): val} if val else {}
            else:
                col = {}
                if n:
                    col[(m, n, "dt")] = ExactComplex(0, n)
                if m:
                    col[(m, n, "dr")] = ExactComplex(0, m)
                cols[(m, n, comp)] = col
        return OperatorMatrix(name, basis, codomain, cols)
    if name == "iota_T":
        if k == 0:
            raise ValueError("iota_T is zero on functions")
        codomain = TorusBasis(M, k - 1)
        if k == 1:
            cols = {}
            for m, n, comp in basis.keys():
                terms = _COS_R_SIN_T if comp == "dt" else _COS_T_SIN_R
                col: Column = {}
                for dm, dn, coeff in terms:
                    if codomain.contains(m + dm, n + dn):
                        col[(m + dm, n + dn, "1")] = coeff
                cols[(m, n, comp)] = col
            return OperatorMatrix(name, basis, codomain, cols)
        cols = {}
        for m, n, comp in basis.keys():
            col = {}
            for dm, dn, coeff in _COS_R_SIN_T:
                if codomain.contains(m + dm, n + dn):
                    col[(m + dm, n + dn, "dr")] = coeff
            for dm, dn, coeff in _COS_T_SIN_R:
                if codomain.contains(m + dm, n + dn):
                    key = (m + dm, n + dn, "dt")
                    col[key] = col.get(key, ExactComplex()) - coeff
            cols[(m, n, comp)] = {kk: vv for kk, vv in col.items() if vv}
        return OperatorMatrix(name, basis, codomain, cols)
    if name == "L_T":
        if k == 0:
            return assemble("iota_T", TorusBasis(M, 1)).compose(assemble("d", basis), name)
        if k == 1:
            part1 = assemble("d", TorusBasis(M, 0)).compose(assemble("iota_T", basis))
            part2 = assemble("iota_T", TorusBasis(M, 2)).compose(assemble("d", basis))
            return (part1 + part2).scaled(1, name)
        return assemble("d", TorusBasis(M, 1)).compose(assemble("iota_T", basis), name)
    raise ValueError(f"unknown operator {name!r}")


def half_commutator_with_phi(basis: TorusBasis) -> OperatorMatrix:
    """(1/2)[N, phi-mult] on the truncated basis."""
    n_op = assemble("N", basis)
    phi = assemble("phi-mult", basis)
    return (n_op.compose(phi) - phi.compose(n_op)).scaled(Fraction(1, 2), "[N,phi]/2")


# -- the spectrally defined operator ----------------------------------------------------

def _seed_t_exact(jp: int, jn: int, r: int) -> Fraction:
    """The block normalization -seed/((J'+J+r)(J'-J-r)(s+r)) at p=q=2, k=1.

    The seed gamma quotient carries a factor (J'-J-r)/2 that cancels the
    matching normalization factor, so the value is finite on every mode.
    """
    rest = Fraction(1, 2)
    for i in range(1, r):
        rest *= Fraction(jp - jn - r, 2) + i
    head = gamma_ratio(jp + jn + 2, r).value
    return -head * rest / ((jp + jn + r) * r)


def spectral_operator(basis: TorusBasis, r, normalization: str = "gamma") -> OperatorMatrix:
    """The intertwinor of order 2r on the truncated basis, block by block.

    Diagonal with the multiplicity-one gamma quotient for k = 0 and k = 2;
    for k = 1 each Fourier character carries the 2x2 mixed block, written in
    the (dtau, drho) frame where it extends continuously to the boundary
    modes.  The only implemented normalization ('gamma') drops the family
    radical, a single overall scale, so that all entries are rational for
    integer r.  r = 0 gives the identity.  Floating r uses the log-gamma
    path and reports poles on retained modes.
    """
    if normalization != "gamma":
        raise ValueError(f"unknown normalization {normalization!r}")
    if isinstance(r, float) and r.is_integer():
        r = int(r)  # integer orders always take the exact path
    exact = is_integral(r)
    if (exact and int(r) == 0) or (isinstance(r, float) and r == 0.0):
        cols = {key: {key: Fraction(1)} for key in basis.keys()}
        return OperatorMatrix("A[r=0]", basis, basis, cols)
    k = basis.k
    cols: Dict[Mode, Column] = {}
    if k in (0, 2):
        comp = basis.components[0]
        for m in range(-basis.M, basis.M + 1):
            for n in range(-basis.M, basis.M + 1):
                jp, jn = abs(m), abs(n)
                if exact:
                    val = mult1_eigenvalue(SpectralPoint(jp, jn), int(r)).value
                else:
                    g1 = gamma_ratio_numeric(jp + jn + 1, float(r))
                    g2 = gamma_ratio_numeric(jp - jn + 1, float(r))
                    if g1.is_pole or g2.is_pole:
                        raise PoleOnModeError((m, n, comp))
                    val = g1.value * g2.value
                cols[(m, n, comp)] = {(m, n, comp): val} if val else {}
        return OperatorMatrix(f"A[k={k},r={r}]", basis, basis, cols)
    for m in range(-basis.M, basis.M + 1):
        for n in range(-basis.M, basis.M + 1):
            jp, jn = abs(m), abs(n)
            lap1, lap2 = -m * m, n * n
            if exact:
                ri = int(r)
                t = _seed_t_exact(jp, jn, ri)
                e11 = ri * (lap1 - lap2 + ri * ri)
                off = 2 * ri * t * m * n
            else:
                rf = float(r)
                g1 = gamma_ratio_numeric(jp + jn + 2, rf)
                g2 = gamma_ratio_numeric(jp - jn, rf)
                if g1.is_pole or g2.is_pole:
                    raise PoleOnModeError((m, n, "dt"))
                t = -g1.value * g2.value / ((jp + jn + rf) * (jp - jn - rf) * rf)
                e11 = rf * (lap1 - lap2 + rf * rf)
                off = 2 * rf * t * m * n
            e22 = -e11
            col_t: Column = {(m, n, "dt"): t * e22}
            col_r: Column = {(m, n, "dr"): t * e11}
            if off:
                col_t[(m, n, "dr")] = off
                col_r[(m, n, "dt")] = -off
            cols[(m, n, "dt")] = {kk: vv for kk, vv in col_t.items() if vv}
            cols[(m, n, "dr")] = {kk: vv for kk, vv in col_r.items() if vv}
    return OperatorMatrix(f"A[k=1,r={r}]", basis, basis, cols)


# -- residual of the intertwining relation ----------------------------------------------

@dataclass
class ResidualResult:
    """Max-norm residual of the compressed relation over interior columns."""

    k: int
    r: object
    M: int
    mode: str
    residual: float
    columns: int
    margin: int = 2

    @property
    def exact_zero(self) -> bool:
        return self.mode == "exact" and self.residual == 0.0


def _interior(basis: TorusBasis, margin: int) -> List[Mode]:
    cut = basis.M - margin
    return [key for key in basis.keys() if abs(key[0]) <= cut and abs(key[1]) <= cut]


def intertwining_residual(M: int, k: int, r, mode: str = "exact",
                          margin: int = 2) -> ResidualResult:
    """Max-norm of (A (C - r phi) - (C + r phi) A) e over interior basis vectors e,
    where C = [N, phi]/2 - P, projected back onto the interior modes.

    With margin >= 2 neither side loses truncated contributions on interior
    columns, so in exact mode the residual of a correct spectral assignment
    is exactly zero.
    """
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    if mode == "exact" and not is_integral(r):
        raise ValueError(f"exact mode needs integer r, got {r!r}")
    basis = TorusBasis(M, k)
    half_comm = half_commutator_with_phi(basis)
    p_op = assemble("P", basis)
    phi = assemble("phi-mult", basis)
    core = half_comm - p_op
    a_op = spectral_operator(basis, r if mode == "exact" else float(r))

    if mode == "float":
        core_cols = core.float_columns()
        phi_cols = phi.float_columns()
        a_cols = a_op.float_columns()
        r_val = float(r)
        zero = 0.0
    else:
        core_cols = core.columns
        phi_cols = phi.columns
        a_cols = a_op.columns
        r_val = Fraction(int(r))
        zero = Fraction(0)

    def apply_cols(cols, vec):
        out = {}
        for key, val in vec.items():
            for row, coef in cols.get(key, {}).items():
                out[row] = out.get(row, zero) + coef * val
        return out

    interior = _interior(basis, margin)
    cut = basis.M - margin
    worst = zero
    for key in interior:
        e = {key: Fraction(1) if mode == "exact" else 1.0 + 0.0j}
        minus = {}
        for row, val in core_cols.get(key, {}).items():
            minus[row] = minus.get(row, zero) + val
        for row, val in phi_cols.get(key, {}).items():
            minus[row] = minus.get(row, zero) - r_val * val
        lhs = apply_cols(a_cols, minus)
        a_e = apply_cols(a_cols, e)
        rhs = apply_cols(core_cols, a_e)
        for row, val in apply_cols(phi_cols, a_e).items():
            rhs[row] = rhs.get(row, zero) + r_val * val
        for row in set(lhs) | set(rhs):
            if abs(row[0]) > cut or abs(row[1]) > cut:
                continue
            mag = abs(lhs.get(row, zero) - rhs.get(row, zero))
            if mag > worst:
                worst = mag
    return ResidualResult(k=k, r=r, M=M, mode=mode, residual=float(worst),
                          columns=len(interior), margin=margin)
