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

``assemble`` builds each operator as exact sparse columns over the truncated
basis, and ``OperatorMatrix`` composes them.  The intertwining check does
not: every operator in A (C - r phi) = (C + r phi) A, with
C = [N, phi]/2 - P, is local.  N and A act inside one mode, through the
per-mode block ``_mode_block`` that ``spectral_operator`` also fills its
columns from, while phi and P move a mode by one of the four shifts
(+-1, +-1).  The residual on an interior mode x is therefore four small
matrix identities, one per shift s, with C_s composed from the same shift
tables ``assemble`` reads.  Exact mode compares cross-multiplied integers;
float mode runs the same loop on floats.  Only modes with x + s inside the
interior cut (margin two by default) are compared, so no truncated
contribution enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import truediv
from typing import Dict, Iterator, Optional, Tuple

from .arithmetic import gamma_product, gamma_ratio_numeric, is_integral
from .spectra import gamma_args, seed_gamma_args

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
    rationals (or plain Fractions for real operators), and composition and
    arithmetic stay exact.
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


def _bochner(m: int, n: int) -> int:
    """The eigenvalue of N on the mode (m, n), the same on every component."""
    return m * m + n * n


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
        cols = {key: {key: Fraction(_bochner(key[0], key[1]))} for key in basis.keys()}
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

def _mode_block(k: int, m: int, n: int, r) -> Tuple[tuple, object]:
    """The intertwinor of order 2r on the Fourier mode (m, n), as (entries, denominator).

    ``entries`` is the block in row-major order over the k-frame: 1x1 for
    k = 0 and k = 2, the 2x2 mixed block in the (dtau, drho) frame for k = 1.
    An int r gives int entries over one positive int denominator; a float r
    gives floats over 1, where an integer-valued float takes the exact values.
    r = 0 is the identity.  A pole on the mode raises :class:`PoleOnModeError`.

    ``t`` is the gamma-quotient eigenvalue for k = 0, 2 and the scale of the
    mixed block for k = 1.
    """
    if isinstance(r, float) and r.is_integer():
        entries, den = _mode_block(k, m, n, int(r))
        return tuple(e / den for e in entries), 1
    if r == 0:
        return ((1, 0, 0, 1) if k == 1 else (1,)), 1
    jp, jn = abs(m), abs(n)
    args = seed_gamma_args(2 * jp, 2 * jn) if k == 1 else gamma_args(False, 2 * jp, 2 * jn)
    if isinstance(r, int):
        if k == 1:
            # t = -seed / ((J'+J+r)(J'-J-r) r), and the seed's quotient at J'-J
            # is (J'-J-r)/2 times the order-(r-1) quotient at J'-J+1
            n1, d1 = gamma_product(args[:1], r)
            n2, d2 = gamma_product((args[1] + 2,), r - 1)
            t, den = -n1 * n2, 2 * r * (jp + jn + r) * d1 * d2
        else:
            t, den = gamma_product(args, r)
        if den == 0:
            raise PoleOnModeError((m, n, _COMPONENTS[k][0]))
        if den < 0:
            t, den = -t, -den
    else:
        g1, g2 = (gamma_ratio_numeric(x2 / 2, r) for x2 in args)
        if g1.is_pole or g2.is_pole:
            raise PoleOnModeError((m, n, _COMPONENTS[k][0]))
        t, den = g1.value * g2.value, 1
        if k == 1:
            t = -t / ((jp + jn + r) * (jp - jn - r) * r)
    if k != 1:
        return (t,), den
    lap1, lap2 = -m * m, n * n
    e11 = r * (lap1 - lap2 + r * r)
    off = 2 * r * t * m * n
    return (t * -e11, -off, off, t * e11), den


def spectral_operator(basis: TorusBasis, r, normalization: str = "gamma") -> OperatorMatrix:
    """The intertwinor of order 2r on the truncated basis, block by block.

    Diagonal with the multiplicity-one gamma quotient for k = 0 and k = 2;
    for k = 1 each Fourier character carries the 2x2 mixed block, written in
    the (dtau, drho) frame where it extends continuously to the boundary
    modes.  The only implemented normalization ('gamma') drops the family
    radical, a single overall scale, so that all entries are rational for
    integer r.  r = 0 gives the identity.  Floating r uses the log-gamma
    path.  A pole on a retained mode raises :class:`PoleOnModeError`.
    """
    if normalization != "gamma":
        raise ValueError(f"unknown normalization {normalization!r}")
    if isinstance(r, float) and r.is_integer():
        r = int(r)  # integer orders always take the exact path
    exact = is_integral(r)
    order = int(r) if exact else float(r)
    comps = basis.components
    cols: Dict[Mode, Column] = {}
    for m in range(-basis.M, basis.M + 1):
        for n in range(-basis.M, basis.M + 1):
            entries, den = _mode_block(basis.k, m, n, order)
            for j, col_comp in enumerate(comps):
                col: Column = {}
                for i, row_comp in enumerate(comps):
                    val = entries[i * len(comps) + j]
                    if val:
                        col[(m, n, row_comp)] = Fraction(val, den) if exact else val
                cols[(m, n, col_comp)] = col
    name = "A[r=0]" if order == 0 else f"A[k={basis.k},r={r}]"
    return OperatorMatrix(name, basis, basis, cols)


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


def _scaled_shifts(k: int):
    """The shift tables of [N, phi]/2, phi and -P over one common denominator.

    Returns (scale, rows): each row is (dm, dn, half, phi, off), where
    scale * [N, phi]/2 sends mode x to x + (dm, dn) with weight
    half * (N(x + (dm, dn)) - N(x)), scale * phi with weight phi, and
    scale * (-P) with weight off into the swapped component.
    """
    p_terms = {(dm, dn): coeff for dm, dn, coeff in _SIN_T_SIN_R} if k == 1 else {}
    rows = [(dm, dn, phi / 2, phi, -p_terms.get((dm, dn), 0)) for dm, dn, phi in _PHI_TERMS]
    scale = math.lcm(*(Fraction(v).denominator for row in rows for v in row[2:]))
    return scale, [row[:2] + tuple(int(scale * v) for v in row[2:]) for row in rows]


def intertwining_residual(M: int, k: int, r, mode: str = "exact",
                          margin: int = 2) -> ResidualResult:
    """Max-norm of (A (C - r phi) - (C + r phi) A) e over interior basis vectors e,
    where C = [N, phi]/2 - P, projected back onto the interior modes.

    Every operator is local, so the check runs per interior mode x and shift
    s with x + s interior: A(x+s) (C_s - r phi_s) = (C_s + r phi_s) A(x) on
    the mode blocks.  Exact mode compares integers cross-multiplied by the
    block denominators and the common denominator of C and phi; float mode
    runs the same loop on floats.
    """
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    if mode == "exact" and not is_integral(r):
        raise ValueError(f"exact mode needs integer r, got {r!r}")
    basis = TorusBasis(M, k)
    exact = mode == "exact"
    order = int(r) if exact else float(r)
    span = range(-M, M + 1)
    # every retained mode, in spectral_operator's order, so a pole raises as there
    blocks = {(m, n): _mode_block(k, m, n, order) for m in span for n in span}
    scale, shifts = _scaled_shifts(k)
    cut = M - max(margin, 0)
    inner = range(-cut, cut + 1)
    cells = range(len(basis.components) ** 2)
    ratio = Fraction if exact else truediv
    # lhs applies A(x+s) to C - r phi formed first; rhs adds r phi A(x) to
    # C A(x) last.  The scale is a power of two and changes no rounding, so
    # float mode gives the unscaled products bit for bit.
    worst = 0
    for m in inner:
        for n in inner:
            ax, dx = blocks[m, n]
            nx = _bochner(m, n)
            for dm, dn, half, phi, off in shifts:
                mm, nn = m + dm, n + dn
                if abs(mm) > cut or abs(nn) > cut:
                    continue
                ay, dy = blocks[mm, nn]
                diag = half * (_bochner(mm, nn) - nx)
                minus = diag - order * phi
                for e in cells:
                    # cell e = (i, j) of the 2x2 block: e ^ 1 is (i, 1-j), e ^ 2 is (1-i, j)
                    lhs = ay[e] * minus
                    rhs = diag * ax[e]
                    if off:
                        lhs += ay[e ^ 1] * off
                        rhs += off * ax[e ^ 2]
                    diff = lhs * dx - (rhs + order * (phi * ax[e])) * dy
                    if diff:
                        worst = max(worst, abs(ratio(diff, scale * dx * dy)))
    return ResidualResult(k=k, r=r, M=M, mode=mode, residual=float(worst),
                          columns=len(inner) ** 2 * len(basis.components), margin=margin)
