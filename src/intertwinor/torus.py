"""Explicit truncated-basis realization on the two-torus (p = q = 2).

Forms on S^1 x S^1 are expanded over complex Fourier modes e^(i m tau)
e^(i n rho) times a component frame {1}, {dtau, drho}, {dtau^drho}.  All the
operators entering the intertwining relation have exact entries there, so the
relation can be checked in exact rational arithmetic; ``intertwining_residual``
runs the same check in floats for non-integer orders.

``assemble`` writes the three operators the relation needs, phi, N and P,
each as one table of rows (dm, dn, source -> target, coefficient) on the
mode (m, n), with a constant coefficient or one that depends on (m, n); one
builder turns the rows into exact sparse columns, which are all an
``OperatorMatrix`` holds.  Conventions, each one table row:

    conformal factor:   phi = cos tau cos rho, componentwise
                            (+-1, +-1, c -> c, 1/4)
    auxiliary Bochner:  N = -(d/dtau)^2 - (d/drho)^2 componentwise (round metric)
                            (0, 0, c -> c, m^2 + n^2)
    P (k = 1 only):     sin tau sin rho times the swap dtau <-> drho
                            (+-1, +-1, dt -> dr and dr -> dt, -dm dn/4)

The geometry that fixes these rows, [N, phi]/2 = nabla_T + phi and
L_T - nabla_T = k phi - P for the conformal field T, is checked against an
independent reference of d, delta, iota_T, nabla_T and Cartan's L_T kept with
the tests (``tests/torus_reference.py``), in real arithmetic.

The intertwining check A (C - r phi) = (C + r phi) A, with
C = [N, phi]/2 - P, assembles nothing: every operator in it is local.  N and
A act inside one mode, while phi and P move a mode along the four shifts.
The residual on an interior mode x is therefore four small matrix
identities, one per shift s, with C_s composed from the phi and P rows of
the same tables.  Exact mode compares cross-multiplied integers; float mode
runs the same loop on floats.  Only modes with x + s inside the interior
cut, ``MARGIN`` modes in from the truncation, are compared, so no truncated
contribution enters; the interior has a pair of neighbours, and every
interior column counts as checked, once M >= 3.

The blocks of A come from one class table, ``_class_blocks``, which
evaluates ``_mode_block`` once per class (|m|, |n|) for every k.
``spectral_operator`` fills its columns from it over the whole truncation,
(M + 1)^2 evaluations, and negates the off-diagonal entries of a k = 1
block on the modes with m n < 0.  The residual reads the class table over
the interior alone, (M - 1)^2 evaluations, and evaluates the two outer
rings as well only where an evaluation there can raise, so that a pole or
a float overflow on a retained mode still fails the check.

The k = 1 block is the library's mixed block, not a copy of its formula:
``blocks.core_pair`` at the middle-degree bundle (p, q, k, a) = (2, 2, 1, 1)
and levels (J', J) = (|m|, |n|), written in the frame D = diag(1, -mn) and
scaled by -t, the torus's own gamma scale.  At p = q = 2,
lap1 lap2 = -(2m)^2 (2n)^2, so the mapped e21 is minus the mapped e12 and
the kernel's e21 is never read.  The kernel's scale 16 stays in the block's
denominator, so a non-integer float order gives floats over 16.  The exact
residual therefore checks the kernel that the spectral suites check.

The mirror (x, s) -> (-x, -s) and the reflection n -> -n map every
identity to one between two modes of the quarter-plane m, n >= 0, where
every block read is a class block, and the identities at (x, s) and
(x + s, -s) compare the same integers.  So the residual walks each pair of
diagonal neighbours in the interior quarter-plane once; exact mode compares
one identity per pair and float mode both, as their orders of operations
round differently.  ``intertwining_residual``'s docstring gives both
arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Tuple

from . import blocks, spectra
from .arithmetic import POLE, gamma_product, is_integral, require_ints
from .spectra import BundleParams, gamma_args, gamma_quotient, seed_gamma_args

Mode = Tuple[int, int, str]
Column = Dict[Mode, object]


class PoleOnModeError(ArithmeticError):
    """The spectral operator has a pole on a retained mode."""

    def __init__(self, mode):
        self.mode = mode
        super().__init__(f"spectral operator pole on mode {mode}")


_COMPONENTS = {0: ("1",), 1: ("dt", "dr"), 2: ("dtdr",)}


@dataclass(frozen=True)
class TorusBasis:
    """Truncated Fourier form basis: modes |m|, |n| <= M times the k-frame.

    Basis order is lexicographic in (m, n, component index).
    """

    M: int
    k: int

    def __post_init__(self):
        require_ints(M=self.M, k=self.k)
        if self.M < 1:
            raise ValueError("need truncation M >= 1")
        if self.k not in (0, 1, 2):
            raise ValueError(f"form degree must be 0, 1 or 2, got {self.k}")

    @property
    def components(self) -> Tuple[str, ...]:
        return _COMPONENTS[self.k]

    def keys(self) -> Iterator[Mode]:
        for m in range(-self.M, self.M + 1):
            for n in range(-self.M, self.M + 1):
                for comp in self.components:
                    yield (m, n, comp)

    def contains(self, m: int, n: int) -> bool:
        return abs(m) <= self.M and abs(n) <= self.M


def _add(out: Column, col: Column, c) -> Column:
    """out += c * col, dropping the entries that cancel; returns out."""
    for row, val in col.items():
        cur = out.get(row)
        new = c * val if cur is None else cur + c * val
        if new:
            out[row] = new
        elif cur is not None:
            del out[row]
    return out


class OperatorMatrix:
    """An operator on the truncated basis, stored as its sparse exact columns.

    ``columns`` maps a source key (m, n, component) to its column, a dict
    from target keys to nonzero Fraction entries; composition, difference
    and scaling stay exact.
    """

    def __init__(self, columns: Dict[Mode, Column]):
        self.columns = columns

    def compose(self, inner: "OperatorMatrix") -> "OperatorMatrix":
        """self after inner."""
        cols: Dict[Mode, Column] = {}
        for key, vec in inner.columns.items():
            out: Column = {}
            for mid, val in vec.items():
                _add(out, self.columns.get(mid, {}), val)
            cols[key] = out
        return OperatorMatrix(cols)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix({key: _add(_add({}, self.columns.get(key, {}), 1),
                                         other.columns.get(key, {}), -1)
                               for key in set(self.columns) | set(other.columns)})

    def scaled(self, c) -> "OperatorMatrix":
        return OperatorMatrix({key: _add({}, col, c) for key, col in self.columns.items()})


# -- assembly -----------------------------------------------------------------------

# On e^(i m tau), cos tau moves m by dm = +-1 with weight 1/2 and sin tau with
# weight -i dm/2, likewise in rho: multiplying by phi = cos tau cos rho or by
# sin tau sin rho moves a mode along the four diagonal shifts.
_DIAGONAL = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _shifted(pairs, weight) -> list:
    """Rows sending each (src, tgt) of pairs along the four shifts, with weight(dm, dn)."""
    return [(dm, dn, src, tgt, weight(dm, dn)) for src, tgt in pairs for dm, dn in _DIAGONAL]


def _bochner(m: int, n: int) -> int:
    """The eigenvalue of N on the mode (m, n), the same on every component."""
    return m * m + n * n


def _tables() -> dict:
    """(name, k) -> rows of the operators 'phi-mult', 'N' and 'P'.

    A row (dm, dn, src, tgt, coeff) sends the mode (m, n) of component src to
    the mode (m + dm, n + dn) of component tgt with weight coeff, a constant
    or a function of the source mode (m, n).
    """
    tables = {}
    for k, comps in _COMPONENTS.items():
        same = [(c, c) for c in comps]
        tables["phi-mult", k] = _shifted(same, lambda dm, dn: Fraction(1, 4))
        tables["N", k] = [(0, 0, c, c, lambda m, n: Fraction(_bochner(m, n))) for c in comps]
        tables["P", k] = []
    # P multiplies by sin tau sin rho and swaps dt and dr
    tables["P", 1] = _shifted([("dt", "dr"), ("dr", "dt")], lambda dm, dn: Fraction(-dm * dn, 4))
    return tables


_TABLES = _tables()


def _columns(rows, basis: TorusBasis) -> Dict[Mode, Column]:
    """Columns of a table over the truncated basis, without targets outside the
    truncation and without zero entries."""
    by_src = {c: [row for row in rows if row[2] == c] for c in basis.components}
    cols: Dict[Mode, Column] = {}
    for key in basis.keys():
        m, n, comp = key
        col: Column = {}
        for dm, dn, _, tgt, coeff in by_src[comp]:
            if not basis.contains(m + dm, n + dn):
                continue
            val = coeff(m, n) if callable(coeff) else coeff
            if val:
                col[(m + dm, n + dn, tgt)] = val
        cols[key] = col
    return cols


def assemble(name: str, basis: TorusBasis) -> OperatorMatrix:
    """Assemble 'phi-mult', 'N' or 'P' over the truncated basis, exactly.

    'P' is the zero operator away from k = 1; any other name raises
    ValueError.
    """
    try:
        rows = _TABLES[name, basis.k]
    except KeyError:
        raise ValueError(f"unknown operator {name!r}") from None
    return OperatorMatrix(_columns(rows, basis))


def half_commutator_with_phi(basis: TorusBasis) -> OperatorMatrix:
    """(1/2)[N, phi-mult] on the truncated basis."""
    n_op = assemble("N", basis)
    phi = assemble("phi-mult", basis)
    return (n_op.compose(phi) - phi.compose(n_op)).scaled(Fraction(1, 2))


# -- the spectrally defined operator ----------------------------------------------------

#: the middle-degree bundle, whose mixed block the k = 1 modes carry
_MIDDLE_DEGREE = BundleParams(2, 2, 1, 1)


def _mode_block(k: int, m: int, n: int, r) -> Tuple[tuple, object]:
    """The intertwinor of order 2r on the Fourier mode (m, n), as (entries, denominator).

    ``entries`` is the block in row-major order over the k-frame: 1x1 for
    k = 0 and k = 2, the 2x2 mixed block in the (dtau, drho) frame for k = 1.
    An int r gives int entries over one positive int denominator; a
    non-integer float r gives floats over 1 for k = 0, 2 and over 16 for
    k = 1, and an integer-valued float takes the exact values over 1.  r = 0
    is the identity.  A pole on the mode raises :class:`PoleOnModeError`.

    ``t`` is the gamma-quotient eigenvalue for k = 0, 2 and the scale of the
    mixed block for k = 1, which is ``blocks.core_pair`` at the middle-degree
    bundle in the frame D = diag(1, -mn) times -t: the entries
    (-t c11, t c12 mn, t c21 / mn, -t c22) over 16, where
    lap1 lap2 = -(2m)^2 (2n)^2 makes t c21 / mn = -t c12 mn, so c21 is not
    read.
    """
    if isinstance(r, float) and r.is_integer():
        entries, den = _mode_block(k, m, n, int(r))
        return tuple(e / den for e in entries), 1
    if r == 0:
        return ((1, 0, 0, 1) if k == 1 else (1,)), 1
    jp, jn = abs(m), abs(n)
    jp2, jn2 = spectra.doubled_level(2, jp), spectra.doubled_level(2, jn)
    args = seed_gamma_args(jp2, jn2) if k == 1 else gamma_args(False, jp2, jn2)
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
        t, den = gamma_quotient(args, r), 1
        if t is POLE:
            raise PoleOnModeError((m, n, _COMPONENTS[k][0]))
        if k == 1:
            t = -t / ((jp + jn + r) * (jp - jn - r) * r)
    if k != 1:
        return (t,), den
    (c11, c12, _, c22), scale = blocks.core_pair(_MIDDLE_DEGREE, jp2, jn2, 2 * r)
    e12 = c12 * t * m * n
    return (-t * c11, e12, -e12, -t * c22), scale * den


def _class_blocks(k: int, reach: int, r) -> Dict[Tuple[int, int], Tuple[tuple, object]]:
    """``_mode_block`` once per class (a, b), 0 <= a, b <= reach, keyed by (a, b).

    A block depends on its mode only through the class (|m|, |n|), up to the
    sign of the k = 1 off-diagonal entries e12 = c12 t m n and e21 = -e12.
    Each class is evaluated at (-a, -b), its first mode in basis order, for
    a descending and then b descending: whether an evaluation raises depends
    on the class alone, so a pole names the first mode in basis order that
    has one.  Since (-a)(-b) = a b, the table holds the block of every mode
    with m, n >= 0.  reach < 0 gives the empty table.
    """
    return {(a, b): _mode_block(k, -a, -b, r)
            for a in range(reach, -1, -1) for b in range(reach, -1, -1)}


def spectral_operator(basis: TorusBasis, r: int) -> OperatorMatrix:
    """The intertwinor of integer order 2r on the truncated basis, block by block.

    Diagonal with the multiplicity-one gamma quotient for k = 0 and k = 2;
    for k = 1 each Fourier character carries the 2x2 mixed block, written in
    the (dtau, drho) frame where it extends continuously to the boundary
    modes.  The gamma normalization drops the family radical, a single
    overall scale, so that all entries are rational.  r = 0 gives the
    identity.  A non-integer r raises ValueError (the float path is
    :func:`intertwining_residual`'s); a pole on a retained mode raises
    :class:`PoleOnModeError`.

    The blocks come from ``_class_blocks``: a k = 1 mode with m n < 0 takes
    its class block with e12 and e21 negated, as e12 = c12 t m n = -e21.
    """
    if not is_integral(r):
        raise ValueError(f"spectral_operator needs integer r, got {r!r}")
    r = int(r)
    comps = basis.components
    table = _class_blocks(basis.k, basis.M, r)
    span = range(-basis.M, basis.M + 1)
    cols: Dict[Mode, Column] = {}
    for m in span:
        for n in span:
            entries, den = table[abs(m), abs(n)]
            flip = -1 if m * n < 0 else 1
            for j, col_comp in enumerate(comps):
                col: Column = {}
                for i, row_comp in enumerate(comps):
                    val = entries[i * len(comps) + j] * (flip if i != j else 1)
                    if val:
                        col[(m, n, row_comp)] = Fraction(val, den)
                cols[(m, n, col_comp)] = col
    return OperatorMatrix(cols)


# -- residual of the intertwining relation ----------------------------------------------

#: modes between the truncation and the interior cut of the residual check
MARGIN = 2


@dataclass
class ResidualResult:
    """Max-norm residual of the compressed relation over interior columns."""

    k: int
    r: object
    M: int
    mode: str
    residual: float
    columns: int

    @property
    def exact_zero(self) -> bool:
        return self.mode == "exact" and self.residual == 0.0


def _scaled_shifts(k: int):
    """The shift tables of [N, phi]/2, phi and -P over one common denominator.

    Returns (scale, rows): each row is (dm, dn, half, phi, off), where
    scale * [N, phi]/2 sends mode x to x + (dm, dn) with weight
    half * (N(x + (dm, dn)) - N(x)), scale * phi with weight phi, and
    scale * (-P) with weight off into the swapped component.  phi and P are
    read from the rows ``assemble`` builds them from.

    The rows must be closed under the mirror (dm, dn) -> (-dm, -dn) with the
    same three weights, and under the reflection (dm, dn) -> (dm, -dn) with
    the same half and phi and the negated off, which ``intertwining_residual``
    relies on to compare each orbit and each pair of identities once; a
    table that is not raises ValueError.
    """
    comp = _COMPONENTS[k][0]
    phi, p_op = ({(dm, dn): c for dm, dn, src, _, c in _TABLES[name, k] if src == comp}
                 for name in ("phi-mult", "P"))
    rows = [(dm, dn, c / 2, c, -p_op.get((dm, dn), 0)) for (dm, dn), c in phi.items()]
    weights = {row[:2]: row[2:] for row in rows}
    for (dm, dn), w in weights.items():
        half, c, off = w
        if weights.get((-dm, -dn)) != w:
            raise ValueError(f"k = {k}: the shift ({dm}, {dn}) and its negation differ")
        if weights.get((dm, -dn)) != (half, c, -off):
            raise ValueError(f"k = {k}: the shift ({dm}, {dn}) and its reflection differ")
    scale = math.lcm(*(Fraction(v).denominator for row in rows for v in row[2:]))
    return scale, [row[:2] + tuple(int(scale * v) for v in row[2:]) for row in rows]


_SHIFTS = {k: _scaled_shifts(k) for k in _COMPONENTS}


def _identity_error(worst, scale, order, ax, dx, ay, dy, diag, phi, off):
    """``worst`` raised to the largest error of one shift identity
    A(y) (C_s - r phi_s) = (C_s + r phi_s) A(x), y = x + s, cell by cell.

    ``ax``, ``dx`` and ``ay``, ``dy`` are the blocks of x and y over their
    denominators; ``diag``, ``phi`` and ``off`` are the weights of
    scale * [N, phi]/2, scale * phi and scale * (-P) on the shift s.  lhs
    applies A(y) to C - r phi formed first; rhs adds r phi A(x) to C A(x)
    last.  The scale is a power of two and changes no rounding, so float mode
    gives the unscaled products bit for bit; exact mode's int division rounds
    correctly, so its maximum is the exact maximum rounded.
    """
    minus = diag - order * phi
    for e in range(len(ax)):
        # cell e = (i, j) of the 2x2 block: e ^ 1 is (i, 1-j), e ^ 2 is (1-i, j)
        lhs = ay[e] * minus
        rhs = diag * ax[e]
        if off:
            lhs += ay[e ^ 1] * off
            rhs += off * ax[e ^ 2]
        diff = lhs * dx - (rhs + order * (phi * ax[e])) * dy
        if diff:
            err = abs(diff / (scale * dx * dy))
            # a NaN (inf - inf in float mode) sticks, where max would drop it
            worst = max(worst, err) if err == err else err
    return worst


def intertwining_residual(M: int, k: int, r, mode: str = "exact") -> ResidualResult:
    """Max-norm of (A (C - r phi) - (C + r phi) A) e over interior basis vectors e,
    where C = [N, phi]/2 - P, projected back onto the interior modes.

    Every operator is local, so the check runs per interior mode x and shift
    s with x + s interior: A(x+s) (C_s - r phi_s) = (C_s + r phi_s) A(x) on
    the mode blocks.  Exact mode compares integers cross-multiplied by the
    block denominators and the common denominator of C and phi; float mode
    runs the same loop on floats.

    The loop reads the blocks of the interior modes only, |m|, |n| <= M - 2,
    so only their classes are evaluated where no evaluation can raise: in
    exact mode with r >= 0.  There r = 0 gives the identity, and for r >= 1
    every block denominator is positive: ``gamma_product`` at an order
    r >= 0 returns a product of powers of 4 d, d a positive denominator, so
    k = 0, 2 divide by such a power and k = 1 by 2 r (J' + J + r) d1 d2; and
    ``blocks.core_pair`` only adds and multiplies.  In float mode, where a
    gamma quotient can overflow, first on the outer rings because its
    arguments grow with |m| + |n|, and at a negative order, where a pole can
    sit on any mode, the classes out to M are evaluated too, in the order of
    ``_class_blocks``: the first pole or overflow is the one that evaluating
    every retained mode meets first.

    The identities come in orbits of the group {+-1}^2 generated by the mirror
    (x, s) -> (-x, -s) and the reflection R: (m, n) -> (m, -n), (dm, dn) ->
    (dm, -dn); each maps an identity to one with the same |diff| and the same
    block denominators.  N is even in m and in n.  For k = 0, 2 the blocks of
    a class are equal, phi and half agree on all four shifts and off is 0.
    For k = 1 the block at R x is D A(x) D, D = diag(1, -1), the P weight
    flips sign and D swap D = -swap, so the identity at R(x, s) is D (identity
    at (x, s)) D: entry for entry up to sign, bit for bit in floats.
    ``_scaled_shifts`` enforces both symmetries of the shift rows.  The m
    coordinates of x and x + s differ by one, so they never have opposite
    signs, and likewise the n coordinates; the group flips the signs of m and
    of n independently, so every orbit has a member with both modes in the
    quarter-plane 0 <= m, n <= cut.  Only that quarter-plane is visited, and
    every block read there comes straight from ``_class_blocks``.

    The identities at (x, s) and (y, -s), y = x + s, form a pair.
    ``_scaled_shifts`` gives s and -s the same half, phi and off, so the
    identity at (y, -s) has diag' = -diag, with A(x) and A(y) and their
    denominators swapped.  With C = diag + off swap, an identity's diff is
    dx A(y) (C - r phi) - dy (C + r phi) A(x).  For k = 0, 2 both
    identities give ay (diag - r phi) dx - ax (diag + r phi) dy, integer
    for integer.  For k = 1 every class block has e21 = -e12 (``_mode_block``
    builds it so), hence D A^T D = A for D = diag(1, -1), and D swap D =
    -swap, so the diff at (y, -s) is D (diff at (x, s))^T D: the same
    integers up to sign.  So the loop walks each pair of diagonal neighbours
    of the quarter-plane once, from its mode with dm = +1, and exact mode
    compares the one identity.  Float mode compares the reverse one too: the
    two evaluate their products in different orders, which round
    differently.

    Once cut >= 1 (M >= 3) every interior mode has a diagonal neighbour in
    the interior, so every interior basis vector is compared, directly or
    through its orbit, and ``columns`` counts all (2 cut + 1)^2 modes times
    the k-frame; for M <= 2 no identity is compared and ``columns`` is 0.
    """
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    exact = mode == "exact"
    if exact and not is_integral(r):
        raise ValueError(f"exact mode needs integer r, got {r!r}")
    basis = TorusBasis(M, k)
    order = int(r) if exact else float(r)
    cut = M - MARGIN
    # the interior classes; the outer rings only where an evaluation can raise
    blocks = _class_blocks(k, cut if exact and order >= 0 else M, order)
    scale, shifts = _SHIFTS[k]
    worst = 0
    for m in range(cut):
        for n in range(cut + 1):
            ax, dx = blocks[m, n]
            for dm, dn, half, phi, off in shifts:
                if dm < 0 or not 0 <= n + dn <= cut:
                    continue
                ay, dy = blocks[m + 1, n + dn]
                diag = half * (_bochner(m + 1, n + dn) - _bochner(m, n))
                worst = _identity_error(worst, scale, order, ax, dx, ay, dy, diag, phi, off)
                if not exact:
                    worst = _identity_error(worst, scale, order, ay, dy, ax, dx, -diag, phi, off)
    columns = len(basis.components) * (2 * cut + 1) ** 2 if cut > 0 else 0
    return ResidualResult(k=k, r=r, M=M, mode=mode, residual=float(worst), columns=columns)
