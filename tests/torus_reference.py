"""Geometric reference for the torus operators, in real arithmetic.

The library holds only the rows the intertwining relation runs: phi, N and
P.  This module holds the geometry that fixes them, independently: d, the
coderivative delta, the contraction iota_T with the conformal field T, the
covariant derivative nabla_T and the Lie derivative L_T from Cartan's formula.

On the complex modes e^(i m tau) e^(i n rho), d, delta and iota_T have
purely imaginary entries.  Each is stored here as the real table D, Delta or
I with d = i D, delta = i Delta and iota_T = i I, so every product of two of
them is minus the product of the real tables: d d = -D D, delta d = -Delta D
and L_T = d iota_T + iota_T d = -(D I + I D).  nabla_T is real.

A row (dm, dn, src, tgt, coeff) sends the mode (m, n) of component src to
the mode (m + dm, n + dn) of component tgt with weight coeff, a constant or
a function of the source mode, as in the library's tables.  Sign conventions
for the split metric -dtau^2 + drho^2 (README, "Torus conventions"):

    component metric:   <dtau, dtau> = -1,  <drho, drho> = +1
    derivative:         d f = f_tau dtau + f_rho drho
                        d(u dtau + v drho) = (v_tau - u_rho) dtau^drho
    coderivative:       delta(u dtau + v drho) = +du/dtau - dv/drho
                        delta(w dtau^drho)     = (dw/drho) dtau + (dw/dtau) drho
    contraction:        iota(dtau) dtau = -1,  iota(drho) drho = +1
                        iota_T dtau = cos rho sin tau,  iota_T drho = cos tau sin rho
                        iota_T dtau^drho = iota_T(dtau) drho - iota_T(drho) dtau
    covariant:          nabla_T = iota_T(dtau) d/dtau + iota_T(drho) d/drho, componentwise
"""

from fractions import Fraction

from intertwinor.torus import OperatorMatrix, TorusBasis, _columns

# cos and sin of tau move m by dm = +-1 with weights 1/2 and -i dm/2, likewise
# in rho, so a product of two of them moves a mode along the four diagonals;
# listed here apart from the library's, so that an error there cannot cancel
DIAGONAL = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _diagonal(src, tgt, weight):
    return [(dm, dn, src, tgt, weight(dm, dn)) for dm, dn in DIAGONAL]


def _t_tau(dm, dn):  # iota_T dtau = cos rho sin tau, over i
    return Fraction(-dm, 4)


def _t_rho(dm, dn):  # iota_T drho = cos tau sin rho, over i
    return Fraction(-dn, 4)


#: (name, k) -> rows; D, Delta and I are d, delta and iota_T over i
ROWS = {
    ("D", 0): [(0, 0, "1", "dt", lambda m, n: m), (0, 0, "1", "dr", lambda m, n: n)],
    ("D", 1): [(0, 0, "dt", "dtdr", lambda m, n: -n), (0, 0, "dr", "dtdr", lambda m, n: m)],
    ("Delta", 1): [(0, 0, "dt", "1", lambda m, n: m), (0, 0, "dr", "1", lambda m, n: -n)],
    ("Delta", 2): [(0, 0, "dtdr", "dt", lambda m, n: n), (0, 0, "dtdr", "dr", lambda m, n: m)],
    ("I", 1): _diagonal("dt", "1", _t_tau) + _diagonal("dr", "1", _t_rho),
    ("I", 2): (_diagonal("dtdr", "dr", _t_tau)
               + _diagonal("dtdr", "dt", lambda dm, dn: -_t_rho(dm, dn))),
    **{("nabla_T", k): [row for c in comps for row in _diagonal(
        c, c, lambda dm, dn: lambda m, n: Fraction(dm * m + dn * n, 4))]
       for k, comps in ((0, ("1",)), (1, ("dt", "dr")), (2, ("dtdr",)))},
}


def operator(name: str, M: int, k: int) -> OperatorMatrix:
    """The reference table (name, k) over the truncated basis of degree k."""
    return OperatorMatrix(_columns(ROWS[name, k], TorusBasis(M, k)))


def lie_derivative(M: int, k: int) -> OperatorMatrix:
    """L_T on k-forms by Cartan's formula, d iota_T + iota_T d = -(D I + I D)."""
    zero = OperatorMatrix({})
    d_iota = operator("D", M, k - 1).compose(operator("I", M, k)) if k > 0 else zero
    iota_d = operator("I", M, k + 1).compose(operator("D", M, k)) if k < 2 else zero
    return zero - d_iota - iota_d


def is_zero(op: OperatorMatrix) -> bool:
    return all(not val for col in op.columns.values() for val in col.values())
