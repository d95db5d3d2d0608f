"""Grid-based consistency suites for the spectral formulas.

Every identity checked here is exact: grid points are swept in a fixed
lexicographic order, each check compares rationals (cross-multiplied where a
quotient could degenerate), and failures carry both sides of the violated
identity as witnesses.  Degenerate points (vanishing normalization factors,
nonexistent labels) are skipped and counted, never silently dropped.

The diamond suite runs on plain integers: it takes the library's own
doubled-level formulas (levels 2J', 2J and order 2r, which clears every
half-integer shift), so the gate checks the code that users run, and
compares unreduced (numerator, denominator) pairs by cross-multiplication.
Each suite accepts an injectable implementation of the quantity it checks;
the diamond suite adapts one to the same integer pairs and the same loop.
This is how test fixtures wire in deliberately perturbed versions (negative
controls).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from . import arithmetic, blocks, spectra
from .arithmetic import IndeterminateError, format_fraction, gamma_ratio
from .spectra import (
    DIRECTIONS,
    BundleParams,
    DegenerateNormalizationError,
    Family,
    KTypeLabel,
)

PASS = "pass"
FAIL = "fail"
SKIP = "skipped-degenerate"


@dataclass(frozen=True)
class GridSpec:
    """Finite sweep ranges; k is additionally capped at min(p, q) - 1.

    With ``skip_nonexistent`` (the default) empty labels are passed over
    silently; switched off, they are still never evaluated but each one
    leaves a counted skip record in the report.
    """

    p_max: int = 7
    q_max: int = 7
    j_max: int = 8
    r_values: Tuple[int, ...] = (1, 2, 3, 4)
    p_min: int = 2
    q_min: int = 2
    skip_nonexistent: bool = True

    def __post_init__(self):
        if self.p_max < self.p_min or self.q_max < self.q_min or self.j_max < 0:
            raise ValueError("empty grid ranges")
        if not self.r_values:
            raise ValueError("need at least one r value")


@dataclass
class CheckReport:
    """Outcome of one identity at one grid point; failures carry witnesses."""

    check: str
    point: dict
    status: str
    lhs: Optional[str] = None
    rhs: Optional[str] = None

    def to_json(self) -> str:
        payload = {"check": self.check, "point": self.point, "status": self.status}
        if self.lhs is not None:
            payload["lhs"] = self.lhs
        if self.rhs is not None:
            payload["rhs"] = self.rhs
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_report(reports: Sequence[CheckReport], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rep in reports:
            fh.write(rep.to_json())
            fh.write("\n")


def summarize(reports: Sequence[CheckReport]) -> dict:
    out = {PASS: 0, FAIL: 0, SKIP: 0}
    for rep in reports:
        out[rep.status] = out.get(rep.status, 0) + 1
    out["total"] = len(reports)
    return out


def failures(reports: Sequence[CheckReport]) -> List[CheckReport]:
    return [rep for rep in reports if rep.status == FAIL]


# -- grid iteration ------------------------------------------------------------

def iter_bundles(grid: GridSpec) -> Iterator[BundleParams]:
    for p in range(grid.p_min, grid.p_max + 1):
        for q in range(grid.q_min, grid.q_max + 1):
            for k in range(0, min(p, q)):
                a_lo = max(0, k - (p - 1))
                a_hi = min(k, q - 1)
                for a in range(a_lo, a_hi + 1):
                    yield BundleParams(p, q, k, a)


def iter_levels(grid: GridSpec) -> Iterator[Tuple[int, int]]:
    for jp in range(grid.j_max + 1):
        for j in range(grid.j_max + 1):
            yield jp, j


def _point_dict(params: BundleParams, jp: int, j: int, r, extra: Optional[dict] = None) -> dict:
    out = {"p": params.p, "q": params.q, "k": params.k, "a": params.a,
           "jp": jp, "j": j, "r": str(r)}
    if extra:
        out.update(extra)
    return out


def _exists_set(params: BundleParams, family: Family, j_hi: int) -> Set[Tuple[int, int]]:
    return {(jp, j) for jp in range(j_hi + 1) for j in range(j_hi + 1)
            if spectra.ktype_exists(params, KTypeLabel(family, jp, j))}


# -- diamond suite ---------------------------------------------------------------

# two-step paths to the four distance-two destinations, as (djp, dj) pairs
_CORNER_PATHS = (
    (((+1, +1), (+1, -1)), ((+1, -1), (+1, +1))),
    (((-1, +1), (-1, -1)), ((-1, -1), (-1, +1))),
    (((-1, +1), (+1, +1)), ((+1, +1), (-1, +1))),
    (((-1, -1), (+1, -1)), ((+1, -1), (-1, -1))),
)
_STEPS = tuple((d.djp, d.dj) for d in DIRECTIONS)


def _as_pair(fn, params: BundleParams, jp: int, j: int, r, *rest) -> Tuple[int, int]:
    """Adapt a public extended-scalar function to an integer (numerator, denominator).

    A pole is (1, 0); an indeterminate value is (0, 0), which every
    comparison passes over, as it does a route with a vanishing step.
    """
    try:
        value = fn(spectra.spectral_point(params, jp, j), r, *rest)
    except IndeterminateError:
        return 0, 0
    if value.is_pole:
        return 1, 0
    value = Fraction(value.value)
    return value.numerator, value.denominator


def run_diamond_checks(
    grid: GridSpec,
    mult1_fn: Optional[Callable] = None,
    mult2_fn: Optional[Callable] = None,
    mult1_eig_fn: Optional[Callable] = None,
    mult2_det_fn: Optional[Callable] = None,
) -> List[CheckReport]:
    """Path independence of the transition quantities plus gamma compatibility.

    One report per (bundle, family, j', j, r).  Path products compare the two
    two-step routes to each distance-two neighbor; gamma compatibility
    cross-multiplies eigenvalue (or determinant) ratios against the one-step
    transition quantities, so zeros of the spectral function need no special
    casing.  By default both sides come from the library's doubled-level
    formulas (:func:`spectra.transition_factors`, :func:`spectra.gamma_args`
    and :func:`arithmetic.gamma_product`) as integer pairs; a function passed
    in replaces its formula through the same integer-pair interface.
    """
    reports: List[CheckReport] = []
    for params in iter_bundles(grid):
        dp, dq = params.p - 2, params.q - 2
        # the pair functions below are used up within their own iteration
        for family in (Family.COEXACT, Family.EXACT, Family.MIXED):
            mixed = family is Family.MIXED
            trans_fn, eig_fn = (mult2_fn, mult2_det_fn) if mixed else (mult1_fn, mult1_eig_fn)
            if trans_fn is None:
                def transition(jp, j, r, d1, d2):
                    num = den = 1
                    for n, d in spectra.transition_factors(
                            mixed, 2 * jp + dp, 2 * j + dq, 2 * r, d1, d2):
                        num, den = num * n, den * d
                    return num, den
            else:
                def transition(jp, j, r, d1, d2):
                    return _as_pair(trans_fn, params, jp, j, r, spectra.Direction(d1, d2))
            if eig_fn is None:
                def gamma(jp, j, r):
                    return arithmetic.gamma_product(
                        spectra.gamma_args(mixed, 2 * jp + dp, 2 * j + dq), r)
            else:
                def gamma(jp, j, r):
                    return _as_pair(eig_fn, params, jp, j, r)
            reports += _diamond_family(grid, params, family, transition, gamma)
    return reports


def _diamond_family(grid, params, family, transition, gamma) -> List[CheckReport]:
    exists = _exists_set(params, family, grid.j_max + 2)
    fam_pt = {"family": family.value}
    value = lru_cache(maxsize=None)(gamma)

    @lru_cache(maxsize=None)
    def steps(jp, j, r) -> dict:
        # transition pairs from (jp, j) to each existing neighbor, by direction
        return {(d1, d2): transition(jp, j, r, d1, d2)
                for d1, d2 in _STEPS if (jp + d1, j + d2) in exists}

    reports: List[CheckReport] = []
    for jp, j in iter_levels(grid):
        if (jp, j) not in exists:
            continue
        for r in grid.r_values:
            here = steps(jp, j, r)
            onward = {d: steps(jp + d[0], j + d[1], r) for d in here}
            fail = None
            # each corner's two routes; a route is undefined when a step
            # leaves the existing labels or has a vanishing factor
            for routes in _CORNER_PATHS:
                prods = []
                for first, second in routes:
                    one = here.get(first)
                    two = one and onward[first].get(second)
                    if not two or 0 in one or 0 in two:
                        break
                    prods.append((one[0] * two[0], one[1] * two[1]))
                else:
                    (num_a, den_a), (num_b, den_b) = prods
                    if num_a * den_b != num_b * den_a:
                        fail = ("diamond-path", format_fraction(Fraction(num_a, den_a)),
                                format_fraction(Fraction(num_b, den_b)))
                        break
            if fail is None:
                src_n, src_d = value(jp, j, r)
                for (d1, d2), (n, d) in here.items():
                    tgt_n, tgt_d = value(jp + d1, j + d2, r)
                    lhs, rhs = tgt_n * src_d * d, src_n * tgt_d * n
                    if lhs != rhs:
                        fail = ("gamma-transition", str(lhs), str(rhs))
                        break
            point = _point_dict(params, jp, j, r, fam_pt)
            if fail is None:
                reports.append(CheckReport("diamond", point, PASS))
            else:
                point["identity"], lhs, rhs = fail
                reports.append(CheckReport("diamond", point, FAIL, lhs, rhs))
    return reports


# -- interface suite --------------------------------------------------------------

def run_interface_checks(
    grid: GridSpec,
    entries_fn: Callable = blocks.intertwinor_block,
) -> List[CheckReport]:
    """The four compressed interface equations, exactly, at unit seed scale.

    All terms are homogeneous of degree one in the seed eigenvalue, so the
    equations are checked with the seed set to 1; the seed's actual squared
    value is covered by the determinant suite.
    """
    reports: List[CheckReport] = []
    for params in iter_bundles(grid):
        sg = -1 if (params.k - params.a) % 2 == 0 else 1
        s = params.s
        exists = _exists_set(params, Family.MIXED, grid.j_max)
        for jp, j in iter_levels(grid):
            if (jp, j) not in exists:
                continue
            pt = spectra.spectral_point(params, jp, j)
            try:
                c1, c2 = blocks.interface_constants(params, j)
            except DegenerateNormalizationError as err:
                for r in grid.r_values:
                    reports.append(CheckReport("interface", _point_dict(params, jp, j, r),
                                               SKIP, lhs=str(err)))
                continue
            shifts = blocks.interface_shifts(params, pt)
            half_n1, half_n2 = shifts.n1 / 2, shifts.n2 / 2
            data = blocks.laplace_data(params, pt)
            lap_prod = data.lap1 * data.lap2
            t1 = Fraction(1)
            for r in grid.r_values:
                point = _point_dict(params, jp, j, r)
                try:
                    block = entries_fn(params, pt, Fraction(r), 1)
                except DegenerateNormalizationError as err:
                    reports.append(CheckReport("interface", point, SKIP, lhs=str(err)))
                    continue
                t2 = (s - r) / (s + r) * t1
                eqs = (
                    ("coexact-into-pair",
                     sg * (1 - c1) * block.e11 + (half_n1 - r) * block.e12,
                     sg * (1 - c1) * t1),
                    ("coexact-onto-partner",
                     sg * (1 - c1) * block.e21 + (half_n1 - r) * block.e22,
                     (half_n1 + r) * t1),
                    ("exact-onto-partner",
                     (half_n2 - r) / lap_prod * block.e21 - sg * (1 - c2) * block.e22,
                     -sg * (1 - c2) * t2),
                    ("exact-into-pair",
                     (half_n2 - r) * block.e11 - sg * (1 - c2) * lap_prod * block.e12,
                     (half_n2 + r) * t2),
                )
                status, lhs, rhs = PASS, None, None
                for name, left, right in eqs:
                    if left != right:
                        status = FAIL
                        point["equation"] = name
                        lhs, rhs = format_fraction(left), format_fraction(right)
                        break
                reports.append(CheckReport("interface", point, status, lhs=lhs, rhs=rhs))
    return reports


# -- determinant suite -------------------------------------------------------------

def run_det_checks(
    grid: GridSpec,
    det_fn: Callable = spectra.mult2_det,
) -> List[CheckReport]:
    """Determinant factorization of the mixed block, in two exact forms.

    First the block determinant at unit seed against the displayed transition
    product; then the gamma-quotient determinant against the same product
    times the squared seed (cross-multiplied, so that s = r and lattice zeros
    are not spurious degeneracies).
    """
    reports: List[CheckReport] = []
    default_det = det_fn is spectra.mult2_det
    for params in iter_bundles(grid):
        s = params.s
        exists = _exists_set(params, Family.MIXED, grid.j_max)
        for jp, j in iter_levels(grid):
            if (jp, j) not in exists:
                continue
            pt = spectra.spectral_point(params, jp, j)
            sum_l, diff_l = pt.Jp + pt.J, pt.Jp - pt.J
            for r in grid.r_values:
                point = _point_dict(params, jp, j, r)
                try:
                    block = blocks.intertwinor_block(params, pt, Fraction(r), 1)
                except DegenerateNormalizationError as err:
                    reports.append(CheckReport("det", point, SKIP, lhs=str(err)))
                    continue
                num = (sum_l - r) * (diff_l + r) * (s - r)
                den = (sum_l + r) * (diff_l - r) * (s + r)
                if block.det * den != num:
                    reports.append(CheckReport("det", point, FAIL,
                                               lhs=format_fraction(block.det * den),
                                               rhs=format_fraction(num)))
                    continue
                gamma_part = (gamma_ratio(sum_l + 2, r) * gamma_ratio(diff_l, r)).value
                lhs = det_fn(pt, r).value * (sum_l + r) * (diff_l - r)
                rhs = gamma_part ** 2 * (sum_l - r) * (diff_l + r)
                if lhs != rhs:
                    point["identity"] = "det-gamma"
                    reports.append(CheckReport("det", point, FAIL,
                                               lhs=format_fraction(lhs),
                                               rhs=format_fraction(rhs)))
                    continue
                reports.append(CheckReport("det", point, PASS))
    return reports


# -- even-order operator suite -------------------------------------------------------

def run_even_order_checks(
    grid: GridSpec,
    eigenvalue_fn: Callable = blocks.even_order_eigenvalue,
) -> List[CheckReport]:
    """Even-order operator consistency over the grid.

    Checks, per point: the r = 1 operator reproduces the second-order one
    exactly (values and block entries); the two multiplicity-one families
    differ exactly by (s+r)/(s-r); the block determinant is one fixed multiple
    of the gamma-quotient determinant across all levels (proportionality,
    per bundle and r); and the exact leading-symbol identity holds.
    """
    reports: List[CheckReport] = []
    for params in iter_bundles(grid):
        s = params.s
        ex_m = _exists_set(params, Family.MIXED, grid.j_max)
        ex_co = _exists_set(params, Family.COEXACT, grid.j_max)
        ex_ex = _exists_set(params, Family.EXACT, grid.j_max)
        orders = tuple(r for r in grid.r_values if r >= 1)  # operators start at order 2
        ratio_seen: Dict[int, Fraction] = {}
        for jp, j in iter_levels(grid):
            here_m, here_co, here_ex = ((jp, j) in ex_m, (jp, j) in ex_co, (jp, j) in ex_ex)
            if not (here_m or here_co or here_ex):
                continue
            pt = spectra.spectral_point(params, jp, j)
            for r in orders:
                point = _point_dict(params, jp, j, r)
                bad = None
                ev_co = eigenvalue_fn(Family.COEXACT, params, pt, r) if here_co else None
                ev_ex = eigenvalue_fn(Family.EXACT, params, pt, r) if here_ex else None
                if r == 1 and here_co:
                    want = blocks.order2_eigenvalue(Family.COEXACT, params, pt)
                    if ev_co != want:
                        bad = ("order2-coexact", format_fraction(ev_co), format_fraction(want))
                if bad is None and r == 1 and here_ex:
                    want = blocks.order2_eigenvalue(Family.EXACT, params, pt)
                    if ev_ex != want:
                        bad = ("order2-exact", format_fraction(ev_ex), format_fraction(want))
                if bad is None and here_co and here_ex:
                    if ev_co * (s - r) != ev_ex * (s + r):
                        bad = ("family-ratio", format_fraction(ev_co * (s - r)),
                               format_fraction(ev_ex * (s + r)))
                if bad is None and here_m:
                    block = blocks.even_order_block(params, pt, r)
                    if r == 1 and block != blocks.order2_block(params, pt):
                        bad = ("order2-block", repr(block),
                               repr(blocks.order2_block(params, pt)))
                    else:
                        det_gamma = spectra.mult2_det(pt, r).value
                        if det_gamma != 0:
                            ratio = block.det / det_gamma
                            seen = ratio_seen.get(r)
                            if seen is None:
                                ratio_seen[r] = ratio
                            elif ratio != seen:
                                bad = ("det-proportionality", format_fraction(ratio),
                                       format_fraction(seen))
                if bad is None:
                    reports.append(CheckReport("even-order", point, PASS))
                else:
                    name, lhs, rhs = bad
                    point["identity"] = name
                    reports.append(CheckReport("even-order", point, FAIL, lhs=lhs, rhs=rhs))
        for r in orders:
            for family in (Family.COEXACT, Family.EXACT):
                point = _point_dict(params, -1, -1, r, {"family": family.value,
                                                        "identity": "leading-symbol"})
                p_op, p_sym = blocks.leading_symbol_polynomials(family, params, r)
                signed = p_sym * Fraction((-1) ** r)
                ok, _ = blocks.proportional(p_op.top_part(), signed.top_part())
                reports.append(CheckReport("even-order", point, PASS if ok else FAIL,
                                           lhs=None if ok else repr(p_op.top_part()),
                                           rhs=None if ok else repr(signed.top_part())))
    return reports


# -- scalar reduction suite ------------------------------------------------------------

def run_scalar_reduction(
    grid: GridSpec,
    exists_fn: Callable = spectra.ktype_exists,
) -> List[CheckReport]:
    """Degree-zero degeneration: only the coexact function family survives.

    For k = 0 the exact and mixed labels must be empty at every level and the
    multiplicity-one gamma-quotient eigenvalue is the whole spectrum; the
    normalization radical degenerates only at s = +-r, which is counted.
    """
    reports: List[CheckReport] = []
    for params in iter_bundles(grid):
        if params.k != 0:
            continue
        for jp, j in iter_levels(grid):
            pt = spectra.spectral_point(params, jp, j)
            for r in grid.r_values:
                point = _point_dict(params, jp, j, r)
                if exists_fn(params, KTypeLabel(Family.EXACT, jp, j)):
                    reports.append(CheckReport("scalar-reduction", point, FAIL,
                                               lhs="exact family nonempty at k=0", rhs=""))
                    continue
                if exists_fn(params, KTypeLabel(Family.MIXED, jp, j)):
                    reports.append(CheckReport("scalar-reduction", point, FAIL,
                                               lhs="mixed family nonempty at k=0", rhs=""))
                    continue
                if not exists_fn(params, KTypeLabel(Family.COEXACT, jp, j)):
                    reports.append(CheckReport("scalar-reduction", point, FAIL,
                                               lhs="function family empty", rhs=""))
                    continue
                value = spectra.mult1_eigenvalue(pt, r)
                if value.is_pole:
                    reports.append(CheckReport("scalar-reduction", point, FAIL,
                                               lhs="pole in function spectrum", rhs=""))
                    continue
                if params.s == r or params.s == -r:
                    reports.append(CheckReport("scalar-reduction", point, SKIP,
                                               lhs="normalization degenerates at s=+-r"))
                    continue
                spectra.normalized_eigenvalue(Family.COEXACT, params, pt, r)
                reports.append(CheckReport("scalar-reduction", point, PASS))
    return reports


SUITES = {
    "diamond": run_diamond_checks,
    "interface": run_interface_checks,
    "det": run_det_checks,
    "even-order": run_even_order_checks,
    "scalar": run_scalar_reduction,
}


def run_all(grid: GridSpec) -> dict:
    """Run every suite on the grid; returns {name: reports}."""
    return {name: fn(grid) for name, fn in SUITES.items()}
