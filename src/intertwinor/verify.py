"""Grid-based consistency suites for the spectral formulas.

Every identity checked here is exact: grid points are swept in a fixed
lexicographic order, each check compares rationals (cross-multiplied where a
quotient could degenerate), and failures carry both sides of the violated
identity as witnesses.  Degenerate points (vanishing normalization factors)
are skipped and counted, never silently dropped; labels whose K-type is
empty are not grid points and are passed over.  A suite returns one record
per check and point, the plain dict that :func:`encode` writes, built by
:func:`check_report`.

The suites run on the library's own formulas, so a gate checks the code
that users run.  Every suite takes the integer kernels of :mod:`spectra`,
:mod:`blocks` and :mod:`arithmetic`, written once on doubled levels (2J',
2J, 2s and 2r, which clears every half-integer shift), and compares
unreduced integers by cross-multiplication; a failing record's witnesses
are the values it compared, converted by the helpers of the public
functions, which are thin wrappers over the same kernels.

Every suite walks a bundle's levels through one sweep, :func:`_levels`, over
the quadrant above a family's :func:`spectra.level_floor` (the even-order
suite above the elementwise least of its three floors, the scalar suite
from (0, 0), as it reports the empty levels).  Transition and gamma
quotients depend on the shifted levels and r alone, not on the bundle's
(k, a), so they sit in tables that live for one suite call: the gamma table
the diamond and even-order suites share, the det suite's (det, seed) pairs,
and the diamond table of failing comparisons, each with the constant offset
of the least levels its labels need.  The identities, per suite:

- diamond: path independence of the transition quotients
  (``diamond-path``) and their compatibility with the eigenvalue or
  determinant (``gamma-transition``);
- interface: the four compressed interface equations of the mixed block;
- det: the block determinant against the transition product, and the
  gamma-quotient determinant against it times the squared seed
  (``det-gamma``);
- even-order: second-order reproduction at r = 1 (``order2-coexact``,
  ``order2-exact``, ``order2-block``), ``family-ratio``,
  ``eigenvalue-proportionality``, ``det-proportionality`` and
  ``leading-symbol``, which compares bundle-free top parts once per order;
- scalar: the degree-zero degeneration.

A suite takes only the grid and reads each kernel through its module, so
tests perturb a gate by editing the library function it calls (negative
controls).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import orjson

from . import arithmetic, blocks, spectra
from .arithmetic import format_fraction
from .spectra import (
    DIRECTIONS,
    BundleParams,
    DegenerateNormalizationError,
    Family,
)

PASS = "pass"
FAIL = "fail"
SKIP = "skipped-degenerate"


def encode(record: dict) -> bytes:
    """The one JSON encoding of report and CLI records: sorted keys, no spaces.

    Records hold only ASCII strings, bools, dicts and integers in the signed
    64-bit range, so the bytes are those of ``json.dumps(record,
    sort_keys=True, separators=(",", ":"))``.
    """
    return orjson.dumps(record, option=orjson.OPT_SORT_KEYS)


@dataclass(frozen=True)
class GridSpec:
    """Finite sweep ranges; k is additionally capped at min(p, q) - 1."""

    p_max: int = 7
    q_max: int = 7
    j_max: int = 8
    r_values: Tuple[int, ...] = (1, 2, 3, 4)
    p_min: int = 2
    q_min: int = 2

    def __post_init__(self):
        arithmetic.require_ints(p_min=self.p_min, q_min=self.q_min, p_max=self.p_max,
                                q_max=self.q_max, j_max=self.j_max)
        for name, low in (("p_min", self.p_min), ("q_min", self.q_min)):
            if low < 2:
                raise ValueError(f"{name} must be >= 2, got {name}={low}")
        if self.p_max < self.p_min or self.q_max < self.q_min or self.j_max < 0:
            raise ValueError("empty grid ranges")
        if not self.r_values:
            raise ValueError("need at least one r value")
        for r in self.r_values:
            arithmetic.require_ints(r=r)
            if r < 0:
                raise ValueError(f"r values must be nonnegative, got r={r}")


def check_report(check: str, point: dict, status: str,
                 lhs: Optional[str] = None, rhs: Optional[str] = None) -> dict:
    """The record of one identity at one grid point, as :func:`encode` writes it.

    ``lhs`` and ``rhs`` are the failure witnesses (a skip's reason is its
    ``lhs``); each is left out of the record when it is None.
    """
    out = {"check": check, "point": point, "status": status}
    if lhs is not None:
        out["lhs"] = lhs
    if rhs is not None:
        out["rhs"] = rhs
    return out


def append_report(reports: Sequence[dict], fh) -> None:
    """Append the records to a file open for binary writing, one JSON line each."""
    fh.writelines(encode(rep) + b"\n" for rep in reports)


def write_report(reports: Sequence[dict], path) -> None:
    with open(path, "wb") as fh:
        append_report(reports, fh)


def summarize(reports: Sequence[dict]) -> dict:
    out = {PASS: 0, FAIL: 0, SKIP: 0}
    for rep in reports:
        out[rep["status"]] = out.get(rep["status"], 0) + 1
    out["total"] = len(reports)
    return out


# -- grid iteration ------------------------------------------------------------

def iter_bundles(grid: GridSpec) -> Iterator[BundleParams]:
    for p in range(grid.p_min, grid.p_max + 1):
        for q in range(grid.q_min, grid.q_max + 1):
            for k in range(0, min(p, q)):
                a_lo = max(0, k - (p - 1))
                a_hi = min(k, q - 1)
                for a in range(a_lo, a_hi + 1):
                    yield BundleParams(p, q, k, a)


def _order_texts(orders) -> List[Tuple[int, str]]:
    """Each order with its ``r`` text, formatted once per suite call."""
    return [(r, str(r)) for r in orders]


def slice_grids(grid: GridSpec) -> Iterator[GridSpec]:
    """The grid cut into its (p, q) slices, in sweep order.

    A suite's reports on the whole grid are its reports on these slices,
    joined in order, so a caller can run and write one slice at a time.
    """
    for p in range(grid.p_min, grid.p_max + 1):
        for q in range(grid.q_min, grid.q_max + 1):
            yield replace(grid, p_min=p, p_max=p, q_min=q, q_max=q)


def _levels(params: BundleParams, floor: Tuple[int, int], j_max: int,
            extra: Optional[dict] = None) -> Iterator[Tuple[int, int, int, int, dict]]:
    """(j', j, 2J', 2J, head) for the levels <= j_max at or above ``floor``, in sweep order.

    The doubled levels are those of :func:`spectra.doubled_level`, taken once
    per j' and, for the j row, once per call.  The head is a record's point
    without its order: each record copies it and sets the ``r`` text of
    :func:`_order_texts`, as a failing one adds keys.
    """
    p, q, k, a = params.p, params.q, params.k, params.a
    extra = extra or {}
    row = [(j, spectra.doubled_level(q, j)) for j in range(floor[1], j_max + 1)]
    for jp in range(floor[0], j_max + 1):
        jp2 = spectra.doubled_level(p, jp)
        for j, j2 in row:
            yield jp, j, jp2, j2, {"p": p, "q": q, "k": k, "a": a, "jp": jp, "j": j, **extra}


def _gamma_table():
    """The gamma-quotient pair at (mixed, 2J', 2J, r), shared by the bundles of one suite call."""
    @cache
    def gamma(mixed: bool, jp2: int, j2: int, r: int) -> Tuple[int, int]:
        return arithmetic.gamma_product(spectra.gamma_args(mixed, jp2, j2), r)
    return gamma


def _ratio_text(num: int, den: int) -> str:
    """A failure witness num/den in lowest terms; a zero denominator is a pole."""
    return format_fraction(Fraction(num, den)) if den else "pole"


# -- diamond suite ---------------------------------------------------------------

# the least (djp, dj) offset over each corner's labels (both midpoints and
# the corner), then its two-step paths, as (djp, dj) pairs
_CORNER_PATHS = (
    ((+1, -1), (((+1, +1), (+1, -1)), ((+1, -1), (+1, +1)))),
    ((-2, -1), (((-1, +1), (-1, -1)), ((-1, -1), (-1, +1)))),
    ((-1, +1), (((-1, +1), (+1, +1)), ((+1, +1), (-1, +1)))),
    ((-1, -2), (((-1, -1), (+1, -1)), ((+1, -1), (-1, -1)))),
)
_STEPS = tuple((d.djp, d.dj) for d in DIRECTIONS)


def run_diamond_checks(grid: GridSpec) -> List[dict]:
    """Path independence of the transition quantities plus gamma compatibility.

    One report per (bundle, family, j', j, r).  Path products compare the two
    two-step routes to each distance-two neighbor; gamma compatibility
    cross-multiplies eigenvalue (or determinant) ratios against the one-step
    transition quantities, so zeros of the spectral function need no special
    casing.  Both sides come from the library's doubled-level formulas
    (:func:`spectra.transition_factors`, :func:`spectra.gamma_args` and
    :func:`arithmetic.gamma_product`) as integer pairs.  The call builds one
    table of failing comparisons per kind, shared by the coexact and exact
    families; a record is the first of them whose labels lie at or above its
    family's :func:`spectra.level_floor`.
    """
    reports: List[dict] = []
    gamma = _gamma_table()
    tables = {mixed: _diamond_table(mixed, gamma) for mixed in (False, True)}
    orders = _order_texts(grid.r_values)
    for params in iter_bundles(grid):
        p, q = params.p, params.q
        for family in (Family.COEXACT, Family.EXACT, Family.MIXED):
            floor = spectra.level_floor(params, family)
            if floor is None:
                continue
            lo1, lo2 = floor
            fails = tables[family is Family.MIXED]
            fam_pt = {"family": family.value}
            for jp, j, _, _, head in _levels(params, floor, grid.j_max, fam_pt):
                for r, r_text in orders:
                    point = head.copy()
                    point["r"] = r_text
                    for djp, dj, fail in fails(p, q, jp, j, r):
                        if jp + djp >= lo1 and j + dj >= lo2:
                            point["identity"], lhs, rhs = fail
                            reports.append(check_report("diamond", point, FAIL, lhs, rhs))
                            break
                    else:
                        reports.append(check_report("diamond", point, PASS))
    return reports


def _diamond_table(mixed: bool, gamma):
    """The failing diamond comparisons at (p, q, j', j, r) in gate order.

    Corner routes first, then gamma-transition per direction.  Each
    comparison carries the least (j', j) offset over its labels: a corner's
    from :data:`_CORNER_PATHS`, a gamma comparison's its direction.  Every
    family's labels fill a quadrant, so they all exist exactly when the
    levels at that offset lie in it.  A label with a negative level never
    exists, so no route is built through one; that guard needs the levels
    themselves, which is why entries are keyed by them and the sphere
    parameters, and take the doubled levels of :func:`spectra.doubled_level`.
    A route with a vanishing step is undefined in every bundle.
    """
    def transition(jp2, j2, r2, d1, d2):
        num = den = 1
        for n, d in spectra.transition_factors(mixed, jp2, j2, r2, d1, d2):
            num, den = num * n, den * d
        return num, den

    @cache
    def steps(p, q, jp, j, r) -> dict:
        # transition pairs from (jp, j) to each neighbor on the lattice, by direction
        jp2, j2 = spectra.doubled_level(p, jp), spectra.doubled_level(q, j)
        return {(d1, d2): transition(jp2, j2, 2 * r, d1, d2)
                for d1, d2 in _STEPS if jp + d1 >= 0 and j + d2 >= 0}

    @cache
    def fails(p, q, jp, j, r) -> list:
        here = steps(p, q, jp, j, r)
        out = []
        for (djp, dj), routes in _CORNER_PATHS:
            prods = []
            for first, second in routes:
                one = here.get(first)
                two = one and steps(p, q, jp + first[0], j + first[1], r).get(second)
                if not two or 0 in one or 0 in two:
                    break
                prods.append((one[0] * two[0], one[1] * two[1]))
            else:
                (num_a, den_a), (num_b, den_b) = prods
                if num_a * den_b != num_b * den_a:
                    out.append((djp, dj, ("diamond-path", _ratio_text(num_a, den_a),
                                          _ratio_text(num_b, den_b))))
        jp2, j2 = spectra.doubled_level(p, jp), spectra.doubled_level(q, j)
        src_n, src_d = gamma(mixed, jp2, j2, r)
        for (d1, d2), (n, d) in here.items():
            # a unit step in a level is a step of 2 in its doubled level
            tgt_n, tgt_d = gamma(mixed, jp2 + 2 * d1, j2 + 2 * d2, r)
            lhs, rhs = tgt_n * src_d * d, src_n * tgt_d * n
            if lhs != rhs:
                out.append((d1, d2, ("gamma-transition", str(lhs), str(rhs))))
        return out
    return fails


# -- interface suite --------------------------------------------------------------

def run_interface_checks(grid: GridSpec) -> List[dict]:
    """The four compressed interface equations, exactly, at unit seed scale.

    All terms are homogeneous of degree one in the seed eigenvalue, so the
    equations are checked with the seed set to 1; the seed's actual squared
    value is covered by the determinant suite.  The block comes from
    :func:`blocks.block_pair`, the kernel of :func:`blocks.intertwinor_block`,
    as integer (entries, denominator); each equation is cross-multiplied to
    integers.
    """
    reports: List[dict] = []
    orders = _order_texts(grid.r_values)
    for params in iter_bundles(grid):
        floor = spectra.level_floor(params, Family.MIXED)
        if floor is None:
            continue
        s2, sg = params.s2, params.sign
        # 1 - c1 and 1 - c2 as integer pairs per level j; a mixed label has
        # a >= 1 and j >= 1, so nu and alpha are at least 2 and neither degenerates
        constants = {}
        for j in range(floor[1], grid.j_max + 1):
            c1, c2 = blocks.interface_constants(params, j)
            constants[j] = ((1 - c1).numerator, (1 - c1).denominator,
                            (1 - c2).numerator, (1 - c2).denominator)
        for jp, j, jp2, j2, head in _levels(params, floor, grid.j_max):
            u1, v1, u2, v2 = constants[j]  # 1 - c1 = u1/v1, 1 - c2 = u2/v2
            n1, n2 = blocks.shift_values(params, j2)  # the equations take n1/2, n2/2
            lap1, lap2 = blocks.laplace_values(params, jp2, j2)
            lap = lap1 * lap2  # 16 times the product of the factor Laplacians
            for r, r_text in orders:
                point = head.copy()
                point["r"] = r_text
                r2 = 2 * r
                try:
                    (e11, e12, e21, e22), den = blocks.block_pair(params, jp2, j2, r2)
                except DegenerateNormalizationError as err:
                    reports.append(check_report("interface", point, SKIP, lhs=str(err)))
                    continue
                t2n, t2d = s2 - r2, s2 + r2  # t2 = (s-r)/(s+r), the exact partner's seed
                m2 = 8 * (n2 - r2) * v2 * t2d
                coupling = sg * u2 * lap * t2d
                # (name, left, right, common denominator of both sides)
                eqs = (
                    ("coexact-into-pair", 2 * sg * u1 * e11 + (n1 - r2) * v1 * e12,
                     2 * sg * u1 * den, 2 * v1 * den),
                    ("coexact-onto-partner", 2 * sg * u1 * e21 + (n1 - r2) * v1 * e22,
                     (n1 + r2) * v1 * den, 2 * v1 * den),
                    ("exact-onto-partner", m2 * e21 - coupling * e22,
                     -sg * u2 * lap * den * t2n, lap * v2 * den * t2d),
                    ("exact-into-pair", m2 * e11 - coupling * e12,
                     8 * (n2 + r2) * v2 * den * t2n, 16 * v2 * den * t2d),
                )
                status, lhs, rhs = PASS, None, None
                for name, left, right, scale in eqs:
                    if left != right:
                        status = FAIL
                        point["equation"] = name
                        lhs, rhs = _ratio_text(left, scale), _ratio_text(right, scale)
                        break
                reports.append(check_report("interface", point, status, lhs=lhs, rhs=rhs))
    return reports


# -- determinant suite -------------------------------------------------------------

def run_det_checks(grid: GridSpec) -> List[dict]:
    """Determinant factorization of the mixed block, in two exact forms.

    First the block determinant at unit seed against the displayed transition
    product; then the gamma-quotient determinant against the same product
    times the squared seed (cross-multiplied, so that s = r and lattice zeros
    are not spurious degeneracies).  The block, the determinant
    (:func:`spectra.gamma_args`) and the seed's gamma part
    (:func:`spectra.seed_gamma_args`) are the library's integer kernels.
    """
    reports: List[dict] = []

    @cache
    def gammas(jp2, j2, r):
        # the determinant and seed gamma pairs, shared by every bundle of the call
        return (arithmetic.gamma_product(spectra.gamma_args(True, jp2, j2), r),
                arithmetic.gamma_product(spectra.seed_gamma_args(jp2, j2), r))

    orders = _order_texts(grid.r_values)
    for params in iter_bundles(grid):
        floor = spectra.level_floor(params, Family.MIXED)
        if floor is None:
            continue
        s2 = params.s2
        for _, _, jp2, j2, head in _levels(params, floor, grid.j_max):
            plus, minus = jp2 + j2, jp2 - j2
            for r, r_text in orders:
                point = head.copy()
                point["r"] = r_text
                r2 = 2 * r
                try:
                    (e11, e12, e21, e22), den = blocks.block_pair(params, jp2, j2, r2)
                except DegenerateNormalizationError as err:
                    reports.append(check_report("det", point, SKIP, lhs=str(err)))
                    continue
                # the transition product, each side 8 times (J'+-J+-r)(J'-+J-+r)(s-+r)
                num = (plus - r2) * (minus + r2) * (s2 - r2)
                lhs = (e11 * e22 - e12 * e21) * (plus + r2) * (minus - r2) * (s2 + r2)
                if lhs != num * den * den:
                    reports.append(check_report("det", point, FAIL,
                                                 lhs=_ratio_text(lhs, 8 * den * den),
                                                 rhs=_ratio_text(num, 8)))
                    continue
                (det_n, det_d), (seed_n, seed_d) = gammas(jp2, j2, r)
                lhs = det_n * (plus + r2) * (minus - r2)
                rhs = seed_n * seed_n * (plus - r2) * (minus + r2)
                if lhs * seed_d * seed_d != rhs * det_d:
                    point["identity"] = "det-gamma"
                    reports.append(check_report("det", point, FAIL,
                                                 lhs=_ratio_text(lhs, 4 * det_d),
                                                 rhs=_ratio_text(rhs, 4 * seed_d * seed_d)))
                    continue
                reports.append(check_report("det", point, PASS))
    return reports


# -- even-order operator suite -------------------------------------------------------

def _same_ratio(seen: dict, key, num: int, den: int):
    """Record num/den as the ratio under ``key``, or a witness pair if it differs."""
    seen_num, seen_den = seen.setdefault(key, (num, den))
    if num * seen_den != seen_num * den:
        return _ratio_text(num, den), _ratio_text(seen_num, seen_den)
    return None


def run_even_order_checks(grid: GridSpec) -> List[dict]:
    """Even-order operator consistency over the grid.

    Checks, per point: the r = 1 operator reproduces the second-order one
    exactly (values and block entries); the two multiplicity-one families
    differ exactly by (s+r)/(s-r); each multiplicity-one eigenvalue is one
    fixed multiple of the gamma-quotient eigenvalue across all levels, and
    vanishes where it does (eigenvalue proportionality, per bundle, family
    and r); the block determinant is one fixed multiple of the
    gamma-quotient determinant across all levels (det proportionality, per
    bundle and r).  Per order, the product's top part equals the symbol's
    binomial row (leading symbol), both built once per call, as no bundle
    enters them.  Every value is an integer pair or polynomial from the
    library's kernels, and a witness is the value compared.
    """
    reports: List[dict] = []
    orders = _order_texts(r for r in grid.r_values if r >= 1)  # operators start at order 2
    x1, x2 = blocks.BivariatePoly.var1(), blocks.BivariatePoly.var2()
    # per order, whether the product's top part is the symbol's binomial row,
    # the same for all bundles
    symbol_ok = {r: blocks.even_product(x1, x2, r).top_part() == blocks.symbol_row(r)
                 for r, _ in orders}

    gamma = _gamma_table()
    for params in iter_bundles(grid):
        s2 = params.s2
        floors = [spectra.level_floor(params, family)
                  for family in (Family.MIXED, Family.COEXACT, Family.EXACT)]
        det_seen: Dict[int, Tuple[int, int]] = {}
        eig_seen: Dict[Tuple[str, int], Tuple[int, int]] = {}
        # no family has a K-type below the elementwise least of its floors
        present = [floor for floor in floors if floor is not None]
        levels = _levels(params, tuple(map(min, zip(*present))), grid.j_max) if present else ()
        for jp, j, jp2, j2, head in levels:
            here_m, here_co, here_ex = (spectra.above_floor(floor, jp, j) for floor in floors)
            if not (here_m or here_co or here_ex):
                continue
            for r, r_text in orders:
                point = head.copy()
                point["r"] = r_text
                r2 = 2 * r
                bad = None
                evs = [(family, blocks.even_order_pair(family, params, jp2, j2, r))
                       for family, here in ((Family.COEXACT, here_co), (Family.EXACT, here_ex))
                       if here]
                if r == 1:
                    for family, (ev_n, ev_d) in evs:
                        want_n, want_d = blocks.order2_pair(family, params, jp2, j2)
                        if ev_n * want_d != want_n * ev_d:
                            bad = ("order2-" + family.value, _ratio_text(ev_n, ev_d),
                                   _ratio_text(want_n, want_d))
                            break
                if bad is None and len(evs) == 2:
                    (_, (co_n, co_d)), (_, (ex_n, ex_d)) = evs
                    lhs, rhs = co_n * (s2 - r2), ex_n * (s2 + r2)
                    if lhs * ex_d != rhs * co_d:
                        bad = ("family-ratio", _ratio_text(lhs, 2 * co_d),
                               _ratio_text(rhs, 2 * ex_d))
                if bad is None and evs:
                    g_n, g_d = gamma(False, jp2, j2, r)
                    for family, (ev_n, ev_d) in evs:
                        if g_n == 0:
                            witness = (_ratio_text(ev_n, ev_d), "0") if ev_n else None
                        else:
                            witness = _same_ratio(eig_seen, (family.value, r),
                                                  ev_n * g_d, ev_d * g_n)
                        if witness:
                            bad = ("eigenvalue-proportionality",) + witness
                            break
                if bad is None and here_m:
                    entries, den = blocks.even_block_pair(params, jp2, j2, r)
                    if r == 1:
                        order2, den2 = blocks.core_pair(params, jp2, j2, 2)
                        if any(e * den2 != o * den for e, o in zip(entries, order2)):
                            bad = ("order2-block", repr(blocks.two_by_two(entries, den)),
                                   repr(blocks.two_by_two(order2, den2)))
                    if bad is None:
                        det_n, det_d = gamma(True, jp2, j2, r)
                        if det_n != 0:
                            e11, e12, e21, e22 = entries
                            witness = _same_ratio(det_seen, r, (e11 * e22 - e12 * e21) * det_d,
                                                  den * den * det_n)
                            if witness:
                                bad = ("det-proportionality",) + witness
                if bad is None:
                    reports.append(check_report("even-order", point, PASS))
                else:
                    name, lhs, rhs = bad
                    point["identity"] = name
                    reports.append(check_report("even-order", point, FAIL, lhs=lhs, rhs=rhs))
        heads = [(family, {"p": params.p, "q": params.q, "k": params.k, "a": params.a,
                           "jp": -1, "j": -1, "family": family.value,
                           "identity": "leading-symbol"})
                 for family in (Family.COEXACT, Family.EXACT)]
        for r, r_text in orders:
            for family, head in heads:
                point = head.copy()
                point["r"] = r_text
                # both sides carry the family's prefactor, and a zero one empties them
                if symbol_ok[r] or blocks.order_prefactor(family, params, r) == 0:
                    reports.append(check_report("even-order", point, PASS))
                else:
                    lhs, rhs = map(repr, blocks.leading_symbol_polynomials(family, params, r))
                    reports.append(check_report("even-order", point, FAIL, lhs=lhs, rhs=rhs))
    return reports


# -- scalar reduction suite ------------------------------------------------------------

def run_scalar_reduction(grid: GridSpec) -> List[dict]:
    """Degree-zero degeneration: only the coexact function family survives.

    For k = 0 the exact and mixed labels must be empty at every level and the
    multiplicity-one gamma-quotient eigenvalue (the kernel of
    :func:`spectra.normalized_eigenvalue`) is the whole spectrum; the
    normalization radical degenerates only at s = +-r, which is counted.
    """
    reports: List[dict] = []
    orders = _order_texts(grid.r_values)
    for params in iter_bundles(grid):
        if params.k != 0:
            continue
        floors = [spectra.level_floor(params, family)
                  for family in (Family.EXACT, Family.MIXED, Family.COEXACT)]
        for jp, j, jp2, j2, head in _levels(params, (0, 0), grid.j_max):
            # the existence verdicts do not depend on r
            exact, mixed, coexact = (spectra.above_floor(floor, jp, j) for floor in floors)
            if exact:
                bad = "exact family nonempty at k=0"
            elif mixed:
                bad = "mixed family nonempty at k=0"
            elif not coexact:
                bad = "function family empty"
            else:
                bad = None
            xs2 = spectra.gamma_args(False, jp2, j2)
            for r, r_text in orders:
                point = head.copy()
                point["r"] = r_text
                if bad:
                    reports.append(check_report("scalar-reduction", point, FAIL, lhs=bad, rhs=""))
                elif params.s2 == 2 * r or params.s2 == -2 * r:
                    reports.append(check_report("scalar-reduction", point, SKIP,
                                                 lhs="normalization degenerates at s=+-r"))
                elif arithmetic.gamma_product(xs2, r)[1] == 0:
                    reports.append(check_report("scalar-reduction", point, FAIL,
                                                 lhs="pole in function spectrum", rhs=""))
                else:
                    reports.append(check_report("scalar-reduction", point, PASS))
    return reports


SUITES = {
    "diamond": run_diamond_checks,
    "interface": run_interface_checks,
    "det": run_det_checks,
    "even-order": run_even_order_checks,
    "scalar": run_scalar_reduction,
}

