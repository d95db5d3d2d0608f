import copy
import dataclasses
import hashlib
import itertools
import re
import types
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import pytest

from intertwinor.arithmetic import POLE, IndeterminateError
from intertwinor.blocks import (
    BivariatePoly,
    TwoByTwo,
    block_pair,
    block_scale_squared,
    core_pair,
    entry_sums,
    even_block_pair,
    even_order_pair,
    even_order_block,
    even_order_eigenvalue,
    even_product,
    interface_constants,
    intertwinor_block,
    laplace_values,
    leading_symbol_polynomials,
    order2_pair,
    order_prefactor,
    shift_values,
    symbol_row,
    two_by_two,
)
from intertwinor.spectra import (
    BundleParams,
    DegenerateNormalizationError,
    Family,
    KTypeLabel,
    SpectralPoint,
    ktype_exists,
    level_floor,
    mult2_det,
    spectral_point,
)

PARAMS = BundleParams(4, 6, 2, 1)  # s = 2


# reference factor sphere spectra, independent of the library's doubled levels

def coexact_laplacian(dim: int, c: int, j: int) -> int:
    """Riemannian (delta d)-eigenvalue on coexact c-forms of level j on S^dim."""
    return (j + c) * (j + dim - 1 - c)


def exact_laplacian(dim: int, c: int, j: int) -> int:
    """Riemannian (d delta)-eigenvalue on exact c-forms of level j on S^dim."""
    return (j + c - 1) * (j + dim - c)


@dataclass(frozen=True)
class ProjectionConstants:
    """Scaling constants for conformal-factor projections on a round sphere.

    For degree-k level-j harmonic forms on S^n, multiplying by a first-order
    conformal factor and projecting to a neighboring level commutes with d
    and delta up to these ratios.
    """

    mu: int
    nu: int
    alpha: int
    beta: int


def projection_constants(n: int, k: int, j: int) -> ProjectionConstants:
    """The reference constants mu, nu, alpha, beta for S^n, degree k, level j."""
    return ProjectionConstants(mu=j + k, nu=n - 1 - k + j, alpha=j - 1 + k, beta=n - k + j)


def order2(family, params, pt):
    return Fraction(*order2_pair(family, params, pt.jp2, pt.j2))


def order2_block(params, pt):
    """The second-order block on a mixed pair: the core of the order-2r block at r = 1."""
    return two_by_two(*core_pair(params, pt.jp2, pt.j2, 2))


def mixed_points(params, j_hi=5):
    for jp, j in itertools.product(range(j_hi + 1), repeat=2):
        if ktype_exists(params, KTypeLabel(Family.MIXED, jp, j)):
            yield spectral_point(params, jp, j)


class TestProjectionConstants:
    def test_values(self):
        pc = projection_constants(3, 1, 2)
        assert (pc.mu, pc.nu, pc.alpha, pc.beta) == (3, 3, 2, 4)

    def test_low_degree(self):
        pc = projection_constants(2, 0, 1)
        assert (pc.mu, pc.nu, pc.alpha, pc.beta) == (1, 2, 0, 3)


DOUBLED = ("root1", "root_mix2", "sign", "s2", "w2")


class TestDoubled:
    def test_stores_only_independent_constants(self):
        # the bundle's doubled-level constants are derived from (p, q, k, a)
        # and take no part in its constructor, repr, == or hash
        assert [f.name for f in dataclasses.fields(BundleParams) if f.init] == ["p", "q", "k", "a"]
        with pytest.raises(TypeError):
            BundleParams(4, 6, 2, 1, 2)
        params = BundleParams(4, 6, 2, 1)
        edited = copy.copy(params)
        for name in DOUBLED:
            object.__setattr__(edited, name, getattr(params, name) + 1)
        assert repr(edited) == repr(params) == "BundleParams(p=4, q=6, k=2, a=1)"
        assert edited == params and hash(edited) == hash(params)

    def test_constants_match_their_closed_forms(self):
        rows = []
        for p, q in itertools.product(range(2, 13), repeat=2):
            for c1, a in itertools.product(range(p), range(q)):
                k = c1 + a
                b = BundleParams(p, q, k, a)
                assert b.s2 == p + q - 2 - 2 * k
                assert b.w2 == q - p + 2 * k - 4 * a + 2
                assert b.sign == (-1) ** (k - a + 1)
                rows.append((p, q, k, a) + tuple(getattr(b, name) for name in DOUBLED))
        # the digest of all five, taken before they moved onto the bundle
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
            "5f21e985df55712ed1a4ee7b285c9c98761697e8f736fa1195221ef1a3cb947b"


def kernel_outcomes(b, jp2, j2, r):
    """Every doubled-level kernel on the bundle constants ``b``, a raise as its message."""
    def outcome(kernel, *args):
        try:
            return kernel(*args)
        except DegenerateNormalizationError as err:
            return str(err)

    out = [laplace_values(b, jp2, j2), shift_values(b, j2),
           entry_sums(b, *laplace_values(b, jp2, j2), 2 * r), core_pair(b, jp2, j2, 2 * r),
           outcome(block_pair, b, jp2, j2, 2 * r), even_block_pair(b, jp2, j2, r)]
    for family in (Family.COEXACT, Family.EXACT):
        out += [order2_pair(family, b, jp2, j2), order_prefactor(family, b, r),
                even_order_pair(family, b, jp2, j2, r)]
    return out


class TestKernelSeam:
    def test_kernels_read_the_bundle_only_through_its_constants(self):
        # any object carrying the five constants serves as the bundle, so a
        # tracer can pass root1 and root_mix2 as variables
        for p, q in itertools.product(range(2, 8), repeat=2):
            for c1, a in itertools.product(range(p), range(q)):
                params = BundleParams(p, q, c1 + a, a)
                seam = types.SimpleNamespace(**{name: getattr(params, name) for name in DOUBLED})
                for (jp, j), r in itertools.product(((0, 0), (1, 2), (3, 1)), (1, 2, 3)):
                    pt = spectral_point(params, jp, j)
                    assert kernel_outcomes(seam, pt.jp2, pt.j2, r) == \
                        kernel_outcomes(params, pt.jp2, pt.j2, r), (params, jp, j, r)


class TestLaplaceData:
    def test_against_factor_spectra(self):
        # both summands of the pair share the factor eigenvalues; the kernel
        # returns four times (lap1, lap2)
        params = BundleParams(5, 4, 2, 1)
        pt = spectral_point(params, 2, 3)
        lap1, lap2 = laplace_values(params, pt.jp2, pt.j2)
        d1, d2 = params.p - 1, params.q - 1
        c1, a = params.k - params.a, params.a
        assert lap1 == -4 * coexact_laplacian(d1, c1, 2)
        assert lap1 == -4 * exact_laplacian(d1, c1 + 1, 2)
        assert lap2 == 4 * exact_laplacian(d2, a, 3)
        assert lap2 == 4 * coexact_laplacian(d2, a - 1, 3)


class TestCasimirShifts:
    def test_interface_shifts_from_factor_spectra(self):
        # independent recomputation as plain Laplacian differences at fixed bidegree
        for params in (PARAMS, BundleParams(5, 4, 2, 1), BundleParams(3, 7, 2, 2)):
            d1, d2 = params.p - 1, params.q - 1
            c1, a = params.k - params.a, params.a
            for jp, j in itertools.product(range(1, 4), repeat=2):
                pt = spectral_point(params, jp, j)
                n1 = (exact_laplacian(d1, c1 + 1, jp) + coexact_laplacian(d2, a - 1, j)) \
                    - (coexact_laplacian(d1, c1 + 1, jp) + coexact_laplacian(d2, a - 1, j + 1))
                n2 = (coexact_laplacian(d1, c1, jp) + exact_laplacian(d2, a, j)) \
                    - (exact_laplacian(d1, c1, jp) + exact_laplacian(d2, a, j + 1))
                assert shift_values(params, pt.j2) == (n1, n2)


class TestBlockEntries:
    def test_r_zero_is_diagonal(self):
        block = intertwinor_block(PARAMS, spectral_point(PARAMS, 2, 3), 0, 1)
        assert block.e12 == 0 and block.e21 == 0
        assert block.e11 == block.e22

    def test_degenerate_factor_is_named(self):
        params = BundleParams(2, 4, 2, 1)  # s = 0
        pt = spectral_point(params, 1, 1)
        with pytest.raises(DegenerateNormalizationError, match="s\\+r"):
            intertwinor_block(params, pt, Fraction(0), 1)
        pt_line = spectral_point(params, 3, 1)  # J' - J - r = 0 at r = 1
        with pytest.raises(DegenerateNormalizationError, match="J'-J-r"):
            intertwinor_block(params, pt_line, 1, 1)

    def test_denominator_is_its_three_factors(self):
        # the factors in doubled levels, with 2s = p + q - 2 - 2k derived here: a
        # point is skipped exactly when one vanishes, naming the first that does
        names = ("J'+J+r", "J'-J-r", "s+r")
        first_zero = Counter()
        for p, q, k, a in ((2, 4, 2, 1), (4, 6, 2, 1), (3, 3, 1, 0), (5, 3, 2, 1)):
            params = BundleParams(p, q, k, a)
            for jp2, j2, r2 in itertools.product(range(-6, 7), range(-6, 7), range(-4, 5, 2)):
                factors = (jp2 + j2 + r2, jp2 - j2 - r2, p + q - 2 - 2 * k + r2)
                zero = [name for name, value in zip(names, factors) if value == 0]
                if not zero:
                    assert block_pair(params, jp2, j2, r2) == (
                        core_pair(params, jp2, j2, r2)[0],
                        -2 * factors[0] * factors[1] * factors[2])
                    continue
                with pytest.raises(DegenerateNormalizationError) as err:
                    block_pair(params, jp2, j2, r2)
                assert str(err.value) == f"normalization factor {zero[0]} vanishes"
                first_zero[zero[0], len(zero)] += 1
        # each factor is the first zero somewhere, and some points have several
        assert {name for name, _ in first_zero} == set(names)
        assert any(count > 1 for _, count in first_zero)

    def test_entries_scale_linearly_in_seed(self):
        pt = spectral_point(PARAMS, 2, 3)
        one = intertwinor_block(PARAMS, pt, 1, 1)
        five = intertwinor_block(PARAMS, pt, 1, 5)
        assert five == TwoByTwo(5 * one.e11, 5 * one.e12, 5 * one.e21, 5 * one.e22)

    def test_det_factorization(self):
        s = PARAMS.s
        for pt in mixed_points(PARAMS):
            for r in (1, 2, 3, 4):
                if pt.Jp - pt.J - r == 0:
                    continue
                block = intertwinor_block(PARAMS, pt, r, 1)
                expected = ((pt.Jp + pt.J - r) * (pt.Jp - pt.J + r) * (s - r)) \
                    / ((pt.Jp + pt.J + r) * (pt.Jp - pt.J - r) * (s + r))
                assert block.det == expected


class TestSeedScale:
    def test_r_zero(self):
        assert block_scale_squared(PARAMS, spectral_point(PARAMS, 2, 3), 0) == 1

    def test_generic_value(self):
        # (s+r)/(s-r) * [rising(2,1) * rising(1/2,1)]^2 at (5/2, 1/2)
        pt = SpectralPoint(jp2=5, j2=1)
        assert block_scale_squared(PARAMS, pt, 1) == 3

    def test_pole_at_s_equals_r(self):
        params = BundleParams(4, 6, 3, 1)  # s = 1
        assert block_scale_squared(params, SpectralPoint(jp2=6, j2=2), 1) is POLE

    def test_s_equals_r_zero_is_indeterminate(self):
        params = BundleParams(2, 2, 1, 1)  # s = 0
        with pytest.raises(IndeterminateError, match="0 / 0 is indeterminate"):
            block_scale_squared(params, SpectralPoint(jp2=2, j2=2), 0)

    def test_det_consistency_with_gamma_form(self):
        # gamma-quotient det equals the transition product times the squared seed
        for pt in mixed_points(PARAMS, 4):
            for r in (1, 3):
                if pt.Jp - pt.J - r == 0:
                    continue
                seed_sq = block_scale_squared(PARAMS, pt, r)
                if seed_sq is POLE:
                    continue
                det = mult2_det(pt, r)
                s = PARAMS.s
                product = ((pt.Jp + pt.J - r) * (pt.Jp - pt.J + r) * (s - r)) \
                    / ((pt.Jp + pt.J + r) * (pt.Jp - pt.J - r) * (s + r))
                assert det == product * seed_sq


class TestInterfaceEquations:
    @pytest.mark.parametrize("params", [
        PARAMS, BundleParams(5, 4, 2, 1), BundleParams(3, 7, 3, 2),
        BundleParams(2, 2, 1, 1), BundleParams(6, 3, 2, 1),
    ])
    def test_all_four_equations(self, params):
        s = params.s
        sg = -1 if (params.k - params.a) % 2 == 0 else 1
        for jp, j in itertools.product(range(5), repeat=2):
            if not ktype_exists(params, KTypeLabel(Family.MIXED, jp, j)):
                continue
            pt = spectral_point(params, jp, j)
            c1, c2 = interface_constants(params, j)
            n1, n2 = (Fraction(n, 2) for n in shift_values(params, pt.j2))
            lap1, lap2 = laplace_values(params, pt.jp2, pt.j2)
            lap = Fraction(lap1 * lap2, 16)
            for r in (1, 2, 3):
                if (pt.Jp + pt.J + r) * (pt.Jp - pt.J - r) * (s + r) == 0:
                    continue
                b = intertwinor_block(params, pt, r, 1)
                t1 = Fraction(1)
                t2 = (s - r) / (s + r)
                assert sg * (1 - c1) * b.e11 + (n1 - r) * b.e12 == sg * (1 - c1) * t1
                assert sg * (1 - c1) * b.e21 + (n1 - r) * b.e22 == (n1 + r) * t1
                assert (n2 - r) / lap * b.e21 - sg * (1 - c2) * b.e22 == -sg * (1 - c2) * t2
                assert (n2 - r) * b.e11 - sg * (1 - c2) * lap * b.e12 == (n2 + r) * t2

    def test_constants_are_projection_ratios(self):
        # c1 on coexact (a-1)-forms and c2 on exact a-forms at level j+1 on S^(q-1)
        messages = set()
        for p, q in itertools.product(range(2, 13), repeat=2):
            for k in range(min(p, q)):
                for a in range(max(0, k - (p - 1)), min(k, q - 1) + 1):
                    params = BundleParams(p, q, k, a)
                    for j in range(15):
                        nu = projection_constants(q - 1, a - 1, j + 1).nu
                        alpha = projection_constants(q - 1, a, j + 1).alpha
                        if nu == 1 or alpha == 1:
                            message = "c1 degenerates: nu = 1" if nu == 1 \
                                else "c2 degenerates: alpha = 1"
                            with pytest.raises(DegenerateNormalizationError) as err:
                                interface_constants(params, j)
                            assert str(err.value) == message
                            messages.add(message)
                            continue
                        c1, c2 = interface_constants(params, j)
                        assert c1 == Fraction(nu, nu - 1)
                        assert c2 == Fraction(alpha, alpha - 1)
        assert messages == {"c1 degenerates: nu = 1", "c2 degenerates: alpha = 1"}

    def test_no_mixed_label_degenerates_the_constants(self):
        # a mixed label has a >= 1 and j >= 1, so nu, alpha >= 2: the interface
        # suite reads the constants at every mixed level without a skip path
        checked = 0
        for p, q in itertools.product(range(2, 13), repeat=2):
            for k in range(min(p, q)):
                for a in range(max(0, k - (p - 1)), min(k, q - 1) + 1):
                    params = BundleParams(p, q, k, a)
                    floor = level_floor(params, Family.MIXED)
                    if floor is None:
                        continue
                    for j in range(floor[1], 16):
                        interface_constants(params, j)
                        checked += 1
        assert checked > 0


class TestOrderTwo:
    def test_coexact_value(self):
        params = BundleParams(2, 2, 1, 0)  # s = 0
        pt = spectral_point(params, 2, 1)
        assert order2(Family.COEXACT, params, pt) == -3

    def test_vanishes_on_the_diagonal(self):
        pt = spectral_point(PARAMS, 3, 2)  # J' = 4 = J
        assert pt.Jp == pt.J
        assert order2(Family.COEXACT, PARAMS, pt) == 0
        assert order2(Family.EXACT, PARAMS, pt) == 0

    def test_block_det_proportional_to_gamma_det(self):
        s = PARAMS.s
        expected = 16 * (s * s - 1)
        for pt in mixed_points(PARAMS):
            det = mult2_det(pt, 1)
            if det == 0:
                continue
            assert order2_block(PARAMS, pt).det / det == expected


def family_offsets(family, params):
    """Doubled centered degrees whose squares enter the family's square-root operators."""
    if family is Family.COEXACT:
        return params.root1, params.root_mix2 - 2
    if family is Family.EXACT:
        return params.root1 + 2, params.root_mix2
    return params.root1, params.root_mix2


class TestEvenOrder:
    def test_r1_reproduces_order2(self):
        for params in (PARAMS, BundleParams(5, 4, 2, 1), BundleParams(3, 3, 1, 0)):
            for jp, j in itertools.product(range(4), repeat=2):
                for family in (Family.COEXACT, Family.EXACT):
                    if not ktype_exists(params, KTypeLabel(family, jp, j)):
                        continue
                    pt = spectral_point(params, jp, j)
                    assert even_order_eigenvalue(family, params, pt, 1) \
                        == order2(family, params, pt)
                if ktype_exists(params, KTypeLabel(Family.MIXED, jp, j)):
                    pt = spectral_point(params, jp, j)
                    assert even_order_block(params, pt, 1) == order2_block(params, pt)

    def test_order_four_product_value(self):
        # (s + r) times the odd-offset product at (5/2, 1/2): 4 * (4*2*3*1)
        pt = SpectralPoint(jp2=5, j2=1)
        assert (PARAMS.s + 2) * Fraction(even_product(pt.jp2, pt.j2, 2), 4 ** 2) == 96

    def test_odd_orders_vanish_on_diagonal(self):
        pt = SpectralPoint(jp2=7, j2=7)
        for r in (1, 3):
            assert even_product(pt.jp2, pt.j2, r) == 0
        assert even_product(pt.jp2, pt.j2, 2) != 0

    def test_family_ratio(self):
        s = PARAMS.s
        for pt in mixed_points(PARAMS, 4):
            for r in (1, 2, 3, 4):
                co = even_order_eigenvalue(Family.COEXACT, PARAMS, pt, r)
                ex = even_order_eigenvalue(Family.EXACT, PARAMS, pt, r)
                assert co * (s - r) == ex * (s + r)

    def test_block_det_ratio_constant(self):
        s = PARAMS.s
        for r in (1, 2, 3, 4):
            ratios = set()
            for pt in mixed_points(PARAMS):
                det = mult2_det(pt, r)
                if det == 0:
                    continue
                ratios.add(even_order_block(PARAMS, pt, r).det / det)
            assert ratios == {Fraction(4 ** (2 * r)) * (s * s - r * r)}

    def test_factor_values_match_shifted_levels(self):
        # 4 lambda + o^2 = root^2 with root 2J' on the first factor and 2J on
        # the second; both sides have degree <= 2 in the level, so agreement
        # at three levels proves the identity at every level
        first = {Family.COEXACT: coexact_laplacian, Family.EXACT: exact_laplacian,
                 Family.MIXED: coexact_laplacian}
        second = {Family.COEXACT: coexact_laplacian, Family.EXACT: exact_laplacian,
                  Family.MIXED: exact_laplacian}
        for p, q in itertools.product(range(2, 13), repeat=2):
            for c1, a in itertools.product(range(p), range(q)):
                params = BundleParams(p, q, c1 + a, a)
                for family in Family:
                    o1, o2 = family_offsets(family, params)
                    for level in (0, 1, 2):
                        pt = spectral_point(params, level, level)
                        assert 4 * first[family](p - 1, c1, level) + o1 * o1 == pt.jp2 ** 2
                        assert 4 * second[family](q - 1, a, level) + o2 * o2 == pt.j2 ** 2

    def test_block_prefactor_structure(self):
        pt = spectral_point(PARAMS, 2, 3)
        for r in (2, 3, 4):
            pref = Fraction(even_product(pt.jp2, pt.j2, r - 1), 4 ** (r - 1))
            entries, scale = core_pair(PARAMS, pt.jp2, pt.j2, 2 * r)
            assert even_order_block(PARAMS, pt, r) == TwoByTwo(
                *(pref * Fraction(e, scale) for e in entries))

    def test_requires_positive_integer_order(self):
        pt = spectral_point(PARAMS, 1, 1)
        with pytest.raises(ValueError):
            even_order_eigenvalue(Family.COEXACT, PARAMS, pt, 0)
        with pytest.raises(ValueError):
            even_order_block(PARAMS, pt, Fraction(3, 2))

    @pytest.mark.parametrize("Jp, J", [
        (Fraction(5, 2), Fraction(1, 2)),  # J' of the wrong parity
        (3, Fraction(5, 2)),               # J of the wrong parity
        (0, 3),                            # j' = -1
        (3, 1),                            # j = -1
        (Fraction(9, 4), 3),               # not a half-integer
        (3.0, 3.0),                        # floats
    ])
    def test_off_lattice_point_rejected(self, Jp, J):
        # PARAMS has J' = j' + 1 and J = j + 2; the point holds 2J' and 2J
        pt = SpectralPoint(jp2=2 * Jp, j2=2 * J)
        with pytest.raises(ValueError, match="is not on the level lattice"):
            even_order_eigenvalue(Family.COEXACT, PARAMS, pt, 2)
        with pytest.raises(ValueError, match="is not on the level lattice"):
            even_order_block(PARAMS, pt, 2)

    def test_int_and_fraction_lattice_points_agree(self):
        for jp2, j2 in ((2, 4), (6, 6), (8, 12)):
            want = even_order_eigenvalue(Family.EXACT, PARAMS,
                                         SpectralPoint(jp2=Fraction(jp2), j2=Fraction(j2)), 2)
            assert even_order_eigenvalue(Family.EXACT, PARAMS,
                                         SpectralPoint(jp2=jp2, j2=j2), 2) == want


class TestBivariatePoly:
    def test_arithmetic(self):
        x, y = BivariatePoly.var1(), BivariatePoly.var2()
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert p.degree == 2
        assert (p * p).degree == 4

    def test_top_part(self):
        x, y = BivariatePoly.var1(), BivariatePoly.var2()
        p = x * x + 3 * x + BivariatePoly.const(7)
        assert p.top_part() == x * x
        del y


SYMBOL_BUNDLES = [PARAMS, BundleParams(4, 6, 1, 0), BundleParams(5, 5, 0, 0),
                  BundleParams(3, 2, 0, 0), BundleParams(2, 2, 2, 1),
                  BundleParams(3, 3, 4, 2)]  # s = 2, 3, 4, 3/2, -1, -2


class TestLeadingSymbol:
    def test_order_one_coexact(self):
        p_op, p_sym = leading_symbol_polynomials(Family.COEXACT, PARAMS, 1)
        x, y = BivariatePoly.var1(), BivariatePoly.var2()
        s = PARAMS.s
        want_top = (y * y - x * x) * (s + 1)
        assert p_op.top_part() == want_top
        assert p_sym.top_part() == want_top

    def test_degree_counts(self):
        for r in (1, 2, 3, 4):
            p_op, p_sym = leading_symbol_polynomials(Family.COEXACT, PARAMS, r)
            assert p_op.degree == 2 * r
            assert p_sym.degree == 2 * r

    def test_order_three_exact_family(self):
        params = BundleParams(4, 6, 1, 0)  # s = 3, away from s = r
        p_op, p_sym = leading_symbol_polynomials(Family.EXACT, params, 3)
        x, y = BivariatePoly.var1(), BivariatePoly.var2()
        compressed = y * y - x * x
        want = compressed * compressed * compressed * (params.s - 3)
        assert p_op.top_part() == want
        assert (p_sym * Fraction(-1)).top_part() == want * Fraction(-1)

    def test_identity_across_orders(self):
        for family in (Family.COEXACT, Family.EXACT):
            for r in (1, 2, 3, 4):
                p_op, p_sym = leading_symbol_polynomials(family, PARAMS, r)
                assert p_op.top_part() == p_sym.top_part()

    def test_full_polynomials_match_a_sympy_expansion(self):
        # the returned tops against the top-degree parts of sympy's own
        # expansion of the whole expressions in the shifted levels (J', J),
        # the symbol's constant c included
        sympy = pytest.importorskip("sympy")
        gens = sympy.symbols("jp j")
        jp, j = (sympy.Poly(g, *gens, domain="QQ") for g in gens)

        def top(poly):
            degree = poly.total_degree()
            return {key: Fraction(int(v.numerator), int(v.denominator))
                    for key, v in poly.as_dict().items() if v and sum(key) == degree}

        zero_prefactors = set()
        for params in SYMBOL_BUNDLES:
            for family in (Family.COEXACT, Family.EXACT):
                o1, o2 = family_offsets(family, params)
                c = sympy.Rational(o1 * o1 - o2 * o2, 4)
                for r in range(1, 9):
                    pref = params.s + r if family is Family.COEXACT else params.s - r
                    pref = sympy.Rational(pref.numerator, pref.denominator)
                    want_op = even_product(2 * jp, 2 * j, r) * (pref / 4 ** r)
                    want_sym = (j * j - jp * jp + c) ** r * pref
                    got = leading_symbol_polynomials(family, params, r)
                    for poly, want in zip(got, (want_op, want_sym)):
                        assert poly.coeffs == top(want)
                    if pref == 0:
                        zero_prefactors.add(family)
                        assert not got[0].coeffs and not got[1].coeffs
        assert zero_prefactors == {Family.COEXACT, Family.EXACT}

    def test_symbol_kernel_builds_homogeneous_tops(self):
        # the symbol's row, shared by every bundle, has degree 2r in every
        # term and the binomial coefficients of (x2^2 - x1^2)^r
        for r in range(1, 9):
            assert symbol_row(r).coeffs == {(2 * i, 2 * (r - i)): (-1) ** i * comb(r, i)
                                            for i in range(r + 1)}


@pytest.mark.parametrize("call, match", [
    (lambda: block_scale_squared(PARAMS, spectral_point(PARAMS, 1, 1), Fraction(3, 2)),
     "the exact seed needs integer r, got Fraction"),
    (lambda: even_order_eigenvalue(Family.MIXED, PARAMS, spectral_point(PARAMS, 1, 1), 2),
     "mixed family carries a block; use even_order_block"),
    (lambda: leading_symbol_polynomials(Family.MIXED, PARAMS, 2),
     "leading-symbol polynomials cover the multiplicity-one families"),
    (lambda: leading_symbol_polynomials(Family.COEXACT, PARAMS, 0),
     "even-order operators need integer r >= 1, got 0"),
    (lambda: leading_symbol_polynomials(Family.COEXACT, PARAMS, Fraction(3, 2)),
     "even-order operators need integer r >= 1, got Fraction(3, 2)"),
    (lambda: leading_symbol_polynomials(Family.COEXACT, PARAMS, 2.0),
     "even-order operators need integer r >= 1, got 2.0"),
    (lambda: Family.parse("bogus"), "unknown family 'bogus'"),
], ids=["seed-half-order", "mixed-eigenvalue", "mixed-symbol", "order-zero-symbol",
        "half-order-symbol", "float-order-symbol", "unknown-family"])
def test_library_argument_errors(call, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        call()


def test_integral_fraction_orders_read_as_ints():
    pt = spectral_point(PARAMS, 2, 2)
    assert even_order_eigenvalue(Family.COEXACT, PARAMS, pt, Fraction(2)) == \
        even_order_eigenvalue(Family.COEXACT, PARAMS, pt, 2)
    assert even_order_block(PARAMS, pt, Fraction(2)) == even_order_block(PARAMS, pt, 2)
    assert leading_symbol_polynomials(Family.COEXACT, PARAMS, Fraction(2)) == \
        leading_symbol_polynomials(Family.COEXACT, PARAMS, 2)
