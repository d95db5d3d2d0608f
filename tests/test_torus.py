import hashlib
import itertools
import math
from fractions import Fraction

import pytest

import torus_reference as ref
from intertwinor import blocks, torus
from intertwinor.arithmetic import gamma_product
from intertwinor.blocks import core_pair, intertwinor_block, two_by_two
from intertwinor.spectra import (
    BundleParams,
    DegenerateNormalizationError,
    seed_gamma_args,
    spectral_point,
)
from intertwinor.torus import (
    PoleOnModeError,
    TorusBasis,
    assemble,
    half_commutator_with_phi,
    intertwining_residual,
    spectral_operator,
)


def reference_residual(M, k, r):
    """Max-norm of A (C - r phi) - (C + r phi) A on interior rows and columns,
    with C = [N, phi]/2 - P, composed through the public operator algebra."""
    basis = TorusBasis(M, k)
    core = half_commutator_with_phi(basis) - assemble("P", basis)
    phi = assemble("phi-mult", basis)
    a_op = spectral_operator(basis, r)
    diff = a_op.compose(core - phi.scaled(r)) - (core - phi.scaled(-r)).compose(a_op)
    cut = M - torus.MARGIN

    def inside(key):
        return abs(key[0]) <= cut and abs(key[1]) <= cut

    return max((abs(val) for key, col in diff.columns.items() if inside(key)
                for row, val in col.items() if inside(row)), default=0)


def perturbed_block(block):
    """``block`` with 1/3 added to the eigenvalue, or 1 to the mixed block's
    scale t, at (|m|, |n|) = (2, 1)."""
    def perturbed(k, m, n, r):
        entries, den = block(k, m, n, r)
        if (abs(m), abs(n)) != (2, 1):
            return entries, den
        if k != 1:
            return (3 * entries[0] + den,), 3 * den
        e11, off = r * (r * r - m * m - n * n), 2 * r * m * n
        return tuple(e + den * s for e, s in zip(entries, (-e11, -off, off, e11))), den

    return perturbed


def full_sweep_residual(M, k, r, mode="exact"):
    """(residual, columns) of the relation swept over every interior mode with
    all four shifts, on the kernel's block of each mode, in the residual's own
    arithmetic.  Every mode out to M is evaluated in basis order, so a pole
    names the first mode in basis order that has one."""
    order = int(r) if mode == "exact" else float(r)
    cut = M - torus.MARGIN
    span = range(-M, M + 1)
    blocks = {(m, n): torus._mode_block(k, m, n, order) for m in span for n in span}
    scale, shifts = torus._SHIFTS[k]
    size = 1 + (k == 1)
    worst, checked = 0, 0
    for m in range(-cut, cut + 1):
        for n in range(-cut, cut + 1):
            ax, dx = blocks[m, n]
            compared = False
            for dm, dn, half, phi, off in shifts:
                mm, nn = m + dm, n + dn
                if abs(mm) > cut or abs(nn) > cut:
                    continue
                compared = True
                ay, dy = blocks[mm, nn]
                diag = half * (mm * mm + nn * nn - m * m - n * n)
                minus = diag - order * phi
                for e in range(size * size):
                    lhs = ay[e] * minus
                    rhs = diag * ax[e]
                    if off:
                        lhs += ay[e ^ 1] * off
                        rhs += off * ax[e ^ 2]
                    diff = lhs * dx - (rhs + order * (phi * ax[e])) * dy
                    if diff:
                        err = abs(diff / (scale * dx * dy))
                        worst = max(worst, err) if err == err else err
            checked += compared
    return float(worst), checked * size


def in_torus_frame(entries, mn):
    """The entries (e11, e12, e21, e22) of D^-1 X D for D = diag(1, -mn)."""
    e11, e12, e21, e22 = entries
    return e11, -mn * e12, Fraction(e21, -mn), e22


def middle_degree_mismatches(M, orders):
    """Compare the torus k = 1 blocks with the library's mixed block.

    Over the modes 1 <= m <= M, 0 < |n| <= M at each order r, with
    D = diag(1, -mn) and the middle-degree bundle (2, 2, 1, 1) at levels
    (J', J) = (m, |n|): where ``block_pair`` does not degenerate, the torus
    block must equal -seed D^-1 block_pair D exactly, seed the gamma part of
    ``seed_gamma_args``; at every mode its entries must be proportional to
    those of D^-1 core_pair D, e21 included.  Returns the number of exact
    identities compared and the list of (m, n, r, check) that failed.
    """
    params = BundleParams(2, 2, 1, 1)
    compared, bad = 0, []
    for r in orders:
        for m in range(1, M + 1):
            for n in range(-M, M + 1):
                if n == 0:
                    continue
                entries, den = torus._mode_block(1, m, n, r)
                got = [Fraction(e, den) for e in entries]
                core = in_torus_frame(blocks.core_pair(params, 2 * m, 2 * abs(n), 2 * r)[0], m * n)
                if any(got[i] * core[j] != got[j] * core[i] for i in range(4) for j in range(i)):
                    bad.append((m, n, r, "core_pair"))
                try:
                    pair, pair_den = blocks.block_pair(params, 2 * m, 2 * abs(n), 2 * r)
                except DegenerateNormalizationError:
                    continue
                compared += 1
                seed = Fraction(*gamma_product(seed_gamma_args(2 * m, 2 * abs(n)), r))
                if got != [-seed * Fraction(x, pair_den) for x in in_torus_frame(pair, m * n)]:
                    bad.append((m, n, r, "block_pair"))
    return compared, bad


class TestTorusBasis:
    def test_dimensions(self):
        # (2M + 1)^2 modes times the k-frame
        assert len(list(TorusBasis(4, 0).keys())) == 81
        assert len(list(TorusBasis(4, 1).keys())) == 162
        assert len(list(TorusBasis(4, 2).keys())) == 81

    def test_validation(self):
        with pytest.raises(ValueError):
            TorusBasis(0, 1)
        with pytest.raises(ValueError):
            TorusBasis(4, 3)

    @pytest.mark.parametrize("M, k, field", [
        (3.5, 0, "M=3.5"), (4.0, 0, "M=4.0"), (True, 1, "M=True"),
        (4, 1.0, "k=1.0"), (4, True, "k=True"),
    ])
    def test_sizes_are_plain_ints(self, M, k, field):
        # k = 1.0 and k = True passed the range check and ran the residual
        with pytest.raises(ValueError, match=field):
            TorusBasis(M, k)
        with pytest.raises(ValueError, match=field):
            intertwining_residual(M, k, 1)


class TestAssembly:
    def test_bochner_is_diagonal(self):
        basis = TorusBasis(4, 0)
        col = assemble("N", basis).columns[2, 3, "1"]
        assert col == {(2, 3, "1"): Fraction(13)}

    def test_conformal_factor_shifts(self):
        basis = TorusBasis(4, 0)
        col = assemble("phi-mult", basis).columns[1, 1, "1"]
        assert col == {(2, 2, "1"): Fraction(1, 4), (2, 0, "1"): Fraction(1, 4),
                       (0, 2, "1"): Fraction(1, 4), (0, 0, "1"): Fraction(1, 4)}

    def test_truncation_drops_outside_modes(self):
        basis = TorusBasis(2, 0)
        col = assemble("phi-mult", basis).columns[2, 2, "1"]
        assert col == {(1, 1, "1"): Fraction(1, 4)}

    def test_p_vanishes_away_from_middle_degree(self):
        for k in (0, 2):
            assert ref.is_zero(assemble("P", TorusBasis(3, k)))
        assert not ref.is_zero(assemble("P", TorusBasis(3, 1)))

    @pytest.mark.parametrize("name", ["no-such-op", "d", "delta", "iota_T", "nabla_T", "L_T"])
    def test_unknown_operators_raise(self, name):
        # the library assembles only what the residual runs
        with pytest.raises(ValueError, match="unknown operator"):
            assemble(name, TorusBasis(3, 1))

    def test_assembled_columns_are_pinned(self):
        # every name and degree at M = 3: codomain degree (read from the target
        # components; k for an operator with no entries) and entries with
        # their exact types
        degree = {comp: k for k, comps in torus._COMPONENTS.items() for comp in comps}
        lines = []
        for name in ("phi-mult", "N", "P"):
            for k in (0, 1, 2):
                op = assemble(name, TorusBasis(3, k))
                cols = sorted((key, sorted((row, repr(v)) for row, v in col.items() if v))
                              for key, col in op.columns.items())
                k_out = next((degree[row[2]] for col in op.columns.values() for row in col), k)
                lines.append(f"{name} {k} {k_out} {cols}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "3ffdf90e0e48f12d72aaeb74f6ddb5f319aa30a0edf435be79d505afdf2fcd7c"


class TestGeometricReference:
    """The real tables of tests/torus_reference.py, d = i D, delta = i Delta,
    iota_T = i I, against the library's phi, N and P rows."""

    def test_d_squares_to_zero(self):
        # d d = -D D
        assert ref.is_zero(ref.operator("D", 3, 1).compose(ref.operator("D", 3, 0)))

    def test_delta_squares_to_zero(self):
        assert ref.is_zero(ref.operator("Delta", 3, 1).compose(ref.operator("Delta", 3, 2)))

    def test_split_signature_laplacian_on_functions(self):
        # delta d = -Delta D is n^2 - m^2 on the mode (m, n)
        lap = ref.operator("Delta", 3, 1).compose(ref.operator("D", 3, 0)).scaled(-1)
        for m, n in ((2, 3), (1, 0), (0, 2)):
            col = lap.columns[m, n, "1"]
            assert col.get((m, n, "1"), 0) == n * n - m * m
            assert set(col) <= {(m, n, "1")}

    def test_commutator_identity(self):
        # [N, phi]/2 equals nabla_T + phi on every column, all degrees
        for k in (0, 1, 2):
            basis = TorusBasis(5, k)
            diff = (half_commutator_with_phi(basis) - ref.operator("nabla_T", 5, k)
                    - assemble("phi-mult", basis))
            assert ref.is_zero(diff)

    def test_lie_derivative_identity(self):
        # L_T - nabla_T equals k*phi - P entrywise, all degrees
        for k in (0, 1, 2):
            basis = TorusBasis(5, k)
            lhs = ref.lie_derivative(5, k) - ref.operator("nabla_T", 5, k)
            rhs = assemble("phi-mult", basis).scaled(k) - assemble("P", basis)
            assert ref.is_zero(lhs - rhs)


class TestSpectralOperator:
    def test_identity_at_order_zero(self):
        op = spectral_operator(TorusBasis(3, 0), 0)
        assert all(op.columns[key] == {key: Fraction(1)} for key in TorusBasis(3, 0).keys())

    def test_function_values_order_one(self):
        op = spectral_operator(TorusBasis(4, 0), 1)
        for m in range(-4, 5):
            for n in range(-4, 5):
                col = op.columns[m, n, "1"]
                expect = Fraction(m * m - n * n, 4)
                assert col.get((m, n, "1"), Fraction(0)) == expect

    def test_top_degree_matches_functions(self):
        # component swap duality: k = 0 and k = 2 carry the same diagonal
        a0 = spectral_operator(TorusBasis(3, 0), 2)
        a2 = spectral_operator(TorusBasis(3, 2), 2)
        for m in range(-3, 4):
            for n in range(-3, 4):
                v0 = a0.columns[m, n, "1"].get((m, n, "1"), Fraction(0))
                v2 = a2.columns[m, n, "dtdr"].get((m, n, "dtdr"), Fraction(0))
                assert v0 == v2

    def test_middle_degree_block_invariants(self):
        # per-mode 2x2 trace and det agree with the compressed block at the
        # matching seed normalization
        params = BundleParams(2, 2, 1, 1)
        op = spectral_operator(TorusBasis(6, 1), 1)
        for m, n in ((2, 1), (3, 2), (1, 4), (2, 2)):
            pt = spectral_point(params, abs(m), abs(n))
            if pt.Jp - pt.J - 1 == 0:
                continue
            from intertwinor.arithmetic import gamma_ratio
            seed = gamma_ratio(pt.Jp + pt.J + 2, 1) * gamma_ratio(pt.Jp - pt.J, 1)
            block = intertwinor_block(params, pt, 1, seed)
            col_t = op.columns[m, n, "dt"]
            col_r = op.columns[m, n, "dr"]
            trace = col_t.get((m, n, "dt"), Fraction(0)) + col_r.get((m, n, "dr"), Fraction(0))
            det = (col_t.get((m, n, "dt"), Fraction(0)) * col_r.get((m, n, "dr"), Fraction(0))
                   - col_t.get((m, n, "dr"), Fraction(0)) * col_r.get((m, n, "dt"), Fraction(0)))
            assert trace == block.trace
            assert det == block.det

    def test_middle_degree_agrees_with_order2_block(self):
        # one global constant relates the mode blocks to the order-2 operator
        params = BundleParams(2, 2, 1, 1)
        op = spectral_operator(TorusBasis(6, 1), 1)
        ratios = set()
        for m, n in ((2, 1), (3, 2), (4, 1), (3, 1)):
            pt = spectral_point(params, m, n)
            # the order-2 block: the core of the order-2r block at r = 1
            want = two_by_two(*core_pair(params, pt.jp2, pt.j2, 2))
            col_t = op.columns[m, n, "dt"]
            col_r = op.columns[m, n, "dr"]
            det = (col_t.get((m, n, "dt"), Fraction(0)) * col_r.get((m, n, "dr"), Fraction(0))
                   - col_t.get((m, n, "dr"), Fraction(0)) * col_r.get((m, n, "dt"), Fraction(0)))
            if want.det == 0:
                assert det == 0
                continue
            ratios.add(det / want.det)
        assert len(ratios) == 1  # det scales by the square of one constant

    def test_middle_degree_is_the_library_block(self):
        # 29 * 58 * 8 = 13,456 modes, of which the 392 with |m| - |n| = r
        # degenerate block_pair and are compared with core_pair alone
        compared, bad = middle_degree_mismatches(29, range(1, 9))
        assert compared == 13064
        assert bad == []

    def test_core_pair_e21_edit_is_flagged(self, monkeypatch):
        # the torus reads c11, c12 and c22 of core_pair and not c21, so an
        # edit of c21 alone must fail the identity with the library block
        real = blocks.core_pair

        def edited(b, jp2, j2, r2):
            (e11, e12, e21, e22), scale = real(b, jp2, j2, r2)
            return (e11, e12, e21 + 1, e22), scale

        monkeypatch.setattr(blocks, "core_pair", edited)
        assert intertwining_residual(6, 1, 2).residual == 0.0
        _, bad = middle_degree_mismatches(4, (1, 2))
        assert {check for *_, check in bad} == {"core_pair", "block_pair"}

    def test_boundary_modes_are_diagonal(self):
        op = spectral_operator(TorusBasis(4, 1), 2)
        col = op.columns[0, 3, "dt"]
        assert set(col) <= {(0, 3, "dt")}
        col = op.columns[2, 0, "dr"]
        assert set(col) <= {(2, 0, "dr")}

    @pytest.mark.parametrize("r", [1.5, 2.0, Fraction(1, 2)])
    def test_integer_orders_only(self, r):
        # the float path is intertwining_residual's
        with pytest.raises(ValueError):
            spectral_operator(TorusBasis(3, 0), r)

    @pytest.mark.parametrize("k, mode", [(0, (-3, -3, "1")), (1, (-3, -2, "dt")),
                                         (2, (-3, -3, "dtdr"))])
    def test_exact_pole_reported_with_mode(self, k, mode):
        # the first retained mode in basis order that has a pole
        with pytest.raises(PoleOnModeError) as err:
            spectral_operator(TorusBasis(3, k), -1)
        assert err.value.mode == mode


class TestIntertwiningResidual:
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_exact_residual_vanishes(self, k, r):
        result = intertwining_residual(8, k, r, mode="exact")
        assert result.residual == 0.0
        assert result.exact_zero

    def test_float_residual_small(self):
        result = intertwining_residual(8, 1, 2, mode="float")
        assert result.residual < 1e-12

    def test_non_integer_order(self):
        result = intertwining_residual(8, 0, 1.5, mode="float")
        assert result.residual < 1e-9

    def test_float_pole_reported_with_mode(self):
        # negative non-integer order with a numerator gamma argument near 0
        with pytest.raises(PoleOnModeError) as err:
            intertwining_residual(3, 0, -(3.0 + 1e-13), mode="float")
        assert err.value.mode == (-3, -3, "1")

    @pytest.mark.parametrize("k, mode", [(0, (-4, -4, "1")), (1, (-4, -3, "dt")),
                                         (2, (-4, -4, "dtdr"))])
    def test_exact_pole_reported_with_mode(self, k, mode):
        with pytest.raises(PoleOnModeError) as err:
            intertwining_residual(4, k, -1)
        assert err.value.mode == mode

    def test_exact_mode_needs_integer_order(self):
        with pytest.raises(ValueError):
            intertwining_residual(8, 0, 1.5, mode="exact")

    @pytest.mark.parametrize("r", [True, False])
    def test_exact_mode_rejects_a_bool_order(self, r):
        with pytest.raises(ValueError, match=f"integer r, got {r}"):
            intertwining_residual(4, 0, r)

    def test_float_overflow_makes_the_residual_nan(self):
        # finite blocks whose products overflow: inf - inf must not be dropped
        blocks_ = torus._class_blocks(0, 4, 115.5)
        assert all(math.isfinite(entries[0]) for entries, _ in blocks_.values())
        assert math.isnan(intertwining_residual(4, 0, 115.5, mode="float").residual)

    def test_truncation_decay(self):
        small = intertwining_residual(6, 1, 1, mode="float")
        large = intertwining_residual(10, 1, 1, mode="float")
        assert large.residual <= small.residual + 1e-12

    def test_duality_of_extreme_degrees(self):
        res0 = intertwining_residual(6, 0, 2, mode="exact")
        res2 = intertwining_residual(6, 2, 2, mode="exact")
        assert res0.residual == res2.residual == 0.0

    def test_interior_column_count(self):
        result = intertwining_residual(6, 1, 1, mode="exact")
        assert result.columns == 2 * (2 * 4 + 1) ** 2

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("M, r, mode", [
        (1, 1, "exact"), (2, 1, "exact"), (2, 0, "exact"), (2, 0.5, "float"), (2, 1.5, "float"),
    ])
    def test_no_column_checked_without_an_interior_neighbor(self, k, M, r, mode):
        # at M = 2 the interior is the mode (0, 0) alone, and every shift
        # leaves it, so no identity is compared and no column counts
        assert intertwining_residual(M, k, r, mode=mode).columns == 0

    @pytest.mark.parametrize("mode, r", [("exact", 1), ("float", 0.5)])
    def test_every_interior_column_is_checked_from_m_three(self, mode, r):
        for M in (3, 4, 8):
            for k in (0, 1, 2):
                result = intertwining_residual(M, k, r, mode=mode)
                assert result.columns == (2 * (M - torus.MARGIN) + 1) ** 2 * (1 + (k == 1))

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            intertwining_residual(6, 0, 1, mode="symbolic")

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_matches_operator_algebra(self, k, r):
        # M = 3 is the smallest interior with a neighbor, so the axes of the
        # visited quarter-plane are most of it; M = 4 and 5 cut the interior
        # at both parities
        for M in (3, 4, 5):
            result = intertwining_residual(M, k, r, mode="exact")
            assert result.residual == float(reference_residual(M, k, r))

    @pytest.mark.parametrize("k, r, want", [
        (0, 1, Fraction(5, 12)), (0, 2, Fraction(1, 2)), (0, 3, Fraction(7, 12)),
        (2, 1, Fraction(5, 12)), (2, 2, Fraction(1, 2)), (2, 3, Fraction(7, 12)),
        (1, 1, Fraction(6)), (1, 2, Fraction(25, 2)), (1, 3, Fraction(18)),
    ])
    def test_perturbed_block_is_flagged(self, monkeypatch, k, r, want):
        # both the per-mode check and the operator algebra must see the same
        # nonzero residual
        monkeypatch.setattr(torus, "_mode_block", perturbed_block(torus._mode_block))
        assert intertwining_residual(6, k, r, mode="exact").residual == float(want)
        assert reference_residual(6, k, r) == want

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_one_block_per_class(self, monkeypatch, k):
        # one evaluation per class (|m|, |n|) for every k: (M - 1)^2 on the
        # interior for an exact residual at r >= 0, where none can raise, and
        # (M + 1)^2 over the truncation for spectral_operator, and for the
        # residual at a negative order or in float mode
        block = torus._mode_block
        calls = []

        def counted(k, m, n, r):
            calls.append((m, n))
            try:
                return block(k, m, n, r)
            except PoleOnModeError:  # count on past the poles of r = -1
                return block(k, m, n, 0)

        monkeypatch.setattr(torus, "_mode_block", counted)
        runs = [(lambda: intertwining_residual(8, k, 2), 49, 6),
                (lambda: spectral_operator(TorusBasis(8, k), 2), 81, 8),
                (lambda: intertwining_residual(8, k, -1), 81, 8),
                (lambda: intertwining_residual(8, k, 1.5, mode="float"), 81, 8)]
        for run, count, reach in runs:
            calls.clear()
            run()
            assert len(calls) == len({(abs(m), abs(n)) for m, n in calls}) == count
            assert max(max(abs(m), abs(n)) for m, n in calls) == reach

    @pytest.mark.parametrize("mode, r", [("exact", 1), ("exact", 2), ("exact", 3),
                                         ("float", 1.5), ("float", 0.0)])
    def test_k1_table_is_the_kernel_on_every_mode(self, monkeypatch, mode, r):
        # the residual reads the class table, whose block of (a, b) is the
        # kernel's block of the mode (a, b), since (-a)(-b) = a b; each float
        # must match bit for bit (repr shows the sign of a zero), the r = 0
        # identity included.  A mode on an axis, whose e12 is a zero, takes
        # the block of its class's first mode (-a, -b)
        table = torus._class_blocks
        tables = []

        def recorded(*args):
            tables.append(table(*args))
            return tables[-1]

        monkeypatch.setattr(torus, "_class_blocks", recorded)
        intertwining_residual(8, 1, r, mode=mode)
        (blocks,) = tables
        assert {(a, b) for a in range(7) for b in range(7)} <= blocks.keys()
        for (a, b), got in blocks.items():
            at = (a, b) if a * b else (-a, -b)
            assert repr(got) == repr(torus._mode_block(1, *at, r)), (a, b)
        # spectral_operator negates e12 and e21 of the class block on a mode
        # with m n < 0, and its columns must be the kernel's block on every mode
        if mode == "exact":
            cols = spectral_operator(TorusBasis(8, 1), r).columns
            for m, n in itertools.product(range(-8, 9), repeat=2):
                got = [cols[m, n, c].get((m, n, row), 0)
                       for row in ("dt", "dr") for c in ("dt", "dr")]
                entries, den = torus._mode_block(1, m, n, r)
                assert got == [Fraction(e, den) for e in entries], (m, n)

    @pytest.mark.parametrize("k, mode", [(0, (-1, -1, "1")), (1, (-1, 0, "dt")),
                                         (2, (-1, -1, "dtdr"))])
    def test_pole_outside_an_empty_interior_raises(self, k, mode):
        # at M = 1 the residual reads no block, but a pole on a retained mode
        # still fails the check
        with pytest.raises(PoleOnModeError) as err:
            intertwining_residual(1, k, -1)
        assert err.value.mode == mode

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("edited", [(2, 1), (-2, -1)])
    def test_residual_checks_the_library_operator(self, monkeypatch, k, r, edited):
        # an edit of one mode's block, which only the first mode of a sign
        # class, (-2, -1) here, passes on to its class: the gate and the
        # operator algebra see the same blocks either way
        block = torus._mode_block

        def edited_block(k, m, n, r):
            entries, den = block(k, m, n, r)
            if (m, n) != edited:
                return entries, den
            return tuple(e + den for e in entries), den

        monkeypatch.setattr(torus, "_mode_block", edited_block)
        want = reference_residual(6, k, r)
        assert (want != 0) == (edited == (-2, -1))
        assert intertwining_residual(6, k, r).residual == float(want)

    @pytest.mark.parametrize("M, k, r, want", [
        (6, 0, 1.5, "3.1086244689504383e-15"),
        (6, 1, 1.5, "8.881784197001252e-15"),
        (6, 1, 2.5, "5.329070518200751e-15"),
        (10, 0, 2.5, "1.5916157281026244e-12"),
        (10, 1, 1.5, "5.115907697472721e-13"),
        (10, 1, 2.5, "2.2737367544323206e-12"),
    ])
    def test_float_residual_pinned(self, M, k, r, want):
        assert repr(intertwining_residual(M, k, r, mode="float").residual) == want

    def test_larger_grid(self):
        for k in (0, 1):
            result = intertwining_residual(96, k, 2, mode="exact")
            assert result.exact_zero
            assert result.columns == (1 + (k == 1)) * 189 ** 2


class TestMirrorPairs:
    """The residual compares each orbit of identities under the mirror
    (x, s) -> (-x, -s) and the reflection n -> -n once, which holds because
    the identities of an orbit compare the same numbers up to sign."""

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("M", [3, 8])
    @pytest.mark.parametrize("r", [2, 1.5])
    def test_mirror_modes_share_one_block(self, k, M, r):
        # block(-m, -n) = block(m, n): the kernel's on every mode, and the
        # columns of spectral_operator at an integer order
        span = range(-M, M + 1)
        for m, n in itertools.product(span, repeat=2):
            assert torus._mode_block(k, -m, -n, r) == torus._mode_block(k, m, n, r), (m, n)
        if isinstance(r, int):
            cols = spectral_operator(TorusBasis(M, k), r).columns
            assert len(cols) == (2 * M + 1) ** 2 * len(TorusBasis(M, k).components)
            for (m, n, c), col in cols.items():
                assert cols[-m, -n, c] == {(-a, -b, row): v for (a, b, row), v in col.items()}

    @pytest.mark.parametrize("k, name", [(1, "P"), (0, "phi-mult")])
    def test_shift_table_must_be_closed_under_negation(self, monkeypatch, k, name):
        # double the weight of the shift (1, 1) alone, so that it no longer
        # equals the weight of (-1, -1)
        tables = dict(torus._TABLES)
        tables[name, k] = [(dm, dn, src, tgt, 2 * c if (dm, dn) == (1, 1) else c)
                           for dm, dn, src, tgt, c in tables[name, k]]
        monkeypatch.setattr(torus, "_TABLES", tables)
        with pytest.raises(ValueError, match="negation"):
            torus._scaled_shifts(k)

    @pytest.mark.parametrize("k, name, weight", [
        # phi doubled on the mirror pair (1, 1), (-1, -1) alone
        (0, "phi-mult", lambda dm, dn, c: 2 * c if dm == dn else c),
        # a P weight |dm dn|/4, which does not flip sign under dn -> -dn
        (1, "P", lambda dm, dn, c: Fraction(abs(dm * dn), 4)),
    ])
    def test_shift_table_must_be_closed_under_reflection(self, monkeypatch, k, name, weight):
        # both edits keep the table closed under negation
        tables = dict(torus._TABLES)
        tables[name, k] = [(dm, dn, src, tgt, weight(dm, dn, c))
                           for dm, dn, src, tgt, c in tables[name, k]]
        monkeypatch.setattr(torus, "_TABLES", tables)
        with pytest.raises(ValueError, match="reflection"):
            torus._scaled_shifts(k)

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_orbit_sweep_matches_the_full_sweep(self, monkeypatch, perturbed):
        # the quarter-plane sweep on the class table, each neighbour pair once
        # in exact mode, against every interior mode with all four shifts on
        # the kernel's per-mode blocks, unedited and under the edit of
        # test_perturbed_block_is_flagged
        if perturbed:
            monkeypatch.setattr(torus, "_mode_block", perturbed_block(torus._mode_block))
        cases = [("exact", r) for r in range(-1, 5)] + [("float", r) for r in (0.5, 1.5, 2.5, 10.5)]
        for M in range(1, 11):
            for k in (0, 1, 2):
                for mode, r in cases:
                    try:
                        want = full_sweep_residual(M, k, r, mode)
                    except PoleOnModeError as err:
                        with pytest.raises(PoleOnModeError) as got:
                            intertwining_residual(M, k, r, mode=mode)
                        assert got.value.mode == err.mode, (M, k, mode, r)
                        continue
                    result = intertwining_residual(M, k, r, mode=mode)
                    got = repr(result.residual), result.columns
                    assert got == (repr(want[0]), want[1]), (M, k, mode, r)

    @pytest.mark.parametrize("k, weight, factor", [
        (1, "off", -1),
        *((k, weight, 2) for weight in ("phi", "half") for k in (0, 1, 2)),
    ])
    @pytest.mark.parametrize("r", [1, 2])
    def test_symmetric_shift_edits_are_flagged(self, monkeypatch, k, weight, factor, r):
        # an edit of one weight on every shift keeps the table closed under
        # negation, and the residual must see it
        scale, rows = torus._SHIFTS[k]
        at = 2 + ("half", "phi", "off").index(weight)
        edited = [row[:at] + (factor * row[at],) + row[at + 1:] for row in rows]
        monkeypatch.setitem(torus._SHIFTS, k, (scale, edited))
        assert intertwining_residual(6, k, r).residual != 0


class TestNeighbourPairs:
    """In exact mode the residual compares the identities at (x, s) and at
    (x + s, -s) once, as the one with dm = +1, which holds because the two
    compare the same integers when every k = 1 block has e21 = -e12."""

    @pytest.mark.parametrize("mode, r", [("exact", 0), ("exact", 1), ("exact", 2),
                                         ("exact", 3), ("exact", -1), ("float", 1.5)])
    def test_k1_blocks_have_e21_minus_e12(self, monkeypatch, mode, r):
        # every class block the residual reads; at r = -1 the residual stops at
        # the first pole, so the classes that evaluate are read one by one
        if r < 0:
            with pytest.raises(PoleOnModeError):
                intertwining_residual(8, 1, r)
            blocks = {}
            for a, b in itertools.product(range(9), repeat=2):
                try:
                    blocks[a, b] = torus._mode_block(1, -a, -b, r)
                except PoleOnModeError:
                    continue
        else:
            table = torus._class_blocks
            tables = []

            def recorded(*args):
                tables.append(table(*args))
                return tables[-1]

            monkeypatch.setattr(torus, "_class_blocks", recorded)
            assert intertwining_residual(8, 1, r, mode=mode).columns
            (blocks,) = tables
        assert len(blocks) >= 49
        for (a, b), (entries, den) in blocks.items():
            assert entries[2] == -entries[1], (a, b)

    @pytest.mark.parametrize("cls", [(0, 0), (2, 0), (0, 3), (2, 1), (4, 4)])
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_e21_edit_is_flagged(self, monkeypatch, cls, r):
        # den added to e21 of one class breaks the shape the pairing rests on;
        # the gate must still flag it, here with the full sweep's residual
        block = torus._mode_block

        def edited(k, m, n, r):
            entries, den = block(k, m, n, r)
            if (abs(m), abs(n)) != cls:
                return entries, den
            return entries[:2] + (entries[2] + den,) + entries[3:], den

        monkeypatch.setattr(torus, "_mode_block", edited)
        result = intertwining_residual(6, 1, r)
        assert result.residual != 0
        assert (result.residual, result.columns) == full_sweep_residual(6, 1, r)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_each_neighbour_pair_compared_once(self, monkeypatch, k):
        # at M = 8 the quarter-plane 0 <= m, n <= 6 has 144 ordered pairs of
        # diagonal neighbours: exact mode compares each unordered pair once,
        # float mode, whose two orders round differently, both directions
        compare = torus._identity_error
        calls = []

        def counted(*args):
            calls.append(args)
            return compare(*args)

        monkeypatch.setattr(torus, "_identity_error", counted)
        for mode, r, count in [("exact", 2, 72), ("exact", 0, 72), ("float", 1.5, 144)]:
            calls.clear()
            assert intertwining_residual(8, k, r, mode=mode).columns
            assert len(calls) == count, (mode, r)
