import math
from functools import partial

import numpy as np
import pytest

import ptgraph as pg
from util import GOLDEN_ABSYM_PT, random_trig


def first_two_orders(f):
    """Copy of f built from per-bond callables, without its f''."""
    bonds = range(1, f.graph.n_bonds + 1)
    return pg.bond_function(
        f.graph, [partial(f.value, j) for j in bonds], [partial(f.deriv, j) for j in bonds]
    )


def rebuilt(f):
    """Copy of f built from per-bond callables of its own readers, every order kept."""
    bonds = range(1, f.graph.n_bonds + 1)
    readers = (f.value, f.deriv, f.second_deriv)[: f.orders]
    return pg.bond_function(f.graph, *([partial(r, j) for j in bonds] for r in readers))


def bits(*values):
    """The bytes of the values as complex arrays, for exact comparison."""
    return [(np.shape(v), np.asarray(v, dtype=complex).tobytes()) for v in values]


def linear_probe(graph):
    """f_j(x) = c_j + d_j x with distinct constants, to pin slot ordering."""
    cs = [(j + 1) * 1.0 for j in range(graph.n_bonds)]
    ds = [10.0 + j for j in range(graph.n_bonds)]

    def val(j):
        return lambda x: cs[j] + ds[j] * np.asarray(x)

    def der(j):
        return lambda x: ds[j] + 0.0 * np.asarray(x)

    def sec(j):
        return lambda x: 0.0 * np.asarray(x)

    n = graph.n_bonds
    f = pg.bond_function(
        graph,
        [val(j) for j in range(n)],
        [der(j) for j in range(n)],
        [sec(j) for j in range(n)],
    )
    return f, cs, ds


class TestTraceVectors:
    def test_zero_function(self, graph123):
        t = pg.trace_vectors(pg.zero_function(graph123), graph123)
        assert np.all(t.psi == 0) and np.all(t.dpsi == 0)

    def test_identity_profile(self, graph123):
        # f_j(x) = x: values (0,0,0, L1,L2,L3), derivatives (-1,-1,-1, 1,1,1)
        ident = lambda x: np.asarray(x) + 0.0
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        f = pg.bond_function(graph123, [ident] * 3, [one] * 3)
        t = pg.trace_vectors(f, graph123)
        assert np.allclose(t.psi, [0, 0, 0, 1.0, 1.5, 2.0])
        assert np.allclose(t.dpsi, [-1, -1, -1, 1, 1, 1])

    def test_slot_ordering_pinned(self, graph123):
        f, cs, ds = linear_probe(graph123)
        t = pg.trace_vectors(f, graph123)
        ls = graph123.lengths
        # vertex values first, then outer-end values
        assert np.allclose(t.psi[:3], cs)
        assert np.allclose(t.psi[3:], [c + d * l for c, d, l in zip(cs, ds, ls)])
        # negated outer-end derivatives first, then vertex derivatives
        assert np.allclose(t.dpsi[:3], [-d for d in ds])
        assert np.allclose(t.dpsi[3:], ds)

    def test_sine_profile(self, graph123):
        # f_j(x) = sin(k(L_j - x)) with k = 1: hand-differentiated endpoints
        k = 1.0
        ls = graph123.lengths

        def val(j):
            return lambda x: np.sin(k * (ls[j] - np.asarray(x)))

        def der(j):
            return lambda x: -k * np.cos(k * (ls[j] - np.asarray(x)))

        f = pg.bond_function(graph123, [val(j) for j in range(3)], [der(j) for j in range(3)])
        t = pg.trace_vectors(f, graph123)
        assert np.allclose(t.psi[:3], [math.sin(k * l) for l in ls])
        assert np.allclose(t.psi[3:], 0.0)
        assert np.allclose(t.dpsi[:3], k)
        assert np.allclose(t.dpsi[3:], [-k * math.cos(k * l) for l in ls])

    def test_non_finite_endpoint_rejected(self, graph123):
        bad = lambda x: np.full_like(np.asarray(x, dtype=float), np.nan)
        zero = lambda x: 0.0 * np.asarray(x)
        f = pg.bond_function(graph123, [bad, zero, zero], [zero] * 3)
        with pytest.raises(pg.EvaluationFailure):
            pg.trace_vectors(f, graph123)


class TestBCMatrices:
    def test_pt_dirichlet_rows(self, graph123):
        bc = pg.bc_matrices(pg.PT_DIRICHLET, graph123)
        # row 3 sums the outer-end derivatives: B entries -1 in the first
        # three dpsi slots (which hold -f_j'(L_j)), A row empty
        assert np.allclose(bc.b[2], [-1, -1, -1, 0, 0, 0])
        assert np.allclose(bc.a[2], 0.0)
        # continuity rows and outer-end value rows
        assert np.allclose(bc.a[0], [1, -1, 0, 0, 0, 0])
        assert np.allclose(bc.a[1], [0, 1, -1, 0, 0, 0])
        assert np.allclose(bc.a[3:], np.hstack([np.zeros((3, 3)), np.eye(3)]))
        assert np.allclose(bc.b[3:], 0.0)

    def test_pt_neumann_rows(self, graph123):
        bc = pg.bc_matrices(pg.PT_NEUMANN, graph123)
        # the single A row sums the three outer-end values
        assert np.allclose(bc.a[2], [0, 0, 0, 1, 1, 1])
        a_other = np.delete(bc.a, 2, axis=0)
        assert np.allclose(a_other, 0.0)

    def test_unknown_family(self, graph123):
        with pytest.raises(pg.UnknownFamily):
            pg.bc_matrices("free", graph123)

    def test_kirchhoff_annihilates_its_modes(self, basis123_k, graph123):
        bc = pg.bc_matrices(pg.KIRCHHOFF_REF, graph123)
        f = basis123_k.modes[0]
        assert pg.bc_residual(bc, pg.trace_vectors(f, graph123)) < 1e-12

    def test_kirchhoff_rejects_generic_sine(self, graph123):
        # sin(k(L_j-x)) at generic k breaks vertex continuity
        k = 1.3
        ls = graph123.lengths

        def val(j):
            return lambda x: np.sin(k * (ls[j] - np.asarray(x)))

        def der(j):
            return lambda x: -k * np.cos(k * (ls[j] - np.asarray(x)))

        f = pg.bond_function(graph123, [val(j) for j in range(3)], [der(j) for j in range(3)])
        bc = pg.bc_matrices(pg.KIRCHHOFF_REF, graph123)
        assert pg.bc_residual(bc, pg.trace_vectors(f, graph123)) > 0.1


class TestBCResidual:
    def test_zero_traces(self, graph123):
        bc = pg.bc_matrices(pg.PT_DIRICHLET, graph123)
        t = pg.trace_vectors(pg.zero_function(graph123), graph123)
        assert pg.bc_residual(bc, t) == 0.0

    def test_eigenmode_residual_small(self, basis123_d, graph123):
        bc = pg.bc_matrices(pg.PT_DIRICHLET, graph123)
        for mode in basis123_d.modes:
            t = pg.trace_vectors(mode, graph123)
            assert pg.bc_residual(bc, t) < 1e-10

    def test_constant_one_violates_dirichlet_ends(self, graph123):
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        zero = lambda x: 0.0 * np.asarray(x)
        f = pg.bond_function(graph123, [one] * 3, [zero] * 3)
        bc = pg.bc_matrices(pg.PT_DIRICHLET, graph123)
        t = pg.trace_vectors(f, graph123)
        assert pg.bc_residual(bc, t) == pytest.approx(math.sqrt(3), abs=1e-14)

    def test_dimension_mismatch(self, graph123):
        g2 = pg.make_star_graph([1.0, 2.0])
        bc = pg.bc_matrices(pg.PT_DIRICHLET, graph123)
        t = pg.trace_vectors(pg.zero_function(g2), g2)
        with pytest.raises(pg.DimensionMismatch):
            pg.bc_residual(bc, t)


class TestABSymmetry:
    def test_identity_zero_pair(self):
        eye = np.eye(6, dtype=complex)
        zero = np.zeros((6, 6), dtype=complex)
        assert pg.check_ab_symmetry(pg.BCMatrices(a=eye, b=zero, family=pg.CUSTOM, n_bonds=3)) == 0.0
        assert pg.check_ab_symmetry(pg.BCMatrices(a=zero, b=eye, family=pg.CUSTOM, n_bonds=3)) == 0.0

    def test_kirchhoff_is_self_adjoint(self, graph123):
        bc = pg.bc_matrices(pg.KIRCHHOFF_REF, graph123)
        assert pg.check_ab_symmetry(bc) < 1e-14

    def test_pt_families_defect_recorded(self, graph123):
        # regression: both PT families sit at sqrt(2N) away from self-adjointness
        for fam in (pg.PT_DIRICHLET, pg.PT_NEUMANN):
            bc = pg.bc_matrices(fam, graph123)
            assert pg.check_ab_symmetry(bc) == pytest.approx(GOLDEN_ABSYM_PT, abs=1e-12)


class TestRanks:
    def test_identity_pair(self):
        eye = np.eye(6, dtype=complex)
        r = pg.check_ranks(pg.BCMatrices(a=eye, b=eye, family=pg.CUSTOM, n_bonds=3))
        assert (r.rank_a, r.rank_b, r.rank_ab) == (6, 6, 6)

    def test_zero_pair(self):
        zero = np.zeros((6, 6), dtype=complex)
        r = pg.check_ranks(pg.BCMatrices(a=zero, b=zero, family=pg.CUSTOM, n_bonds=3))
        assert (r.rank_a, r.rank_b, r.rank_ab) == (0, 0, 0)

    @pytest.mark.parametrize(
        "family,expected",
        [
            (pg.PT_DIRICHLET, (5, 1, 6)),
            (pg.PT_NEUMANN, (1, 5, 6)),
            (pg.KIRCHHOFF_REF, (5, 1, 6)),
        ],
    )
    def test_builtin_families(self, graph123, family, expected):
        r = pg.check_ranks(pg.bc_matrices(family, graph123))
        assert (r.rank_a, r.rank_b, r.rank_ab) == expected


def unit_graph():
    return pg.make_star_graph([1.0, 1.0, 1.0])


class TestInnerProducts:
    def test_l2_zero(self, graph123):
        z = pg.zero_function(graph123)
        assert pg.l2_inner(z, z) == 0.0

    def test_l2_constants(self):
        g = unit_graph()
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        zero = lambda x: 0.0 * np.asarray(x)
        f = pg.bond_function(g, [one] * 3, [zero] * 3)
        assert pg.l2_inner(f, f) == pytest.approx(3.0, abs=1e-12)

    def test_l2_sine_orthogonality(self):
        g = unit_graph()
        f = pg.trig_function(g, [[(1.0, np.pi, 0.0)]] * 3)
        h = pg.trig_function(g, [[(1.0, 2 * np.pi, 0.0)]] * 3)
        assert abs(pg.l2_inner(f, h)) < 1e-10

    def test_l2_conjugates_second_argument(self):
        g = unit_graph()
        f = pg.trig_function(g, [[(1.0, 1.0, 0.3)]] * 3)
        h = pg.trig_function(g, [[(1j, 1.0, 0.3)]] * 3)
        # <f, i f> = -i <f, f>
        val = pg.l2_inner(f, h)
        ref = pg.l2_inner(f, f)
        assert val == pytest.approx(-1j * ref, abs=1e-12)

    def test_l2_graph_mismatch(self, graph123):
        with pytest.raises(pg.GraphMismatch):
            pg.l2_inner(pg.zero_function(graph123), pg.zero_function(unit_graph()))

    def test_scalar_for_array_raises(self, graph123):
        const = lambda x: 1.0
        f = pg.bond_function(graph123, [const] * 3, [const] * 3)
        with pytest.raises(pg.EvaluationFailure):
            pg.l2_inner(f, f)

    def test_pt_zero_and_constants(self, graph123):
        z = pg.zero_function(graph123)
        assert pg.pt_inner(z, z) == 0.0
        g = unit_graph()
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        zero = lambda x: 0.0 * np.asarray(x)
        f = pg.bond_function(g, [one] * 3, [zero] * 3)
        assert pg.pt_inner(f, f) == pytest.approx(3.0, abs=1e-12)

    def test_pt_linear_on_one_bond(self):
        # f = x on bond 1 only: int_0^1 (1-x) x dx = 1/6
        g = unit_graph()
        ident = lambda x: np.asarray(x) + 0.0
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        zero = lambda x: 0.0 * np.asarray(x)
        f = pg.bond_function(g, [ident, zero, zero], [one, zero, zero])
        assert pg.pt_inner(f, f) == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_pt_conjugates_first_argument(self):
        g = unit_graph()
        f = pg.trig_function(g, [[(1.0 + 0.5j, 2.0, 0.1)]] * 3)
        h = pg.trig_function(g, [[(0.7, 3.0, 1.1)]] * 3)
        scaled = pg.trig_function(g, [[((1.0 + 0.5j) * 2j, 2.0, 0.1)]] * 3)
        # first argument enters conjugated: <2j f, h> = conj(2j) <f, h>
        assert pg.pt_inner(scaled, h) == pytest.approx(-2j * pg.pt_inner(f, h), abs=1e-12)


class TestOmegaForms:
    def test_zero_functions(self, graph123):
        z = pg.zero_function(graph123)
        assert pg.omega_hermitian(z, z, graph123) == 0.0
        assert pg.omega_pt(z, z, graph123) == 0.0
        assert pg.omega_direct(z, z, pg.HERMITIAN) == 0.0

    @pytest.mark.parametrize("form", [pg.omega_hermitian, pg.omega_pt])
    def test_function_on_other_graph_rejected(self, form, graph123, graph111):
        here, there = pg.zero_function(graph123), pg.zero_function(graph111)
        for f, g in ((there, here), (here, there)):
            with pytest.raises(pg.GraphMismatch):
                form(f, g, graph123)

    @pytest.mark.parametrize("form", [pg.omega_hermitian, pg.omega_pt])
    def test_non_finite_endpoint_rejected(self, form, graph123):
        bad = lambda x: np.full_like(np.asarray(x, dtype=float), np.nan)
        zero = lambda x: 0.0 * np.asarray(x)
        f = pg.bond_function(graph123, [zero] * 3, [zero, zero, bad])
        z = pg.zero_function(graph123)
        for args in ((f, z), (z, f)):
            with pytest.raises(pg.EvaluationFailure):
                form(*args, graph123)

    def test_hermitian_skewness_on_diagonal(self, graph123):
        rng = np.random.default_rng(7)
        f = random_trig(graph123, rng)
        # Omega(f,f) must satisfy conj(Omega) = -Omega, i.e. real part 0
        val = pg.omega_direct(f, f, pg.HERMITIAN)
        assert abs(val.real) < 1e-9
        val_b = pg.omega_hermitian(f, f, graph123)
        assert abs(val_b.real) < 1e-12

    def test_sine_vs_linear_matches_direct(self, graph123):
        ls = graph123.lengths
        f = pg.trig_function(graph123, [[(1.0, np.pi, 0.0)]] * 3)
        ident = lambda x: np.asarray(x) + 0.0
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        zero = lambda x: 0.0 * np.asarray(x)
        g = pg.bond_function(graph123, [ident] * 3, [one] * 3, [zero] * 3)
        direct = pg.omega_direct(f, g, pg.HERMITIAN)
        boundary = pg.omega_hermitian(f, g, graph123)
        assert abs(direct - boundary) < 1e-6

    def test_kirchhoff_modes_annihilate_hermitian_form(self, basis123_k, graph123):
        funcs = basis123_k.modes[:4]
        for f in funcs:
            for g in funcs:
                assert abs(pg.omega_hermitian(f, g, graph123)) < 1e-9

    def test_pt_modes_annihilate_pt_form(self, basis123_d, basis123_n, graph123):
        for basis in (basis123_d, basis123_n):
            funcs = basis.modes[:5]
            for f in funcs:
                for g in funcs:
                    assert abs(pg.omega_pt(f, g, graph123)) < 1e-8

    def test_pt_modes_do_not_annihilate_hermitian_form(self, basis123_d, graph123):
        f = basis123_d.modes[0]
        g = basis123_d.modes[1]
        assert abs(pg.omega_hermitian(f, g, graph123)) > 1e-3

    def test_randomized_boundary_vs_volume(self, graph123):
        rng = np.random.default_rng(42)
        for _ in range(50):
            f = random_trig(graph123, rng)
            g = random_trig(graph123, rng)
            assert abs(pg.omega_hermitian(f, g, graph123) - pg.omega_direct(f, g, pg.HERMITIAN)) < 1e-6
            assert abs(pg.omega_pt(f, g, graph123) - pg.omega_direct(f, g, pg.PT)) < 1e-6
            assert abs(pg.omega_pt(f, g, graph123) - pg.omega_pt_symplectic(f, g, graph123)) < 1e-12

    def test_finite_difference_fallback(self, graph123):
        rng = np.random.default_rng(3)
        f = random_trig(graph123, rng)
        g = random_trig(graph123, rng)
        # strip the analytic second derivatives to force the FD stencil
        f_fd, g_fd = first_two_orders(f), first_two_orders(g)
        assert not f_fd.has_second_derivs
        exact = pg.omega_direct(f, g, pg.HERMITIAN)
        fd = pg.omega_direct(f_fd, g_fd, pg.HERMITIAN)
        assert abs(exact - fd) < 1e-6

    def test_fd_needs_enough_points(self, graph123):
        f = pg.trig_function(graph123, [[(1.0, 1.0, 0.0)]] * 3)
        f_fd = first_two_orders(f)
        with pytest.raises(pg.ResolutionTooCoarse):
            pg.omega_direct(f_fd, f_fd, pg.HERMITIAN, resolution=5)

    def test_unknown_product_tag(self, graph123):
        z = pg.zero_function(graph123)
        with pytest.raises(pg.UnknownFamily):
            pg.omega_direct(z, z, "euclidean")


class TestCPTInner:
    def test_zero_functions(self, basis_inc_d, graph_inc):
        z = pg.zero_function(graph_inc)
        assert pg.cpt_inner(z, z, basis_inc_d, truncation=5) == 0.0

    def test_first_mode_positive(self, basis_inc_d):
        f = basis_inc_d.modes[0]
        val = pg.cpt_inner(f, f, basis_inc_d, truncation=20)
        assert abs(val.imag) < 1e-10
        assert val.real > 0.0

    def test_positive_for_first_ten_modes(self, basis_inc_d, basis_inc_n):
        for basis in (basis_inc_d, basis_inc_n):
            for mode in basis.modes[:10]:
                val = pg.cpt_inner(mode, mode, basis, truncation=20)
                assert val.real > 0.0 and abs(val.imag) < 1e-10

    def test_positive_down_to_mode_index_truncation(self, basis_inc_d):
        for idx in (0, 2, 5):
            f = basis_inc_d.modes[idx]
            for trunc in range(idx + 1, 21, 6):
                assert pg.cpt_inner(f, f, basis_inc_d, truncation=trunc).real > 0.0

    def test_matches_explicit_double_integral(self, basis_inc_d, graph_inc):
        # coarse-grid oracle: assemble the kernel matrix and integrate twice
        trunc = 6
        n_pts = 401
        f = basis_inc_d.modes[0]
        mode_funcs = basis_inc_d.modes[:trunc]
        weights = [1.0 / pg.pt_inner(m, m, n_pts) for m in mode_funcs]
        total = 0j
        for bond in range(1, graph_inc.n_bonds + 1):
            grid = pg.bond_grid(graph_inc, bond, n_pts)
            w = pg.simpson_weights(grid.count, grid.spacing)
            xs = grid.points
            lj = graph_inc.length(bond)
            kernel = np.zeros((n_pts, n_pts), dtype=complex)
            for wn, m in zip(weights, mode_funcs):
                phi = np.asarray(m.value(bond, xs), dtype=complex)
                kernel += wn * np.outer(phi, phi)
            f_refl = np.conj(np.asarray(f.value(bond, lj - xs), dtype=complex))
            cpt_f = kernel @ (w * f_refl)
            gv = np.asarray(f.value(bond, xs), dtype=complex)
            total += np.dot(w, cpt_f * gv)
        lib = pg.cpt_inner(f, f, basis_inc_d, truncation=trunc, resolution=n_pts)
        assert abs(lib - total) < 1e-8

    def test_truncation_validation(self, basis_inc_d, graph_inc):
        z = pg.zero_function(graph_inc)
        with pytest.raises(pg.InsufficientBasis):
            pg.cpt_inner(z, z, basis_inc_d, truncation=0)
        with pytest.raises(pg.InsufficientBasis):
            pg.cpt_inner(z, z, basis_inc_d, truncation=len(basis_inc_d.modes) + 1)


class TestBondFunction:
    def test_callable_counts_enforced(self, graph123):
        one = lambda x: np.asarray(x) + 0j
        for values, derivs in (([one] * 2, [one] * 3), ([one] * 3, [one] * 4)):
            with pytest.raises(pg.DimensionMismatch, match="one value and one derivative"):
                pg.bond_function(graph123, values, derivs)
        with pytest.raises(pg.DimensionMismatch, match="one second-derivative callable"):
            pg.bond_function(graph123, [one] * 3, [one] * 3, [one] * 2)

    def test_second_deriv_of_two_orders_fails(self, graph123):
        f = first_two_orders(pg.trig_function(graph123, [[(1.0, 1.0, 0.0)]] * 3))
        assert not f.has_second_derivs
        with pytest.raises(pg.EvaluationFailure):
            f.second_deriv(1, 0.5)


class TestCombine:
    def test_fewest_orders_of_its_members(self, graph123):
        trig = pg.trig_function(graph123, [[(1.0, 2.0, 0.3)]] * 3)
        assert pg.combine([trig, trig], [1.0, 2.0]).has_second_derivs
        f = pg.combine([trig, first_two_orders(trig)], [1.0, 2.0])
        assert not f.has_second_derivs
        with pytest.raises(pg.EvaluationFailure):
            f.second_deriv(2, 0.1)
        assert f.value(2, 0.1) == pytest.approx(3.0 * trig.value(2, 0.1))
        assert f.deriv(2, 0.1) == pytest.approx(3.0 * trig.deriv(2, 0.1))

    def test_coefficient_count_enforced(self, graph123):
        z = pg.zero_function(graph123)
        with pytest.raises(pg.DimensionMismatch):
            pg.combine([z, z], [1.0])

    def test_mixed_graphs_rejected(self, graph123, graph111):
        with pytest.raises(pg.GraphMismatch):
            pg.combine([pg.zero_function(graph123), pg.zero_function(graph111)], [1.0, 1.0])


class TestModesAndStatesAreBondFunctions:
    """A mode or a wave state is passed to every form as it is, and each form
    reads it bit for bit as the same function rebuilt from its readers."""

    @pytest.fixture
    def functions(self, basis123_d, basis123_n):
        state = pg.WaveState(basis123_d, np.exp(0.7j * np.arange(len(basis123_d))), t=0.3)
        return basis123_d.modes[2], basis123_n.modes[1], state

    def test_isinstance(self, functions):
        mode, _, state = functions
        assert isinstance(mode, pg.BondFunction) and isinstance(state, pg.BondFunction)
        assert mode.has_second_derivs and not state.has_second_derivs
        assert state.graph == state.basis.graph
        with pytest.raises(pg.EvaluationFailure):
            state.second_deriv(1, 0.5)

    def test_every_form_reads_them_as_rebuilt(self, functions, basis123_d, graph123):
        res = 401

        def forms(f, g):
            combined = pg.combine([f, g], [1.0, 0.5j - 0.2])
            tf = pg.trace_vectors(f, graph123)
            projected = pg.project(f, basis123_d, res)
            sampled = [
                combined.evaluate(j, np.linspace(0.0, graph123.length(j), 9), order)
                for j in (1, 2, 3) for order in range(combined.orders)
            ]
            return bits(
                pg.l2_inner(f, g, res), pg.l2_inner(f, f, res), pg.pt_inner(f, g, res),
                pg.cpt_inner(f, g, basis123_d, truncation=5, resolution=res),
                pg.omega_hermitian(f, g, graph123), pg.omega_pt(f, g, graph123),
                pg.omega_pt_symplectic(f, g, graph123),
                pg.omega_direct(f, g, pg.HERMITIAN, res), pg.omega_direct(f, g, pg.PT, res),
                tf.psi, tf.dpsi, combined.orders, *sampled,
                projected.state.coeffs, projected.residual, projected.gram_cond,
            )

        # modes take omega_direct's analytic f'' path, the state its finite differences
        for f in functions:
            for g in functions:
                assert rebuilt(f).orders == f.orders
                assert forms(f, g) == forms(rebuilt(f), rebuilt(g))
