import dataclasses
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import ptgraph as pg
from perfbench import cli_pool
from ptgraph import cli
from util import (
    GOLDEN_ABSYM_PT,
    ab_symmetry_reference,
    fd_second_derivative,
    graph_kernel_cpt,
    random_trig,
    symplectic_reference,
)


def rebuilt(f):
    """Copy of f built from per-bond callables of its own three readers."""
    bonds = range(1, f.graph.n_bonds + 1)
    readers = (f.value, f.deriv, f.second_deriv)
    return pg.bond_function(f.graph, *([partial(r, j) for j in bonds] for r in readers))


def zero(x):
    return 0.0 * np.asarray(x)


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
        t = pg.trace_vectors(pg.zero_function(graph123))
        assert np.all(t.psi == 0) and np.all(t.dpsi == 0)

    def test_identity_profile(self, graph123):
        # f_j(x) = x: values (0,0,0, L1,L2,L3), derivatives (-1,-1,-1, 1,1,1)
        ident = lambda x: np.asarray(x) + 0.0
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        f = pg.bond_function(graph123, [ident] * 3, [one] * 3, [zero] * 3)
        t = pg.trace_vectors(f)
        assert np.allclose(t.psi, [0, 0, 0, 1.0, 1.5, 2.0])
        assert np.allclose(t.dpsi, [-1, -1, -1, 1, 1, 1])

    def test_slot_ordering_pinned(self, graph123):
        f, cs, ds = linear_probe(graph123)
        t = pg.trace_vectors(f)
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

        def sec(j):
            return lambda x: -k * k * np.sin(k * (ls[j] - np.asarray(x)))

        f = pg.bond_function(graph123, *([fn(j) for j in range(3)] for fn in (val, der, sec)))
        t = pg.trace_vectors(f)
        assert np.allclose(t.psi[:3], [math.sin(k * l) for l in ls])
        assert np.allclose(t.psi[3:], 0.0)
        assert np.allclose(t.dpsi[:3], k)
        assert np.allclose(t.dpsi[3:], [-k * math.cos(k * l) for l in ls])

    def test_ends_are_read_through_the_sampling_gate(self, graph123):
        # both ends of a bond are one two-point read, so an evaluator that
        # returns one value whatever it is given fails the shape check of _sample
        scalar = lambda x: 1.0
        f = pg.bond_function(graph123, [scalar] * 3, [zero] * 3, [zero] * 3)
        with pytest.raises(pg.EvaluationFailure, match="shape"):
            pg.trace_vectors(f)

    def test_non_finite_endpoint_rejected(self, graph123):
        bad = lambda x: np.full_like(np.asarray(x, dtype=float), np.nan)
        f = pg.bond_function(graph123, [bad, zero, zero], [zero] * 3, [zero] * 3)
        with pytest.raises(pg.EvaluationFailure):
            pg.trace_vectors(f)


    def test_carries_its_graph_and_checks_its_table(self, graph123, graph111):
        f, _, _ = linear_probe(graph123)
        t = pg.trace_vectors(f)
        assert t.graph == graph123 and t.n_bonds == 3 and t.ends.shape == (3, 4)
        for ends in (t.ends[:2], t.ends[:, :3], t.ends.ravel()):
            with pytest.raises(pg.DimensionMismatch):
                pg.TraceVectors(graph123, ends)
        with pytest.raises(pg.DimensionMismatch):
            pg.TraceVectors(pg.make_star_graph([1.0, 2.0]), t.ends)


#: (A | B) of bc_matrices, entry for entry, at N = 2 and N = 4
BC_TABLE = {
    (pg.PT_DIRICHLET, 2): """
         1 -1  0  0 |  0  0  0  0
         0  0  0  0 | -1 -1  0  0
         0  0  1  0 |  0  0  0  0
         0  0  0  1 |  0  0  0  0""",
    (pg.PT_DIRICHLET, 4): """
         1 -1  0  0  0  0  0  0 |  0  0  0  0  0  0  0  0
         0  1 -1  0  0  0  0  0 |  0  0  0  0  0  0  0  0
         0  0  1 -1  0  0  0  0 |  0  0  0  0  0  0  0  0
         0  0  0  0  0  0  0  0 | -1 -1 -1 -1  0  0  0  0
         0  0  0  0  1  0  0  0 |  0  0  0  0  0  0  0  0
         0  0  0  0  0  1  0  0 |  0  0  0  0  0  0  0  0
         0  0  0  0  0  0  1  0 |  0  0  0  0  0  0  0  0
         0  0  0  0  0  0  0  1 |  0  0  0  0  0  0  0  0""",
    (pg.PT_NEUMANN, 2): """
         0  0  0  0 |  0  0  1 -1
         0  0  1  1 |  0  0  0  0
         0  0  0  0 | -1  0  0  0
         0  0  0  0 |  0 -1  0  0""",
    (pg.PT_NEUMANN, 4): """
         0  0  0  0  0  0  0  0 |  0  0  0  0  1 -1  0  0
         0  0  0  0  0  0  0  0 |  0  0  0  0  0  1 -1  0
         0  0  0  0  0  0  0  0 |  0  0  0  0  0  0  1 -1
         0  0  0  0  1  1  1  1 |  0  0  0  0  0  0  0  0
         0  0  0  0  0  0  0  0 | -1  0  0  0  0  0  0  0
         0  0  0  0  0  0  0  0 |  0 -1  0  0  0  0  0  0
         0  0  0  0  0  0  0  0 |  0  0 -1  0  0  0  0  0
         0  0  0  0  0  0  0  0 |  0  0  0 -1  0  0  0  0""",
    (pg.KIRCHHOFF_REF, 2): """
         1 -1  0  0 |  0  0  0  0
         0  0  0  0 |  0  0  1  1
         0  0  1  0 |  0  0  0  0
         0  0  0  1 |  0  0  0  0""",
    (pg.KIRCHHOFF_REF, 4): """
         1 -1  0  0  0  0  0  0 |  0  0  0  0  0  0  0  0
         0  1 -1  0  0  0  0  0 |  0  0  0  0  0  0  0  0
         0  0  1 -1  0  0  0  0 |  0  0  0  0  0  0  0  0
         0  0  0  0  0  0  0  0 |  0  0  0  0  1  1  1  1
         0  0  0  0  1  0  0  0 |  0  0  0  0  0  0  0  0
         0  0  0  0  0  1  0  0 |  0  0  0  0  0  0  0  0
         0  0  0  0  0  0  1  0 |  0  0  0  0  0  0  0  0
         0  0  0  0  0  0  0  1 |  0  0  0  0  0  0  0  0""",
}


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

    @pytest.mark.parametrize("family, n", sorted(BC_TABLE))
    def test_table_entry_for_entry(self, family, n):
        rows = [row.split() for row in BC_TABLE[family, n].strip().splitlines()]
        ab = np.array([r[:2 * n] + r[2 * n + 1:] for r in rows], dtype=float)
        bc = pg.bc_matrices(family, pg.make_star_graph([1.0 + 0.1 * j for j in range(n)]))
        assert bc.a.dtype == bc.b.dtype == complex
        assert np.array_equal(bc.a, ab[:, :2 * n]) and np.array_equal(bc.b, ab[:, 2 * n:])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_entries_rejected(self, graph123, bad):
        bc = pg.bc_matrices(pg.PT_DIRICHLET, graph123)
        for which in ("a", "b"):
            m = getattr(bc, which).copy()
            m[2, 4] = bad
            with pytest.raises(pg.NonFiniteInput):
                pg.BCMatrices(**{"a": bc.a, "b": bc.b, which: m}, family=pg.CUSTOM)

    def test_bond_count_is_read_from_the_matrices(self):
        m = np.zeros((10, 10), dtype=complex)
        bc = pg.BCMatrices(a=m, b=m, family=pg.CUSTOM)
        assert bc.n_bonds == 5
        assert [f.name for f in dataclasses.fields(bc)] == ["a", "b", "family"]
        for a, b in ((m, m[:8, :8]), (m[:8], m[:8]), (m[0], m[0])):
            with pytest.raises(pg.DimensionMismatch):
                pg.BCMatrices(a=a, b=b, family=pg.CUSTOM)
        with pytest.raises(pg.TooFewBonds):  # no columns, so N = 0
            pg.BCMatrices(a=m[0, 0], b=m[0, 0], family=pg.CUSTOM)

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_fewer_than_two_bonds_rejected(self, n):
        m = np.zeros((max(2 * n, 0),) * 2)
        with pytest.raises(pg.TooFewBonds):
            pg.BCMatrices(a=m, b=m, family=pg.CUSTOM)

    def test_kirchhoff_annihilates_its_modes(self, basis123_k, graph123):
        bc = pg.bc_matrices(pg.KIRCHHOFF_REF, graph123)
        f = basis123_k.modes[0]
        assert pg.bc_residual(bc, pg.trace_vectors(f)) < 1e-12

    def test_kirchhoff_rejects_generic_sine(self, graph123):
        # sin(k(L_j-x)) at generic k breaks vertex continuity
        k = 1.3
        ls = graph123.lengths

        def val(j):
            return lambda x: np.sin(k * (ls[j] - np.asarray(x)))

        def der(j):
            return lambda x: -k * np.cos(k * (ls[j] - np.asarray(x)))

        def sec(j):
            return lambda x: -k * k * np.sin(k * (ls[j] - np.asarray(x)))

        f = pg.bond_function(graph123, *([fn(j) for j in range(3)] for fn in (val, der, sec)))
        bc = pg.bc_matrices(pg.KIRCHHOFF_REF, graph123)
        assert pg.bc_residual(bc, pg.trace_vectors(f)) > 0.1


def identity_rows(n_bonds=3):
    """The (A | B) rows of A = I, B = 0 as text tokens, 2N rows of 4N."""
    m = 2 * n_bonds
    return [["1" if j == i else "0" for j in range(2 * m)] for i in range(m)]


def with_row(i, row):
    """identity_rows() with row i replaced."""
    rows = identity_rows()
    rows[i] = row
    return rows


def write_rows(path, rows):
    path.write_text("\n".join(" ".join(r) for r in rows) + "\n")
    return path


class TestLoadBCMatrices:
    def test_identity_pair(self, tmp_path):
        bc = pg.load_bc_matrices(write_rows(tmp_path / "ab.txt", identity_rows()), 3)
        assert bc.family == pg.CUSTOM and bc.n_bonds == 3
        assert np.array_equal(bc.a, np.eye(6)) and np.array_equal(bc.b, np.zeros((6, 6)))

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        rows = [" ".join(r) for r in identity_rows()]
        text = "# (A | B) = (I | 0)\n\n" + "\n".join(rows[:3]) + "\n   \n# mid\n" + "\n".join(rows[3:])
        (tmp_path / "ab.txt").write_text(text + "\n\n")
        bc = pg.load_bc_matrices(tmp_path / "ab.txt", 3)
        assert np.array_equal(bc.a, np.eye(6)) and np.array_equal(bc.b, np.zeros((6, 6)))

    def test_benchmark_pair_bytes(self):
        # perfbench/data/custom_pt3.txt: pt-dirichlet on (1, 1.5, 2) with the
        # summed row scaled by 1 + 0.5j, as the CLI parser it replaces read it
        path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "custom_pt3.txt"
        bc = pg.load_bc_matrices(path, 3)
        want = pg.bc_matrices(pg.PT_DIRICHLET, pg.make_star_graph([1.0, 1.5, 2.0]))
        b = want.b.copy()
        b[2] *= 1 + 0.5j
        assert bc.a.tobytes() == want.a.tobytes() and bc.b.tobytes() == b.tobytes()

    @pytest.mark.parametrize("rows, error", [
        (identity_rows()[:-1], pg.DimensionMismatch),
        (identity_rows() + identity_rows()[:1], pg.DimensionMismatch),
        ([], pg.DimensionMismatch),
        (with_row(2, ["0"] * 11), pg.DimensionMismatch),
        (with_row(2, ["0"] * 4 + ["1+"] + ["0"] * 7), pg.NonFiniteInput),
        (with_row(2, ["0", "nan"] + ["0"] * 10), pg.NonFiniteInput),
        (with_row(2, ["0"] * 7 + ["inf"] + ["0"] * 4), pg.NonFiniteInput),
    ], ids=["2N-1 rows", "2N+1 rows", "no rows", "4N-1 entries", "unparsable", "nan in A", "inf in B"])
    def test_malformed_file_raises_a_typed_error(self, tmp_path, rows, error):
        path = write_rows(tmp_path / "ab.txt", rows)
        with pytest.raises(error):
            pg.load_bc_matrices(path, 3)

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_fewer_than_two_bonds_raises_too_few_bonds(self, tmp_path, n):
        # an empty file, and the 2N rows of 4N entries the count asks for
        for rows in ([], identity_rows(max(n, 0))):
            with pytest.raises(pg.TooFewBonds):
                pg.load_bc_matrices(write_rows(tmp_path / "ab.txt", rows), n)

    def test_unreadable_file_raises_a_typed_error(self, tmp_path):
        with pytest.raises(pg.UnknownFamily):
            pg.load_bc_matrices(tmp_path / "missing.txt", 3)
        with pytest.raises(pg.UnknownFamily):
            pg.load_bc_matrices(tmp_path, 3)
        # not text under UTF-8; under a one-byte locale encoding its row is malformed
        (tmp_path / "binary.txt").write_bytes(b"\xff\xfe 1 0\n")
        with pytest.raises(pg.PTGraphError):
            pg.load_bc_matrices(tmp_path / "binary.txt", 3)


class TestBCResidual:
    def test_zero_traces(self, graph123):
        bc = pg.bc_matrices(pg.PT_DIRICHLET, graph123)
        t = pg.trace_vectors(pg.zero_function(graph123))
        assert pg.bc_residual(bc, t) == 0.0

    def test_eigenmode_residual_small(self, basis123_d, graph123):
        bc = pg.bc_matrices(pg.PT_DIRICHLET, graph123)
        for mode in basis123_d.modes:
            t = pg.trace_vectors(mode)
            assert pg.bc_residual(bc, t) < 1e-10

    def test_constant_one_violates_dirichlet_ends(self, graph123):
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        f = pg.bond_function(graph123, [one] * 3, [zero] * 3, [zero] * 3)
        bc = pg.bc_matrices(pg.PT_DIRICHLET, graph123)
        t = pg.trace_vectors(f)
        assert pg.bc_residual(bc, t) == pytest.approx(math.sqrt(3), abs=1e-14)

    def test_dimension_mismatch(self, graph123):
        g2 = pg.make_star_graph([1.0, 2.0])
        bc = pg.bc_matrices(pg.PT_DIRICHLET, graph123)
        t = pg.trace_vectors(pg.zero_function(g2))
        with pytest.raises(pg.DimensionMismatch):
            pg.bc_residual(bc, t)


class TestABSymmetry:
    def test_identity_zero_pair(self):
        eye = np.eye(6, dtype=complex)
        zero = np.zeros((6, 6), dtype=complex)
        assert pg.check_ab_symmetry(pg.BCMatrices(a=eye, b=zero, family=pg.CUSTOM)) == 0.0
        assert pg.check_ab_symmetry(pg.BCMatrices(a=zero, b=eye, family=pg.CUSTOM)) == 0.0

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
        r = pg.check_ranks(pg.BCMatrices(a=eye, b=eye, family=pg.CUSTOM))
        assert (r.rank_a, r.rank_b, r.rank_ab) == (6, 6, 6)

    def test_zero_pair(self):
        zero = np.zeros((6, 6), dtype=complex)
        r = pg.check_ranks(pg.BCMatrices(a=zero, b=zero, family=pg.CUSTOM))
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
        f = pg.bond_function(g, [one] * 3, [zero] * 3, [zero] * 3)
        assert pg.l2_inner(f, f) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("resolution", [5.0, 2001.5])
    def test_non_integer_resolution_is_typed(self, graph123, resolution):
        f = pg.trig_function(graph123, [[(1.0, 1.0, 0.3)]] * 3)
        for product in (pg.l2_inner, pg.pt_inner, pg.omega_direct):
            with pytest.raises(pg.EvenPointCount):
                product(f, f, resolution=resolution)

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
        f = pg.bond_function(graph123, [const] * 3, [const] * 3, [const] * 3)
        with pytest.raises(pg.EvaluationFailure):
            pg.l2_inner(f, f)

    def test_pt_zero_and_constants(self, graph123):
        z = pg.zero_function(graph123)
        assert pg.pt_inner(z, z) == 0.0
        g = unit_graph()
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        f = pg.bond_function(g, [one] * 3, [zero] * 3, [zero] * 3)
        assert pg.pt_inner(f, f) == pytest.approx(3.0, abs=1e-12)

    def test_pt_linear_on_one_bond(self):
        # f = x on bond 1 only: int_0^1 (1-x) x dx = 1/6
        g = unit_graph()
        ident = lambda x: np.asarray(x) + 0.0
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        f = pg.bond_function(g, [ident, zero, zero], [one, zero, zero], [zero] * 3)
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
        tz = pg.trace_vectors(z)
        assert pg.omega_hermitian(tz, tz) == 0.0
        assert pg.omega_pt(tz, tz) == 0.0
        assert pg.omega_direct(z, z, pg.HERMITIAN) == 0.0

    @pytest.mark.parametrize("form", [pg.omega_hermitian, pg.omega_pt, pg.omega_pt_symplectic])
    def test_function_on_other_graph_rejected(self, form, graph123, graph111):
        here = pg.trace_vectors(pg.zero_function(graph123))
        there = pg.trace_vectors(pg.zero_function(graph111))
        for tf, tg in ((there, here), (here, there)):
            with pytest.raises(pg.GraphMismatch):
                form(tf, tg)

    @pytest.mark.parametrize("form", [pg.omega_hermitian, pg.omega_pt])
    def test_non_finite_endpoint_rejected(self, form, graph123):
        # the trace table refuses the endpoint, so no form ever reads it
        bad = lambda x: np.full_like(np.asarray(x, dtype=float), np.nan)
        f = pg.bond_function(graph123, [zero] * 3, [zero, zero, bad], [zero] * 3)
        z = pg.zero_function(graph123)
        for args in ((f, z), (z, f)):
            with pytest.raises(pg.EvaluationFailure):
                form(*(pg.trace_vectors(h) for h in args))

    def test_hermitian_skewness_on_diagonal(self, graph123):
        rng = np.random.default_rng(7)
        f = random_trig(graph123, rng)
        # Omega(f,f) must satisfy conj(Omega) = -Omega, i.e. real part 0
        val = pg.omega_direct(f, f, pg.HERMITIAN)
        assert abs(val.real) < 1e-9
        tf = pg.trace_vectors(f)
        val_b = pg.omega_hermitian(tf, tf)
        assert abs(val_b.real) < 1e-12

    def test_sine_vs_linear_matches_direct(self, graph123):
        ls = graph123.lengths
        f = pg.trig_function(graph123, [[(1.0, np.pi, 0.0)]] * 3)
        ident = lambda x: np.asarray(x) + 0.0
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        g = pg.bond_function(graph123, [ident] * 3, [one] * 3, [zero] * 3)
        direct = pg.omega_direct(f, g, pg.HERMITIAN)
        boundary = pg.omega_hermitian(pg.trace_vectors(f), pg.trace_vectors(g))
        assert abs(direct - boundary) < 1e-6

    def test_kirchhoff_modes_annihilate_hermitian_form(self, basis123_k, graph123):
        traces = [pg.trace_vectors(f) for f in basis123_k.modes[:4]]
        for tf in traces:
            for tg in traces:
                assert abs(pg.omega_hermitian(tf, tg)) < 1e-9

    def test_pt_modes_annihilate_pt_form(self, basis123_d, basis123_n, graph123):
        for basis in (basis123_d, basis123_n):
            traces = [pg.trace_vectors(f) for f in basis.modes[:5]]
            for tf in traces:
                for tg in traces:
                    assert abs(pg.omega_pt(tf, tg)) < 1e-8

    def test_pt_modes_do_not_annihilate_hermitian_form(self, basis123_d, graph123):
        f = basis123_d.modes[0]
        g = basis123_d.modes[1]
        assert abs(pg.omega_hermitian(pg.trace_vectors(f), pg.trace_vectors(g))) > 1e-3

    def test_randomized_boundary_vs_volume(self, graph123):
        rng = np.random.default_rng(42)
        for _ in range(50):
            f = random_trig(graph123, rng)
            g = random_trig(graph123, rng)
            tf, tg = pg.trace_vectors(f), pg.trace_vectors(g)
            assert abs(pg.omega_hermitian(tf, tg) - pg.omega_direct(f, g, pg.HERMITIAN)) < 1e-6
            assert abs(pg.omega_pt(tf, tg) - pg.omega_direct(f, g, pg.PT)) < 1e-6
            assert abs(pg.omega_pt(tf, tg) - pg.omega_pt_symplectic(tf, tg)) < 1e-12

    @pytest.mark.parametrize("name", ["basis123_d", "basis123_n", "basis123_k"])
    def test_direct_equals_boundary_forms_on_modes_and_state(self, name, graph123, request):
        # the state reads its f'' from the profiles, as the modes do
        basis = request.getfixturevalue(name)
        state = pg.WaveState(basis, np.exp(0.7j * np.arange(len(basis))), t=0.3)
        funcs = (*basis.modes[:3], state)
        for f in funcs:
            for g in funcs:
                herm = pg.omega_direct(f, g, pg.HERMITIAN, 2001)
                pt = pg.omega_direct(f, g, pg.PT, 2001)
                tf, tg = pg.trace_vectors(f), pg.trace_vectors(g)
                assert abs(herm - pg.omega_hermitian(tf, tg)) < 1e-7
                assert abs(pt - pg.omega_pt(tf, tg)) < 1e-7

    @pytest.mark.parametrize("resolution", [3, 5])
    def test_direct_is_exact_for_quadratics_on_the_coarsest_grids(self, graph123, resolution):
        # Simpson's rule integrates the degree-2 integrands exactly
        def quadratic(j, a, b, c):
            return (lambda x: a * j + b * np.asarray(x) + c * j * np.asarray(x) ** 2,
                    lambda x: b + 2 * c * j * np.asarray(x),
                    lambda x: 2 * c * j + zero(x))

        def build(*coeffs):
            tables = zip(*(quadratic(j, *coeffs) for j in (1, 2, 3)))
            return pg.bond_function(graph123, *tables)

        f, g = build(1.0 + 0.5j, -0.3, 0.7j), build(0.2, 1.1 - 0.4j, -0.6)
        tf, tg = pg.trace_vectors(f), pg.trace_vectors(g)
        for product, boundary in ((pg.HERMITIAN, pg.omega_hermitian), (pg.PT, pg.omega_pt)):
            direct = pg.omega_direct(f, g, product, resolution)
            assert abs(boundary(tf, tg)) > 1.0
            assert direct == pytest.approx(boundary(tf, tg), abs=1e-12)

    def test_unknown_product_tag(self, graph123):
        z = pg.zero_function(graph123)
        with pytest.raises(pg.UnknownFamily):
            pg.omega_direct(z, z, "euclidean")


def signed_zeros(rng, shape, p_zero):
    """Random complex entries whose real and imaginary parts are each, with
    probability p_zero, replaced by 0.0 or -0.0."""
    parts = rng.normal(size=(2, *shape))
    zeros = rng.choice(np.array([0.0, -0.0]), size=parts.shape)
    parts = np.where(rng.random(parts.shape) < p_zero, zeros, parts)
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = parts
    return z


class TestIndexFormsEqualDenseForms:
    """check_ab_symmetry swaps B's column blocks and omega_pt_symplectic applies
    J by index; both equal the dense S and J products of tests/util.py bit for
    bit, signed zeros included."""

    P_ZERO = (0.0, 0.3, 0.9, 1.0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_ab_symmetry_on_builtin_and_random_pairs(self, n):
        rng = np.random.default_rng(n)
        graph = pg.make_star_graph(np.linspace(1.0, 2.0, n))
        pairs = [pg.bc_matrices(fam, graph) for fam in pg.BUILTIN_FAMILIES]
        pairs += [pg.BCMatrices(a=signed_zeros(rng, (2 * n, 2 * n), p),
                                b=signed_zeros(rng, (2 * n, 2 * n), q), family=pg.CUSTOM)
                  for p in self.P_ZERO for q in self.P_ZERO for _ in range(3)]
        for bc in pairs:
            assert bits(pg.check_ab_symmetry(bc)) == bits(ab_symmetry_reference(bc))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_symplectic_on_random_tables(self, n):
        rng = np.random.default_rng(100 + n)
        graph = pg.make_star_graph(np.linspace(1.0, 2.0, n))
        tables = [pg.TraceVectors(graph, signed_zeros(rng, (n, 4), p))
                  for p in self.P_ZERO for _ in range(4)]
        for tf in tables:
            for tg in tables:
                assert bits(pg.omega_pt_symplectic(tf, tg)) == bits(symplectic_reference(tf, tg))

    @pytest.mark.parametrize("cid", ["verify-dirichlet", "verify-four", "verify-neumann"])
    def test_symplectic_on_verify_mode_traces(self, cid):
        args = cli.build_parser().parse_args(cli_pool.CONFIGS[cid].split())
        assert args.family in (pg.PT_DIRICHLET, pg.PT_NEUMANN)
        graph = pg.make_star_graph([float(t) for t in args.lengths.split(",")])
        basis = pg.build_basis(graph, args.family, args.kmax, k_min=args.tol,
                               resolution=args.resolution)
        traces = [pg.trace_vectors(m) for m in basis.modes]
        assert len(traces) >= 5
        for tf in traces:
            for tg in traces:
                assert bits(pg.omega_pt_symplectic(tf, tg)) == bits(symplectic_reference(tf, tg))


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
            w = pg.simpson_weights(grid.size, grid[1] - grid[0])
            xs = grid
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

    def test_basis_on_other_graph_rejected(self, basis_inc_d, graph_inc):
        f = pg.trig_function(graph_inc, [[(1.0, 2.0, 0.3)]] * 3)
        other = pg.build_basis(pg.make_star_graph([2.0, 1.3, 1.7]), pg.PT_DIRICHLET, 20.0)
        assert abs(pg.cpt_inner(f, f, basis_inc_d, truncation=5)) > 0.0
        with pytest.raises(pg.GraphMismatch):
            pg.cpt_inner(f, f, other, truncation=5)

    def test_truncation_validation(self, basis_inc_d, graph_inc):
        z = pg.zero_function(graph_inc)
        with pytest.raises(pg.InsufficientBasis):
            pg.cpt_inner(z, z, basis_inc_d, truncation=0)
        with pytest.raises(pg.InsufficientBasis):
            pg.cpt_inner(z, z, basis_inc_d, truncation=len(basis_inc_d.modes) + 1)
        for bad in (2.5, 2.0, "2", None):
            with pytest.raises(pg.InsufficientBasis):
                pg.cpt_inner(z, z, basis_inc_d, truncation=bad)

    def test_bool_truncation_refused(self, basis_inc_d, graph_inc):
        # bool is an int subclass: True would otherwise run as truncation 1
        z = pg.zero_function(graph_inc)
        for bad in (True, False, np.bool_(True)):
            with pytest.raises(pg.InsufficientBasis):
                pg.cpt_inner(z, z, basis_inc_d, bad)

    def test_numpy_integer_truncation_accepted(self, basis_inc_d):
        f = basis_inc_d.modes[1]
        assert pg.cpt_inner(f, f, basis_inc_d, truncation=np.int64(4)) == pg.cpt_inner(
            f, f, basis_inc_d, truncation=4
        )

    def test_non_integer_resolution_is_typed(self, basis_inc_d):
        f = basis_inc_d.modes[0]
        with pytest.raises(pg.EvenPointCount):
            pg.cpt_inner(f, f, basis_inc_d, truncation=3, resolution=2001.0)


def recorded(f, calls):
    """f rebuilt from per-bond callables that log (bond, order, x) at every read."""
    def reader(j, order):
        def read(x):
            calls.append((j, order, np.array(x, dtype=float)))
            return f.evaluate(j, x, order)
        return read
    bonds = range(1, f.graph.n_bonds + 1)
    return pg.bond_function(f.graph, *([reader(j, order) for j in bonds] for order in (0, 1, 2)))


class TestReflectionIsSampleReversal:
    """pt_inner, cpt_inner and omega_direct read every function on the bond grid
    only: the parity x -> L_j - x is the reversal of the samples, exact on the
    symmetric grid and Simpson weights."""

    RES = 201
    FORMS = {
        "pt_inner": lambda f, g, basis, res: pg.pt_inner(f, g, res),
        "cpt_inner": lambda f, g, basis, res: pg.cpt_inner(f, g, basis, 5, res),
        "omega_direct_pt": lambda f, g, basis, res: pg.omega_direct(f, g, pg.PT, res),
        "omega_direct_hermitian": lambda f, g, basis, res: pg.omega_direct(f, g, pg.HERMITIAN, res),
    }

    @pytest.fixture
    def pair(self, graph_inc):
        rng = np.random.default_rng(26)
        return random_trig(graph_inc, rng), random_trig(graph_inc, rng)

    @pytest.mark.parametrize("name", sorted(FORMS))
    @pytest.mark.parametrize("same", [False, True], ids=["f_g", "f_f"])
    def test_every_read_is_a_slice_of_the_bond_grid(self, name, same, pair, basis_inc_d, graph_inc):
        calls = []
        f = recorded(pair[0], calls)
        g = f if same else recorded(pair[1], calls)
        self.FORMS[name](f, g, basis_inc_d, self.RES)
        assert calls
        for j, _, x in calls:
            grid = pg.bond_grid(graph_inc, j, self.RES)
            start = int(np.searchsorted(grid, x[0]))
            assert grid[start:start + x.size].tobytes() == x.tobytes(), (name, j)

    @pytest.mark.parametrize("name", ["pt_inner", "cpt_inner"])
    def test_a_function_paired_with_itself_is_sampled_once_per_bond(self, name, pair, basis_inc_d,
                                                                     graph_inc):
        calls = []
        f = recorded(pair[0], calls)
        self.FORMS[name](f, f, basis_inc_d, self.RES)
        assert sorted((j, order) for j, order, _ in calls) == [(j, 0) for j in (1, 2, 3)]

    def test_pt_inner_matches_the_reflection_evaluated_off_the_grid(self, pair, graph_inc):
        f, g = pair
        want = sum(
            pg.quadrature(np.conj(f.value(j, graph_inc.length(j) - grid)) * g.value(j, grid), grid)
            for j, grid in ((j, pg.bond_grid(graph_inc, j, self.RES)) for j in (1, 2, 3))
        )
        got = pg.pt_inner(f, g, self.RES)
        assert abs(got - want) <= 1e-14 * abs(want)


class TestNonFiniteSamples:
    FORMS = {
        "l2_inner": lambda f, g, basis: pg.l2_inner(f, g),
        "pt_inner": lambda f, g, basis: pg.pt_inner(f, g),
        "cpt_inner": lambda f, g, basis: pg.cpt_inner(f, g, basis, truncation=5),
        "omega_direct": lambda f, g, basis: pg.omega_direct(f, g),
        "omega_direct_pt": lambda f, g, basis: pg.omega_direct(f, g, pg.PT),
    }

    @pytest.fixture
    def nan_on_bond_3(self, graph_inc):
        terms = [[(1.0, 2.0, 0.3)], [(0.5, 1.0, 0.0)], [(math.nan, 1.0, 0.0)]]
        return pg.trig_function(graph_inc, terms)

    @pytest.mark.parametrize("name", sorted(FORMS))
    def test_nan_amplitude_raises_in_every_form(self, name, nan_on_bond_3, basis_inc_d, graph_inc):
        good = pg.trig_function(graph_inc, [[(1.0, 2.0, 0.3)]] * 3)
        for f, g in ((nan_on_bond_3, good), (good, nan_on_bond_3)):
            with pytest.raises(pg.EvaluationFailure):
                self.FORMS[name](f, g, basis_inc_d)

    def test_nan_amplitude_raises_in_project(self, nan_on_bond_3, basis_inc_d):
        with pytest.raises(pg.EvaluationFailure):
            pg.project(nan_on_bond_3, basis_inc_d)


class TestGraphKernelCPT:
    """The graph-kernel CPT product of tests/util.py on (1, 1.3, 1.7) with every
    mode below k = 40 at 4001 points: positive on the span of the PT modes, zero
    on the L2 complement of that span, and negative on a plain trig function
    outside it. So for the built-in families the form is indefinite on L2."""

    @pytest.fixture(scope="class", params=[pg.PT_DIRICHLET, pg.PT_NEUMANN])
    def setup(self, request, graph_inc):
        basis = pg.build_basis(graph_inc, request.param, 40.0)
        assert len(basis) == 25
        return basis, graph_kernel_cpt(basis, 4001)

    @pytest.fixture(scope="class")
    def target(self, graph_inc):
        """sin(pi x / L_j) + 0.3 sin(2 pi x / L_j) on every bond."""
        terms = [[(1.0, math.pi / l, 0.0), (0.3, 2 * math.pi / l, 0.0)] for l in graph_inc.lengths]
        return pg.trig_function(graph_inc, terms)

    def test_positive_on_random_states_in_the_span(self, setup):
        basis, form = setup
        rng = np.random.default_rng(20)
        for _ in range(25):
            c = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
            s = pg.WaveState(basis, c)
            value = form(s, s)
            assert value.real > 1.0 and abs(value.imag) < 1e-9 * abs(value)

    def test_vanishes_on_the_residual_of_the_projection(self, setup, target):
        basis, form = setup
        residual = pg.combine([target, pg.project(target, basis, 4001).state], [1.0, -1.0])
        assert abs(form(residual, residual)) < 1e-12

    def test_negative_on_a_trig_function_where_cpt_inner_is_positive(self, setup, target):
        basis, form = setup
        want = {pg.PT_DIRICHLET: (-0.17417, 1.39015), pg.PT_NEUMANN: (-0.28294, 0.17028)}
        graph_value = form(target, target)
        package_value = pg.cpt_inner(target, target, basis, len(basis), 4001)
        assert graph_value.real < 0.0 < package_value.real
        for got, value in zip((graph_value, package_value), want[basis.family]):
            assert abs(got - value) < 1e-5


class TestBondFunction:
    def test_callable_counts_enforced(self, graph123):
        one = lambda x: np.asarray(x) + 0j
        for tables in (
            ([one] * 2, [one] * 3, [one] * 3),
            ([one] * 3, [one] * 4, [one] * 3),
            ([one] * 3, [one] * 3, [one] * 2),
            ([one] * 3, [one] * 3, []),
        ):
            with pytest.raises(pg.DimensionMismatch, match="one callable per bond"):
                pg.bond_function(graph123, *tables)
        with pytest.raises(TypeError):
            pg.bond_function(graph123, [one] * 3, [one] * 3)

    def test_each_order_reads_its_own_table(self, graph123):
        tables = [[(lambda x, o=o, j=j: o + 10 * j + np.asarray(x)) for j in (1, 2, 3)]
                  for o in (0, 1, 2)]
        f = pg.bond_function(graph123, *tables)
        readers = (f.value, f.deriv, f.second_deriv)
        for order, reader in enumerate(readers):
            for j in (1, 2, 3):
                assert reader(j, 0.25) == f.evaluate(j, 0.25, order) == order + 10 * j + 0.25


class TestCombine:
    def test_every_order_is_the_sum_of_its_members(self, graph123, basis123_d):
        trig = pg.trig_function(graph123, [[(1.0, 2.0, 0.3)]] * 3)
        members = (trig, rebuilt(trig), basis123_d.modes[1])
        coeffs = (1.0, 2.0, 0.5j - 0.2)
        f = pg.combine(members, coeffs)
        for order in (0, 1, 2):
            for j, x in ((2, 0.1), (3, np.linspace(0.0, 2.0, 7))):
                parts = [c * np.asarray(m.evaluate(j, x, order), dtype=complex)
                         for c, m in zip(coeffs, members)]
                assert bits(f.evaluate(j, x, order)) == bits(parts[0] + parts[1] + parts[2])
        mode = members[2]
        want = -12.0 * trig.value(2, 0.1) - coeffs[2] * mode.k**2 * mode.value(2, 0.1)
        assert f.second_deriv(2, 0.1) == pytest.approx(want)

    def test_coefficient_count_enforced(self, graph123):
        z = pg.zero_function(graph123)
        with pytest.raises(pg.DimensionMismatch):
            pg.combine([z, z], [1.0])

    def test_mixed_graphs_rejected(self, graph123, graph111):
        with pytest.raises(pg.GraphMismatch):
            pg.combine([pg.zero_function(graph123), pg.zero_function(graph111)], [1.0, 1.0])

    def test_empty_combination_rejected(self):
        with pytest.raises(pg.DimensionMismatch, match="at least one function"):
            pg.combine([], [])


def test_trig_function_needs_one_term_list_per_bond(graph123):
    for terms in ([[(1.0, 2.0, 0.3)]] * 2, [[(1.0, 2.0, 0.3)]] * 4):
        with pytest.raises(pg.DimensionMismatch, match="one term list per bond"):
            pg.trig_function(graph123, terms)


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
        assert state.graph == state.basis.graph
        for f in functions:
            assert bits(f.second_deriv(1, 0.5)) == bits(f.evaluate(1, 0.5, 2))

    def test_second_deriv_matches_finite_differences(self, basis123_d, basis123_n, basis123_k):
        state = pg.WaveState(basis123_n, np.exp(0.7j * np.arange(len(basis123_n))), t=0.3)
        mixed = pg.combine(basis123_d.modes[:3], [1.0, 0.5j - 0.2, 0.3])
        for f in (basis123_d.modes[1], basis123_n.modes[1], basis123_k.modes[1], state, mixed):
            points = [(j, x) for j in (1, 2, 3) for x in np.linspace(0.1, 0.9, 5) * f.graph.length(j)]
            exact = np.array([f.second_deriv(j, x) for j, x in points])
            fd = np.array([fd_second_derivative(partial(f.value, j), x) for j, x in points])
            assert np.max(np.abs(exact - fd)) < 1e-6 * np.max(np.abs(exact))

    def test_every_form_reads_them_as_rebuilt(self, functions, basis123_d, graph123):
        res = 401

        def forms(f, g):
            combined = pg.combine([f, g], [1.0, 0.5j - 0.2])
            tf, tg = pg.trace_vectors(f), pg.trace_vectors(g)
            projected = pg.project(f, basis123_d, res)
            sampled = [
                combined.evaluate(j, np.linspace(0.0, graph123.length(j), 9), order)
                for j in (1, 2, 3) for order in (0, 1, 2)
            ]
            return bits(
                pg.l2_inner(f, g, res), pg.l2_inner(f, f, res), pg.pt_inner(f, g, res),
                pg.cpt_inner(f, g, basis123_d, truncation=5, resolution=res),
                pg.omega_hermitian(tf, tg), pg.omega_pt(tf, tg), pg.omega_pt_symplectic(tf, tg),
                pg.omega_direct(f, g, pg.HERMITIAN, res), pg.omega_direct(f, g, pg.PT, res),
                tf.psi, tf.dpsi, *sampled,
                projected.state.coeffs, projected.residual, projected.gram_cond,
            )

        for f in functions:
            for g in functions:
                assert forms(f, g) == forms(rebuilt(f), rebuilt(g))


class TestDerivativeOrders:
    """Orders other than 0, 1 and 2 are refused, never read as another order."""

    @pytest.fixture
    def evaluators(self, basis123_d, graph123):
        trig = pg.trig_function(graph123, [[(1.0, 2.0, 0.3)]] * 3)
        state = pg.WaveState(basis123_d, np.ones(len(basis123_d)), t=0.3)
        return {
            "mode": basis123_d.modes[0].evaluate,
            "profiles": lambda j, x, order: basis123_d.profiles(j, x, order=order),
            "state": state.evaluate,
            "trig_function": trig.evaluate,
            "bond_function": rebuilt(trig).evaluate,
            "combine": pg.combine([trig, basis123_d.modes[0]], [1.0, 2.0]).evaluate,
        }

    @pytest.mark.parametrize(
        "kind", ["mode", "profiles", "state", "trig_function", "bond_function", "combine"]
    )
    @pytest.mark.parametrize("order", [-1, 3, 5, 7, True, False, 1.0, "1"])
    def test_unsupported_order_raises(self, evaluators, kind, order):
        evaluate = evaluators[kind]
        for order_ok in (0, 1, 2):
            assert np.all(np.isfinite(evaluate(1, 0.3, order_ok)))
        with pytest.raises(pg.OutOfDomain, match="derivative order"):
            evaluate(1, 0.3, order)


class TestBondRange:
    """A bond outside 1..N is refused, never read as a Python index."""

    @pytest.fixture
    def functions(self, graph123):
        trig = pg.trig_function(graph123, [[(1.0, 1.0 + j, 0.3)] for j in range(3)])
        return {
            "trig_function": trig,
            "zero_function": pg.zero_function(graph123),
            "bond_function": rebuilt(trig),
            "combine": pg.combine([trig, rebuilt(trig)], [1.0, 2.0]),
        }

    @pytest.mark.parametrize("kind", ["trig_function", "zero_function", "bond_function", "combine"])
    @pytest.mark.parametrize("bond", [0, -1, 4, True, False, 1.0, "1"])
    def test_bond_out_of_range_raises(self, functions, kind, bond):
        f = functions[kind]
        for order in (0, 1, 2):
            assert np.all(np.isfinite(f.evaluate(3, 0.3, order)))
            with pytest.raises(pg.OutOfDomain, match="bond index"):
                f.evaluate(bond, 0.3, order)

    @pytest.mark.parametrize("bond", [True, 1.0, "1", np.True_])
    def test_bool_or_non_integer_bond_raises_in_every_evaluator(self, basis123_d, graph123, bond):
        state = pg.WaveState(basis123_d, np.ones(len(basis123_d)))
        calls = (
            lambda: basis123_d.modes[0].value(bond, 0.3),
            lambda: basis123_d.profiles(bond, 0.3),
            lambda: state.value(bond, 0.3),
            lambda: pg.bond_current(state, bond, 0.3),
            lambda: pg.bond_grid(graph123, bond, 5),
            lambda: graph123.length(bond),
        )
        for call in calls:
            with pytest.raises(pg.OutOfDomain, match="bond index"):
                call()

    def test_numpy_integer_bond_and_order_are_valid(self, functions, basis123_d):
        f = functions["trig_function"]
        mode = basis123_d.modes[0]
        for g in (f, mode):
            for order in (0, 1, 2):
                want = bits(g.evaluate(2, 0.3, order))
                assert bits(g.evaluate(np.int64(2), 0.3, np.int32(order))) == want
