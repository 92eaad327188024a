import math

import numpy as np
import pytest

import ptgraph as pg
from ptgraph import graph


class TestMakeStarGraph:
    def test_three_bonds(self):
        g = pg.make_star_graph([1.0, 1.5, 2.0])
        assert g.n_bonds == 3
        assert g.lengths == (1.0, 1.5, 2.0)

    def test_lengths_stored_exactly(self):
        vals = [0.1 + 0.2, 1.0 / 3.0, 7.0]
        g = pg.make_star_graph(vals)
        assert all(a == b for a, b in zip(g.lengths, vals))

    def test_single_bond_rejected(self):
        with pytest.raises(pg.TooFewBonds):
            pg.make_star_graph([1.0])

    def test_empty_rejected(self):
        with pytest.raises(pg.TooFewBonds):
            pg.make_star_graph([])

    def test_negative_length_rejected(self):
        with pytest.raises(pg.NonPositiveLength):
            pg.make_star_graph([1.0, -2.0, 3.0])

    def test_zero_length_rejected(self):
        with pytest.raises(pg.NonPositiveLength):
            pg.make_star_graph([1.0, 0.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(pg.NonFiniteInput):
            pg.make_star_graph([1.0, bad, 3.0])

    @pytest.mark.parametrize("text", ["12", b"12"], ids=["str", "bytes"])
    def test_string_is_not_a_length_sequence(self, text):
        # iterated, "12" would give lengths (1.0, 2.0) and b"12" (49.0, 50.0)
        with pytest.raises(pg.DimensionMismatch):
            pg.make_star_graph(text)

    @pytest.mark.parametrize("bad", [3, None, {1: 2, 3: 4}], ids=["int", "None", "dict"])
    def test_non_sequence_is_refused(self, bad):
        # tuple() raises a bare TypeError on 3 and None, and reads a dict as
        # its keys, lengths (1.0, 3.0)
        with pytest.raises(pg.DimensionMismatch, match="sequence of numbers"):
            pg.make_star_graph(bad)

    @pytest.mark.parametrize("bad", ["a", None, 1j, 10**400],
                             ids=["text", "None", "complex", "too large"])
    def test_unreadable_length_names_its_bond(self, bad):
        with pytest.raises(pg.NonFiniteInput, match="bond 2"):
            pg.make_star_graph([1.0, bad, 3.0])

    def test_length_accessor(self):
        g = pg.make_star_graph([1.0, 1.5, 2.0])
        assert g.length(2) == 1.5
        with pytest.raises(pg.OutOfDomain):
            g.length(0)
        with pytest.raises(pg.OutOfDomain):
            g.length(4)


class TestBondGrid:
    def test_uniform_with_endpoints(self, graph123):
        grid = pg.bond_grid(graph123, 3, 11)
        assert grid[0] == 0.0
        assert grid[-1] == 2.0
        assert np.allclose(np.diff(grid), grid[1] - grid[0])

    @pytest.mark.parametrize("count", [2, 4, 100, 1, 0, 5.0, 4.5, "5", None])
    def test_bad_counts_rejected(self, graph123, count):
        with pytest.raises(pg.EvenPointCount):
            pg.bond_grid(graph123, 1, count)
        with pytest.raises(pg.EvenPointCount):
            pg.simpson_weights(count, 0.1)

    def test_numpy_integer_counts_accepted(self, graph123):
        for count in (np.int64(5), np.int32(5), np.uint16(5)):
            assert np.array_equal(pg.bond_grid(graph123, 1, count), np.linspace(0.0, 1.0, 5))
            assert pg.simpson_weights(count, 0.25).shape == (5,)


def literal_simpson_weights(count, spacing):
    w = np.full(count, 2.0)
    w[1:-1:2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (spacing / 3.0)


class TestGridSlices:
    # on bond 3, (L / (count - 1)) * (count - 1) != L at 2001 and 4001 points,
    # so the joined points only match linspace if the endpoint is pinned to L
    lengths = (1.0, 1.3, 0.999599)

    def test_bond_3_needs_the_pinned_endpoint(self):
        length = self.lengths[2]
        assert all((length / (n - 1)) * (n - 1) != length for n in (2001, 4001))

    @pytest.mark.parametrize("count", [3, 5, 2001, 4001])
    @pytest.mark.parametrize("bond", [1, 2, 3])
    def test_bond_grid_equals_linspace_bit_for_bit(self, count, bond):
        g = pg.make_star_graph(self.lengths)
        expected = np.linspace(0.0, self.lengths[bond - 1], count)
        assert pg.bond_grid(g, bond, count).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("count", [3, 5, 2001, 4001])
    # a budget of 4001 elements holds every count in one slice
    @pytest.mark.parametrize("width", [1, 2, 7, 4001], ids=["1", "2", "7", "whole"])
    @pytest.mark.parametrize("bond", [1, 2, 3])
    def test_joined_slices_equal_grid_and_weights_bit_for_bit(self, count, width, bond):
        g = pg.make_star_graph(self.lengths)
        grid = pg.bond_grid(g, bond, count)
        parts = list(graph._grid_slices(g, bond, count, 1, width))
        assert len(parts) == -(-count // width)
        assert all(x.size == w.size <= width for x, w in parts)
        points = np.concatenate([x for x, _ in parts])
        weights = np.concatenate([w for _, w in parts])
        assert points.tobytes() == grid.tobytes()
        assert weights.tobytes() == pg.simpson_weights(grid.size, grid[1] - grid[0]).tobytes()
        assert weights.tobytes() == literal_simpson_weights(grid.size, grid[1] - grid[0]).tobytes()

    def test_budget_bounds_each_block(self, graph123):
        # at 7 rows a budget of 50 elements leaves 7 points per slice
        sizes = [x.size for x, _ in graph._grid_slices(graph123, 3, 41, 7, 50)]
        assert sizes == [7] * 5 + [6]

    def test_slices_cover_the_range_once(self):
        for n, width, budget in ((0, 3, 10), (1, 3, 10), (10, 3, 2), (10, 0, 4)):
            covered = [i for s in graph._slices(n, width, budget) for i in range(n)[s]]
            assert covered == list(range(n))


class TestQuadrature:
    def test_constant(self, graph123):
        grid = pg.bond_grid(graph123, 1, 101)
        assert pg.quadrature(np.ones(101), grid) == pytest.approx(1.0, abs=1e-14)

    def test_exact_on_quadratic(self, graph123):
        grid = pg.bond_grid(graph123, 1, 3)
        vals = grid**2
        assert pg.quadrature(vals, grid) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_exact_on_cubic(self, graph123):
        grid = pg.bond_grid(graph123, 1, 5)
        vals = grid**3
        assert pg.quadrature(vals, grid) == pytest.approx(0.25, abs=1e-15)

    def test_sin_squared(self, graph123):
        # int_0^1 sin^2(pi x) dx = 1/2 exactly
        grid = pg.bond_grid(graph123, 1, 201)
        vals = np.sin(np.pi * grid) ** 2
        assert pg.quadrature(vals, grid) == pytest.approx(0.5, abs=1e-10)

    def test_complex_values(self, graph123):
        grid = pg.bond_grid(graph123, 1, 201)
        vals = np.exp(1j * grid)
        exact = (np.exp(1j) - 1.0) / 1j
        assert abs(pg.quadrature(vals, grid) - exact) < 1e-10

    def test_sample_count_mismatch(self, graph123):
        grid = pg.bond_grid(graph123, 1, 101)
        with pytest.raises(pg.LengthMismatch):
            pg.quadrature(np.ones(100), grid)

    def test_fourth_order_convergence(self, graph123):
        # halving h must shrink the error by at least 2^3 (typically 2^4)
        exact = (1.0 - math.cos(6.0)) / 3.0  # int_0^2 sin(3x) dx
        errs = []
        for count in (17, 33, 65):
            grid = pg.bond_grid(graph123, 3, count)
            q = pg.quadrature(np.sin(3.0 * grid), grid)
            errs.append(abs(q.real - exact))
        assert errs[0] / errs[1] >= 8.0
        assert errs[1] / errs[2] >= 8.0

    def test_weights_match_quadrature(self, graph123):
        grid = pg.bond_grid(graph123, 2, 41)
        w = pg.simpson_weights(grid.size, grid[1] - grid[0])
        vals = np.cos(grid) + 1j * grid
        assert complex(w @ vals) == pytest.approx(pg.quadrature(vals, grid), abs=1e-14)
