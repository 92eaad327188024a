import dataclasses
import math
import random
import re
import time
import tracemalloc

import numpy as np
import pytest

import ptgraph as pg
from perfbench.tracer import Tracer
from ptgraph import cli, spectral
from util import (
    GOLDEN_K1,
    GOLDEN_KIRCHHOFF_123,
    GOLDEN_REGULAR_123,
    GOLDEN_ROOT_COUNT_123,
    GOLDEN_SECULAR_AT_1,
    cofactor_sum_reference,
    fd_derivative,
    fd_second_derivative,
)


class TestSecular:
    def test_zero_at_origin(self, graph123, graph111):
        assert pg.secular(0.0, graph123) == 0.0
        assert pg.secular(0.0, graph111) == 0.0

    def test_equal_lengths_at_pi(self, graph111):
        assert abs(pg.secular(math.pi, graph111)) < 1e-14

    def test_frozen_value_at_one(self, graph123):
        assert pg.secular(1.0, graph123) == pytest.approx(GOLDEN_SECULAR_AT_1, abs=1e-12)

    def test_matches_three_bond_product_form(self, graph123):
        rng = np.random.default_rng(11)
        l1, l2, l3 = graph123.lengths
        for k in rng.uniform(0.1, 25.0, size=40):
            s1, s2, s3 = math.sin(k * l1), math.sin(k * l2), math.sin(k * l3)
            direct = s1 * s2 + s1 * s3 + s2 * s3
            assert pg.secular(float(k), graph123) == pytest.approx(direct, abs=1e-13)

    def test_vectorized(self, graph123):
        ks = np.linspace(0.5, 5.0, 7)
        vec = pg.secular(ks, graph123)
        assert vec.shape == ks.shape
        assert np.allclose(vec, [pg.secular(float(k), graph123) for k in ks])

    def test_general_n_reduces_to_cosecant_sum(self):
        # for N = 4 the pole-free form divided by the sine product must match
        # sum_j 1/sin(k L_j) away from sine zeros
        g = pg.make_star_graph([1.0, 1.3, 1.7, 2.3])
        rng = np.random.default_rng(5)
        for k in rng.uniform(0.3, 10.0, size=25):
            sines = [math.sin(k * l) for l in g.lengths]
            if min(abs(s) for s in sines) < 1e-2:
                continue
            csum = sum(1.0 / s for s in sines)
            prod = np.prod(sines)
            assert pg.secular(float(k), g) == pytest.approx(csum * prod, rel=1e-10)

    def test_kirchhoff_reduces_to_cotangent_sum(self, graph123):
        rng = np.random.default_rng(6)
        for k in rng.uniform(0.3, 10.0, size=25):
            sines = [math.sin(k * l) for l in graph123.lengths]
            if min(abs(s) for s in sines) < 1e-2:
                continue
            cot = sum(math.cos(k * l) / math.sin(k * l) for l in graph123.lengths)
            prod = np.prod(sines)
            assert pg.secular_kirchhoff(float(k), graph123) == pytest.approx(cot * prod, rel=1e-10)

    @pytest.mark.parametrize("fn", [pg.secular, pg.secular_kirchhoff])
    def test_value_does_not_depend_on_batch(self, fn):
        # find_roots evaluates the same points in batches of varying size; its
        # roots keep their bits only if a value does not depend on its batch
        rng = np.random.default_rng(17)
        for n in range(2, 13):
            g = pg.make_star_graph(list(rng.uniform(0.3, 3.0, n)))
            ks = 200.0 * (1.0 - rng.random(600))  # (0, 200]
            ref = np.array([fn(float(k), g) for k in ks])
            for size in (1, 7, 256, 600):
                got = np.concatenate([fn(ks[i : i + size], g) for i in range(0, ks.size, size)])
                assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), (n, size)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_bits_match_delete_reference(self, weighted):
        # random k and k at or within 1e-12 of sine zeros, where terms and
        # their signed zeros are most sensitive to the order of the products
        fn = pg.secular_kirchhoff if weighted else pg.secular
        rng = np.random.default_rng(23)
        for n in range(2, 25):
            lengths = rng.uniform(0.2, 3.0, n)
            g = pg.make_star_graph(list(lengths))
            lattice = rng.integers(1, 100, 60) * math.pi / rng.choice(lengths, 60)
            ks = np.concatenate([rng.uniform(0.0, 1000.0, 120), lattice,
                                 lattice * (1.0 + 1e-12), lattice * (1.0 - 1e-12)])
            ref = cofactor_sum_reference(ks, lengths, weighted)
            assert np.array_equal(fn(ks, g).view(np.int64), ref.view(np.int64)), n
            for k in ks[::30]:
                got, want = fn(float(k), g), cofactor_sum_reference(float(k), lengths, weighted)
                assert isinstance(got, float)
                assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), (n, k)


class TestFindRoots:
    def test_golden_window(self, graph123):
        start = time.perf_counter()
        roots = pg.find_roots(graph123, 0.0, 20.0)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert len(roots) == GOLDEN_ROOT_COUNT_123
        assert abs(roots[0].k - GOLDEN_K1) < 1e-9
        for r in roots:
            assert abs(pg.secular(r.k, graph123)) < 1e-10
        regular = [r.k for r in roots if not r.degenerate]
        assert np.allclose(regular, GOLDEN_REGULAR_123, atol=1e-9)
        degenerate = [r.k for r in roots if r.degenerate]
        assert np.allclose(degenerate, [n * math.pi for n in range(1, 7)], atol=1e-7)

    def test_first_window_has_single_root(self, graph123):
        roots = pg.find_roots(graph123, 0.0, 2.0)
        assert len(roots) == 1
        assert abs(roots[0].k - GOLDEN_K1) < 1e-9

    def test_equal_lengths_even_root_flagged(self, graph111):
        roots = pg.find_roots(graph111, 0.0, 4.0)
        assert len(roots) == 1
        r = roots[0]
        assert r.degenerate
        assert abs(r.k - math.pi) < 1e-7

    def test_roots_ascending_and_deduplicated(self, graph123):
        roots = pg.find_roots(graph123, 0.0, 20.0)
        ks = [r.k for r in roots]
        assert all(b - a > 1e-9 for a, b in zip(ks, ks[1:]))

    def test_interlacing(self, graph123):
        # between consecutive roots the secular function keeps a definite sign
        roots = pg.find_roots(graph123, 0.0, 20.0)
        ks = [r.k for r in roots]
        for a, b in zip(ks, ks[1:]):
            mid = 0.5 * (a + b)
            assert abs(pg.secular(mid, graph123)) > 1e-6

    def test_invalid_windows(self, graph123):
        with pytest.raises(pg.InvalidWindow):
            pg.find_roots(graph123, 5.0, 1.0)
        with pytest.raises(pg.InvalidWindow):
            pg.find_roots(graph123, -1.0, 5.0)
        bad = ((5.0, 5.0), (0.0, 0.0), (-1e-300, 5.0), (math.nan, 5.0), (0.0, math.inf))
        for k_min, k_max in bad:
            with pytest.raises(pg.InvalidWindow):
                pg.find_roots(graph123, k_min, k_max)

    @pytest.mark.parametrize("k_min, k_max", [
        ("0", 10.0), (0.0, "10"), (0.0, 10 + 0j), (None, 10.0), (0.0, None),
        pytest.param(0.0, 10**400, id="0.0-10**400"),
    ])
    def test_non_real_window_is_typed(self, graph123, k_min, k_max):
        with pytest.raises(pg.InvalidWindow):
            pg.find_roots(graph123, k_min, k_max)
        with pytest.raises(pg.InvalidWindow):
            pg.build_basis(graph123, pg.PT_DIRICHLET, k_max, k_min)

    @pytest.mark.parametrize("family", [pg.PT_DIRICHLET, pg.KIRCHHOFF_REF])
    def test_window_below_the_default_cut_off_is_empty(self, graph123, family):
        assert pg.find_roots(graph123, 0.0, 1e-13, family) == []
        basis = pg.build_basis(graph123, family, 1e-13)
        assert basis.modes == basis.degenerate_roots == ()

    # only lattices far beyond any memory: 6.4e20 nodes, more than numpy can index,
    # and 6.4e13 nodes (463 TiB), whose allocation fails at once
    @pytest.mark.parametrize("long_bond,nodes", [(1e20, "6.366e+20"), (1e13, "6.366e+13")])
    @pytest.mark.parametrize("family", [pg.PT_DIRICHLET, pg.KIRCHHOFF_REF])
    def test_a_pole_lattice_too_large_to_allocate_is_a_typed_refusal(self, long_bond, nodes,
                                                                      family):
        graph = pg.make_star_graph([1.0, long_bond])
        with pytest.raises(pg.InvalidWindow, match=f"has {re.escape(nodes)} nodes"):
            pg.find_roots(graph, 0.0, 20.0, family)

    @pytest.mark.parametrize("family", [pg.PT_DIRICHLET, pg.KIRCHHOFF_REF])
    def test_zero_k_min_starts_the_window_at_the_default_cut_off(self, graph123, family):
        got = pg.find_roots(graph123, 0.0, 20.0, family)
        want = pg.find_roots(graph123, cli.DEFAULT_ROOT_TOL, 20.0, family)
        assert len(got) > 5
        assert [(r.k, r.degenerate) for r in got] == [(r.k, r.degenerate) for r in want]

    def test_kirchhoff_family_roots(self, graph123):
        roots = pg.find_roots(graph123, 0.0, 6.0, family=pg.KIRCHHOFF_REF)
        regular = [r.k for r in roots if not r.degenerate]
        assert len(regular) >= 5
        assert np.allclose(regular[:5], GOLDEN_KIRCHHOFF_123, atol=1e-9)
        for r in roots:
            assert abs(pg.secular_kirchhoff(r.k, graph123)) < 1e-10

    @pytest.mark.parametrize("rows", [1, 7, None], ids=["1-row", "7-rows", "whole-level"])
    def test_roots_do_not_depend_on_rolle_slice(self, rows, monkeypatch):
        # the Rolle test of a level runs slice by slice; each piece's bound,
        # and with it every root bit, must not depend on where slices fall
        rng = np.random.default_rng(23)
        families = (pg.PT_DIRICHLET, pg.PT_NEUMANN, pg.KIRCHHOFF_REF)
        for i in range(21):
            n = int(rng.integers(2, 17))
            g = pg.make_star_graph(list(rng.uniform(0.3, 3.0, n)))
            family = families[i % 3]
            ref = pg.find_roots(g, 0.0, 30.0, family=family)
            monkeypatch.setattr(spectral, "_ROLLE_SLICE", rows * n if rows else 2**62)
            got = pg.find_roots(g, 0.0, 30.0, family=family)
            monkeypatch.undo()
            assert [(r.k.hex(), r.degenerate) for r in got] == [
                (r.k.hex(), r.degenerate) for r in ref
            ], (g.lengths, family)

    def test_rolle_test_memory_is_bounded_by_the_slice(self):
        g = pg.make_star_graph(list(np.random.default_rng(5).uniform(1.0, 1.5, 12)))
        tracemalloc.start()
        try:
            roots = pg.find_roots(g, 0.0, 200.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(roots) > 400
        # a whole level of (pieces x bonds) arrays at once peaks above 4 MB
        assert peak < 2 * 1024 * 1024

    def test_a_high_window_costs_its_own_lattice_only(self):
        # a pole lattice built from k = 0 holds 1.27e6 nodes below 1e6 (20 MB);
        # the lattice of the window holds three
        g = pg.make_star_graph([1.0, 1.3, 1.7])
        tracemalloc.start()
        try:
            got = pg.find_roots(g, 1e6, 1e6 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024
        want = [r for r in pg.find_roots(g, 0.0, 1e6 + 1) if r.k > 1e6]
        assert len(got) == 1
        assert [(r.k.hex(), r.degenerate) for r in got] == [(r.k.hex(), r.degenerate) for r in want]


def shared_pole_sample(count):
    """The first `count` graphs of the end sample: N = 3..7 lengths in [0.8, 2]
    with L_2 = L_1, and p = m pi / L_1 for m = 1..20, a pole of bonds 1 and 2."""
    rng = random.Random(3)
    for _ in range(count):
        lengths = [round(rng.uniform(0.8, 2.0), 6) for _ in range(rng.randint(3, 7))]
        lengths[1] = lengths[0]
        yield pg.make_star_graph(lengths), rng.randint(1, 20) * math.pi / lengths[0]


def root_bits(roots):
    return [(r.k.hex(), r.degenerate) for r in roots]


class TestWindowEnds:
    """A window end within POLE_MERGE_REL of a sine zero is that lattice node:
    a pole at k_min lies outside (k_min, k_max], one at k_max inside, and
    every other root keeps the bits of the k_min = 0 call."""

    @pytest.mark.parametrize("family", pg.BUILTIN_FAMILIES)
    def test_an_end_on_a_shared_pole_reads_as_the_lattice_does(self, family):
        for g, p in shared_pole_sample(12):
            ref = pg.find_roots(g, 0.0, p + 1.0, family)
            assert any(r.k == p and r.degenerate for r in ref), (g.lengths, p)
            # k_max side: windows from p - 1, off the lattice, instead of from 0, for time
            near = pg.find_roots(g, p - 1.0, p + 1.0, family)
            for end in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)):
                case = (g.lengths, end)
                above = pg.find_roots(g, end, p + 1.0, family)
                assert root_bits(above) == root_bits(r for r in ref if r.k > end), case
                below = pg.find_roots(g, p - 1.0, end, family)
                assert root_bits(below) == root_bits(r for r in near if r.k <= end), case

    @pytest.mark.parametrize("family", pg.BUILTIN_FAMILIES)
    @pytest.mark.parametrize("rel", [0.6e-12, 0.9e-12])
    def test_an_end_near_two_separate_zeros_keeps_the_root_between_them(self, family, rel):
        # the zeros pi and pi (1 + 1.5e-12) of bonds 1 and 2 are two nodes with a
        # root between them; the cut lies within POLE_MERGE_REL of both
        g = pg.make_star_graph([1.0, 1.0 / (1 + 1.5e-12), 1.7])
        cut = math.pi * (1 + rel)
        ref = pg.find_roots(g, 0.0, 5.0, family)
        assert any(math.pi < r.k < math.pi * (1 + 1.5e-12) for r in ref)
        below = pg.find_roots(g, 0.0, cut, family)
        assert root_bits(below) == root_bits(r for r in ref if r.k <= cut)
        above = pg.find_roots(g, cut, 5.0, family)
        assert root_bits(above) == root_bits(r for r in ref if r.k > cut)

    @pytest.mark.parametrize("family", pg.BUILTIN_FAMILIES)
    @pytest.mark.parametrize("k_min, k_max, want", [
        (math.pi, math.pi * (1 + 1e-13), []),
        (math.pi * (1 - 1e-13), math.pi, [math.pi]),
        (math.pi * (1 - 1e-13), math.pi * (1 + 1e-13), [math.pi]),
        (math.pi * (1 + 1e-13), math.pi * (1 + 2e-13), []),
    ], ids=["pole-at-k_min", "pole-at-k_max", "pole-inside", "pole-below"])
    def test_a_window_inside_the_merge_tolerance_holds_the_pole_or_nothing(
        self, family, k_min, k_max, want
    ):
        g = pg.make_star_graph([1.0, 1.0, 1.7])
        roots = pg.find_roots(g, k_min, k_max, family)
        assert [r.k for r in roots] == want
        assert all(r.degenerate for r in roots)

    @pytest.mark.parametrize("family", pg.BUILTIN_FAMILIES)
    def test_every_lattice_node_is_an_exact_cut_point(self, family):
        # k = 0, the zero that every bond shares, is a node like p, so a window
        # from 0 and one from a k_min off the lattice both split exactly at p
        rng = random.Random(17)
        for i in range(100):
            lengths = [round(rng.uniform(0.5, 2.5), 6) for _ in range(rng.randint(2, 7))]
            if i % 3 == 0:
                lengths[1] = lengths[0]
            g = pg.make_star_graph(lengths)
            p = rng.randint(1, 4) * math.pi / rng.choice(lengths)
            k_min = 0.0 if i % 2 else rng.uniform(0.0, p)
            k_max = p + rng.uniform(0.5, 2.0)
            whole = pg.find_roots(g, k_min, k_max, family)
            parts = pg.find_roots(g, k_min, p, family) + pg.find_roots(g, p, k_max, family)
            assert root_bits(parts) == root_bits(whole), (lengths, k_min, p, k_max)

    @pytest.mark.parametrize("family", pg.BUILTIN_FAMILIES)
    def test_a_window_inside_a_simple_zero_tolerance_is_empty(self, family):
        g = pg.make_star_graph([1.0, 1.0, 1.7])
        z = math.pi / 1.7
        for k_min, k_max in ((z, z * (1 + 1e-13)), (z * (1 - 1e-13), z)):
            assert pg.find_roots(g, k_min, k_max, family) == []


def merged_sine_zeros(lengths, k_max):
    """How many bonds vanish at each sine zero n pi / L_j in (0, k_max], a zero
    within 1e-12 (relative) of the one below it counting with that one."""
    zeros = sorted(n * math.pi / l for l in lengths for n in range(1, int(k_max * l / math.pi) + 2))
    counts, prev = [], -math.inf
    for z in (z for z in zeros if z <= k_max):
        if z - prev <= 1e-12 * z:
            counts[-1] += 1
        else:
            counts.append(1)
        prev = z
    return counts


def test_kirchhoff_roots_interlace_the_sine_zeros():
    # sum_j cot(k L_j) falls from +inf to -inf between neighbouring zeros, so
    # (0, K] holds one root below each zero, one at each shared zero, and one
    # above the last zero once the sum is negative at K; k = 0 is the zero
    # that all N bonds share, so the lowest root counts on every N
    rng = random.Random(29)
    for i in range(100):
        lengths = [round(rng.uniform(1.0, 2.0), 6) for _ in range(rng.randint(2, 96))]
        if i % 4 == 1:
            lengths[-1] = lengths[0]
        elif i % 4 == 2:
            lengths[-1] = 2.0 * lengths[0]
        k_max = rng.uniform(1.0, 1.0 + 60.0 / len(lengths))
        counts = merged_sine_zeros(lengths, k_max)
        last = sum(1.0 / math.tan(k_max * l) for l in lengths) < 0.0
        want = len(counts) + sum(c >= 2 for c in counts) + last
        got = pg.find_roots(pg.make_star_graph(lengths), 0.0, k_max, pg.KIRCHHOFF_REF)
        assert len(got) == want, (lengths, k_max)


class TestEigenmode:
    def test_dirichlet_family_conditions(self, basis123_d, graph123):
        mode = basis123_d.modes[0]
        # outer ends vanish exactly; vertex values agree across bonds
        for bond in (1, 2, 3):
            assert mode.value(bond, graph123.length(bond)) == 0.0
        v = [mode.value(b, 0.0) for b in (1, 2, 3)]
        assert v[0] == v[1] == v[2]

    def test_neumann_family_conditions(self, basis123_n, graph123):
        mode = basis123_n.modes[0]
        for bond in (1, 2, 3):
            assert mode.deriv(bond, graph123.length(bond)) == 0.0
        total = sum(mode.value(b, graph123.length(b)) for b in (1, 2, 3))
        assert abs(total) < 1e-10

    def test_norms_equal_one(self, basis123_d, basis123_n):
        for basis in (basis123_d, basis123_n):
            for mode in basis.modes:
                assert abs(pg.l2_inner(mode, mode) - 1.0) < 1e-8

    def test_second_deriv_is_minus_k_squared_value(self, basis123_d, basis123_n, graph123):
        for mode in (basis123_d.modes[0], basis123_n.modes[2]):
            for bond in (1, 2, 3):
                for x in (np.linspace(0.0, graph123.length(bond), 11), 0.3):
                    want = np.asarray(-(mode.k * mode.k) * mode.value(bond, x))
                    got = np.asarray(mode.second_deriv(bond, x))
                    assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_norm_constants_positive(self, basis123_d, basis123_n, basis123_k):
        for basis in (basis123_d, basis123_n, basis123_k):
            for mode in basis.modes:
                assert mode.norm_const > 0.0
                assert math.isfinite(mode.norm_const)

    def test_not_a_root(self, graph123):
        with pytest.raises(pg.NotARoot):
            pg.eigenmode(1.0, pg.PT_DIRICHLET, graph123)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 3 + 0j, "3", None,
                                   pytest.param(10**400, id="10**400")])
    def test_non_finite_k_is_typed(self, graph123, k):
        with pytest.raises(pg.NonFiniteInput):
            pg.eigenmode(k, pg.PT_DIRICHLET, graph123)

    def test_degenerate_root_rejected(self, graph123):
        with pytest.raises(pg.DegenerateMode):
            pg.eigenmode(math.pi, pg.PT_DIRICHLET, graph123)

    def test_unknown_family(self, graph123):
        with pytest.raises(pg.UnknownFamily):
            pg.eigenmode(GOLDEN_K1, "robin", graph123)

    def test_coarse_resolution_is_raised_to_the_k_sized_grid(self, basis_inc_d, graph_inc):
        k20 = basis_inc_d.modes[19].k
        mode = pg.eigenmode(k20, pg.PT_DIRICHLET, graph_inc, resolution=51)
        need = math.ceil(k20 * max(graph_inc.lengths) / spectral.NORM_CHECK_K_SPACING) + 1
        assert need | 1 > 51
        assert mode.norm_check == pg.l2_inner(mode, mode, need | 1).real

    def test_norm_check_that_cannot_pass_raises(self, basis_inc_d, graph_inc, monkeypatch):
        monkeypatch.setattr(spectral, "NORM_CHECK_TOL", 1e-15)
        with pytest.raises(pg.NormalizationError):
            pg.eigenmode(basis_inc_d.modes[19].k, pg.PT_DIRICHLET, graph_inc, resolution=51)

    @pytest.mark.parametrize("resolution", [0, 1, 2, 4, 2000])
    def test_unusable_resolution_raises(self, basis_inc_d, graph_inc, resolution):
        with pytest.raises(pg.EvenPointCount):
            pg.eigenmode(basis_inc_d.modes[19].k, pg.PT_DIRICHLET, graph_inc, resolution)

    def test_derivative_matches_finite_differences(self, basis123_d, basis123_n):
        for basis in (basis123_d, basis123_n):
            mode = basis.modes[1]
            for bond in (1, 2, 3):
                x = 0.5 * mode.graph.length(bond)
                fd = fd_derivative(lambda u: mode.value(bond, u).real, x)
                assert abs(mode.deriv(bond, x).real - fd) < 1e-6

    def test_ode_residual(self, basis123_d):
        # -psi'' = k^2 psi checked by fourth-order differences at interior points
        rng = np.random.default_rng(17)
        mode = basis123_d.modes[2]
        k2 = mode.k**2
        for bond in (1, 2, 3):
            lj = mode.graph.length(bond)
            for x in rng.uniform(0.05 * lj, 0.95 * lj, size=10):
                psi = mode.value(bond, float(x)).real
                d2 = fd_second_derivative(lambda u: mode.value(bond, u).real, float(x))
                assert abs(-d2 - k2 * psi) < 1e-5 * max(1.0, k2)

    def test_out_of_domain(self, basis123_d):
        # the bond index is checked by MetricStarGraph.length
        mode = basis123_d.modes[0]
        for read in (mode.value, mode.deriv):
            with pytest.raises(pg.OutOfDomain):
                read(0, 0.5)
            with pytest.raises(pg.OutOfDomain):
                read(4, 0.5)


class TestBuildBasis:
    def test_regular_and_degenerate_counts(self, basis123_d):
        assert len(basis123_d.modes) == 6
        assert len(basis123_d.degenerate_roots) == 6

    def test_families_share_the_root_set(self, basis123_d, basis123_n):
        ks_d = [m.k for m in basis123_d.modes]
        ks_n = [m.k for m in basis123_n.modes]
        assert len(ks_d) == len(ks_n)
        assert max(abs(a - b) for a, b in zip(ks_d, ks_n)) < 1e-10

    def test_k_min_keeps_only_the_roots_above_it(self, graph123, basis123_d):
        upper = pg.build_basis(graph123, pg.PT_DIRICHLET, 20.0, k_min=2.0)
        assert 0 < len(upper) < len(basis123_d)
        assert [m.k for m in upper.modes] == [m.k for m in basis123_d.modes if m.k > 2.0]
        assert upper.degenerate_roots == tuple(
            r for r in basis123_d.degenerate_roots if r.k > 2.0
        )

    def test_window_below_first_root(self, graph123):
        basis = pg.build_basis(graph123, pg.PT_DIRICHLET, 1.5)
        assert basis.modes == ()
        assert basis.degenerate_roots == ()

    def test_equal_lengths_basis_empty_with_degenerate_record(self, graph111):
        basis = pg.build_basis(graph111, pg.PT_DIRICHLET, 4.0)
        assert basis.modes == ()
        assert len(basis.degenerate_roots) == 1
        assert abs(basis.degenerate_roots[0].k - math.pi) < 1e-7

    def test_modes_strictly_ascending(self, basis_inc_d):
        ks = [m.k for m in basis_inc_d.modes]
        assert all(b > a for a, b in zip(ks, ks[1:]))

    def test_inc_graph_has_twenty_regular_modes(self, basis_inc_d, basis_inc_n):
        assert len(basis_inc_d.modes) == 20
        assert len(basis_inc_n.modes) == 20

    def test_default_resolution_follows_k(self):
        # a fixed 2001-point norm check fails at k = 121.72 on these lengths
        basis = pg.build_basis(pg.make_star_graph([1, 1.3, 1.7]), pg.PT_DIRICHLET, 200.0)
        assert basis.modes[-1].k > 190.0

    def test_basis_invariant_enforced(self, basis123_d):
        m = basis123_d.modes
        with pytest.raises(pg.DimensionMismatch):
            pg.SpectralBasis(
                modes=(m[1], m[0]), family=pg.PT_DIRICHLET, graph=basis123_d.graph
            )


    @pytest.mark.parametrize("field, value", [
        ("family", pg.PT_NEUMANN), ("graph", pg.make_star_graph([1.0, 1.5, 2.5])),
    ])
    def test_basis_modes_share_its_family_and_graph(self, basis123_d, field, value):
        stranger = dataclasses.replace(basis123_d.modes[1], **{field: value})
        with pytest.raises(pg.DimensionMismatch, match="share the basis family and graph"):
            pg.SpectralBasis(
                modes=(basis123_d.modes[0], stranger), family=pg.PT_DIRICHLET,
                graph=basis123_d.graph,
            )


class TestDegeneracyRule:
    """find_roots flags and eigenmode refuses by one rule, so build_basis keeps
    exactly the roots that find_roots calls regular."""

    @pytest.mark.parametrize("family", [pg.PT_DIRICHLET, pg.KIRCHHOFF_REF])
    def test_regular_at_its_own_min_sine_and_degenerate_one_ulp_above(
        self, graph123, monkeypatch, family
    ):
        roots = pg.find_roots(graph123, 0.0, 3.0, family)
        k = roots[0].k  # 2.0341 for pt-dirichlet on (1, 1.3, 1.7)
        own = float(np.abs(np.sin(k * np.asarray(graph123.lengths))).min())
        assert own > 0.1 and not roots[0].degenerate
        for tol, degenerate in ((own, False), (np.nextafter(own, 1.0), True)):
            monkeypatch.setattr(spectral, "DEGENERATE_SINE_TOL", tol)
            got = pg.find_roots(graph123, 0.0, 3.0, family)
            assert [r.k for r in got] == [r.k for r in roots]
            assert got[0].degenerate is degenerate
            basis = pg.build_basis(graph123, family, 3.0)
            assert [m.k for m in basis.modes] == [r.k for r in got if not r.degenerate]
            assert basis.degenerate_roots == tuple(r for r in got if r.degenerate)
            if degenerate:
                with pytest.raises(pg.DegenerateMode):
                    pg.eigenmode(k, family, graph123)
            else:
                assert pg.eigenmode(k, family, graph123).k == k


class TestProfiles:
    @pytest.mark.parametrize("name", ["basis123_d", "basis123_n", "basis123_k"])
    def test_rows_equal_mode_evaluation(self, name, request):
        basis = request.getfixturevalue(name)
        for bond in (1, 2, 3):
            xs = np.linspace(0.0, basis.graph.length(bond), 101)
            for x in (xs, 0.0, 0.37):
                values = basis.profiles(bond, x)
                derivs = basis.profiles(bond, x, order=1)
                second = basis.profiles(bond, x, order=2)
                for rows in (derivs, second):
                    assert rows.shape == values.shape == (len(basis.modes),) + np.shape(x)
                for n, mode in enumerate(basis.modes):
                    assert np.asarray(mode.value(bond, x)).tobytes() == values[n].tobytes()
                    assert np.asarray(mode.deriv(bond, x)).tobytes() == derivs[n].tobytes()
                    # f'' is -(k * k) times the row of order 0, bit for bit
                    want = np.asarray(-(mode.k * mode.k) * values[n])
                    assert want.tobytes() == second[n].tobytes()
                    assert np.asarray(mode.second_deriv(bond, x)).tobytes() == second[n].tobytes()

    def test_empty_basis(self, graph123):
        basis = pg.build_basis(graph123, pg.PT_DIRICHLET, 1.5)
        assert basis.profiles(1, np.linspace(0.0, 1.0, 5)).shape == (0, 5)

    def test_replaced_basis_reads_its_own_modes(self, basis_inc_d):
        # cpt_inner truncates a basis with dataclasses.replace
        head = dataclasses.replace(basis_inc_d, modes=basis_inc_d.modes[:4])
        xs = np.linspace(0.0, 1.7, 9)
        for order in (0, 1, 2):
            assert head.profiles(3, xs, order).tobytes() == basis_inc_d.profiles(3, xs, order)[:4].tobytes()
        with pytest.raises(pg.OutOfDomain):
            head.profiles(4, xs)


@pytest.mark.parametrize("entry, family", [
    (lambda g, fam: pg.bc_matrices(fam, g), "free"),
    (lambda g, fam: pg.find_roots(g, 0.0, 5.0, fam), "free"),
    (lambda g, fam: pg.eigenmode(GOLDEN_K1, fam, g), "free"),
    (lambda g, fam: pg.build_basis(g, fam, 5.0), "free"),
    (lambda g, fam: pg.find_roots(g, 0.0, 5.0, fam), pg.CUSTOM),
    (lambda g, fam: pg.eigenmode(GOLDEN_K1, fam, g), pg.CUSTOM),
    (lambda g, fam: pg.build_basis(g, fam, 5.0), pg.CUSTOM),
], ids=["bc_matrices", "find_roots", "eigenmode", "build_basis",
        "find_roots-custom", "eigenmode-custom", "build_basis-custom"])
def test_tag_without_a_table_row_is_an_unknown_family(graph123, entry, family):
    with pytest.raises(pg.UnknownFamily):
        entry(graph123, family)


@pytest.mark.parametrize("family", pg.BUILTIN_FAMILIES)
def test_tracer_counts_every_secular_point(graph_inc, family, monkeypatch):
    # the benchmark's tracer counts spectral.secular.points by patching module
    # attributes, so find_roots must call the secular functions through them
    points = []

    def counting(fn):
        def counted(k, graph):
            points.append(np.size(k))
            return fn(k, graph)
        return counted

    for name in ("secular", "secular_kirchhoff"):
        monkeypatch.setattr(spectral, name, counting(getattr(spectral, name)))
    tracer = Tracer().install()
    try:
        roots = pg.find_roots(graph_inc, 0.0, 40.0, family)
    finally:
        tracer.uninstall()
    assert roots and sum(points) > len(roots)
    assert tracer.summary()["spectral.secular.points"] == sum(points)
