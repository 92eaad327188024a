import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import ptgraph as pg
from ptgraph import dynamics
from util import GOLDEN_MAX_CURRENT_D, GOLDEN_MAX_CURRENT_N, fd_derivative


def state_with(basis, *coeffs):
    c = np.zeros(len(basis.modes), dtype=complex)
    c[: len(coeffs)] = coeffs
    return pg.WaveState(basis=basis, coeffs=c, t=0.0)


def equal_state(basis, n_modes=5):
    c = np.zeros(len(basis.modes), dtype=complex)
    c[:n_modes] = 1.0 / math.sqrt(n_modes)
    return pg.WaveState(basis=basis, coeffs=c, t=0.0)


class TestProject:
    def test_basis_element_roundtrip(self, basis123_d):
        res = pg.project(basis123_d.modes[0], basis123_d)
        expect = np.zeros(len(basis123_d.modes))
        expect[0] = 1.0
        assert np.allclose(res.state.coeffs, expect, atol=1e-8)
        assert res.residual < 1e-8
        assert res.gram_cond < 100.0

    def test_mixture_roundtrip(self, basis123_d, graph123):
        f1 = basis123_d.modes[0]
        f2 = basis123_d.modes[1]
        mix = pg.combine([f1, f2], [1.0 / math.sqrt(2.0)] * 2)
        res = pg.project(mix, basis123_d)
        expect = np.zeros(len(basis123_d.modes), dtype=complex)
        expect[0] = expect[1] = 1.0 / math.sqrt(2.0)
        assert np.allclose(res.state.coeffs, expect, atol=1e-8)
        assert res.residual < 1e-8

    def test_three_mode_complex_combination(self, basis123_d):
        funcs = basis123_d.modes[:3]
        coeffs = [0.5, -0.3 + 0.2j, 1.1]
        target = pg.combine(funcs, coeffs)
        res = pg.project(target, basis123_d)
        assert np.allclose(res.state.coeffs[:3], coeffs, atol=1e-8)
        assert res.residual < 1e-6

    def test_out_of_span_reports_residual(self, basis123_d, graph123):
        # a bump tucked against an outer end, where every retained mode is tiny
        l3 = graph123.length(3)
        zero = lambda x: 0.0 * np.asarray(x)
        bump = lambda x: np.exp(-(((np.asarray(x) - l3 + 0.02) / 0.005) ** 2))
        dbump = lambda x: bump(x) * (-2.0 * (np.asarray(x) - l3 + 0.02) / 0.005**2)
        d2bump = lambda x: (
            bump(x) * (4.0 * (np.asarray(x) - l3 + 0.02) ** 2 - 2.0 * 0.005**2) / 0.005**4
        )
        f = pg.bond_function(
            graph123, [zero, zero, bump], [zero, zero, dbump], [zero, zero, d2bump]
        )
        norm = math.sqrt(pg.l2_inner(f, f).real)
        res = pg.project(f, basis123_d)
        assert res.residual > 0.5 * norm

    def test_empty_basis(self, graph123):
        basis = pg.build_basis(graph123, pg.PT_DIRICHLET, 1.0)
        with pytest.raises(pg.EmptyBasis):
            pg.project(pg.zero_function(graph123), basis)

    def test_graph_mismatch(self, basis123_d):
        other = pg.make_star_graph([1.0, 2.0])
        with pytest.raises(pg.GraphMismatch):
            pg.project(pg.zero_function(other), basis123_d)

    def test_singular_gram_rejected(self, basis123_d, graph123):
        m = basis123_d.modes[0]
        near_twin = pg.EigenMode(
            k=m.k + 2e-9, family=m.family, norm_const=m.norm_const, graph=graph123
        )
        bad = pg.SpectralBasis(
            modes=(m, near_twin), family=m.family, k_max=20.0, graph=graph123
        )
        with pytest.raises(pg.SingularGram):
            pg.project(m, bad)

    def test_matches_gram_solve_by_quadrature(self, basis_inc_d, graph_inc):
        rng = np.random.default_rng(5)
        terms = [[(complex(*rng.normal(size=2)), rng.uniform(0.5, 6.0), rng.uniform(0.0, 6.0))
                  for _ in range(3)] for _ in range(3)]
        target = pg.trig_function(graph_inc, terms)
        funcs = basis_inc_d.modes
        gram = np.array([[pg.l2_inner(f, g) for g in funcs] for f in funcs])
        rhs = np.array([pg.l2_inner(target, f) for f in funcs])
        res = pg.project(target, basis_inc_d)
        assert np.max(np.abs(res.state.coeffs - np.linalg.solve(gram, rhs))) < 1e-10

    def test_reconstruction_of_random_combinations(self, basis123_d):
        rng = np.random.default_rng(23)
        for _ in range(5):
            coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
            target = pg.combine(basis123_d.modes[:3], coeffs)
            res = pg.project(target, basis123_d)
            assert res.residual < 1e-6

    def test_holds_one_profile_matrix_at_a_time(self, graph_inc):
        n_modes, resolution = 30, 4001
        basis = pg.build_basis(graph_inc, pg.PT_DIRICHLET, 60.0, resolution=2001)
        basis = dataclasses.replace(basis, modes=basis.modes[:n_modes])
        target = pg.combine(basis.modes[:3], [1.0, 0.5j, -0.3])
        peaks = []
        for points in (resolution, 4 * resolution - 3):
            tracemalloc.start()
            try:
                res = pg.project(target, basis, points)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert res.residual < 1e-12
        # one (modes x points) float matrix is n_modes * resolution * 8 bytes
        assert peaks[0] < 1.8 * n_modes * resolution * 8
        # the profiles are read in slices, so four times the points cost no more
        assert peaks[1] < 1.3 * peaks[0]

    @pytest.mark.parametrize("points", [1, 7, 500])
    def test_slices_agree_with_one_slice_per_bond(self, basis_inc_d, graph_inc, monkeypatch, points):
        rng = np.random.default_rng(11)
        terms = [[(complex(*rng.normal(size=2)), rng.uniform(0.5, 6.0), rng.uniform(0.0, 6.0))
                  for _ in range(3)] for _ in range(3)]
        target = pg.trig_function(graph_inc, terms)
        m, resolution = len(basis_inc_d.modes), 2001
        monkeypatch.setattr(dynamics, "_SLICE", m * resolution)
        whole = pg.project(target, basis_inc_d, resolution)
        # every bond now spans ceil(2001 / points) slices
        monkeypatch.setattr(dynamics, "_SLICE", m * points)
        sliced = pg.project(target, basis_inc_d, resolution)
        assert np.max(np.abs(sliced.state.coeffs - whole.state.coeffs)) < 1e-13
        assert sliced.residual == pytest.approx(whole.residual, rel=0.0, abs=1e-13)
        assert sliced.gram_cond == pytest.approx(whole.gram_cond, rel=1e-13)

    def test_non_integer_resolution_is_typed(self, basis123_d):
        with pytest.raises(pg.EvenPointCount):
            pg.project(basis123_d.modes[0], basis123_d, 2001.0)

    @pytest.mark.parametrize("name", ["basis123_d", "basis123_n", "basis123_k", "basis_inc_d"])
    def test_gram_cond_matches_numpy_cond(self, name, request):
        basis = request.getfixturevalue(name)
        funcs = basis.modes
        gram = np.array([[pg.l2_inner(f, g) for g in funcs] for f in funcs])
        res = pg.project(funcs[0], basis)
        assert res.gram_cond == pytest.approx(np.linalg.cond(gram), rel=1e-8)


class TestCptInner:
    def test_holds_one_profile_matrix_at_a_time(self, graph_inc):
        n_modes, resolution = 30, 4001
        basis = pg.build_basis(graph_inc, pg.PT_DIRICHLET, 60.0, resolution=2001)
        f = pg.combine(basis.modes[:3], [1.0, 0.5j, -0.3])
        tracemalloc.start()
        try:
            val = pg.cpt_inner(f, f, basis, truncation=n_modes, resolution=resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert val.real > 0.0
        # one (modes x points) float matrix is n_modes * resolution * 8 bytes
        assert peak < 1.8 * n_modes * resolution * 8


class TestEvolve:
    def test_time_zero_identity(self, basis123_d):
        s = equal_state(basis123_d)
        s0 = pg.evolve(s, 0.0)
        assert s0.value(2, 0.7) == s.value(2, 0.7)

    def test_single_mode_is_stationary(self, basis123_d, graph123):
        s = state_with(basis123_d, 1.0)
        xs = np.linspace(0.0, graph123.length(1), 7)
        before = np.abs(np.asarray(s.value(1, xs)))
        after = np.abs(np.asarray(pg.evolve(s, 0.37).value(1, xs)))
        assert np.allclose(before, after, atol=1e-12)

    def test_two_mode_phase_period(self, basis123_d):
        k1, k2 = basis123_d.modes[0].k, basis123_d.modes[1].k
        period = 2.0 * math.pi / (k2**2 - k1**2)
        s = state_with(basis123_d, 0.8, 0.6)
        evolved = pg.evolve(s, period)
        for bond, x in ((1, 0.3), (2, 1.2), (3, 0.0)):
            base = complex(s.value(bond, x))
            # global phase exp(-i k1^2 T) multiplies the whole state
            phase = np.exp(-1j * k1**2 * period)
            assert abs(complex(evolved.value(bond, x)) - phase * base) < 1e-10

    def test_coefficients_unchanged(self, basis123_d):
        s = equal_state(basis123_d)
        assert np.array_equal(pg.evolve(s, 2.5).coeffs, s.coeffs)


class TestBondCurrent:
    def test_single_mode_carries_no_current(self, basis123_d, graph123):
        s = pg.evolve(state_with(basis123_d, 1.0), 0.42)
        for bond in (1, 2, 3):
            for x in (0.0, 0.25, 0.5 * graph123.length(bond)):
                assert abs(pg.bond_current(s, bond, x)) < 1e-13

    def test_dirichlet_end_pins_current_to_zero(self, basis123_d, graph123):
        s = pg.evolve(equal_state(basis123_d), 0.3)
        for bond in (1, 2, 3):
            assert pg.bond_current(s, bond, graph123.length(bond)) == 0.0

    def test_matches_finite_difference_derivative(self, basis123_d):
        s = pg.evolve(state_with(basis123_d, 0.8, 0.6j), 0.21)
        bond, x = 2, 0.9
        psi = complex(s.value(bond, x))
        dpsi_fd = fd_derivative(lambda u: complex(s.value(bond, u)), x)
        j_fd = (0.5j * (psi * np.conj(dpsi_fd) - dpsi_fd * np.conj(psi))).real
        assert abs(pg.bond_current(s, bond, x) - j_fd) < 1e-6

    def test_out_of_domain(self, basis123_d):
        s = equal_state(basis123_d)
        with pytest.raises(pg.OutOfDomain):
            pg.bond_current(s, 0, 0.1)
        with pytest.raises(pg.OutOfDomain):
            pg.bond_current(s, 1, 5.0)
        for x in (-0.1, float("nan")):
            with pytest.raises(pg.OutOfDomain):
                pg.bond_current(s, 1, x)


class TestVertexCurrent:
    def test_zero_state(self, basis123_d):
        s = state_with(basis123_d)
        vc = pg.vertex_current(s)
        assert vc.total == 0.0
        assert np.all(vc.per_bond == 0.0)

    def test_kirchhoff_conserves(self, basis123_k):
        s = equal_state(basis123_k)
        for t in (0.0, 0.1, 0.37, 0.92):
            assert abs(pg.vertex_current(pg.evolve(s, t)).total) < 1e-10

    def test_pt_families_break_conservation(self, basis123_d, basis123_n):
        for basis in (basis123_d, basis123_n):
            s = pg.evolve(equal_state(basis), 0.25)
            assert abs(pg.vertex_current(s).total) > 1e-3

    def test_total_is_sum_of_bonds(self, basis123_n):
        s = pg.evolve(equal_state(basis123_n), 0.61)
        vc = pg.vertex_current(s)
        assert vc.total == pytest.approx(vc.per_bond.sum(), abs=0.0)


class TestCurrentSeries:
    def test_single_mode_series_is_zero(self, basis123_d):
        s = state_with(basis123_d, 1.0)
        series = pg.current_series(s, np.linspace(0.0, 1.0, 50))
        assert np.max(np.abs(series.total)) < 1e-13

    def test_empty_grid(self, basis123_d):
        series = pg.current_series(equal_state(basis123_d), [])
        assert len(series) == 0
        assert series.per_bond.shape == (3, 0)

    def test_unsorted_grid_rejected(self, basis123_d):
        s = equal_state(basis123_d)
        with pytest.raises(pg.UnsortedGrid):
            pg.current_series(s, [0.0, 0.5, 0.4])
        with pytest.raises(pg.UnsortedGrid):
            pg.current_series(s, [0.0, 0.5, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, basis_inc_d, bad):
        s = pg.WaveState(basis=basis_inc_d, coeffs=np.ones(len(basis_inc_d.modes)))
        for times in ([0.0, 0.5, bad, 2.0], [0.0, bad], [bad]):
            with pytest.raises(pg.NonFiniteInput):
                pg.current_series(s, times)
        with pytest.raises(pg.NonFiniteInput):
            pg.evolve(s, bad)

    def test_equal_five_mode_witness(self, basis123_d, basis123_n, basis123_k):
        grid = np.linspace(0.0, 1.0, 1000)
        max_d = np.max(np.abs(pg.current_series(equal_state(basis123_d), grid).total))
        max_n = np.max(np.abs(pg.current_series(equal_state(basis123_n), grid).total))
        max_k = np.max(np.abs(pg.current_series(equal_state(basis123_k), grid).total))
        assert max_d > 1e-3 and max_n > 1e-3
        assert max_k < 1e-10
        # regression values pinned by the oracle
        assert max_d == pytest.approx(GOLDEN_MAX_CURRENT_D, abs=1e-6)
        assert max_n == pytest.approx(GOLDEN_MAX_CURRENT_N, abs=1e-6)

    def test_total_equals_bond_sum(self, basis123_d):
        series = pg.current_series(equal_state(basis123_d), np.linspace(0.0, 0.5, 20))
        assert np.array_equal(series.total, series.per_bond.sum(axis=0))

    @pytest.mark.parametrize("n_bonds", [3, 10])
    def test_equals_vertex_current_at_each_time(self, n_bonds, basis123_d):
        if n_bonds == 3:
            basis = basis123_d
        else:
            lengths = [1.0, 1.13, 1.29, 1.41, 1.57, 1.66, 1.79, 1.83, 1.97, 2.11]
            basis = pg.build_basis(pg.make_star_graph(lengths), pg.PT_NEUMANN, 8.0)
        m = len(basis.modes)
        s = pg.WaveState(basis=basis, coeffs=np.exp(0.7j * np.arange(m)) / (1.0 + np.arange(m)))
        series = pg.current_series(s, np.linspace(0.0, 1.0, 40))
        for i, t in enumerate(series.times):
            vc = pg.vertex_current(pg.evolve(s, t))
            assert series.total[i] == vc.total
            assert np.array_equal(series.per_bond[:, i], vc.per_bond)

    @pytest.mark.parametrize("slices,extra", [(1, -1), (1, 0), (1, 1), (3, 7)],
                             ids=["S-1", "S", "S+1", "3S+7"])
    def test_slices_change_no_bit(self, slices, extra, basis_inc_n, monkeypatch):
        # a budget of S = 8 time steps at this mode count keeps the check cheap
        m = len(basis_inc_n.modes)
        monkeypatch.setattr(dynamics, "_SLICE", 8 * m + 3)
        n = 8 * slices + extra
        s = pg.WaveState(basis=basis_inc_n, coeffs=np.exp(0.7j * np.arange(m)) / (1.0 + np.arange(m)))
        series = pg.current_series(s, np.linspace(0.0, 1.0, n))
        for i, t in enumerate(series.times):
            vc = pg.vertex_current(pg.evolve(s, t))
            assert series.total[i] == vc.total
            assert np.array_equal(series.per_bond[:, i], vc.per_bond)

    def test_slice_budget_changes_no_bit(self, basis_inc_n, monkeypatch):
        m = len(basis_inc_n.modes)
        s = pg.WaveState(basis=basis_inc_n, coeffs=np.exp(0.3j * np.arange(m)))
        times = np.linspace(0.0, 2.0, 3 * (dynamics._SLICE // m) + 7)
        sliced = pg.current_series(s, times)
        monkeypatch.setattr(dynamics, "_SLICE", m * times.size)
        whole = pg.current_series(s, times)
        assert sliced.total.tobytes() == whole.total.tobytes()
        assert sliced.per_bond.tobytes() == whole.per_bond.tobytes()

    def test_working_memory_is_output_plus_a_constant(self, basis_inc_n):
        m = len(basis_inc_n.modes)
        s = pg.WaveState(basis=basis_inc_n, coeffs=np.exp(0.3j * np.arange(m)))
        times = np.linspace(0.0, 2.0, 50 * (dynamics._SLICE // m))
        tracemalloc.start()
        try:
            series = pg.current_series(s, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = series.times.nbytes + series.total.nbytes + series.per_bond.nbytes
        # a whole (times x modes) complex phase matrix would be 50 * 16 * _SLICE bytes
        assert peak < output + 4 * 16 * dynamics._SLICE

    def test_scaling_is_quadratic(self, basis123_d):
        base = pg.evolve(equal_state(basis123_d), 0.33)
        j0 = pg.vertex_current(base).total
        for alpha in (2.0, 1j):
            scaled = pg.WaveState(basis=basis123_d, coeffs=alpha * base.coeffs, t=base.t)
            j = pg.vertex_current(scaled).total
            assert j == pytest.approx(abs(alpha) ** 2 * j0, rel=1e-12)


class TestWaveStateEvaluation:
    def test_scalar_point_matches_array_evaluation(self, basis_inc_d):
        # more than 8 modes: a pairwise sum over modes would round differently
        m = len(basis_inc_d.modes)
        assert m >= 8
        s = pg.WaveState(basis=basis_inc_d, coeffs=np.exp(1.3j * np.arange(m)), t=0.29)
        for bond in (1, 2, 3):
            xs = np.linspace(0.0, basis_inc_d.graph.length(bond), 33)
            values, derivs = s.value(bond, xs), s.deriv(bond, xs)
            for i, x in enumerate(xs):
                assert s.value(bond, float(x)) == values[i]
                assert s.deriv(bond, float(x)) == derivs[i]

    def test_empty_basis_evaluates_to_zero(self, graph123):
        s = pg.WaveState(basis=pg.build_basis(graph123, pg.PT_DIRICHLET, 1.5), coeffs=[])
        assert s.value(1, 0.2) == 0j
        assert np.array_equal(s.value(1, np.linspace(0.0, 1.0, 7)), np.zeros(7))
        assert pg.l2_inner(s, s) == 0.0


class TestWaveStateValidation:
    def test_single_mode_state_is_the_phased_mode(self, basis123_d, graph123):
        # a single-mode state is the mode itself up to a global phase
        s = pg.evolve(state_with(basis123_d, 1.0), 0.4)
        assert abs(pg.l2_inner(s, s) - 1.0) < 1e-8
        t = pg.trace_vectors(s)
        phase = np.exp(-1j * basis123_d.modes[0].k ** 2 * 0.4)
        ref = pg.trace_vectors(basis123_d.modes[0])
        assert np.allclose(t.psi, phase * ref.psi, atol=1e-12)
        assert np.allclose(t.dpsi, phase * ref.dpsi, atol=1e-12)

    def test_coefficient_count_enforced(self, basis123_d):
        with pytest.raises(pg.DimensionMismatch):
            pg.WaveState(basis=basis123_d, coeffs=np.ones(2, dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_or_coefficient_rejected(self, basis123_d, bad):
        coeffs = np.ones(len(basis123_d), dtype=complex)
        with pytest.raises(pg.NonFiniteInput):
            pg.WaveState(basis123_d, coeffs, t=bad)
        for entry in (bad, complex(0.0, bad)):
            coeffs[2] = entry
            with pytest.raises(pg.NonFiniteInput):
                pg.WaveState(basis123_d, coeffs)

    def test_states_compare_and_hash_by_identity(self, basis123_d):
        coeffs = np.exp(0.7j * np.arange(len(basis123_d)))
        s, twin = pg.WaveState(basis123_d, coeffs), pg.WaveState(basis123_d, coeffs.copy())
        assert s == s and not s != s
        assert s != twin and not s == twin
        assert hash(s) == hash(s) and {s: 1, twin: 2}[s] == 1
        later = pg.evolve(s, 0.4)
        assert later is not s and later != s and later.t == 0.4 and s.t == 0.0
        assert np.array_equal(later.coeffs, s.coeffs)

    def test_coefficients_read_only(self, basis123_d):
        s = equal_state(basis123_d)
        with pytest.raises(ValueError):
            s.coeffs[0] = 9.0
