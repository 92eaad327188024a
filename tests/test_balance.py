"""Balance laws of the evolved states: what "breaking of the Kirchhoff rule"
means for the package's vertex current.

With i d/dt psi = -psi'' and no current through the outer ends (f(L) = 0 or
f'(L) = 0 there), d/dt ||psi(t)||^2 = 2 J_total(0, t), where J_total is the
vertex current that current_series returns. The norm is taken exactly from
the mode Gram matrix G_mn = l2_inner(phi_m, phi_n) and the phases
exp(-i k_n^2 t), so both sides agree at quadrature level. On the PT families
J_total is not zero, and what they conserve instead is the PT charge
pt_inner(psi(t), psi(t)). The Kirchhoff family is the control: its current
vanishes, and its PT charge moves.
"""
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ptgraph as pg

#: quadrature points per bond of every Gram entry and PT charge here
RESOLUTION = 8001
#: |d/dt ||psi||^2 - 2 J_total| (at most 1.8e-12 here, with |J_total| up to 3.2)
RATE_TOL = 1e-10
#: spread of the PT charge over the sampled times on the PT families (3.5e-14 here)
CHARGE_TOL = 1e-12
#: least spread of the Kirchhoff control's PT charge (0.17 and 0.71 here)
CONTROL_MOVE = 0.1
TIMES = (0.3, 0.7, 1.1)
GRAPHS = [(1.0, 1.3, 1.7), (1.0, 1.5, 2.0)]


@functools.lru_cache(maxsize=None)
def state_on(lengths, family):
    """c_n = exp(i n) / sqrt(M) over the M modes below k = 12."""
    basis = pg.build_basis(pg.make_star_graph(list(lengths)), family, 12.0)
    m = len(basis.modes)
    return pg.WaveState(basis, np.exp(1j * np.arange(m)) / math.sqrt(m))


def norm_rates(state, times):
    """d/dt ||psi(t)||^2 = sum_mn a_m conj(a_n) G_mn (-i) (k_m^2 - k_n^2) at each
    time, with a_n = c_n exp(-i k_n^2 t) and G_mn = l2_inner(phi_m, phi_n)."""
    modes = state.basis.modes
    gram = np.array([[pg.l2_inner(f, g, RESOLUTION) for g in modes] for f in modes])
    k2 = np.array([m.k for m in modes]) ** 2
    rate = gram * (-1j) * (k2[:, None] - k2[None, :])
    phased = (state.coeffs * np.exp(-1j * k2 * t) for t in times)
    return [complex(a @ rate @ np.conj(a)) for a in phased]


@pytest.mark.parametrize("lengths", GRAPHS)
@pytest.mark.parametrize("family", pg.BUILTIN_FAMILIES)
def test_the_norm_changes_at_twice_the_vertex_current(lengths, family):
    state = state_on(lengths, family)
    current = pg.current_series(state, TIMES).total
    for t, j, rate in zip(TIMES, current, norm_rates(state, TIMES)):
        assert abs(rate.imag) < RATE_TOL
        assert abs(rate.real - 2.0 * j) < RATE_TOL, (t, rate, j)


@pytest.mark.parametrize("lengths", GRAPHS)
@pytest.mark.parametrize("family", pg.BUILTIN_FAMILIES)
def test_the_pt_charge_is_conserved_on_the_pt_families_only(lengths, family):
    state = state_on(lengths, family)
    charge = [pg.pt_inner(s, s, RESOLUTION) for s in (pg.evolve(state, t) for t in TIMES)]
    spread = max(abs(q - charge[0]) for q in charge)
    if family == pg.KIRCHHOFF_REF:
        assert spread > CONTROL_MOVE
    else:
        assert spread < CHARGE_TOL, charge


@settings(max_examples=4, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(0.8, 2.0), min_size=3, max_size=4),
    st.sampled_from(pg.BUILTIN_FAMILIES),
    st.floats(0.0, 2.0),
)
def test_both_laws_on_a_sample_of_graphs(lengths, family, t):
    # kmax 8 keeps the Gram small; the tolerances are those of the pinned graphs
    basis = pg.build_basis(pg.make_star_graph(lengths), family, 8.0)
    m = len(basis.modes)
    assume(m >= 2)
    state = pg.WaveState(basis, np.exp(1j * np.arange(m)) / math.sqrt(m))
    (rate,) = norm_rates(state, [t])
    assert abs(rate - 2.0 * pg.current_series(state, [t]).total[0]) < RATE_TOL
    if family != pg.KIRCHHOFF_REF:
        charge = [pg.pt_inner(s, s, RESOLUTION) for s in (state, pg.evolve(state, t))]
        assert abs(charge[1] - charge[0]) < CHARGE_TOL
