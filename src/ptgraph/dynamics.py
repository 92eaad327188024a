"""Spectral wave-packet evolution and vertex probability currents.

A state is a coefficient vector over a spectral basis, evolved by the phase
factors exp(-i k_n^2 t). The per-bond probability current

    J_j(x, t) = (i/2) [psi_j d/dx conj(psi_j) - (d/dx psi_j) conj(psi_j)]

is evaluated with the analytic mode derivatives; the total vertex current
J(0, t) = sum_j J_j(0, t) vanishes identically for the Hermitian reference
basis and is generically nonzero for the PT families.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .boundary import (
    BondFunction, _bond_samples, _check_same_graph, _real_matvec, _sample, _weighted_sum
)
from .errors import (
    DimensionMismatch, EmptyBasis, NonFiniteInput, OutOfDomain, SingularGram, UnsortedGrid
)
from .graph import DEFAULT_RESOLUTION, _slices
from .spectral import SpectralBasis

#: projection refuses Gram systems beyond this condition number
GRAM_COND_LIMIT = 1e12

#: elements of the (modes x points) profile slices of project and of the
#: (modes x times) phase slices of current_series; bounds their working memory
_SLICE = 65536


@dataclass(frozen=True, eq=False)
class WaveState(BondFunction):
    """Expansion coefficients over a spectral basis at one instant; compared by identity.
    A non-finite coefficient or time t raises NonFiniteInput."""

    basis: SpectralBasis
    coeffs: np.ndarray = field(repr=False)
    t: float = 0.0

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.shape != (len(self.basis.modes),):
            raise DimensionMismatch(
                f"need one coefficient per mode ({len(self.basis.modes)}), got shape {c.shape}"
            )
        if not (np.isfinite(c).all() and np.isfinite(self.t)):
            raise NonFiniteInput(f"non-finite coefficient or time (t = {self.t!r})")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def graph(self):
        return self.basis.graph

    def _phased(self, t) -> np.ndarray:
        """C_n exp(-i k_n^2 t) for a time t, or one row per time for a column t."""
        ks = self.basis._ks
        out = -1j * ks * ks * t
        np.exp(out, out=out)
        return np.multiply(self.coeffs, out, out=out)

    def evaluate(self, bond: int, x, order: int = 0):
        """psi_bond(x, t) = sum_n C_n exp(-i k_n^2 t) phi_n(bond, x) (order 0)
        or its first or second x-derivative (order 1 or 2)."""
        return _weighted_sum(self._phased(self.t), self.basis.profiles(bond, x, order))

    # kept in the class body: perfbench/tracer.py wraps WaveState.__dict__["value"] and ["deriv"]
    def value(self, bond: int, x):
        return self.evaluate(bond, x)

    def deriv(self, bond: int, x):
        return self.evaluate(bond, x, 1)


@dataclass(frozen=True)
class ProjectionResult:
    """Projected state plus the diagnostics of the Gram solve."""

    state: WaveState
    residual: float
    gram_cond: float


def project(
    initial: BondFunction,
    basis: SpectralBasis,
    resolution: int = DEFAULT_RESOLUTION,
) -> ProjectionResult:
    """Expand `initial` over the basis by solving the Gram system.

    No orthogonality is assumed: coefficients come from G C = b with
    G_mn = <phi_m, phi_n> and b_m = <initial, phi_m>. Both quadrature passes
    read the profiles from _bond_samples in slices of at most _SLICE (modes x
    points) elements, so working memory does not grow with `resolution`. The
    real symmetric G is factored once, G = V diag(lam) V^T, giving
    C = V (V^T b / lam) and the condition number lam_max / lam_min (inf if
    lam_min <= 0). The residual ||initial - sum C_n phi_n||_L2 is reported,
    not raised on; a condition number beyond GRAM_COND_LIMIT raises SingularGram.
    """
    if not basis.modes:
        raise EmptyBasis("cannot project onto a basis with no modes")
    _check_same_graph(initial, basis)
    gram, rhs = 0.0, 0j
    for bond, x, w, phi in _bond_samples(basis, resolution, _SLICE):
        phi *= np.sqrt(w)  # in place: phi @ phi.T is then this slice's Gram block
        gram += phi @ phi.T
        rhs += _real_matvec(phi, np.sqrt(w) * _sample(initial, bond, x))
        del phi  # else it stays alive while the generator builds the next slice's matrix
    lam, vec = np.linalg.eigh(gram)
    cond = float(lam[-1] / lam[0]) if lam[0] > 0 else float("inf")
    if cond > GRAM_COND_LIMIT:
        raise SingularGram(f"Gram condition number {cond:.3g} exceeds {GRAM_COND_LIMIT:g}")
    coeffs = _real_matvec(vec, _real_matvec(vec.T, rhs) / lam)
    err2 = 0.0
    for bond, x, w, phi in _bond_samples(basis, resolution, _SLICE):
        err2 += w @ np.abs(_sample(initial, bond, x) - _real_matvec(phi.T, coeffs)) ** 2
        del phi
    return ProjectionResult(WaveState(basis, coeffs), residual=float(np.sqrt(err2)), gram_cond=cond)


def evolve(state: WaveState, t: float) -> WaveState:
    """Same coefficients at a new time, which WaveState checks; phases apply on evaluation."""
    return dataclasses.replace(state, t=float(t))


def bond_current(state: WaveState, bond: int, x: float) -> float:
    """Probability current on one bond at position x in [0, L_bond] and the state's time."""
    lj = state.graph.length(bond)
    if not 0.0 <= x <= lj:
        raise OutOfDomain(f"x = {x} outside [0, {lj}] on bond {bond}")
    psi = complex(state.value(bond, float(x)))
    dpsi = complex(state.deriv(bond, float(x)))
    return psi.real * dpsi.imag - psi.imag * dpsi.real


class VertexCurrent(NamedTuple):
    total: float
    per_bond: np.ndarray


def _vertex_currents(state: WaveState, times: np.ndarray) -> np.ndarray:
    """bond_current at x = 0 on every bond, shape (times, bonds). The vertex
    profiles are read once and the phases formed over slices of at most
    _SLICE (modes x times) elements; every step is elementwise in t, so a
    slice changes no bit. Real arithmetic, because numpy's complex multiply
    rounds differently from Python's."""
    basis = state.basis
    ends = [(basis.profiles(bond, 0.0), basis.profiles(bond, 0.0, order=1))
            for bond in range(1, basis.graph.n_bonds + 1)]
    out = np.empty((times.size, basis.graph.n_bonds))
    for s in _slices(times.size, len(basis.modes), _SLICE):
        phased = state._phased(times[s, None]).T
        for col, (value, slope) in enumerate(ends):
            psi = _weighted_sum(phased, value)
            dpsi = _weighted_sum(phased, slope)
            out[s, col] = psi.real * dpsi.imag - psi.imag * dpsi.real
        del phased  # else it stays alive while the next slice's phases are formed
    return out


def vertex_current(state: WaveState) -> VertexCurrent:
    """Total current into the vertex with its per-bond breakdown."""
    per_bond = _vertex_currents(state, np.array([state.t]))[0]
    return VertexCurrent(total=float(per_bond.sum()), per_bond=per_bond)


@dataclass(frozen=True)
class CurrentSeries:
    """Vertex current sampled over a time grid; total is the per-bond sum."""

    times: np.ndarray = field(repr=False)
    total: np.ndarray = field(repr=False)
    per_bond: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.times)


def current_series(state: WaveState, t_grid) -> CurrentSeries:
    """Evaluate the vertex current at each time of a strictly increasing, finite grid.

    The phases are formed over slices of the time axis, so beyond its output
    the working memory does not grow with the grid; each current equals
    vertex_current(evolve(state, t)) bit for bit."""
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1:
        raise UnsortedGrid("time grid must be one-dimensional")
    if not np.isfinite(times).all():
        raise NonFiniteInput("time grid has a non-finite entry")
    if times.size and np.any(np.diff(times) <= 0):
        raise UnsortedGrid("time grid must be strictly increasing")
    currents = _vertex_currents(state, times)
    # summing each row along its contiguous axis matches vertex_current bit for bit
    return CurrentSeries(times=times.copy(), total=currents.sum(axis=1), per_bond=currents.T)
