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

from .boundary import BondFunction, _bond_samples, _real_matvec, _sample, _weighted_sum
from .errors import (
    DimensionMismatch,
    EmptyBasis,
    GraphMismatch,
    SingularGram,
    UnsortedGrid,
)
from .graph import DEFAULT_RESOLUTION
from .spectral import SpectralBasis, _check_domain

#: projection refuses Gram systems beyond this condition number
GRAM_COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class WaveState(BondFunction):
    """Expansion coefficients over a spectral basis at one instant; compared by identity."""

    basis: SpectralBasis
    coeffs: np.ndarray = field(repr=False)
    t: float = 0.0

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.shape != (len(self.basis.modes),):
            raise DimensionMismatch(
                f"need one coefficient per mode ({len(self.basis.modes)}), got shape {c.shape}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def graph(self):
        return self.basis.graph

    def _phased(self, t) -> np.ndarray:
        """C_n exp(-i k_n^2 t) for a time t, or one row per time for a column t."""
        ks = np.array([m.k for m in self.basis.modes])
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
    G_mn = <phi_m, phi_n> and b_m = <initial, phi_m>. The reconstruction
    residual ||initial - sum C_n phi_n||_L2 is reported, not raised on; a
    Gram condition number beyond GRAM_COND_LIMIT raises SingularGram.
    """
    if not basis.modes:
        raise EmptyBasis("cannot project onto a basis with no modes")
    if initial.graph != basis.graph:
        raise GraphMismatch("initial state lives on a different graph")
    gram, rhs = 0.0, 0j
    for bond, x, w, phi in _bond_samples(basis, resolution):
        phi *= np.sqrt(w)  # in place: phi @ phi.T is then this bond's Gram block
        gram += phi @ phi.T
        rhs += _real_matvec(phi, np.sqrt(w) * _sample(initial, bond, x))
        del phi  # else it stays alive while the generator builds the next bond's matrix
    cond = float(np.linalg.cond(gram))
    if cond > GRAM_COND_LIMIT:
        raise SingularGram(f"Gram condition number {cond:.3g} exceeds {GRAM_COND_LIMIT:g}")
    coeffs = np.linalg.solve(gram, rhs)
    err2 = 0.0
    for bond, x, w, phi in _bond_samples(basis, resolution):
        err2 += w @ np.abs(_sample(initial, bond, x) - _real_matvec(phi.T, coeffs)) ** 2
        del phi
    return ProjectionResult(WaveState(basis, coeffs), residual=float(np.sqrt(err2)), gram_cond=cond)


def evolve(state: WaveState, t: float) -> WaveState:
    """Same coefficients at a new time; phases are applied on evaluation."""
    return dataclasses.replace(state, t=float(t))


def bond_current(state: WaveState, bond: int, x: float) -> float:
    """Probability current on one bond at position x and the state's time."""
    _check_domain(state.basis.graph, bond, x)
    psi = complex(state.value(bond, float(x)))
    dpsi = complex(state.deriv(bond, float(x)))
    return psi.real * dpsi.imag - psi.imag * dpsi.real


class VertexCurrent(NamedTuple):
    total: float
    per_bond: np.ndarray


def _vertex_currents(state: WaveState, times: np.ndarray) -> np.ndarray:
    """bond_current at x = 0 on every bond, shape (times, bonds). Real arithmetic,
    because numpy's complex multiply rounds differently from Python's."""
    phased, basis = state._phased(times[:, None]).T, state.basis
    out = np.empty((times.size, basis.graph.n_bonds))
    for bond in range(1, basis.graph.n_bonds + 1):
        psi = _weighted_sum(phased, basis.profiles(bond, 0.0))
        dpsi = _weighted_sum(phased, basis.profiles(bond, 0.0, order=1))
        out[:, bond - 1] = psi.real * dpsi.imag - psi.imag * dpsi.real
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
    """Evaluate the vertex current at each time of a strictly increasing grid."""
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1:
        raise UnsortedGrid("time grid must be one-dimensional")
    if times.size and np.any(np.diff(times) <= 0):
        raise UnsortedGrid("time grid must be strictly increasing")
    currents = _vertex_currents(state, times)
    # summing each row along its contiguous axis matches vertex_current bit for bit
    return CurrentSeries(times=times.copy(), total=currents.sum(axis=1), per_bond=currents.T)
