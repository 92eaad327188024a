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

from .boundary import BondFunction, l2_inner
from .errors import (
    DimensionMismatch,
    EmptyBasis,
    GraphMismatch,
    OutOfDomain,
    SingularGram,
    UnsortedGrid,
)
from .graph import DEFAULT_RESOLUTION, bond_grid, quadrature
from .spectral import SpectralBasis

#: projection refuses Gram systems beyond this condition number
GRAM_COND_LIMIT = 1e12


@dataclass(frozen=True)
class WaveState:
    """Expansion coefficients over a spectral basis at one instant."""

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

    def _phased(self) -> np.ndarray:
        ks = np.array([m.k for m in self.basis.modes])
        return self.coeffs * np.exp(-1j * ks * ks * self.t)

    def value(self, bond: int, x):
        """psi_bond(x, t) = sum_n C_n exp(-i k_n^2 t) phi_n(bond, x)."""
        out = None
        for c, mode in zip(self._phased(), self.basis.modes):
            part = c * np.asarray(mode.value(bond, x), dtype=complex)
            out = part if out is None else out + part
        if out is None:
            return 0j
        return out if np.ndim(out) else complex(out)

    def deriv(self, bond: int, x):
        out = None
        for c, mode in zip(self._phased(), self.basis.modes):
            part = c * np.asarray(mode.deriv(bond, x), dtype=complex)
            out = part if out is None else out + part
        if out is None:
            return 0j
        return out if np.ndim(out) else complex(out)

    def as_bond_function(self) -> BondFunction:
        n = self.basis.graph.n_bonds
        vals = tuple((lambda x, _b=b: self.value(_b, x)) for b in range(1, n + 1))
        ders = tuple((lambda x, _b=b: self.deriv(_b, x)) for b in range(1, n + 1))
        return BondFunction(self.basis.graph, vals, ders)


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
    funcs = [m.as_bond_function() for m in basis.modes]
    m = len(funcs)
    gram = np.empty((m, m), dtype=complex)
    for i in range(m):
        for j in range(i, m):
            val = l2_inner(funcs[i], funcs[j], resolution)
            gram[i, j] = val
            gram[j, i] = np.conj(val)
    rhs = np.array([l2_inner(initial, f, resolution) for f in funcs])
    cond = float(np.linalg.cond(gram))
    if cond > GRAM_COND_LIMIT:
        raise SingularGram(f"Gram condition number {cond:.3g} exceeds {GRAM_COND_LIMIT:g}")
    coeffs = np.linalg.solve(gram, rhs)
    state = WaveState(basis=basis, coeffs=coeffs, t=0.0)

    graph = basis.graph
    err2 = 0.0
    for bond in range(1, graph.n_bonds + 1):
        grid = bond_grid(graph, bond, resolution)
        target = np.asarray(initial.value(bond, grid.points), dtype=complex)
        recon = np.asarray(state.value(bond, grid.points), dtype=complex)
        err2 += quadrature(np.abs(target - recon) ** 2, grid).real
    return ProjectionResult(state=state, residual=float(np.sqrt(max(err2, 0.0))), gram_cond=cond)


def evolve(state: WaveState, t: float) -> WaveState:
    """Same coefficients at a new time; phases are applied on evaluation."""
    return dataclasses.replace(state, t=float(t))


def bond_current(state: WaveState, bond: int, x: float) -> float:
    """Probability current on one bond at position x and the state's time."""
    graph = state.basis.graph
    if not 1 <= bond <= graph.n_bonds:
        raise OutOfDomain(f"bond {bond} not in 1..{graph.n_bonds}")
    if not 0.0 <= x <= graph.length(bond):
        raise OutOfDomain(f"x = {x} outside [0, {graph.length(bond)}] on bond {bond}")
    psi = complex(state.value(bond, float(x)))
    dpsi = complex(state.deriv(bond, float(x)))
    return (psi.conjugate() * dpsi).imag


class VertexCurrent(NamedTuple):
    total: float
    per_bond: np.ndarray


def vertex_current(state: WaveState) -> VertexCurrent:
    """Total current into the vertex with its per-bond breakdown."""
    per_bond = np.array(
        [bond_current(state, b, 0.0) for b in range(1, state.basis.graph.n_bonds + 1)]
    )
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
    n = state.basis.graph.n_bonds
    total = np.empty(times.size)
    per_bond = np.empty((n, times.size))
    for i, t in enumerate(times):
        vc = vertex_current(evolve(state, float(t)))
        total[i] = vc.total
        per_bond[:, i] = vc.per_bond
    return CurrentSeries(times=times.copy(), total=total, per_bond=per_bond)
