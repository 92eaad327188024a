"""Metric star graph: bond geometry, sample grids, and Simpson quadrature.

A star graph is N finite bonds joined at a single vertex. Bond j is the
interval [0, L_j] with the vertex at x = 0 on every bond. Units are chosen
so that hbar = 2m = 1 and energies are k^2.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import (
    DimensionMismatch,
    EvenPointCount,
    LengthMismatch,
    NonFiniteInput,
    NonPositiveLength,
    OutOfDomain,
    TooFewBonds,
)

#: grid size used for inner products and normalization checks
DEFAULT_RESOLUTION = 2001


@dataclass(frozen=True)
class MetricStarGraph:
    """Star graph defined by its bond lengths (vertex at x=0 on each bond)."""

    lengths: tuple[float, ...]

    @property
    def n_bonds(self) -> int:
        return len(self.lengths)

    def length(self, bond: int) -> float:
        """Length of bond `bond` (1-based); a bool or a non-integer raises OutOfDomain."""
        if not (_is_index(bond) and 1 <= bond <= self.n_bonds):
            raise OutOfDomain(f"bond index {bond!r} not in 1..{self.n_bonds}")
        return self.lengths[bond - 1]


def _is_index(x) -> bool:
    """True for an int or a numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _finite_real(x) -> bool:
    """True for a finite real number or a 0-d array holding one; a str,
    complex or None is not, nor an int beyond the float range."""
    if isinstance(x, np.ndarray) and x.ndim == 0:
        x = x[()]
    try:
        return isinstance(x, Real) and math.isfinite(x)
    except OverflowError:
        return False


def make_star_graph(lengths) -> MetricStarGraph:
    """Validate bond lengths and build a star graph.

    Lengths are stored exactly as given; at least two bonds are required, every
    length must be a finite positive number, and a str, bytes, mapping or
    non-iterable is refused.
    """
    if isinstance(lengths, (str, bytes, Mapping)) or not isinstance(lengths, Iterable):
        raise DimensionMismatch(f"lengths must be a sequence of numbers, got {lengths!r}")
    lengths = tuple(lengths)
    if len(lengths) < 2:
        raise TooFewBonds(f"a star graph needs at least 2 bonds, got {len(lengths)}")
    for j, l in enumerate(lengths, start=1):
        try:
            l = float(l)
        except (TypeError, ValueError, OverflowError):
            raise NonFiniteInput(f"bond {j} length is not a float: {l!r}") from None
        if not math.isfinite(l):
            raise NonFiniteInput(f"bond {j} length is not finite: {l!r}")
        if l <= 0.0:
            raise NonPositiveLength(f"bond {j} length must be > 0, got {l}")
    return MetricStarGraph(tuple(map(float, lengths)))


def _check_point_count(count: int):
    """Raise EvenPointCount unless Simpson quadrature can use `count` points."""
    if not _is_index(count) or count < 3 or count % 2 == 0:
        raise EvenPointCount(f"Simpson quadrature needs an odd integer point count >= 3, got {count!r}")


def _grid_points(i: np.ndarray, count: int, length: float) -> np.ndarray:
    """Points i of the count-point grid on [0, length]: i * h from 0 with
    h = length / (count - 1), and the last point pinned to length, as
    np.linspace places them bit for bit."""
    return np.where(i < count - 1, i * (length / (count - 1)), length)


def bond_grid(graph: MetricStarGraph, bond: int, count: int = DEFAULT_RESOLUTION) -> np.ndarray:
    """Read-only array of `count` uniform points on [0, L_bond], endpoints
    included; count must be odd >= 3."""
    _check_point_count(count)
    pts = _grid_points(np.arange(count), count, graph.length(bond))
    pts.setflags(write=False)
    return pts


def quadrature(values, grid: np.ndarray) -> complex:
    """Composite Simpson integral of values sampled on a bond_grid array.

    Exact for polynomials of degree <= 3 on each two-interval panel.
    """
    vals = np.asarray(values, dtype=complex)
    if vals.shape != (grid.size,):
        raise LengthMismatch(f"expected {grid.size} samples, got shape {vals.shape}")
    _check_point_count(grid.size)
    h = grid[1] - grid[0]
    acc = vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum()
    return complex(acc * h / 3.0)


def simpson_weights(count: int, spacing: float) -> np.ndarray:
    """Simpson weight vector, so that integral = weights @ samples."""
    _check_point_count(count)
    return _simpson_at(np.arange(count), count, spacing)


def _simpson_at(i: np.ndarray, count: int, spacing: float) -> np.ndarray:
    """simpson_weights(count, spacing)[i] for an array i of grid indices."""
    return np.where((i == 0) | (i == count - 1), 1.0, 2.0 + 2.0 * (i % 2)) * (spacing / 3.0)


def _slices(n: int, width: int, budget: int):
    """Consecutive slices covering range(n), each of at most budget // width
    items (at least one)."""
    step = max(1, budget // max(1, width))
    return (slice(i, min(i + step, n)) for i in range(0, n, step))


def _grid_slices(graph: MetricStarGraph, bond: int, count: int, width: int, budget: int):
    """The points of bond_grid(graph, bond, count) and their simpson_weights, as
    (points, weights) over _slices(count, width, budget); joined, they equal both."""
    _check_point_count(count)
    length = graph.length(bond)
    for s in _slices(count, width, budget):
        i = np.arange(s.start, s.stop)
        yield _grid_points(i, count, length), _simpson_at(i, count, length / (count - 1))
