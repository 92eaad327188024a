"""Vertex boundary conditions as matrix pairs, inner products, and skew forms.

Boundary data of a function on the graph is collected into two vectors of
length 2N with a fixed slot layout:

    psi  = (f_1(0), ..., f_N(0), f_1(L_1), ..., f_N(L_N))
    dpsi = (-f_1'(L_1), ..., -f_N'(L_N), f_1'(0), ..., f_N'(0))

i.e. values at the vertex first, then at the outer ends; derivatives at the
outer ends (negated) first, then at the vertex. A boundary-condition pair
(A, B) constrains a function through A psi + B dpsi = 0 in this layout.

Three built-in condition families are provided. Two are the PT-consistent
sets (value continuity at the vertex with a derivative sum over the outer
ends, and its derivative/value mirror image); the third is the standard
self-adjoint vertex coupling kept as a Hermitian reference.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EvaluationFailure,
    GraphMismatch,
    InsufficientBasis,
    ResolutionTooCoarse,
    UnknownFamily,
)
from .graph import DEFAULT_RESOLUTION, MetricStarGraph, bond_grid, quadrature, simpson_weights

# family tags (shared with the spectral module and the CLI)
PT_DIRICHLET = "pt-dirichlet"
PT_NEUMANN = "pt-neumann"
KIRCHHOFF_REF = "kirchhoff-ref"
CUSTOM = "custom"

BUILTIN_FAMILIES = (PT_DIRICHLET, PT_NEUMANN, KIRCHHOFF_REF)

# inner-product tags for omega_direct
HERMITIAN = "hermitian"
PT = "pt"

#: singular values below RANK_TOL * sigma_max count as zero
RANK_TOL = 1e-10

#: default number of kernel modes retained by cpt_inner
DEFAULT_CPT_TRUNCATION = 20


class BondFunction:
    """A function on the graph with its x-derivatives, read through one evaluator.

    Subclasses provide `graph` and `evaluate(bond, x, order)`, which returns
    f_bond (order 0), f_bond' (order 1) and, when `orders` is 3, f_bond''
    (order 2), for a float or an ndarray of positions in [0, L_bond]. Forms
    that need f'' use order 2 when present and finite differences otherwise.
    Eigenmodes, wave states and the functions built here are all of this kind.
    """

    orders = 2

    @property
    def has_second_derivs(self) -> bool:
        return self.orders > 2

    def value(self, bond: int, x):
        return self.evaluate(bond, x, 0)

    def deriv(self, bond: int, x):
        return self.evaluate(bond, x, 1)

    def second_deriv(self, bond: int, x):
        if not self.has_second_derivs:
            raise EvaluationFailure("no analytic second derivative available")
        return self.evaluate(bond, x, 2)


@dataclass(frozen=True)
class _Evaluator(BondFunction):
    """BondFunction held as one callable evaluate(bond, x, order)."""

    graph: MetricStarGraph
    evaluate: Callable = field(repr=False)
    orders: int = 2


def bond_function(graph, values, derivs, second_derivs=None) -> BondFunction:
    """BondFunction from per-bond callables of x, one sequence per order."""
    extra = () if second_derivs is None else (tuple(second_derivs),)
    tables = (tuple(values), tuple(derivs)) + extra
    if len(tables[0]) != graph.n_bonds or len(tables[1]) != graph.n_bonds:
        raise DimensionMismatch("one value and one derivative callable per bond required")
    if any(len(t) != graph.n_bonds for t in extra):
        raise DimensionMismatch("one second-derivative callable per bond required")
    return _Evaluator(graph, lambda bond, x, order: tables[order][bond - 1](x), len(tables))


def zero_function(graph: MetricStarGraph) -> BondFunction:
    return trig_function(graph, [()] * graph.n_bonds)


def trig_function(graph: MetricStarGraph, terms: Sequence[Sequence[tuple]]) -> BondFunction:
    """Build f_j(x) = sum_m a_m sin(w_m x + p_m) from per-bond (a, w, p) triples.

    Amplitudes may be complex. Derivatives are analytic, so the function is
    usable wherever exact f' and f'' are needed.
    """
    if len(terms) != graph.n_bonds:
        raise DimensionMismatch("one term list per bond required")
    frozen = tuple(tuple(t) for t in terms)
    return _Evaluator(graph, partial(_trig_sum, frozen), orders=3)


def _trig_sum(terms, bond: int, x, order: int):
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    for a, w, p in terms[bond - 1]:
        if order == 0:
            out += a * np.sin(w * x + p)
        elif order == 1:
            out += a * w * np.cos(w * x + p)
        else:
            out += -a * w * w * np.sin(w * x + p)
    return out if out.shape else complex(out)


def _weighted_sum(coeffs, parts):
    """sum_i coeffs[i] * parts[i] added in order, as numpy's pairwise sum along
    an axis rounds differently; with no terms, zeros shaped like one part."""
    out = None
    for c, part in zip(coeffs, parts):
        term = c * np.asarray(part, dtype=complex)
        out = term if out is None else out + term
    if out is None:
        out = np.zeros(np.shape(parts)[1:], dtype=complex)
    return out if np.ndim(out) else complex(out)


def _combination(coeffs, functions, bond: int, x, order: int):
    return _weighted_sum(coeffs, (f.evaluate(bond, x, order) for f in functions))


def combine(functions: Sequence[BondFunction], coeffs) -> BondFunction:
    """Pointwise linear combination sum_i c_i f_i of functions on one graph;
    it has f'' only when every f_i has."""
    if not functions:
        raise DimensionMismatch("need at least one function")
    graph = functions[0].graph
    for f in functions[1:]:
        if f.graph != graph:
            raise GraphMismatch("all functions must share one graph")
    coeffs = tuple(complex(c) for c in coeffs)
    if len(coeffs) != len(functions):
        raise DimensionMismatch("one coefficient per function required")
    orders = min(f.orders for f in functions)
    return _Evaluator(graph, partial(_combination, coeffs, tuple(functions)), orders=orders)


def _sample(f: BondFunction, bond: int, pts: np.ndarray, order: int = 0) -> np.ndarray:
    """Evaluate f (order 0) or a derivative on a grid of bond `bond`; the
    evaluator must return one value per point."""
    out = np.asarray(f.evaluate(bond, pts, order), dtype=complex)
    if out.shape != pts.shape:
        raise EvaluationFailure(f"callable returned shape {out.shape} for grid of {pts.shape}")
    return out


def _bond_samples(basis, resolution: int):
    """Per bond of the basis graph: the bond, its grid points, its Simpson
    weights and the basis profiles on the grid (modes x points)."""
    for j in range(1, basis.graph.n_bonds + 1):
        grid = bond_grid(basis.graph, j, resolution)
        w = simpson_weights(grid.count, grid.spacing)
        yield j, grid.points, w, basis.profiles(j, grid.points)


def _real_matvec(phi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """phi @ v for a real matrix and a complex vector, without a complex copy of phi."""
    return phi @ v.real + 1j * (phi @ v.imag)


@dataclass(frozen=True)
class TraceVectors:
    """Boundary values and sign-adjusted boundary derivatives of one function."""

    psi: np.ndarray = field(repr=False)
    dpsi: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.psi.shape != self.dpsi.shape or self.psi.ndim != 1:
            raise DimensionMismatch("psi and dpsi must be vectors of equal length")
        if self.psi.shape[0] % 2 != 0:
            raise DimensionMismatch("trace vectors have length 2N")

    @property
    def n_bonds(self) -> int:
        return self.psi.shape[0] // 2


def _end_values(f: BondFunction, graph: MetricStarGraph) -> np.ndarray:
    """(N, 4) table of f_j(0), f_j(L_j), f_j'(0), f_j'(L_j), one row per bond."""
    if f.graph != graph:
        raise GraphMismatch("function was built on a different graph")
    ends = np.array(
        [[f.value(j, 0.0), f.value(j, lj), f.deriv(j, 0.0), f.deriv(j, lj)]
         for j, lj in enumerate(graph.lengths, start=1)],
        dtype=complex,
    )
    if not np.isfinite(ends).all():
        raise EvaluationFailure("non-finite endpoint value or derivative")
    return ends


def trace_vectors(f: BondFunction, graph: MetricStarGraph) -> TraceVectors:
    """Collect endpoint values/derivatives of f into the fixed slot layout."""
    v0, vl, d0, dl = _end_values(f, graph).T
    return TraceVectors(psi=np.concatenate([v0, vl]), dpsi=np.concatenate([-dl, d0]))


@dataclass(frozen=True)
class BCMatrices:
    """Matrix pair (A, B) acting on trace vectors: A psi + B dpsi = 0.

    A well-posed condition set has rank(A|B) = 2N; that is reported by
    check_ranks rather than enforced here, so deficient pairs (e.g. from a
    corrupted custom file) can still be inspected.
    """

    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    family: str
    n_bonds: int

    def __post_init__(self):
        m = 2 * self.n_bonds
        if self.a.shape != (m, m) or self.b.shape != (m, m):
            raise DimensionMismatch(
                f"expected {m}x{m} matrices, got {self.a.shape} and {self.b.shape}"
            )


def bc_matrices(family: str, graph: MetricStarGraph) -> BCMatrices:
    """Build the matrix pair for one of the built-in condition families.

    Row layout (2N rows):
      rows 1..N-1   vertex matching (values or derivatives equal across bonds)
      row  N        the single summed condition
      rows N+1..2N  one outer-end condition per bond
    """
    n = graph.n_bonds
    m = 2 * n
    a = np.zeros((m, m), dtype=complex)
    b = np.zeros((m, m), dtype=complex)
    if family == PT_DIRICHLET:
        # f_1(0) = ... = f_N(0); sum_j f_j'(L_j) = 0; f_j(L_j) = 0
        for r in range(n - 1):
            a[r, r] = 1.0
            a[r, r + 1] = -1.0
        b[n - 1, 0:n] = -1.0  # dpsi slots hold -f_j'(L_j)
        for j in range(n):
            a[n + j, n + j] = 1.0
    elif family == PT_NEUMANN:
        # f_1'(0) = ... = f_N'(0); sum_j f_j(L_j) = 0; f_j'(L_j) = 0
        for r in range(n - 1):
            b[r, n + r] = 1.0
            b[r, n + r + 1] = -1.0
        a[n - 1, n : 2 * n] = 1.0
        for j in range(n):
            b[n + j, j] = -1.0
    elif family == KIRCHHOFF_REF:
        # f_1(0) = ... = f_N(0); sum_j f_j'(0) = 0; f_j(L_j) = 0
        for r in range(n - 1):
            a[r, r] = 1.0
            a[r, r + 1] = -1.0
        b[n - 1, n : 2 * n] = 1.0
        for j in range(n):
            a[n + j, n + j] = 1.0
    else:
        raise UnknownFamily(f"no built-in condition family named {family!r}")
    return BCMatrices(a=a, b=b, family=family, n_bonds=n)


def bc_residual(bc: BCMatrices, t: TraceVectors) -> float:
    """Euclidean norm of A psi + B dpsi."""
    if t.n_bonds != bc.n_bonds:
        raise DimensionMismatch(
            f"trace vectors for {t.n_bonds} bonds, matrices for {bc.n_bonds}"
        )
    return float(np.linalg.norm(bc.a @ t.psi + bc.b @ t.dpsi))


def _outer_end_swap(n: int) -> np.ndarray:
    """Permutation exchanging the two N-blocks of a trace vector."""
    p = np.zeros((2 * n, 2 * n))
    p[:n, n:] = np.eye(n)
    p[n:, :n] = np.eye(n)
    return p


def check_ab_symmetry(bc: BCMatrices) -> float:
    """Frobenius norm of A B~^H - B~ A^H, the self-adjointness defect.

    The Hermitian compact-form condition is stated for derivative slots
    ordered (f'(0)..., -f'(L)...), i.e. derivatives pointing into each bond.
    Our stored B acts on the layout with the blocks swapped, so B is mapped
    to that ordering before the test. Zero means the pair defines a
    self-adjoint vertex coupling; the PT families are intentionally nonzero
    here (sqrt(2N) for the built-ins).
    """
    if bc.a.shape != bc.b.shape:
        raise DimensionMismatch("A and B must have equal shapes")
    b_inward = bc.b @ _outer_end_swap(bc.n_bonds)
    defect = bc.a @ b_inward.conj().T - b_inward @ bc.a.conj().T
    return float(np.linalg.norm(defect))


@dataclass(frozen=True)
class RankReport:
    rank_a: int
    rank_b: int
    rank_ab: int


def _numerical_rank(m: np.ndarray) -> int:
    sigma = np.linalg.svd(m, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > RANK_TOL * sigma[0]))


def check_ranks(bc: BCMatrices) -> RankReport:
    """Numerical ranks of A, B, and the stacked (A|B)."""
    return RankReport(
        rank_a=_numerical_rank(bc.a),
        rank_b=_numerical_rank(bc.b),
        rank_ab=_numerical_rank(np.hstack([bc.a, bc.b])),
    )


def _check_same_graph(f: BondFunction, g: BondFunction) -> MetricStarGraph:
    if f.graph != g.graph:
        raise GraphMismatch("functions live on different graphs")
    return f.graph


def l2_inner(f: BondFunction, g: BondFunction, resolution: int = DEFAULT_RESOLUTION) -> complex:
    """Hermitian inner product sum_j int f_j(x) conj(g_j(x)) dx."""
    graph = _check_same_graph(f, g)
    total = 0j
    for j in range(1, graph.n_bonds + 1):
        grid = bond_grid(graph, j, resolution)
        fv = _sample(f, j, grid.points)
        gv = fv if g is f else _sample(g, j, grid.points)
        total += quadrature(fv * np.conj(gv), grid)
    return total


def pt_inner(f: BondFunction, g: BondFunction, resolution: int = DEFAULT_RESOLUTION) -> complex:
    """Inner product with the first argument reflected and conjugated.

    sum_j int conj(f_j(L_j - x)) g_j(x) dx: bond-wise parity composed with
    complex conjugation acts on f before integration.
    """
    graph = _check_same_graph(f, g)
    total = 0j
    for j in range(1, graph.n_bonds + 1):
        grid = bond_grid(graph, j, resolution)
        lj = graph.length(j)
        f_refl = _sample(f, j, lj - grid.points)
        gv = _sample(g, j, grid.points)
        total += quadrature(np.conj(f_refl) * gv, grid)
    return total


def cpt_inner(
    f: BondFunction,
    g: BondFunction,
    basis,
    truncation: int = DEFAULT_CPT_TRUNCATION,
    resolution: int = DEFAULT_RESOLUTION,
) -> complex:
    """Positive-definite extension of the reflected inner product.

    Applies the charge-like kernel C_j(x, y) = sum_n phi~_j^(n)(x) phi~_j^(n)(y)
    to the reflected conjugate of f, then integrates against g. The kernel
    modes phi~ are the basis modes rescaled by 1/sqrt of their own reflected
    self-product, which is what makes the diagonal values come out positive;
    with unscaled modes the sign of that self-product leaks through. The mode
    sum is truncated at `truncation` and the result depends on it. `basis`
    is a SpectralBasis on the graph of f and g.
    """
    graph = _check_same_graph(f, g)
    if truncation < 1:
        raise InsufficientBasis(f"truncation must be >= 1, got {truncation}")
    if len(basis.modes) < truncation:
        raise InsufficientBasis(
            f"kernel truncated at {truncation} but basis holds only {len(basis.modes)} modes"
        )
    kernel = replace(basis, modes=basis.modes[:truncation])
    self_products, products = 0.0, 0j
    for j, x, w, phi in _bond_samples(kernel, resolution):
        # reflected self-product: a uniform grid maps x -> L - x onto its reverse
        self_products += np.einsum("nr,nr,r->n", phi, phi[:, ::-1], w)
        a = _real_matvec(phi, w * np.conj(_sample(f, j, graph.length(j) - x)))
        b = _real_matvec(phi, w * _sample(g, j, x))
        products += a * b
        del phi  # else it stays alive while the generator builds the next bond's matrix
    return complex(np.sum(products / self_products))


def omega_hermitian(f: BondFunction, g: BondFunction, graph: MetricStarGraph) -> complex:
    """Boundary-term value of <Hf, g> - <f, Hg> for H = -d^2/dx^2.

    Integration by parts leaves only endpoint terms; this evaluates them
    directly. Vanishes whenever f and g both satisfy a self-adjoint
    condition set such as the Kirchhoff reference family.
    """
    fe, ge = _end_values(f, graph).tolist(), _end_values(g, graph).tolist()
    total = 0j
    for (fv0, fvl, fd0, fdl), (gv0, gvl, gd0, gdl) in zip(fe, ge):
        total += -fdl * np.conj(gvl) + fvl * np.conj(gdl) + fd0 * np.conj(gv0) - fv0 * np.conj(gd0)
    return complex(total)


def omega_pt(f: BondFunction, g: BondFunction, graph: MetricStarGraph) -> complex:
    """Boundary-term value of the skew form under the reflected inner product.

    This is the expansion that vanishes identically under integration by
    parts against pt_inner; its sign and conjugation placement are pinned by
    agreement with the volume-integral oracle omega_direct(..., PT):

      sum_j [ conj(f_j'(0)) g_j(L_j) - conj(f_j'(L_j)) g_j(0)
              + conj(f_j(0)) g_j'(L_j) - conj(f_j(L_j)) g_j'(0) ]

    Equivalent to omega_pt_symplectic on the trace vectors.
    """
    fe, ge = _end_values(f, graph).tolist(), _end_values(g, graph).tolist()
    total = 0j
    for (fv0, fvl, fd0, fdl), (gv0, gvl, gd0, gdl) in zip(fe, ge):
        total += np.conj(fd0) * gvl - np.conj(fdl) * gv0 + np.conj(fv0) * gdl - np.conj(fvl) * gd0
    return complex(total)


def omega_pt_symplectic(f: BondFunction, g: BondFunction, graph: MetricStarGraph) -> complex:
    """Same skew form evaluated as a symplectic pairing of trace vectors.

    (G^T, G'^T) [[0, I], [-I, 0]] (conj(F), conj(F'))^T with F, F' the trace
    vectors of f and G, G' those of g. Serves as the second route for the
    boundary-term formula in omega_pt.
    """
    tf = trace_vectors(f, graph)
    tg = trace_vectors(g, graph)
    m = 2 * graph.n_bonds
    j_blk = np.zeros((2 * m, 2 * m))
    j_blk[:m, m:] = np.eye(m)
    j_blk[m:, :m] = -np.eye(m)
    row = np.concatenate([tg.psi, tg.dpsi])
    col = np.concatenate([np.conj(tf.psi), np.conj(tf.dpsi)])
    return complex(row @ j_blk @ col)


def _fd2_weights(offsets: np.ndarray, h: float) -> np.ndarray:
    """Stencil weights for f'' from samples at x + offsets*h (exact on
    polynomials up to the stencil size)."""
    k = len(offsets)
    v = np.vander(offsets, k, increasing=True).T  # v[p, i] = offsets[i]**p
    rhs = np.zeros(k)
    rhs[2] = 2.0  # second derivative of x^2
    return np.linalg.solve(v, rhs) / (h * h)


def _second_derivative_samples(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order finite-difference second derivative on a uniform grid."""
    n = len(values)
    if n < 7:
        raise ResolutionTooCoarse("need at least 7 grid points for the f'' stencil")
    out = np.empty(n, dtype=complex)
    w_int = _fd2_weights(np.arange(-2, 3, dtype=float), h)
    for shift, row in ((0, np.arange(0, 6)), (1, np.arange(-1, 5))):
        w = _fd2_weights(row.astype(float), h)
        out[shift] = np.dot(w, values[shift + row])
        out[n - 1 - shift] = np.dot(w[::-1], values[n - 1 - shift - row[::-1]])
    center = np.convolve(values, w_int[::-1], mode="valid")
    out[2 : n - 2] = center
    return out


def omega_direct(
    f: BondFunction,
    g: BondFunction,
    product: str = HERMITIAN,
    resolution: int = DEFAULT_RESOLUTION,
) -> complex:
    """Skew form <Hf, g> - <f, Hg> evaluated as volume integrals.

    The independent oracle for the boundary-term formulas: H = -d^2/dx^2 is
    applied with analytic second derivatives when available, otherwise with
    fourth-order finite differences on the quadrature grid.
    """
    graph = _check_same_graph(f, g)
    if product not in (HERMITIAN, PT):
        raise UnknownFamily(f"unknown product tag {product!r}")
    total = 0j
    for j in range(1, graph.n_bonds + 1):
        grid = bond_grid(graph, j, resolution)
        pts = grid.points
        lj = graph.length(j)
        fv = _sample(f, j, pts)
        gv = _sample(g, j, pts)
        if f.has_second_derivs:
            hf = -_sample(f, j, pts, order=2)
        else:
            hf = -_second_derivative_samples(fv, grid.spacing)
        if g.has_second_derivs:
            hg = -_sample(g, j, pts, order=2)
        else:
            hg = -_second_derivative_samples(gv, grid.spacing)
        if product == HERMITIAN:
            total += quadrature(hf * np.conj(gv) - fv * np.conj(hg), grid)
        else:
            # reflected first argument: uniform grids map x -> L - x exactly
            total += quadrature(np.conj(hf[::-1]) * gv - np.conj(fv[::-1]) * hg, grid)
    return total
