"""Vertex boundary conditions as matrix pairs, inner products, and skew forms.

Boundary data of a function on the graph is collected into two vectors of
length 2N with a fixed slot layout:

    psi  = (f_1(0), ..., f_N(0), f_1(L_1), ..., f_N(L_N))
    dpsi = (-f_1'(L_1), ..., -f_N'(L_N), f_1'(0), ..., f_N'(0))

i.e. values at the vertex first, then at the outer ends; derivatives at the
outer ends (negated) first, then at the vertex. A boundary-condition pair
(A, B) constrains a function through A psi + B dpsi = 0 in this layout.

Three built-in condition families are provided: two PT-consistent sets
(value continuity at the vertex with a derivative sum over the outer ends,
and its derivative/value mirror image) and the standard self-adjoint vertex
coupling as a Hermitian reference. Each is one row of the table _FAMILIES,
which bc_matrices and the spectral module read; load_bc_matrices reads any
other pair from a text file.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EvaluationFailure,
    GraphMismatch,
    InsufficientBasis,
    NonFiniteInput,
    OutOfDomain,
    TooFewBonds,
    UnknownFamily,
)
from .graph import (
    DEFAULT_RESOLUTION, MetricStarGraph, _is_index, bond_grid, quadrature, simpson_weights
)

# family tags (shared with the spectral module and the CLI)
PT_DIRICHLET = "pt-dirichlet"
PT_NEUMANN = "pt-neumann"
KIRCHHOFF_REF = "kirchhoff-ref"
CUSTOM = "custom"

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
    f_bond (order 0), f_bond' (order 1) or f_bond'' (order 2) for a float or
    an ndarray of positions in [0, L_bond]; any other order raises
    OutOfDomain. Eigenmodes, wave states and the functions built here are all
    of this kind, and each carries its exact f''.
    """

    def value(self, bond: int, x):
        return self.evaluate(bond, x, 0)

    def deriv(self, bond: int, x):
        return self.evaluate(bond, x, 1)

    def second_deriv(self, bond: int, x):
        return self.evaluate(bond, x, 2)


def _check_order(order: int) -> int:
    if not (_is_index(order) and 0 <= order <= 2):
        raise OutOfDomain(f"derivative order {order!r} not in 0, 1, 2")
    return order


@dataclass(frozen=True)
class _Evaluator(BondFunction):
    """BondFunction held as one callable fn(bond, x, order), called on checked arguments."""

    graph: MetricStarGraph
    fn: Callable = field(repr=False)

    def evaluate(self, bond: int, x, order: int):
        self.graph.length(bond)
        return self.fn(bond, x, _check_order(order))


def bond_function(graph, values, derivs, second_derivs) -> BondFunction:
    """BondFunction from per-bond callables of x: one sequence each for f, f' and f''."""
    tables = (tuple(values), tuple(derivs), tuple(second_derivs))
    if any(len(t) != graph.n_bonds for t in tables):
        raise DimensionMismatch("one callable per bond required for each of f, f' and f''")
    return _Evaluator(graph, lambda bond, x, order: tables[order][bond - 1](x))


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
    return _Evaluator(graph, partial(_trig_sum, frozen))


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
    """Pointwise linear combination sum_i c_i f_i of functions on one graph,
    read at every order through the evaluators of the f_i."""
    if not functions:
        raise DimensionMismatch("need at least one function")
    graph = functions[0].graph
    for f in functions[1:]:
        _check_same_graph(functions[0], f)
    coeffs = tuple(complex(c) for c in coeffs)
    if len(coeffs) != len(functions):
        raise DimensionMismatch("one coefficient per function required")
    return _Evaluator(graph, partial(_combination, coeffs, tuple(functions)))


def _sample(f: BondFunction, bond: int, pts: np.ndarray, order: int = 0) -> np.ndarray:
    """Evaluate f (order 0) or a derivative on a grid of bond `bond`; the
    evaluator must return one finite value per point, else EvaluationFailure."""
    out = np.asarray(f.evaluate(bond, pts, order), dtype=complex)
    if out.shape != pts.shape:
        raise EvaluationFailure(f"callable returned shape {out.shape} for grid of {pts.shape}")
    if not np.isfinite(out).all():
        raise EvaluationFailure(f"non-finite sample on bond {bond}")
    return out


def _real_matvec(phi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """phi @ v for a real matrix and a complex vector, without a complex copy of phi."""
    return phi @ v.real + 1j * (phi @ v.imag)


@dataclass(frozen=True)
class TraceVectors:
    """Endpoint data of one function on its graph: `ends` is the (N, 4) table of
    f_j(0), f_j(L_j), f_j'(0), f_j'(L_j), read as psi and dpsi in the slot layout."""

    graph: MetricStarGraph
    ends: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.ends.shape != (self.n_bonds, 4):
            raise DimensionMismatch(f"endpoint table {self.ends.shape} is not ({self.n_bonds}, 4)")

    @property
    def n_bonds(self) -> int:
        return self.graph.n_bonds

    @property
    def psi(self) -> np.ndarray:
        return np.concatenate([self.ends[:, 0], self.ends[:, 1]])

    @property
    def dpsi(self) -> np.ndarray:
        return np.concatenate([-self.ends[:, 3], self.ends[:, 2]])


def trace_vectors(f: BondFunction) -> TraceVectors:
    """Read f and f' at both ends [0, L_j] of every bond of its graph through
    _sample: one two-point read per bond and order."""
    ends = [np.concatenate([_sample(f, j, np.array([0.0, lj]), order) for order in (0, 1)])
            for j, lj in enumerate(f.graph.lengths, start=1)]
    return TraceVectors(f.graph, np.array(ends))


def _slot_count(n_bonds: int) -> int:
    """2N trace slots of an N-bond pair; N < 2 raises TooFewBonds, as for a star graph."""
    if n_bonds < 2:
        raise TooFewBonds(f"a condition pair needs at least 2 bonds, got {n_bonds}")
    return 2 * n_bonds


@dataclass(frozen=True)
class BCMatrices:
    """Matrix pair (A, B) acting on trace vectors: A psi + B dpsi = 0.

    A well-posed condition set has rank(A|B) = 2N; that is reported by
    check_ranks rather than enforced here, so deficient pairs (e.g. from a
    corrupted custom file) can still be inspected. N is read from A, whose
    2N columns act on the slots.
    """

    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    family: str

    @property
    def n_bonds(self) -> int:
        return np.shape(self.a)[-1] // 2 if np.ndim(self.a) else 0

    def __post_init__(self):
        m = _slot_count(self.n_bonds)
        if self.a.shape != (m, m) or self.b.shape != (m, m):
            raise DimensionMismatch(f"expected {m}x{m} matrices, got {self.a.shape} and {self.b.shape}")
        if not (np.isfinite(self.a).all() and np.isfinite(self.b).all()):
            raise NonFiniteInput("A and B must have finite entries")


#: the matrix a family row fills: A acts on psi, B on dpsi
_A, _B = 0, 1


class _Family(NamedTuple):
    """One built-in family: its rows of (A, B) and whether it is the Hermitian
    reference, whose secular function is secular_kirchhoff (the PT families
    share secular). A row entry names a matrix (_A or _B) and a slot block
    (0: slots 1..N, 1: slots N+1..2N); rows 1..N-1 (`matching`) hold +1 at
    slot j and -1 at slot j+1 of the block, row N (`summed`) a coefficient at
    every slot, and rows N+1..2N (`outer`) a coefficient at slot j."""

    matching: tuple
    summed: tuple
    outer: tuple
    self_adjoint: bool = False

    @property
    def sin_profile(self) -> bool:
        """f_j(L_j) = 0 at the outer ends gives sin(k (L_j - x)), f_j'(L_j) = 0 the cosine."""
        return self.outer[0] == _A


_FAMILIES = {
    # f_1(0) = ... = f_N(0); sum_j f_j'(L_j) = 0 (dpsi holds -f_j'(L_j)); f_j(L_j) = 0
    PT_DIRICHLET: _Family(matching=(_A, 0), summed=(_B, 0, -1.0), outer=(_A, 1, 1.0)),
    # f_1'(0) = ... = f_N'(0); sum_j f_j(L_j) = 0; f_j'(L_j) = 0
    PT_NEUMANN: _Family(matching=(_B, 1), summed=(_A, 1, 1.0), outer=(_B, 0, -1.0)),
    # f_1(0) = ... = f_N(0); sum_j f_j'(0) = 0; f_j(L_j) = 0
    KIRCHHOFF_REF: _Family(matching=(_A, 0), summed=(_B, 1, 1.0), outer=(_A, 1, 1.0),
                           self_adjoint=True),
}

BUILTIN_FAMILIES = tuple(_FAMILIES)


def _family(tag: str) -> _Family:
    """The table row of a built-in family; any other tag raises UnknownFamily."""
    if tag not in _FAMILIES:
        raise UnknownFamily(f"no built-in condition family named {tag!r}")
    return _FAMILIES[tag]


def bc_matrices(family: str, graph: MetricStarGraph) -> BCMatrices:
    """Build the matrix pair of a built-in condition family from its table row.

    Row layout (2N rows):
      rows 1..N-1   vertex matching (values or derivatives equal across bonds)
      row  N        the single summed condition
      rows N+1..2N  one outer-end condition per bond
    """
    fam = _family(family)
    n = graph.n_bonds
    j = np.arange(n)
    ab = np.zeros((2, 2 * n, 2 * n), dtype=complex)
    m, block = fam.matching
    ab[m, j[:-1], block * n + j[:-1]] = 1.0
    ab[m, j[:-1], block * n + j[1:]] = -1.0
    m, block, c = fam.summed
    ab[m, n - 1, block * n + j] = c
    m, block, c = fam.outer
    ab[m, n + j, block * n + j] = c
    return BCMatrices(a=ab[_A], b=ab[_B], family=family)


def load_bc_matrices(path, n_bonds: int) -> BCMatrices:
    """Read a custom pair from a text file: 2N rows of 4N whitespace-separated complex
    entries ('re' or 're+imj'), the A block first, then the B block; blank lines and lines
    starting with '#' are skipped. N < 2 raises TooFewBonds, an unreadable file UnknownFamily,
    a row without 4N entries or a row count other than 2N DimensionMismatch, and an entry
    that is not a finite number NonFiniteInput."""
    try:
        with open(path) as fh:
            rows = [line.split() for line in fh if line.strip() and not line.startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:
        raise UnknownFamily(f"cannot be read ({exc})") from None
    m = _slot_count(n_bonds)  # before the rows are sized by it
    entries = []
    for i, row in enumerate(rows, start=1):
        if len(row) != 2 * m:
            raise DimensionMismatch(f"row {i} must have {2 * m} entries, found {len(row)}")
        try:
            entries.append([complex(tok) for tok in row])
        except ValueError as exc:
            raise NonFiniteInput(f"row {i}: could not parse entry: {exc}") from None
    full = np.array(entries, dtype=complex).reshape(len(rows), 2 * m)  # also with no rows
    return BCMatrices(a=full[:, :m], b=full[:, m:], family=CUSTOM)


def bc_residual(bc: BCMatrices, t: TraceVectors) -> float:
    """Euclidean norm of A psi + B dpsi."""
    if t.n_bonds != bc.n_bonds:
        raise DimensionMismatch(f"trace vectors for {t.n_bonds} bonds, matrices for {bc.n_bonds}")
    return float(np.linalg.norm(bc.a @ t.psi + bc.b @ t.dpsi))


def check_ab_symmetry(bc: BCMatrices) -> float:
    """Frobenius norm of A B~^H - B~ A^H, the self-adjointness defect.

    The Hermitian compact-form condition is stated for derivative slots
    ordered (f'(0)..., -f'(L)...), i.e. derivatives pointing into each bond.
    Our stored B acts on the layout with the blocks swapped, so the two
    N-column blocks of B are swapped (B S) before the test. Zero means the
    pair defines a self-adjoint vertex coupling; the PT families are
    intentionally nonzero here (sqrt(2N) for the built-ins).
    """
    b_inward = np.roll(bc.b, bc.n_bonds, axis=1)
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


def _check_same_graph(f, g) -> MetricStarGraph:
    if f.graph != g.graph:
        raise GraphMismatch("arguments live on different graphs")
    return f.graph


def _paired_samples(f: BondFunction, g: BondFunction, resolution: int):
    """(bond, grid, f samples, g samples) on each bond_grid of the graph of f
    and g; g is not sampled again when it is f."""
    graph = _check_same_graph(f, g)
    for j in range(1, graph.n_bonds + 1):
        grid = bond_grid(graph, j, resolution)
        fv = _sample(f, j, grid)
        yield j, grid, fv, fv if g is f else _sample(g, j, grid)


def l2_inner(f: BondFunction, g: BondFunction, resolution: int = DEFAULT_RESOLUTION) -> complex:
    """Hermitian inner product sum_j int f_j(x) conj(g_j(x)) dx."""
    return sum((quadrature(fv * np.conj(gv), grid)
                for _, grid, fv, gv in _paired_samples(f, g, resolution)), 0j)


def pt_inner(f: BondFunction, g: BondFunction, resolution: int = DEFAULT_RESOLUTION) -> complex:
    """Inner product with the first argument reflected and conjugated.

    sum_j int conj(f_j(L_j - x)) g_j(x) dx: bond-wise parity composed with
    complex conjugation acts on f before integration. The parity is the
    reversal of f's samples: the grid and the Simpson weights are symmetric.
    """
    return sum((quadrature(np.conj(fv[::-1]) * gv, grid)
                for _, grid, fv, gv in _paired_samples(f, g, resolution)), 0j)


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
    The grid is not sliced, since the reflection pairs each sample with its
    mirror at L - x, the reversed sample: one (truncation x points) matrix is
    held per bond.
    """
    _check_same_graph(f, basis)  # _paired_samples checks f against g
    if not _is_index(truncation) or truncation < 1:
        raise InsufficientBasis(f"truncation must be an integer >= 1, got {truncation!r}")
    if len(basis.modes) < truncation:
        raise InsufficientBasis(
            f"kernel truncated at {truncation} but basis holds only {len(basis.modes)} modes"
        )
    kernel = replace(basis, modes=basis.modes[:truncation])
    self_products, products = 0.0, 0j
    for j, x, fv, gv in _paired_samples(f, g, resolution):
        w = simpson_weights(x.size, x[1] - x[0])
        phi = kernel.profiles(j, x)
        self_products += np.einsum("nr,nr,r->n", phi, phi[:, ::-1], w)
        products += _real_matvec(phi, w * np.conj(fv[::-1])) * _real_matvec(phi, w * gv)
        del phi  # else it stays alive while the next bond's matrix is built
    return complex(np.sum(products / self_products))


def omega_hermitian(tf: TraceVectors, tg: TraceVectors) -> complex:
    """Boundary-term value of <Hf, g> - <f, Hg> for H = -d^2/dx^2.

    Integration by parts leaves only endpoint terms; this reads them from
    the trace vectors tf of f and tg of g. Vanishes whenever f and g both
    satisfy a self-adjoint condition set such as the Kirchhoff reference family.
    """
    _check_same_graph(tf, tg)
    total = 0j
    for (fv0, fvl, fd0, fdl), (gv0, gvl, gd0, gdl) in zip(tf.ends.tolist(), tg.ends.tolist()):
        total += -fdl * np.conj(gvl) + fvl * np.conj(gdl) + fd0 * np.conj(gv0) - fv0 * np.conj(gd0)
    return complex(total)


def omega_pt(tf: TraceVectors, tg: TraceVectors) -> complex:
    """Boundary-term value of the reflected skew form, from trace vectors tf, tg.

    This is the expansion that vanishes identically under integration by
    parts against pt_inner; its sign and conjugation placement are pinned by
    agreement with the volume-integral oracle omega_direct(..., PT):

      sum_j [ conj(f_j'(0)) g_j(L_j) - conj(f_j'(L_j)) g_j(0)
              + conj(f_j(0)) g_j'(L_j) - conj(f_j(L_j)) g_j'(0) ]

    Equivalent to omega_pt_symplectic on the same trace vectors.
    """
    _check_same_graph(tf, tg)
    total = 0j
    for (fv0, fvl, fd0, fdl), (gv0, gvl, gd0, gdl) in zip(tf.ends.tolist(), tg.ends.tolist()):
        total += np.conj(fd0) * gvl - np.conj(fdl) * gv0 + np.conj(fv0) * gdl - np.conj(fvl) * gd0
    return complex(total)


def omega_pt_symplectic(tf: TraceVectors, tg: TraceVectors) -> complex:
    """Same skew form evaluated as a symplectic pairing of trace vectors.

    (G^T, G'^T) [[0, I], [-I, 0]] (conj(F), conj(F'))^T with F, F' the trace
    vectors of f and G, G' those of g. Serves as the second route for the
    boundary-term formula in omega_pt.
    """
    _check_same_graph(tf, tg)
    row = np.concatenate([-tg.dpsi, tg.psi])  # (G^T, G'^T) times the block matrix
    return complex(row @ np.conj(np.concatenate([tf.psi, tf.dpsi])))


def omega_direct(
    f: BondFunction,
    g: BondFunction,
    product: str = HERMITIAN,
    resolution: int = DEFAULT_RESOLUTION,
) -> complex:
    """Skew form <Hf, g> - <f, Hg> evaluated as volume integrals.

    The independent oracle for the boundary-term formulas: H = -d^2/dx^2 is
    applied through the exact second derivatives of f and g on the
    quadrature grid. The PT product reflects f as pt_inner does.
    """
    if product not in (HERMITIAN, PT):
        raise UnknownFamily(f"unknown product tag {product!r}")
    total = 0j
    for j, grid, fv, gv in _paired_samples(f, g, resolution):
        hf = -_sample(f, j, grid, order=2)
        hg = -_sample(g, j, grid, order=2)
        if product == HERMITIAN:
            total += quadrature(hf * np.conj(gv) - fv * np.conj(hg), grid)
        else:
            total += quadrature(np.conj(hf[::-1]) * gv - np.conj(fv[::-1]) * hg, grid)
    return total
