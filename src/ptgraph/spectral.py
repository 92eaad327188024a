"""Secular-equation root finding and normalized eigenfunction construction.

Both PT-consistent condition families share one transcendental root
condition in the wavenumber k, sum_j csc(k L_j) = 0; the Hermitian
reference family has its own, sum_j cot(k L_j) = 0. find_roots brackets
their roots on the pole lattice, the sine zeros n pi / L_j. Roots where some
sin(k L_j) vanishes are flagged degenerate: the closed-form eigenfunctions
divide by sin(k L_j) and are undefined there, so such roots are excluded
from basis construction and reported separately.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from .boundary import PT_DIRICHLET, BondFunction, _check_order, _family, l2_inner
from .errors import (
    DegenerateMode,
    DimensionMismatch,
    EvaluationFailure,
    InvalidWindow,
    NonFiniteInput,
    NormalizationError,
    NotARoot,
)
from .graph import DEFAULT_RESOLUTION, MetricStarGraph, _check_point_count, _finite_real, _slices

#: basis wavenumbers must be further apart than this
MODE_SEPARATION_TOL = 1e-9
#: sine zeros of different bonds closer than this (relative) are one pole
POLE_MERGE_REL = 1e-12
#: a root is degenerate when some |sin(k L_j)| falls below this
DEGENERATE_SINE_TOL = 1e-8
#: |S(k)| required of a k passed to eigenmode()
MODE_ROOT_TOL = 1e-9
#: tolerance of the closed-form-vs-quadrature norm cross-check
NORM_CHECK_TOL = 1e-8
#: largest k times grid spacing of the norm check
NORM_CHECK_K_SPACING = 0.05
#: most (pieces x bonds) elements the Rolle test of one level holds at once
_ROLLE_SLICE = 4096


def _cofactor_sum(k, graph: MetricStarGraph, weighted: bool):
    """sum_j w_j prod_{i != j} sin(k L_i), with w_j = cos(k L_j) if weighted
    and 1 otherwise, for a scalar or an array of k values."""
    lengths = np.asarray(graph.lengths)
    k_arr = np.asarray(k, dtype=float)
    sines = np.sin(k_arr[..., None] * lengths)
    # term j: the product of the sines left of j, times each later sine in
    # bond order, which rounds as the product over all bonds but j does
    terms = np.ones_like(sines)
    np.cumprod(sines[..., :-1], axis=-1, out=terms[..., 1:])
    for i in range(1, len(lengths)):
        terms[..., :i] *= sines[..., i, None]
    if weighted:
        terms *= np.cos(k_arr[..., None] * lengths)
    total = np.zeros(k_arr.shape)
    for j in range(len(lengths)):
        total = total + terms[..., j]
    return total if total.shape else float(total)


def secular(k, graph: MetricStarGraph):
    """Root condition shared by both PT condition families.

    Pole-free form sum_j prod_{i != j} sin(k L_i); equivalent to
    sum_j 1/sin(k L_j) = 0 away from the sine zeros, and for three bonds it
    is sin kL1 sin kL2 + sin kL1 sin kL3 + sin kL2 sin kL3. Accepts a scalar
    or an array of k values.
    """
    return _cofactor_sum(k, graph, weighted=False)


def secular_kirchhoff(k, graph: MetricStarGraph):
    """Root condition of the Hermitian reference family.

    Pole-free form of sum_j cot(k L_j) = 0: sum_j cos(k L_j) prod_{i != j}
    sin(k L_i). Not shared with the PT families.
    """
    return _cofactor_sum(k, graph, weighted=True)


@dataclass(frozen=True)
class SecularRoot:
    """One located root: its k and whether some sin(k L_j) vanishes there."""

    k: float
    degenerate: bool


def _end_node(ks, lattice, counts, e, side):
    """Window end e as a node and its multiplicity: the node of the lowest (side 0) or highest
    (side -1) zero in ks within POLE_MERGE_REL of e, else (e, 0). Either only widens the window."""
    w = 2 * POLE_MERGE_REL * e  # wider than the test below
    near = ks[bisect_left(ks, e - w):bisect_right(ks, e + w)]  # np.searchsorted's first call pages in 64 kB
    near = near[np.abs(near - e) <= POLE_MERGE_REL * np.maximum(near, e)]
    if not near.size:
        return e, 0
    i = bisect_right(lattice, near[side]) - 1
    return lattice[i], counts[i]


def _pole_lattice(lengths: np.ndarray, lo: float, hi: float):
    """The window's nodes from lo's node to hi's (see _end_node), sine zeros n pi / L_j (n >= 0)
    of different bonds within POLE_MERGE_REL of each other being one node; how many bonds
    vanish at each (all N at k = 0); and, per interval, how many sin(k L_j) are negative inside."""
    try:  # numpy: ValueError for a length it cannot index, MemoryError for no memory
        ks = np.concatenate([np.arange(lo * l // math.pi, hi * l // math.pi + 2)
                             * math.pi / l for l in lengths.tolist()])
    except (ValueError, MemoryError):
        size = (hi - lo) * sum(lengths.tolist()) / math.pi  # Python floats overflow to inf quietly
        raise InvalidWindow(
            f"the pole lattice of [{lo}, {hi}] has {size:.4g} nodes, more than can be allocated"
        ) from None
    ks = np.sort(ks)
    first = np.diff(ks, prepend=-np.inf) > POLE_MERGE_REL * ks
    lattice, counts = ks[first], np.diff(np.append(np.flatnonzero(first), ks.size))
    (lo, m_lo), (hi, m_hi) = (_end_node(ks, lattice, counts, e, side) for e, side in ((lo, 0), (hi, -1)))
    inner = slice(bisect_right(lattice, lo), bisect_left(lattice, hi))
    nodes = np.concatenate([[lo], lattice[inner], [hi] if hi > lo else []])  # else no interval
    mult = np.concatenate([[m_lo], counts[inner], [m_hi]])[: nodes.size]
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    return nodes, mult, np.count_nonzero(np.floor(mid[:, None] * lengths / math.pi) % 2, axis=1)


def _degenerate(k, graph: MetricStarGraph):
    """The one degeneracy rule, for a k or an array: some |sin(k L_j)| < DEGENERATE_SINE_TOL."""
    sines = np.abs(np.sin(np.multiply.outer(k, graph.lengths)))
    return sines.min(axis=-1, initial=1.0) < DEGENERATE_SINE_TOL


def _kirchhoff_ends(sec, ends, off, lengths):
    """S at the window's ends. At an end off the lattice where all of S's terms underflow (every
    sin(k L_j) tiny, as at k = 1e-12 on 29 or more bonds), S rounds to 0 or a few subnormal ulps,
    so it is read there as sign(prod_j sin k L_j) sum_j cot(k L_j), which has S's sign."""
    f, s = sec(ends), np.sin(ends[:, None] * lengths)
    under = off & (np.prod(np.sort(np.abs(s))[:, 1:], axis=1) < np.finfo(float).tiny)  # largest term's bound
    with np.errstate(divide="ignore", over="ignore"):  # at a subnormal k, cot is an inf of its sign
        cot = np.cos(ends[under, None] * lengths) / s[under]
    f[under] = np.prod(np.copysign(1.0, s[under]), axis=1) * cot.sum(axis=1)
    return f


def _e1_e2_left(w: np.ndarray):
    """Per row, the first and second elementary symmetric sums of the
    entries strictly left of each column (0 where there are none)."""
    e1 = np.zeros_like(w)
    np.cumsum(w[:, :-1], axis=1, out=e1[:, 1:])
    e2 = np.zeros_like(w)
    np.cumsum((w * e1)[:, :-1], axis=1, out=e2[:, 1:])
    return e1, e2


def _rolle_bound(a, b, h, lengths):
    """Bound M on |S''| over each piece [a, b] of width h (see _split_pt),
    evaluated over consecutive slices of at most _ROLLE_SLICE (pieces x bonds)
    elements. Every step works row by row, so the bound of each piece does not
    depend on the slice size."""
    l_sq = lengths * lengths
    bound = np.empty(a.size)
    for s in _slices(a.size, lengths.size, _ROLLE_SLICE):
        u = np.abs(np.sin(a[s, None] * lengths)) + np.abs(np.sin(b[s, None] * lengths))
        u = np.minimum(1.0, 0.5 * (u + lengths * h[s, None]))
        w = lengths / u
        # T = all bonds but j: e2_T = e2(left of j) + e2(right of j) + e1(left) e1(right)
        e1_l, e2_l = _e1_e2_left(w)
        e1_r, e2_r = (x[:, ::-1] for x in _e1_e2_left(w[:, ::-1]))
        others = np.prod(u, axis=1, keepdims=True) / u
        bound[s] = np.sum(others * (l_sq.sum() - l_sq + 2.0 * (e2_l + e2_r + e1_l * e1_r)), axis=1)
    return bound


def _split_pt(sec, lengths, a, b, fa, fb):
    """Halve the pieces [a, b] of the PT secular function S until each holds
    at most one root; returns the pieces with their end values.

    Rolle: two roots in [a, b] put a zero c of S' between them, so with
    |S''| <= M there, |S(a)| <= M (c - a)^2 / 2 and |S(b)| <= M (b - c)^2 / 2.
    A piece with sqrt|S(a)| + sqrt|S(b)| > h sqrt(M / 2) holds at most one
    root. M bounds each product P of sines over a bond set T: with
    |s_i| <= u_i on the piece, |s_i'| <= L_i and |s_i''| <= L_i^2 u_i,
    |P''| <= prod_T u * (sum_T L^2 + 2 e2_T(w)) for w = L / u, with e2 the
    second elementary symmetric sum; it is built from non-negative terms
    only, since w is huge next to a pole and a difference would cancel.
    A pole shared by m bonds, where S vanishes to order at least m - 1 (to
    order four at the triple pole 2 pi of lengths (0.5, 1, 1)), has the end
    value NaN: pieces touching it never pass and, once narrower than
    DEGENERATE_SINE_TOL / max L, belong to that degenerate root. Any other
    piece that cannot pass (no float midpoint, or S = 0 at both ends) raises.
    """
    narrow = DEGENERATE_SINE_TOL / lengths.max()
    done = []
    while True:  # one level: every undecided piece is tested, then halved
        h = b - a
        bound = _rolle_bound(a, b, h, lengths)
        simple = np.sqrt(np.abs(fa)) + np.sqrt(np.abs(fb)) > h * np.sqrt(0.5 * bound)
        done.append((a[simple], b[simple], fa[simple], fb[simple]))
        pinned = (h < narrow) & (np.isnan(fa) | np.isnan(fb))
        a, b, fa, fb = (x[~simple & ~pinned] for x in (a, b, fa, fb))
        if not a.size:
            return (np.concatenate(x) for x in zip(*done))
        m = 0.5 * (a + b)
        stuck = (m <= a) | (m >= b) | ((fa == 0.0) & (fb == 0.0))
        if np.any(stuck):
            raise EvaluationFailure(
                f"roots of the secular function near k = {a[stuck][0]:.17g} cannot be "
                "separated in floating point"
            )
        fm = sec(m)
        a, b, fa, fb = (np.concatenate(x) for x in zip((a, m, fa, fm), (m, b, fm, fb)))


def _bisect(sec, a: np.ndarray, b: np.ndarray, fa: np.ndarray) -> np.ndarray:
    """Bisect all brackets together (updating a and b in place), each down
    to the floating-point floor."""
    live = np.arange(a.size)
    for _ in range(200):
        m = 0.5 * (a[live] + b[live])
        moving = (m > a[live]) & (m < b[live])
        live, m = live[moving], m[moving]
        if not live.size:
            break
        fm = sec(m)
        zero = fm == 0.0
        left = (fm < 0.0) == (fa[live] < 0.0)
        a[live[left | zero]] = m[left | zero]
        b[live[~left | zero]] = m[~left | zero]
    return 0.5 * (a + b)


def find_roots(graph: MetricStarGraph, k_min: float, k_max: float,
               family: str = PT_DIRICHLET) -> list[SecularRoot]:
    """Locate all real roots of the family's secular function on (k_min, k_max].

    The family's row of the boundary table names it: secular_kirchhoff for
    the self-adjoint kirchhoff-ref, secular for pt-dirichlet and pt-neumann;
    any other tag, `custom` among them, raises UnknownFamily.

    The window needs finite real 0 <= k_min < k_max, else InvalidWindow. Only the real
    axis is searched: the off-axis conjugate pairs of roots that the PT families have
    on generic graphs are not reported.

    Works on the window's part of the pole lattice, the merged sine zeros n pi / L_j,
    n >= 0: about (k_max - k_min) sum_j L_j / pi nodes, whatever k_min is; one too large
    to allocate raises InvalidWindow naming that count. A zero that two or more bonds
    share is a root, returned once at the pole. A window end within POLE_MERGE_REL of a
    sine zero is that node: a pole at k_min lies outside the window, one at k_max inside
    (see _end_node), so k = 0, which all N bonds share, is never a root. Between nodes:

    - self-adjoint (Kirchhoff): sum_j cot(k L_j) falls from +inf to -inf, so each
      interval holds exactly one root and S has the signs +/- sign(prod_j sin k L_j)
      at its ends; S is read only at a window end off the lattice (see _kirchhoff_ends).
    - PT: sum_j csc(k L_j) has no root where all sines share a sign; the
      other intervals are halved until a Rolle bound on S'' leaves at most
      one root per piece (see _split_pt and _rolle_bound).

    A sign change brackets that root, and all brackets are bisected together to
    the floating-point floor; roots are then cut to (k_min, k_max]. A root is
    flagged degenerate when some |sin(k L_j)| < DEGENERATE_SINE_TOL. Roots that
    cannot be separated in floating point raise EvaluationFailure naming a k
    near them: a root of even order off the lattice (k = pi on lengths
    (1.5, 0.5)), or a band where S rounds to exactly 0 next to a pole shared
    by several bonds.
    """
    if not (_finite_real(k_min) and _finite_real(k_max)) or k_min < 0 or k_min >= k_max:
        raise InvalidWindow(f"need 0 <= k_min < k_max, got [{k_min}, {k_max}]")
    fam = _family(family)
    sec_fn = secular_kirchhoff if fam.self_adjoint else secular
    sec = lambda k: sec_fn(k, graph)
    lengths = np.asarray(graph.lengths, dtype=float)
    nodes, mult, negative = _pole_lattice(lengths, k_min, k_max)
    poles = nodes[mult >= 2]
    a, b = nodes[:-1], nodes[1:]
    if fam.self_adjoint:
        sign = 1.0 - 2.0 * (negative % 2)  # sign of prod_j sin(k L_j)
        f_lo, f_hi = _kirchhoff_ends(sec, nodes[[0, -1]], mult[[0, -1]] == 0, lengths)
        fa, fb = np.where(mult[:-1] == 0, f_lo, sign), np.where(mult[1:] == 0, f_hi, -sign)
    else:
        f = sec(nodes)
        f[mult >= 2] = np.nan
        mixed = (negative > 0) & (negative < lengths.size)
        a, b, fa, fb = _split_pt(sec, lengths, a[mixed], b[mixed], f[:-1][mixed], f[1:][mixed])
    cross = np.sign(fa) * np.sign(fb) < 0.0  # a product of values can round to -0.0
    ks = np.sort(np.concatenate([poles, b[fb == 0.0], _bisect(sec, a[cross], b[cross], fa[cross])]))
    ks = ks[(ks > k_min) & (ks <= k_max)]
    return [SecularRoot(k=float(k), degenerate=bool(d)) for k, d in zip(ks, _degenerate(ks, graph))]


def _profile(k, norm_const, sine, L, x, sin_profile: bool, order: int):
    """norm_const * f(k (L - x)) / sine (order 0), its x-derivative (order 1)
    or the order-0 profile times -(k * k) (order 2), with f = sin for the
    sine-profile families and cos otherwise, built in one array. Every
    argument broadcasts. The order (scale * f) / sine is that of the closed
    form; printed roundoff depends on it."""
    _check_order(order)
    out = np.asarray(k * (L - x), dtype=float)
    (np.sin if sin_profile == (order != 1) else np.cos)(out, out=out)
    out *= (-k if sin_profile else k) * norm_const if order == 1 else norm_const
    out /= sine
    if order == 2:
        out *= -(k * k)
    return out[()]


@dataclass(frozen=True)
class EigenMode(BondFunction):
    """One eigen-wavenumber with its closed-form bond profile.

    The profile is norm_const * sin(k (L_j - x)) / sin(k L_j) for a family
    whose outer ends hold f_j(L_j) = 0 (pt-dirichlet, kirchhoff-ref) and the
    cosine analog for f_j'(L_j) = 0 (pt-neumann), as the family's row of the
    boundary table says; norm_const makes the graph L2 norm exactly one.
    `norm_check` is the quadrature norm that eigenmode() checked this
    against (None for a mode built directly).
    """

    k: float
    family: str
    norm_const: float
    graph: MetricStarGraph
    norm_check: float | None = field(default=None, compare=False)

    def evaluate(self, bond: int, x, order: int = 0):
        """The profile on one bond (order 0) or its first or second
        x-derivative (order 1 or 2, with f'' = -k^2 f)."""
        lj = self.graph.length(bond)
        s = math.sin(self.k * lj)
        return _profile(self.k, self.norm_const, s, lj, x, _family(self.family).sin_profile, order)


def eigenmode(
    k: float,
    family: str,
    graph: MetricStarGraph,
    resolution: int = DEFAULT_RESOLUTION,
) -> EigenMode:
    """Build the normalized eigenfunction at a non-degenerate secular root.

    The normalization constant comes from the closed form

        [ sum_j (2 k L_j -/+ sin 2 k L_j) / (4 k sin^2 k L_j) ]^(-1/2)

    (minus for the sine profile of pt-dirichlet and kirchhoff-ref, plus for
    the cosine profile of pt-neumann), and is cross-checked against the
    quadrature L2 norm at `resolution` points per bond; disagreement beyond
    NORM_CHECK_TOL raises NormalizationError. The grid is raised where needed,
    never lowered, so that k times its spacing stays at or below
    NORM_CHECK_K_SPACING. `k` must be a finite real root of the family's
    secular function, else NonFiniteInput or NotARoot, and regular by the rule
    that flags find_roots' degenerate roots, else DegenerateMode; a tag
    without a row in the boundary table raises UnknownFamily.
    """
    fam = _family(family)
    if not _finite_real(k):
        raise NonFiniteInput(f"wavenumber k = {k!r} is not a finite real number")
    resid = abs(float((secular_kirchhoff if fam.self_adjoint else secular)(k, graph)))
    if resid >= MODE_ROOT_TOL:
        raise NotARoot(f"|secular({k})| = {resid:g} >= {MODE_ROOT_TOL:g}")
    if _degenerate(k, graph):
        raise DegenerateMode(
            f"sin(k L_j) vanishes at k = {k:.12g}; closed-form profile undefined"
        )
    sines = [math.sin(k * l) for l in graph.lengths]
    sign = -1.0 if fam.sin_profile else 1.0
    total = sum(
        (2.0 * k * l + sign * math.sin(2.0 * k * l)) / (4.0 * k * s * s)
        for l, s in zip(graph.lengths, sines)
    )
    norm_const = total ** -0.5
    mode = EigenMode(k=float(k), family=family, norm_const=norm_const, graph=graph)
    _check_point_count(resolution)
    need = math.ceil(k * max(graph.lengths) / NORM_CHECK_K_SPACING) + 1
    resolution = max(resolution, need) | 1
    n2 = l2_inner(mode, mode, resolution)
    if abs(n2 - 1.0) > NORM_CHECK_TOL:
        raise NormalizationError(
            f"quadrature norm {n2.real:.12g} deviates from 1 beyond {NORM_CHECK_TOL:g} "
            f"(resolution {resolution}, k = {k:g})"
        )
    return replace(mode, norm_check=n2.real)


@dataclass(frozen=True)
class SpectralBasis:
    """Ascending non-degenerate eigenmodes of one family on one graph.

    Degenerate roots are not silently dropped; they are kept in
    `degenerate_roots` so callers can tell the eigenbasis may be incomplete.
    """

    modes: tuple[EigenMode, ...]
    family: str
    graph: MetricStarGraph
    degenerate_roots: tuple[SecularRoot, ...] = field(default=())

    def __post_init__(self):
        ks = [m.k for m in self.modes]
        for a, b in zip(ks, ks[1:]):
            if not b > a + MODE_SEPARATION_TOL:
                raise DimensionMismatch("mode wavenumbers must be strictly increasing")
        for m in self.modes:
            if m.family != self.family or m.graph != self.graph:
                raise DimensionMismatch("all modes must share the basis family and graph")
        # the mode arrays that profiles reads, built once; math.sin keeps EigenMode's bits
        object.__setattr__(self, "_ks", np.array(ks))
        object.__setattr__(self, "_norms", np.array([m.norm_const for m in self.modes]))
        sines = [[math.sin(k * l) for k in ks] for l in self.graph.lengths]
        object.__setattr__(self, "_sines", np.array(sines))

    def __len__(self) -> int:
        return len(self.modes)

    def profiles(self, bond: int, x, order: int = 0) -> np.ndarray:
        """Every mode's value (order 0) or x-derivative (order 1 or 2) on one bond,
        shape (modes,) + shape(x); row n equals modes[n].evaluate(bond, x, order)."""
        lj = self.graph.length(bond)
        x = np.asarray(x, dtype=float)
        column = (-1,) + (1,) * x.ndim
        rows = (self._ks, self._norms, self._sines[bond - 1])
        k, norm, sines = (a.reshape(column) for a in rows)
        return _profile(k, norm, sines, lj, x, _family(self.family).sin_profile, order)


def build_basis(graph: MetricStarGraph, family: str, k_max: float, k_min: float = 0.0,
                resolution: int = DEFAULT_RESOLUTION) -> SpectralBasis:
    """Build eigenmodes at the regular roots that find_roots gives on (k_min, k_max];
    `resolution` is passed to the norm check of `eigenmode`."""
    roots = find_roots(graph, k_min, k_max, family)
    modes = tuple(
        eigenmode(r.k, family, graph, resolution) for r in roots if not r.degenerate
    )
    degenerate = tuple(r for r in roots if r.degenerate)
    return SpectralBasis(modes=modes, family=family, graph=graph, degenerate_roots=degenerate)
