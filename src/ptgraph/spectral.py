"""Secular-equation root finding and normalized eigenfunction construction.

Both PT-consistent condition families share one transcendental root
condition in the wavenumber k, sum_j csc(k L_j) = 0; the Hermitian
reference family has its own, sum_j cot(k L_j) = 0. All of their structure
sits on the sine zeros n pi / L_j, so roots are bracketed on that pole
lattice: a zero shared by two or more bonds is itself a root, each
pole-free interval of the Kirchhoff family holds exactly one root, and the
PT intervals are subdivided until a curvature bound leaves at most one
root per piece. The brackets are bisected together. Roots where some
sin(k L_j) vanishes are flagged degenerate: the closed-form eigenfunctions
divide by sin(k L_j) and are undefined there, so such roots are excluded
from basis construction and reported separately.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .boundary import PT_DIRICHLET, BondFunction, _check_order, _family, l2_inner
from .errors import (
    DegenerateMode,
    DimensionMismatch,
    EvaluationFailure,
    InvalidWindow,
    NormalizationError,
    NotARoot,
)
from .graph import DEFAULT_RESOLUTION, MetricStarGraph, _check_point_count, _slices

#: where the root window starts when k_min is 0 (excludes k = 0)
DEFAULT_ROOT_TOL = 1e-12
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


def _pole_lattice(lengths: np.ndarray, lo: float, hi: float):
    """Nodes lo, the sine zeros n pi / L_j in (lo, hi] (zeros of different
    bonds within POLE_MERGE_REL of each other are one node) and hi.

    Returns the nodes, how many bonds vanish at each node (0 at lo and hi)
    and, per interval between neighbouring nodes, the parity p[i, j] with
    sign sin(k L_j) = (-1)**p[i, j] inside interval i.
    """
    ks = np.concatenate([np.arange(1, hi * l // math.pi + 2) * math.pi / l for l in lengths])
    ks = np.sort(ks[(ks > lo) & (ks <= hi)])
    first = np.ones(ks.size, dtype=bool)
    first[1:] = np.diff(ks) > POLE_MERGE_REL * ks[1:]
    nodes = np.concatenate([[lo], ks[first], [hi] if ks.size == 0 or ks[-1] < hi else []])
    mult = np.zeros(nodes.size, dtype=int)
    mult[1 : 1 + first.sum()] = np.diff(np.append(np.flatnonzero(first), ks.size))
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    return nodes, mult, np.floor(mid[:, None] * lengths / math.pi) % 2


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


def find_roots(
    graph: MetricStarGraph,
    k_min: float,
    k_max: float,
    family: str = PT_DIRICHLET,
) -> list[SecularRoot]:
    """Locate all real roots of the family's secular function on (k_min, k_max].

    The family's row of the boundary table names it: secular_kirchhoff for
    the self-adjoint kirchhoff-ref, secular for pt-dirichlet and pt-neumann;
    any other tag, `custom` among them, raises UnknownFamily.

    The window needs finite 0 <= k_min < k_max, else InvalidWindow. A k_min of
    0 starts it at DEFAULT_ROOT_TOL, which excludes k = 0; a positive k_min is
    used as given. Only the real axis is searched: the off-axis conjugate
    pairs of roots that the PT families have on generic graphs are not reported.

    Works on the pole lattice, the merged sine zeros n pi / L_j. A zero that
    two or more bonds share is a root and is returned once, at the pole.
    Between neighbouring poles:

    - self-adjoint (Kirchhoff): sum_j cot(k L_j) falls from +inf to -inf, so
      each interval holds exactly one root and S has the signs
      +/- sign(prod_j sin k L_j) at its ends; only the window ends are
      evaluated.
    - PT: sum_j csc(k L_j) has no root where all sines share a sign; the
      other intervals are halved until a Rolle bound on S'' leaves at most
      one root per piece. The pieces of one level are tested together, in
      slices of at most _ROLLE_SLICE (pieces x bonds) elements, so the
      working memory of the test does not grow with pieces x bonds.

    A sign change brackets that root, and all brackets are bisected together
    to the floating-point floor. A root is flagged degenerate when
    some |sin(k L_j)| < DEGENERATE_SINE_TOL. Roots that cannot be separated
    in floating point raise EvaluationFailure naming a k near them: a root of
    even order off the lattice (k = pi on lengths (1.5, 0.5)), or a band
    where S rounds to exactly 0 next to a pole shared by several bonds.
    """
    if not (math.isfinite(k_min) and math.isfinite(k_max)) or k_min < 0 or k_min >= k_max:
        raise InvalidWindow(f"need 0 <= k_min < k_max, got [{k_min}, {k_max}]")
    fam = _family(family)
    sec_fn = secular_kirchhoff if fam.self_adjoint else secular
    sec = lambda k: sec_fn(k, graph)
    lo = k_min or DEFAULT_ROOT_TOL
    if lo >= k_max:
        return []
    lengths = np.asarray(graph.lengths, dtype=float)
    nodes, mult, parity = _pole_lattice(lengths, lo, k_max)
    poles = nodes[mult >= 2]
    a, b = nodes[:-1], nodes[1:]
    if fam.self_adjoint:
        fa = 1.0 - 2.0 * (parity.sum(axis=1) % 2)  # sign of prod_j sin(k L_j)
        fb = -fa
        fa[0], f_hi = sec(nodes[[0, -1]])
        if not mult[-1]:
            fb[-1] = f_hi
    else:
        f = sec(nodes)
        f[mult >= 2] = np.nan
        mixed = parity.any(axis=1) & ~parity.all(axis=1)
        a, b, fa, fb = _split_pt(sec, lengths, a[mixed], b[mixed], f[:-1][mixed], f[1:][mixed])
    cross = fa * fb < 0.0
    ks = np.sort(np.concatenate([poles, b[fb == 0.0], _bisect(sec, a[cross], b[cross], fa[cross])]))
    min_sine = np.abs(np.sin(ks[:, None] * lengths)).min(axis=1, initial=1.0)
    return [
        SecularRoot(k=float(k), degenerate=bool(s < DEGENERATE_SINE_TOL))
        for k, s in zip(ks, min_sine)
    ]


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
    resolution: int | None = None,
) -> EigenMode:
    """Build the normalized eigenfunction at a non-degenerate secular root.

    The normalization constant comes from the closed form

        [ sum_j (2 k L_j -/+ sin 2 k L_j) / (4 k sin^2 k L_j) ]^(-1/2)

    (minus for the sine profile of pt-dirichlet and kirchhoff-ref, plus for
    the cosine profile of pt-neumann), and is cross-checked against the
    quadrature L2 norm at `resolution` points per bond (default
    DEFAULT_RESOLUTION); disagreement beyond NORM_CHECK_TOL raises
    NormalizationError. The grid is raised where needed, never lowered, so
    that k times its spacing stays at or below NORM_CHECK_K_SPACING. `k` must
    be a root of the family's secular function, else NotARoot; a tag without
    a row in the boundary table raises UnknownFamily.
    """
    fam = _family(family)
    resid = abs(float((secular_kirchhoff if fam.self_adjoint else secular)(k, graph)))
    if resid >= MODE_ROOT_TOL:
        raise NotARoot(f"|secular({k})| = {resid:g} >= {MODE_ROOT_TOL:g}")
    sines = [math.sin(k * l) for l in graph.lengths]
    if min(abs(s) for s in sines) <= DEGENERATE_SINE_TOL:
        raise DegenerateMode(
            f"sin(k L_j) vanishes at k = {k:.12g}; closed-form profile undefined"
        )
    sign = -1.0 if fam.sin_profile else 1.0
    total = sum(
        (2.0 * k * l + sign * math.sin(2.0 * k * l)) / (4.0 * k * s * s)
        for l, s in zip(graph.lengths, sines)
    )
    norm_const = total ** -0.5
    mode = EigenMode(k=float(k), family=family, norm_const=norm_const, graph=graph)
    if resolution is not None:
        _check_point_count(resolution)
    need = math.ceil(k * max(graph.lengths) / NORM_CHECK_K_SPACING) + 1
    resolution = max(resolution or DEFAULT_RESOLUTION, need) | 1
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
    k_max: float
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


def build_basis(
    graph: MetricStarGraph,
    family: str,
    k_max: float,
    k_min: float = 0.0,
    resolution: int | None = None,
) -> SpectralBasis:
    """Build eigenmodes at the regular roots that find_roots gives on (k_min, k_max];
    `resolution` is passed to the norm check of `eigenmode`."""
    roots = find_roots(graph, k_min, k_max, family)
    modes = tuple(
        eigenmode(r.k, family, graph, resolution) for r in roots if not r.degenerate
    )
    degenerate = tuple(r for r in roots if r.degenerate)
    return SpectralBasis(
        modes=modes, family=family, k_max=float(k_max), graph=graph, degenerate_roots=degenerate
    )
