"""Independent root oracle for the star-graph secular functions.

Written from the problem statement only; it never imports ptgraph. The
pole-free root conditions are

    PT families   S(k) = sum_j prod_{i != j} sin(k L_i)
    Kirchhoff     S(k) = sum_j cos(k L_j) prod_{i != j} sin(k L_i)

The scan grid is the union of a uniform grid (step pi / (400 max L)) and a
fixed number of points inside every interval between neighbouring poles
n pi / L_j, so near-coincident poles get a dense local scan. Roots are
sign changes refined by vectorised bisection, plus |S| dips that refine
below DIP_TOL without a sign change (even-multiplicity roots, which sit on
coincident poles). For the Kirchhoff family sum_j cot(k L_j) strictly
decreases between neighbouring poles, so the oracle also checks that every
pole-free interval holds exactly one root and every coincident pole one
more; a disagreement raises OracleError instead of returning a guess.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

PT_FAMILIES = ("pt-dirichlet", "pt-neumann")
KIRCHHOFF = "kirchhoff-ref"

#: uniform scan step is pi / (UNIFORM_PER_PI * max L)
UNIFORM_PER_PI = 400
#: extra scan points inside every pole-free interval
POINTS_PER_INTERVAL = 32
#: a dip of |S| counts as a root when it refines below this
DIP_TOL = 1e-11
#: poles closer than this (relative) are one coincident pole
POLE_MERGE_REL = 1e-12
#: matching tolerances (relative to max(1, k)) for sign-change and dip roots
MATCH_SIGN_REL = 1e-9
MATCH_DIP_REL = 1e-6


class OracleError(RuntimeError):
    """The oracle's own consistency check failed."""


@dataclass(frozen=True)
class OracleRoots:
    """Roots on (0, k_max], sorted, with a flag for even-multiplicity dips."""

    ks: tuple
    dip: tuple

    def __len__(self):
        return len(self.ks)


def secular_values(k, lengths, family):
    """Pole-free secular function on an array of k (prefix/suffix products)."""
    k = np.asarray(k, dtype=float)
    arg = k[..., None] * np.asarray(lengths, dtype=float)
    s = np.sin(arg)
    ones = np.ones(s.shape[:-1] + (1,))
    prefix = np.cumprod(np.concatenate([ones, s[..., :-1]], axis=-1), axis=-1)
    suffix = np.cumprod(np.concatenate([ones, s[..., :0:-1]], axis=-1), axis=-1)[..., ::-1]
    others = prefix * suffix
    if family in PT_FAMILIES:
        return others.sum(axis=-1)
    if family == KIRCHHOFF:
        return (np.cos(arg) * others).sum(axis=-1)
    raise ValueError(f"unknown family {family!r}")


def poles(lengths, k_max):
    """Distinct poles n pi / L_j in (0, k_max] with their multiplicities."""
    raw = []
    for length in lengths:
        n = np.arange(1, int(k_max * length / math.pi) + 1)
        raw.append(n * math.pi / length)
    allp = np.sort(np.concatenate(raw)) if raw else np.empty(0)
    allp = allp[allp <= k_max]
    distinct, mult = [], []
    for p in allp:
        if distinct and p - distinct[-1] <= POLE_MERGE_REL * p:
            mult[-1] += 1
        else:
            distinct.append(float(p))
            mult.append(1)
    return np.array(distinct), np.array(mult, dtype=int)


def _grid(lengths, k_max, pole_ks):
    step = math.pi / (UNIFORM_PER_PI * max(lengths))
    uniform = np.arange(step, k_max, step)
    edges = np.concatenate([[0.0], pole_ks, [k_max]])
    frac = np.arange(1, POINTS_PER_INTERVAL + 1) / (POINTS_PER_INTERVAL + 1)
    inner = (edges[:-1, None] + np.diff(edges)[:, None] * frac).ravel()
    pts = np.concatenate([uniform, inner, pole_ks, [k_max]])
    pts = np.unique(pts[(pts > 0.0) & (pts <= k_max)])
    return pts


def _bisect(a, b, fa, lengths, family, iters=80):
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = secular_values(m, lengths, family)
        left = np.sign(fm) == np.sign(fa)
        a = np.where(left, m, a)
        fa = np.where(left, fm, fa)
        b = np.where(left, b, m)
    return 0.5 * (a + b)


def _golden_min(a, b, lengths, family, iters=90):
    """Vectorised golden-section search for the minimum of |S| on [a, b]."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - g * (b - a)
    d = a + g * (b - a)
    fc = np.abs(secular_values(c, lengths, family))
    fd = np.abs(secular_values(d, lengths, family))
    for _ in range(iters):
        left = fc < fd  # the minimum lies in [a, d]
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        x = np.where(left, b - g * (b - a), a + g * (b - a))
        fx = np.abs(secular_values(x, lengths, family))
        c, d, fc, fd = (
            np.where(left, x, d),
            np.where(left, c, x),
            np.where(left, fx, fd),
            np.where(left, fc, fx),
        )
    k = 0.5 * (a + b)
    return k, np.abs(secular_values(k, lengths, family))


def oracle_roots(lengths, k_max, family):
    """All roots of the family's pole-free secular function on (0, k_max]."""
    lengths = tuple(float(x) for x in lengths)
    pole_ks, mult = poles(lengths, k_max)
    ks = _grid(lengths, k_max, pole_ks)
    vs = secular_values(ks, lengths, family)

    exact = ks[vs == 0.0]
    sgn = np.sign(vs)
    idx = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    crossings = _bisect(ks[idx], ks[idx + 1], vs[idx], lengths, family) if idx.size else np.empty(0)

    absv = np.abs(vs)
    near_sign = np.zeros(ks.size, dtype=bool)
    near_sign[idx] = near_sign[idx + 1] = True
    near_sign[vs == 0.0] = True
    i = np.arange(1, ks.size - 1)
    is_min = (absv[i - 1] >= absv[i]) & (absv[i] <= absv[i + 1])
    is_min &= ~(near_sign[i - 1] | near_sign[i] | near_sign[i + 1])
    cand = i[is_min]
    dips = np.empty(0)
    if cand.size:
        kd, fd = _golden_min(ks[cand - 1], ks[cand + 1], lengths, family)
        dips = kd[fd < DIP_TOL]

    found = sorted([(float(k), False) for k in np.concatenate([exact, crossings])]
                   + [(float(k), True) for k in dips])
    merged = []
    for k, is_dip in found:
        if merged and k - merged[-1][0] <= MATCH_SIGN_REL * max(1.0, k):
            merged[-1] = (merged[-1][0], merged[-1][1] and is_dip)
            continue
        merged.append((k, is_dip))
    result = OracleRoots(ks=tuple(k for k, _ in merged), dip=tuple(d for _, d in merged))
    if family == KIRCHHOFF:
        _check_interlacing(result, pole_ks, mult, k_max)
    return result


def _check_interlacing(roots, pole_ks, mult, k_max):
    """One root strictly inside each pole-free interval (the last one may be
    cut by k_max), plus one root on every coincident pole."""
    ks = np.array(roots.ks)
    gaps = np.diff(np.concatenate([[0.0], pole_ks, [np.inf]]))
    tol = np.minimum(np.maximum(1.0, pole_ks) * MATCH_DIP_REL,
                     0.25 * np.minimum(gaps[:-1], gaps[1:]))
    on_pole = np.zeros(ks.size, dtype=bool)
    for p, m, t in zip(pole_ks, mult, tol):
        hit = np.abs(ks - p) <= t
        if m > 1 and hit.sum() != 1:
            raise OracleError(f"coincident pole {p!r} carries {int(hit.sum())} roots, expected 1")
        if m == 1 and hit.any():
            raise OracleError(f"simple pole {p!r} carries a root")
        on_pole |= hit
    inner = ks[~on_pole]
    cut = not pole_ks.size or pole_ks[-1] < k_max  # a last interval ends at k_max
    edges = np.concatenate([[0.0], pole_ks, [k_max] if cut else []])
    counts = np.histogram(inner, bins=edges)[0]
    full, last = (counts[:-1], counts[-1]) if cut else (counts, 0)
    if np.any(full != 1) or last > 1:
        bad = int(np.nonzero(full != 1)[0][0]) if np.any(full != 1) else len(full)
        raise OracleError(f"pole-free interval {bad} holds {counts[bad]} roots, expected 1")


@dataclass(frozen=True)
class Match:
    confirmed: int
    missed: tuple
    unconfirmed: tuple


def match_roots(oracle: OracleRoots, returned) -> Match:
    """Pair oracle roots one-to-one with returned wavenumbers."""
    ret = sorted(float(k) for k in returned)
    used = [False] * len(ret)
    missed = []
    confirmed = 0
    for k, is_dip in zip(oracle.ks, oracle.dip):
        tol = (MATCH_DIP_REL if is_dip else MATCH_SIGN_REL) * max(1.0, k)
        j = bisect_left(ret, k)
        best = None
        for c in (j - 1, j, j + 1):
            if 0 <= c < len(ret) and not used[c] and abs(ret[c] - k) <= tol:
                if best is None or abs(ret[c] - k) < abs(ret[best] - k):
                    best = c
        if best is None:
            missed.append(k)
        else:
            used[best] = True
            confirmed += 1
    unconfirmed = tuple(k for k, u in zip(ret, used) if not u)
    return Match(confirmed=confirmed, missed=tuple(missed), unconfirmed=unconfirmed)
