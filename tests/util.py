"""Shared test helpers: random smooth functions and golden values.

The golden numbers were fixed by an independent oracle (scipy brentq on the
directly-typed three-bond product form, scipy simpson for integrals) before
the library was built.
"""
from functools import reduce
from operator import add, mul

import numpy as np

import ptgraph as pg

# first root of the PT secular function for lengths (1, 1.5, 2)
GOLDEN_K1 = 1.74112242151518

# all 12 roots on (0, 20] for lengths (1, 1.5, 2); k = n*pi are degenerate
GOLDEN_REGULAR_123 = (
    1.741122421515,
    2.749698976598,
    9.816671637761,
    10.825248192844,
    14.307493035874,
    15.316069590957,
)
GOLDEN_ROOT_COUNT_123 = 12

# root counts on (0, 40] of tuples with near-coincident sine zeros, from
# dense_scan_roots at step 2e-6: (lengths, kirchhoff family, count)
REPRO_COUNTS_40 = (
    ((1.0, 1.0001, 2.0), False, 37),
    ((1.0, 1.0001, 2.0), True, 50),
    ((1.0, 1.000001, 1.7), False, 33),
)

# secular value at k = 1 for lengths (1, 1.5, 2)
GOLDEN_SECULAR_AT_1 = 2.51153011454353

# first regular roots of the Kirchhoff reference secular, lengths (1, 1.5, 2)
GOLDEN_KIRCHHOFF_123 = (
    1.047197551197,
    1.783726566080,
    2.479447417936,
    3.803737889240,
    4.499458741100,
)

# self-adjointness defect of both PT families at N = 3
GOLDEN_ABSYM_PT = np.sqrt(6.0)

# max |J(0,t)| of the equal-weight 5-mode state, t in [0,1] x 1000
GOLDEN_MAX_CURRENT_D = 3.4345550671
GOLDEN_MAX_CURRENT_N = 4.0187098727


def random_trig(graph, rng, n_terms=3, complex_amps=True):
    """Random trig polynomial per bond with analytic derivatives."""
    terms = []
    for _ in range(graph.n_bonds):
        bond_terms = []
        for _ in range(n_terms):
            amp = rng.uniform(-1, 1) + (1j * rng.uniform(-1, 1) if complex_amps else 0.0)
            freq = rng.uniform(0.5, 6.0)
            phase = rng.uniform(0, 2 * np.pi)
            bond_terms.append((amp, freq, phase))
        terms.append(bond_terms)
    return pg.trig_function(graph, terms)


def fd_derivative(fn, x, h=1e-5):
    """Fourth-order central difference first derivative."""
    return (-fn(x + 2 * h) + 8 * fn(x + h) - 8 * fn(x - h) + fn(x - 2 * h)) / (12 * h)


def fd_second_derivative(fn, x, h=1e-4):
    """Fourth-order central difference second derivative."""
    return (
        -fn(x + 2 * h) + 16 * fn(x + h) - 30 * fn(x) + 16 * fn(x - h) - fn(x - 2 * h)
    ) / (12 * h * h)


def dense_secular(k, lengths, kirchhoff=False):
    """Directly typed pole-free secular function for any number of bonds:
    sum_j prod_{i != j} sin(k L_i), with each term times cos(k L_j) for the
    Kirchhoff reference family."""
    sines = [np.sin(k * l) for l in lengths]
    terms = []
    for j, lj in enumerate(lengths):
        others = sines[:j] + sines[j + 1:]
        terms.append(reduce(mul, others, np.cos(k * lj)) if kirchhoff else reduce(mul, others))
    return reduce(add, terms)


def cofactor_sum_reference(k, lengths, weighted=False):
    """sum_j w_j prod_{i != j} sin(k L_i) as one np.prod over an np.delete
    copy per bond, w_j = cos(k L_j) if weighted and 1 otherwise, summed in
    bond order from zeros: the rounding that secular and secular_kirchhoff
    keep bit for bit."""
    lengths = np.asarray(lengths)
    k_arr = np.asarray(k, dtype=float)
    sines = np.sin(k_arr[..., None] * lengths)
    cosines = np.cos(k_arr[..., None] * lengths)
    total = np.zeros(k_arr.shape)
    for j in range(len(lengths)):
        term = np.prod(np.delete(sines, j, axis=-1), axis=-1)
        total = total + (cosines[..., j] * term if weighted else term)
    return total if total.shape else float(total)


def dense_scan_roots(lengths, k_max, step=1e-6, zero_tol=1e-12, chunk=4_000_000,
                     kirchhoff=False, k_min=0.0):
    """Independent dense-scan roots on (k_min, k_max]: sign changes of the
    directly typed secular function plus |S| dips below zero_tol away from
    sign changes."""

    def sec(k):
        return dense_secular(k, lengths, kirchhoff)

    n_total = int(round((k_max - k_min) / step))
    sign_roots = []
    dip_samples = []
    prev_k = prev_v = None
    for start in range(1, n_total + 1, chunk):
        idx = np.arange(start, min(start + chunk, n_total + 1))
        ks = k_min + idx * step
        vs = sec(ks)
        if prev_k is not None:
            ks = np.concatenate(([prev_k], ks))
            vs = np.concatenate(([prev_v], vs))
        sgn = np.sign(vs)
        for i in np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]:
            # plain bisection, independent of the library's refinement
            a, b, fa = ks[i], ks[i + 1], vs[i]
            for _ in range(80):
                m = 0.5 * (a + b)
                fm = sec(m)
                if fm == 0.0:
                    a = b = m
                    break
                if (fm < 0) == (fa < 0):
                    a, fa = m, fm
                else:
                    b = m
            sign_roots.append(0.5 * (a + b))
        for i in np.nonzero(np.abs(vs) < zero_tol)[0]:
            dip_samples.append(ks[i])
        prev_k, prev_v = ks[-1], vs[-1]

    clusters = []
    for k in sorted(dip_samples):
        if clusters and k - clusters[-1][-1] < 10 * step:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    even_roots = []
    for cl in clusters:
        center = 0.5 * (cl[0] + cl[-1])
        if not any(abs(center - s) < 10 * step for s in sign_roots):
            even_roots.append(center)
    return sorted(sign_roots), sorted(even_roots)


def graph_kernel_cpt(basis, resolution):
    """The CPT product of Bender, Brody and Jones (PRL 89 (2002) 270401) with the
    graph kernel C(x, y) = sum_n phi_n(x) phi_n(y) / (phi_n, phi_n)_PT.

    Returns form(f, g) = sum_n a_n b_n / p_n, where a_n = sum_j int phi_n(x)
    conj(f_j(L_j - x)) dx, b_n = sum_j int phi_n(x) g_j(x) dx and p_n = sum_j
    int phi_n(x) phi_n(L_j - x) dx. Each sum runs over all bonds, so the kernel
    couples them; cpt_inner instead pairs a and b bond by bond. The modes are
    sampled once, by their own evaluators, on plain Simpson grids. The reflection
    x -> L_j - x is read off the reversed grid, which equals L_j - x only to
    rounding, not bit for bit.
    """
    bonds = []
    for j, lj in enumerate(basis.graph.lengths, start=1):
        x = np.linspace(0.0, lj, resolution)
        w = np.full(resolution, 2.0)
        w[1::2] = 4.0
        w[[0, -1]] = 1.0
        w *= lj / (resolution - 1) / 3.0
        bonds.append((j, x, w, np.array([m.value(j, x) for m in basis.modes])))
    p = sum((phi * phi[:, ::-1]) @ w for _, _, w, phi in bonds)

    def form(f, g):
        a = b = 0.0
        for j, x, w, phi in bonds:
            fv = f.value(j, x)
            a = a + phi @ (w * np.conj(fv[::-1]))
            b = b + phi @ (w * (fv if g is f else g.value(j, x)))
        return complex(np.sum(a * b / p))

    return form
