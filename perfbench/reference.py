"""Closed-form references for the eigenmodes and everything built on them.

Like the root oracle, this module never imports ptgraph. Mode profiles are

    sine profile   (pt-dirichlet, kirchhoff-ref)  A sin(k (L_j - x)) / sin(k L_j)
    cosine profile (pt-neumann)                   A cos(k (L_j - x)) / sin(k L_j)

with A fixed by the exact L2 integral, so the norm, the vertex current of a
coefficient state, the reflected self-products and the charge-like kernel
product can all be recomputed here with plain numpy.
"""
from __future__ import annotations

import math

import numpy as np

COSINE_FAMILY = "pt-neumann"


def norm_consts(ks, lengths, family):
    """A_n from sum_j int_0^L_j profile^2 dx = 1, integrated exactly."""
    ks = np.asarray(ks, dtype=float)[:, None]
    ls = np.asarray(lengths, dtype=float)[None, :]
    s = np.sin(ks * ls)
    sign = 1.0 if family == COSINE_FAMILY else -1.0
    sq = (ls / 2.0 + sign * np.sin(2.0 * ks * ls) / (4.0 * ks)) / (s * s)
    return 1.0 / np.sqrt(sq.sum(axis=1))


def profiles(ks, amps, lengths, family, bond, x):
    """Mode values on one bond (0-based), shape (modes, points)."""
    ks = np.asarray(ks, dtype=float)[:, None]
    amps = np.asarray(amps, dtype=float)[:, None]
    length = lengths[bond]
    arg = ks * (length - np.asarray(x, dtype=float)[None, :])
    trig = np.cos(arg) if family == COSINE_FAMILY else np.sin(arg)
    return amps * trig / np.sin(ks * length)


def vertex_data(ks, amps, lengths, family):
    """Values and x-derivatives of every mode at x = 0, shape (modes, bonds)."""
    ks = np.asarray(ks, dtype=float)[:, None]
    amps = np.asarray(amps, dtype=float)[:, None]
    kl = ks * np.asarray(lengths, dtype=float)[None, :]
    s, c = np.sin(kl), np.cos(kl)
    if family == COSINE_FAMILY:
        return amps * c / s, np.broadcast_to(ks * amps, kl.shape)
    return np.broadcast_to(amps, kl.shape), -ks * amps * c / s


def vertex_currents(ks, amps, lengths, family, coeffs, times):
    """Per-bond vertex currents Im(conj(psi_j) psi_j') at x = 0, shape (bonds, T)."""
    ks = np.asarray(ks, dtype=float)
    phase = np.exp(-1j * np.outer(np.asarray(times, dtype=float), ks * ks))
    weighted = phase * np.asarray(coeffs, dtype=complex)[None, :]
    v0, d0 = vertex_data(ks, amps, lengths, family)
    psi = weighted @ v0
    dpsi = weighted @ d0
    return (np.conj(psi) * dpsi).imag.T


def simpson_weights(count, spacing):
    w = np.full(count, 2.0)
    w[1:-1:2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (spacing / 3.0)


def trig_eval(terms, x):
    """sum_m a_m sin(w_m x + p_m) for one bond's (a, w, p) triples."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    for a, w, p in terms:
        out += complex(a) * np.sin(w * x + p)
    return out


def mode_terms(k, amp, lengths, family):
    """The mode as per-bond trig triples: sin(-k x + k L_j [+ pi/2])."""
    shift = math.pi / 2.0 if family == COSINE_FAMILY else 0.0
    return [[(amp / math.sin(k * length), -k, k * length + shift)] for length in lengths]


def cpt_product(f_terms, g_terms, ks, amps, lengths, family, resolution):
    """Charge-like kernel product over the given modes (Simpson quadrature).

    Each kernel mode is weighted by 1 / (its reflected self-product), the
    same normalisation the positive-definite extension is defined with.
    """
    grids = [np.linspace(0.0, length, resolution) for length in lengths]
    weights = [simpson_weights(resolution, g[1] - g[0]) for g in grids]
    phis = [profiles(ks, amps, lengths, family, j, grids[j]) for j in range(len(lengths))]
    phis_refl = [profiles(ks, amps, lengths, family, j, lengths[j] - grids[j])
                 for j in range(len(lengths))]
    self_pt = sum((np.conj(phis_refl[j]) * phis[j]) @ weights[j] for j in range(len(lengths)))
    total = 0j
    for j, length in enumerate(lengths):
        f_refl_conj = np.conj(trig_eval(f_terms[j], length - grids[j]))
        gv = trig_eval(g_terms[j], grids[j])
        a = (phis[j] * f_refl_conj) @ weights[j]
        b = (phis[j] * gv) @ weights[j]
        total += np.sum(a * b / self_pt)
    return complex(total)
