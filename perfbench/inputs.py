"""Seeded input generation for the three workloads.

Everything here depends only on the seed (and the independent oracle), never
on the code under test, so the same seed always gives the same inputs.
Each workload draws a fixed cycle of input slots, so any run of consecutive
ops holds the classes in fixed proportions; the seed moves lengths,
coefficients and the order within a cycle. The slots are chosen so that the
median and the 90th percentile of the op latencies each fall inside a group
of similar-cost slots, which keeps those percentiles steady from seed to
seed.
"""
from __future__ import annotations

import math
import random

from . import cli_pool
from .oracle import oracle_roots
from .reference import mode_terms, norm_consts

PT_D, PT_N, KIRCHHOFF = "pt-dirichlet", "pt-neumann", "kirchhoff-ref"

# --- spectrum-sweep -------------------------------------------------------

#: tuples whose close root pairs the fixed-step scan is known to miss (kmax 40)
REPROS = (
    ((1.0, 1.0001, 2.0), PT_D),
    ((1.0, 1.0001, 2.0), KIRCHHOFF),
    ((1.0, 1.000001, 1.7), PT_D),
    ((1.0, 1.000001, 1.7), KIRCHHOFF),
)
#: exactly commensurate tuples (every ratio a dyadic rational)
COMMENSURATE = (
    (1.0, 1.5, 2.0),
    (1.0, 1.0, 2.0),
    (1.0, 2.0, 3.0),
    (1.0, 1.0, 1.0),
    (1.0, 1.25, 1.75),
    (1.0, 1.5, 1.5, 2.5),
)
GENERIC_KMAX = 200.0
MANY_KMAX = 50.0
NEAR_KMAX = 40.0
LENGTH_RANGE = (1.0, 1.5)

#: one spectrum-sweep cycle of 25 slots, listed by rising cost: 8 near-
#: coincident or commensurate tuples ("near"), a plateau of nine generic
#: N = 3 calls that holds the median, then eight heavy calls (generic
#: N = 3-6, many-bond N = 8-12) whose middle holds the 90th percentile
SPECTRUM_CYCLE = (
    ["near"] * 8
    + [("generic", 3, PT_D)] * 9
    + [("generic", 3, KIRCHHOFF), ("generic", 4, PT_D), ("many-bond", 8, PT_D),
       ("generic", 5, PT_D), ("many-bond", 12, PT_D), ("many-bond", 10, KIRCHHOFF),
       ("generic", 5, KIRCHHOFF), ("generic", 6, KIRCHHOFF)]
)
#: slots are visited in steps of this stride (coprime to 25), so any run of
#: consecutive ops mixes cheap and heavy calls evenly
CYCLE_STRIDE = 7
SPECTRUM_CYCLES = 2


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _lengths(rng, n):
    """Random lengths scaled to mean 1.25, so the root count (and the cost of
    a call) depends on N and kmax but hardly on the seed."""
    raw = [rng.uniform(*LENGTH_RANGE) for _ in range(n)]
    scale = 1.25 * n / sum(raw)
    return [round(x * scale, 6) for x in raw]


def _near_tuple(rng):
    a = round(rng.uniform(*LENGTH_RANGE), 6)
    delta = 10.0 ** -rng.uniform(3.0, 6.0)
    rest = [round(rng.uniform(*LENGTH_RANGE), 6) for _ in range(rng.choice((1, 2)))]
    return [a, a * (1.0 + delta)] + rest


def interleave(cycle, rng):
    offset = rng.randrange(len(cycle))
    return [cycle[(offset + CYCLE_STRIDE * i) % len(cycle)] for i in range(len(cycle))]


def spectrum_inputs(seed):
    rng = _rng("spectrum-sweep", seed)
    out = []
    for cycle in range(SPECTRUM_CYCLES):
        near = [REPROS[2 * cycle % len(REPROS)], REPROS[(2 * cycle + 1) % len(REPROS)]]
        near += [(_near_tuple(rng), fam) for fam in (PT_D, KIRCHHOFF, rng.choice((PT_D, KIRCHHOFF)))]
        near += [(rng.choice(COMMENSURATE), fam) for fam in (PT_D, KIRCHHOFF, rng.choice((PT_D, KIRCHHOFF)))]
        near = rng.sample(near, len(near))
        for slot in interleave(SPECTRUM_CYCLE, rng):
            if slot == "near":
                lengths, fam = near.pop()
                item = dict(cls="near", lengths=list(lengths), family=fam, kmax=NEAR_KMAX)
            else:
                cls, n, fam = slot
                kmax = GENERIC_KMAX if cls == "generic" else MANY_KMAX
                item = dict(cls=cls, lengths=_lengths(rng, n), family=fam, kmax=kmax)
            out.append(item)
    return out


# --- modes-evolve ----------------------------------------------------------

#: one modes-evolve cycle of graphs: (bonds N, family, regular modes M below
#: kmax, time steps T). M^2 N (the Gram work of project) and M N T (the work
#: of current_series) are each about equal on every graph, so those two
#: kinds of call form two tight latency groups; with five PT graphs (four
#: calls each) and five Kirchhoff graphs (three calls each) the median falls
#: among the project calls and the 90th percentile among current_series.
MODES_PATTERN = (
    (3, PT_D, 40, 500), (3, PT_N, 40, 500), (3, KIRCHHOFF, 40, 500), (3, KIRCHHOFF, 40, 500),
    (4, PT_D, 35, 430), (4, PT_N, 35, 430), (4, KIRCHHOFF, 35, 430),
    (5, PT_D, 31, 390), (5, KIRCHHOFF, 31, 390), (5, KIRCHHOFF, 31, 390),
)
MODES_CYCLES = 1
T_MAX = 1.0
CPT_TRUNCATION = 20
#: modes of the seeded in-span function handed to project
SPAN_TERMS = 4
#: quadrature resolution: the default unless k max L needs more points
DEFAULT_RESOLUTION = 2001
MAX_K_SPACING = 0.08


def resolution_for(kmax, lengths):
    need = math.ceil(kmax * max(lengths) / MAX_K_SPACING) + 1
    return max(DEFAULT_RESOLUTION, need | 1)


def _kmax_for(lengths, family, modes):
    """k_max halfway between the modes-th and the next oracle root."""
    guess = 2.0 * math.pi * (modes + 2) / sum(lengths)
    while True:
        roots = oracle_roots(lengths, guess, family).ks
        if len(roots) > modes:
            return 0.5 * (roots[modes - 1] + roots[modes]), roots[:modes]
        guess *= 1.5


def _cplx(rng):
    return [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]


def _random_terms(rng, n_bonds):
    return [[(_cplx(rng), rng.uniform(0.5, 6.0), rng.uniform(0.0, 2.0 * math.pi))
             for _ in range(3)] for _ in range(n_bonds)]


def modes_inputs(seed):
    rng = _rng("modes-evolve", seed)
    out = []
    for _ in range(MODES_CYCLES):
        for n, fam, modes, steps in rng.sample(MODES_PATTERN, len(MODES_PATTERN)):
            lengths = _lengths(rng, n)
            kmax, ks = _kmax_for(lengths, fam, modes)
            amps = norm_consts(ks, lengths, fam)
            span = sorted(rng.sample(range(modes), SPAN_TERMS))
            span_coeffs = [_cplx(rng) for _ in span]
            f_terms = [[] for _ in lengths]
            for idx, (re, im) in zip(span, span_coeffs):
                for j, bond_terms in enumerate(mode_terms(ks[idx], amps[idx], lengths, fam)):
                    for a, w, p in bond_terms:
                        f_terms[j].append(([a * re, a * im], w, p))
            out.append(dict(
                lengths=lengths, family=fam, kmax=kmax, modes=modes,
                resolution=resolution_for(kmax, lengths),
                coeffs=[_cplx(rng) for _ in range(modes)],
                steps=steps, tmax=T_MAX,
                f_terms=f_terms, span=span, span_coeffs=span_coeffs,
                g_terms=_random_terms(rng, n),
                truncation=CPT_TRUNCATION if fam != KIRCHHOFF else None,
            ))
    return out


def modes_ops(graphs):
    """Flatten graphs into timed calls: build_basis, current_series, project,
    and cpt_inner for the PT families."""
    ops = []
    for g, item in enumerate(graphs):
        kinds = ["build_basis", "current_series", "project"]
        if item["truncation"] is not None:
            kinds.append("cpt_inner")
        ops.extend((g, kind) for kind in kinds)
    return ops


# --- cli-artifacts ---------------------------------------------------------

CLI_CYCLES = 4


def cli_inputs(seed):
    """Pool config ids in the fixed per-cycle mix, seeded order per cycle."""
    rng = _rng("cli-artifacts", seed)
    out = []
    for _ in range(CLI_CYCLES):
        cycle = [cid for cid in cli_pool.CYCLE]
        rng.shuffle(cycle)
        out.extend(cycle)
    return out


GENERATORS = {
    "spectrum-sweep": spectrum_inputs,
    "modes-evolve": modes_inputs,
    "cli-artifacts": cli_inputs,
}
