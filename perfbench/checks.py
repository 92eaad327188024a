"""Correctness checks of op outputs against the oracle and the references.

An op *fails* when it raised, exited non-zero, or delivered an incomplete
result (roots missing from a spectrum). An output is *wrong* when it
contradicts the oracle, a reference or a recorded digest; any wrong output
makes the whole run incorrect. Repeated inputs must reproduce the digest of
their first output, which is the one checked in full.

`attempted` and `failed` count the distinct ops of the seeded list: every
op of it runs at least once in a run, and an op fails when any of its runs
failed. How often the time-bounded loop repeats an op therefore moves the
latency samples, not the failure counts, which are a function of the seed.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .oracle import match_roots, oracle_roots
from .reference import cpt_product, norm_consts, vertex_currents
from .worker import fit_coeffs

#: tolerances of the modes-evolve checks
NORM_REL = 1e-9
CURRENT_REL = 1e-8
PROJECT_ABS = 1e-6
CPT_REL = 1e-9
#: a root is degenerate (excluded from a basis) below this |sin k L_j|
DEGENERATE_SINE = 1e-8


@dataclass
class Tally:
    """Per-workload outcome of the checks."""

    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)
    roots_missed: int = 0
    roots_confirmed: int = 0
    notes: list = field(default_factory=list)

    def fail(self, note):
        self.failed += 1
        if len(self.notes) < 8:
            self.notes.append(note)


class OracleCache:
    """Oracle roots per (lengths, kmax, family); independent of the program."""

    def __init__(self):
        self._cache = {}

    def __call__(self, lengths, kmax, family):
        key = (tuple(lengths), kmax, family)
        if key not in self._cache:
            self._cache[key] = oracle_roots(lengths, kmax, family)
        return self._cache[key]


def regular_roots(roots, lengths):
    """The oracle roots a basis keeps: those where no sin(k L_j) vanishes."""
    return [k for k in roots.ks if min(abs(math.sin(k * l)) for l in lengths) > DEGENERATE_SINE]


def tally_inputs(tally, records, failure):
    """Count each distinct op key once: attempted, and failed with the first
    failure note of its runs. failure(record) returns a note or None."""
    notes = {}
    for rec in records:
        skey = json.dumps(rec["key"])
        if notes.get(skey) is None:
            notes[skey] = failure(rec)
    for note in notes.values():
        tally.attempted += 1
        if note:
            tally.fail(note)


def first_outputs(records, tally):
    """Map key -> (digest, payload) from the first record of each key, and
    flag any later record whose digest differs."""
    first = {}
    for rec in records:
        skey = json.dumps(rec["key"])
        if "payload" in rec:
            first[skey] = (rec["digest"], rec["payload"])
    for rec in records:
        skey = json.dumps(rec["key"])
        if "digest" in rec and skey in first and rec["digest"] != first[skey][0]:
            tally.wrong.append(f"{skey}: output differs between repeats of one input")
    return first


def check_spectrum(inputs, records, oracle):
    tally = Tally()
    first = first_outputs(records, tally)
    verdict = {}
    for skey, (_, payload) in first.items():
        item = inputs[json.loads(skey)]
        m = match_roots(oracle(item["lengths"], item["kmax"], item["family"]), payload["ks"])
        verdict[skey] = m
        tally.roots_missed += len(m.missed)
        if m.unconfirmed:
            tally.wrong.append(f"input {skey}: {len(m.unconfirmed)} returned roots are not roots "
                               f"(first {m.unconfirmed[0]!r})")
    def failure(rec):
        skey = json.dumps(rec["key"])
        if "error" in rec:
            return f"input {skey}: {rec['error']}"
        if verdict[skey].missed:
            return f"input {skey}: {len(verdict[skey].missed)} roots missed"
        return None

    tally_inputs(tally, records, failure)
    tally.roots_confirmed = sum(verdict[json.dumps(r["key"])].confirmed
                                for r in records if "error" not in r)
    return tally


def _check_modes_output(item, kind, payload, basis, oracle):
    """Return (failure note or None, wrong-output note or None)."""
    lengths, family = item["lengths"], item["family"]
    if kind == "build_basis":
        ks = payload["ks"]
        m = match_roots(oracle(lengths, item["kmax"], family), ks + payload["degenerate"])
        if m.unconfirmed:
            return None, f"{len(m.unconfirmed)} basis wavenumbers are not roots"
        want = norm_consts(ks, lengths, family) if ks else np.empty(0)
        if ks and np.max(np.abs(np.array(payload["norm"]) / want - 1.0)) > NORM_REL:
            return None, "normalisation constants disagree with the closed form"
        if m.missed:
            return f"{len(m.missed)} roots missing from the basis", None
        return None, None
    if basis is None:
        return "basis of this graph was not checked", None
    ks = basis["ks"]
    amps = norm_consts(ks, lengths, family)
    if kind == "current_series":
        times = np.linspace(0.0, item["tmax"], item["steps"])
        ref = vertex_currents(ks, amps, lengths, family, fit_coeffs(item["coeffs"], len(ks)), times)
        got = np.array(payload["per_bond"])
        scale = max(1.0, float(np.abs(ref).max()))
        err = max(float(np.abs(got - ref).max()),
                  float(np.abs(np.array(payload["total"]) - ref.sum(axis=0)).max()))
        return None, (None if err <= CURRENT_REL * scale else f"vertex current off by {err:.3g}")
    if kind == "project":
        oracle_ks = regular_roots(oracle(lengths, item["kmax"], family), lengths)
        if len(oracle_ks) != len(ks):
            return "basis incomplete, in-span function not representable", None
        want = np.zeros(len(ks), dtype=complex)
        for idx, (re, im) in zip(item["span"], item["span_coeffs"]):
            want[idx] = complex(re, im)
        got = np.array([complex(re, im) for re, im in payload["coeffs"]])
        err = float(np.abs(got - want).max())
        if err > PROJECT_ABS or not payload["residual"] <= PROJECT_ABS:
            return None, f"projection off by {err:.3g} (residual {payload['residual']:.3g})"
        return None, None
    trunc = item["truncation"]
    ref = cpt_product(_complex_terms(item["f_terms"]), _complex_terms(item["g_terms"]),
                      ks[:trunc], amps[:trunc], lengths, family, item["resolution"])
    got = complex(*payload["value"])
    err = abs(got - ref)
    return None, (None if err <= CPT_REL * max(1.0, abs(ref)) else f"cpt_inner off by {err:.3g}")


def _complex_terms(terms):
    return [[(complex(*a), w, p) for a, w, p in bond] for bond in terms]


def check_modes(inputs, records, oracle):
    tally = Tally()
    first = first_outputs(records, tally)
    verdict, bases = {}, {}
    # every basis is checked before the calls that use it
    for skey, (_, payload) in sorted(first.items(), key=lambda kv: json.loads(kv[0])[1] != "build_basis"):
        g, kind = json.loads(skey)
        item = inputs[g]
        fail, wrong = _check_modes_output(item, kind, payload, bases.get(g), oracle)
        if kind == "build_basis":
            bases[g] = payload if wrong is None else None
            tally.roots_missed += len(match_roots(oracle(item["lengths"], item["kmax"], item["family"]),
                                                  payload["ks"] + payload["degenerate"]).missed)
        if wrong:
            tally.wrong.append(f"graph {g} {kind}: {wrong}")
        verdict[skey] = fail
    def failure(rec):
        skey = json.dumps(rec["key"])
        if "error" in rec:
            return f"{skey}: {rec['error']}"
        return f"{skey}: {verdict[skey]}" if verdict.get(skey) else None

    tally_inputs(tally, records, failure)
    return tally
