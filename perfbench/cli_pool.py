"""Fixed pool of command-line configurations for the cli-artifacts workload.

Every artifact these configurations write was checked against the
independent oracle and references when its sha256 was recorded in
digests.json; a timed run only compares digests, so any byte change fails
that op. Re-record only for an intended change of the artifact format:

    python3 -m perfbench.cli_pool --record

which refuses to write a digest for an artifact that fails its check.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np

from .checks import regular_roots
from .oracle import match_roots, oracle_roots
from .reference import norm_consts, profiles, vertex_currents

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
CUSTOM_MATRIX = "perfbench/data/custom_pt3.txt"

#: id -> (subcommand and flags, without --out)
CONFIGS = {
    "spectrum-golden": "spectrum --lengths 1.0,1.5,2.0 --kmax 20",
    "spectrum-kirchhoff": "spectrum --lengths 1,1.3,1.7 --kmax 40 --family kirchhoff-ref",
    "spectrum-neumann4": "spectrum --lengths 1.2,1.45,1.05,1.9 --kmax 30 --family pt-neumann",
    "spectrum-commensurate": "spectrum --lengths 1,2,3 --kmax 25 --family kirchhoff-ref",
    "spectrum-five": "spectrum --lengths 1.1,1.25,1.4,1.3,1.05 --kmax 25",
    "verify-dirichlet": "verify --lengths 1.0,1.5,2.0",
    "verify-kirchhoff": "verify --lengths 1,1.3,1.7 --family kirchhoff-ref",
    "verify-neumann": "verify --lengths 1,1.3,1.7 --family pt-neumann --kmax 30",
    "verify-four": "verify --lengths 1.2,1.45,1.05,1.9 --kmax 25",
    "verify-custom": f"verify --lengths 1,1.5,2 --family custom:{CUSTOM_MATRIX}",
    "evolve-dirichlet": "evolve --lengths 1.0,1.5,2.0 --coeffs equal:5 --tsteps 300",
    "evolve-kirchhoff": "evolve --lengths 1.0,1.5,2.0 --family kirchhoff-ref --coeffs equal:5 --tsteps 250",
    "evolve-neumann": ("evolve --lengths 1,1.3,1.7 --family pt-neumann --kmax 30 "
                       "--coeffs list:0.5+0.1j,0.3,-0.2j,0.4 --tsteps 250"),
    "modes-small": "modes --lengths 1,1.3,1.7 --kmax 20",
    "modes-large": "modes --lengths 1,1.3,1.7 --kmax 26 --family pt-neumann",
}

#: one cli-artifacts cycle of 15 configurations: the median falls among the
#: cheap spectrum/verify processes, the 90th percentile on modes-small
CYCLE = (
    "spectrum-golden", "spectrum-kirchhoff", "spectrum-neumann4", "spectrum-commensurate",
    "spectrum-five", "verify-dirichlet", "verify-kirchhoff", "verify-neumann", "verify-four",
    "verify-custom",
    "evolve-dirichlet", "evolve-kirchhoff", "evolve-neumann",
    "modes-small", "modes-large",
)

#: known defect, run as an untimed probe: --resolution never reaches build_basis
PROBE = "evolve --lengths 1,1.3,1.7 --kmax 200 --resolution 8001 --coeffs equal:5"


def argv_for(spec, out_path):
    return [sys.executable, "-m", "ptgraph"] + spec.split() + ["--out", out_path]


def _flag(spec, name, default=None):
    toks = spec.split()
    return toks[toks.index(name) + 1] if name in toks else default


def _config(spec):
    lengths = [float(x) for x in _flag(spec, "--lengths").split(",")]
    family = _flag(spec, "--family", "pt-dirichlet")
    kmax = float(_flag(spec, "--kmax", "20"))
    return lengths, family, kmax


def _rows(text):
    return [line for line in text.splitlines() if line and not line.startswith("#")][1:]


def check_artifact(spec, text):
    """Return None when the artifact agrees with the oracle, else a reason."""
    cmd = spec.split()[0]
    lengths, family, kmax = _config(spec)
    if cmd == "verify":
        return None if text.rstrip().endswith("result: PASS") else "verify did not pass"
    if cmd == "spectrum":
        ks = [float(r.split(",")[1]) for r in _rows(text)]
        m = match_roots(oracle_roots(lengths, kmax, family), ks)
        if m.missed or m.unconfirmed:
            return f"{len(m.missed)} roots missed, {len(m.unconfirmed)} unconfirmed"
        return None
    ks = regular_roots(oracle_roots(lengths, kmax, family), lengths)
    amps = norm_consts(ks, lengths, family)
    if cmd == "modes":
        norms = [float(l.split(",")[2]) for l in text.splitlines() if l.startswith("# norm_check")]
        if len(norms) != len(ks) or max(abs(n - 1.0) for n in norms) > 1e-8:
            return "norm checks disagree with the oracle modes"
        worst = 0.0
        for r in _rows(text)[:: 97]:
            n, bond, x, re, im = r.split(",")
            want = profiles([ks[int(n) - 1]], [amps[int(n) - 1]], lengths, family,
                            int(bond) - 1, [float(x)])[0, 0]
            worst = max(worst, abs(float(re) - want), abs(float(im)))
        return None if worst < 1e-8 else f"profile sample off by {worst:g}"
    if cmd == "evolve":
        coeff_spec = _flag(spec, "--coeffs")
        coeffs = np.zeros(len(ks), dtype=complex)
        if coeff_spec.startswith("equal:"):
            count = int(coeff_spec[len("equal:"):])
            coeffs[:count] = 1.0 / math.sqrt(count)
        else:
            vals = [complex(t) for t in coeff_spec[len("list:"):].split(",")]
            coeffs[: len(vals)] = vals
        table = np.array([[float(v) for v in r.split(",")] for r in _rows(text)])
        ref = vertex_currents(ks, amps, lengths, family, coeffs, table[:, 0])
        scale = max(1.0, float(np.abs(ref).max()))
        worst = max(float(np.abs(table[:, 2:].T - ref).max()),
                    float(np.abs(table[:, 1] - ref.sum(axis=0)).max()))
        return None if worst < 1e-8 * scale else f"vertex current off by {worst:g}"
    return f"unknown subcommand {cmd!r}"


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_digests():
    with open(DIGESTS) as fh:
        return json.load(fh)


def record(root, out_dir, env):
    """Run every configuration, check it, and write digests.json."""
    digests = {}
    for cid, spec in CONFIGS.items():
        out = os.path.join(out_dir, f"{cid}.out")
        proc = subprocess.run(argv_for(spec, out), cwd=root, env=env,
                              capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            raise SystemExit(f"{cid}: exit {proc.returncode}: {proc.stderr.strip()}")
        with open(out) as fh:
            reason = check_artifact(spec, fh.read())
        if reason:
            raise SystemExit(f"{cid}: artifact fails its check: {reason}")
        digests[cid] = sha256_file(out)
        os.unlink(out)
        print(f"{cid}: ok {digests[cid][:12]}")
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    from .run import child_env, out_dir, repo_root

    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 -m perfbench.cli_pool --record")
    root = repo_root()
    record(root, out_dir(root), child_env(root))
