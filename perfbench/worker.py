"""Child process that imports ptgraph and runs one workload's ops.

    python3 -m perfbench.worker JOB.json

The job names the workload, the generated inputs, the mode and where to
write the result. In "timed" mode ops run in a closed loop (one client,
each call starts when the previous one returned) until every op of the
list ran and the deadline passed, with the set-up launches in between. In
"trace" mode a fixed list of ops runs, each op once untraced and once with
the span tracer installed, so counts repeat exactly for a seed and the
difference in wall time is the tracing overhead. Every op record carries a
digest of its output; the full output travels only with the first record of
each input.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
from time import perf_counter

import numpy as np

from .launcher import closed_loop


def _digest(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _cplx(pair):
    return complex(pair[0], pair[1])


def _terms(pg, graph, terms):
    return pg.trig_function(graph, [[(_cplx(a), w, p) for a, w, p in bond] for bond in terms])


def fit_coeffs(coeffs, n_modes):
    """The seeded coefficients cut or zero-padded to the basis size."""
    c = np.zeros(n_modes, dtype=complex)
    vals = [_cplx(p) for p in coeffs[:n_modes]]
    c[: len(vals)] = vals
    return c


class SpectrumOps:
    def __init__(self, pg, inputs):
        self.pg, self.inputs = pg, inputs
        self.graphs = [pg.make_star_graph(item["lengths"]) for item in inputs]

    def __len__(self):
        return len(self.inputs)

    def prepare(self, i):
        item, graph = self.inputs[i], self.graphs[i]
        call = lambda: self.pg.find_roots(graph, 0.0, item["kmax"], family=item["family"])
        return i, "find_roots", call

    def payload(self, i, kind, result):
        return {"ks": [r.k for r in result], "degenerate": [r.degenerate for r in result]}


class ModesOps:
    def __init__(self, pg, inputs, ops):
        self.pg, self.inputs, self.ops = pg, inputs, ops
        self.graphs = [pg.make_star_graph(item["lengths"]) for item in inputs]
        self.bases = {}

    def __len__(self):
        return len(self.ops)

    def prepare(self, i):
        g, kind = self.ops[i]
        pg, item, graph = self.pg, self.inputs[g], self.graphs[g]
        res = item["resolution"]
        if kind == "build_basis":
            def call():
                self.bases.pop(g, None)
                basis = pg.build_basis(graph, item["family"], item["kmax"], resolution=res)
                self.bases[g] = basis
                return basis
            return (g, kind), kind, call
        basis = self.bases.get(g)
        if basis is None:
            return (g, kind), kind, None
        if kind == "current_series":
            state = pg.WaveState(basis=basis, coeffs=fit_coeffs(item["coeffs"], len(basis.modes)))
            times = np.linspace(0.0, item["tmax"], item["steps"])
            return (g, kind), kind, lambda: pg.current_series(state, times)
        f = _terms(pg, graph, item["f_terms"])
        if kind == "project":
            return (g, kind), kind, lambda: pg.project(f, basis, res)
        g_fn = _terms(pg, graph, item["g_terms"])
        return (g, kind), kind, lambda: pg.cpt_inner(f, g_fn, basis, item["truncation"], res)

    def payload(self, key, kind, result):
        if kind == "build_basis":
            return {"ks": [m.k for m in result.modes], "norm": [m.norm_const for m in result.modes],
                    "degenerate": [r.k for r in result.degenerate_roots]}
        if kind == "current_series":
            return {"total": result.total.tolist(), "per_bond": result.per_bond.tolist()}
        if kind == "project":
            c = result.state.coeffs
            return {"coeffs": [[z.real, z.imag] for z in c], "residual": result.residual,
                    "gram_cond": result.gram_cond}
        return {"value": [result.real, result.imag]}


class CliOps:
    """In-process ptgraph.cli.main(argv), for the traced run."""

    def __init__(self, pg, inputs, out_dir):
        from . import cli_pool

        self.pool, self.inputs, self.out_dir = cli_pool, inputs, out_dir
        import ptgraph.cli

        self.cli = ptgraph.cli

    def __len__(self):
        return len(self.inputs)

    def prepare(self, i):
        cid = self.inputs[i]
        out = os.path.join(self.out_dir, f"inproc-{cid}.out")
        argv = self.pool.argv_for(self.pool.CONFIGS[cid], out)[3:]

        def call():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = self.cli.main(argv)
            return rc, out

        return cid, "main", call

    def payload(self, key, kind, result):
        rc, out = result
        size = os.path.getsize(out) if os.path.exists(out) else 0
        digest = self.pool.sha256_file(out) if size else None
        if os.path.exists(out):
            os.unlink(out)
        return {"rc": rc, "sha256": digest, "bytes": size}


def run_op(ops, i, seen, tracer=None):
    key, kind, call = ops.prepare(i)
    rec = {"key": key, "kind": kind}
    if call is None:
        rec.update(latency_s=0.0, error="no basis (build_basis failed)")
        return rec
    if tracer is not None:
        tracer.op = i
    t0 = perf_counter()
    try:
        result = call()
    except Exception as exc:  # an op failure is data, the loop keeps running
        rec.update(latency_s=perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
        return rec
    rec["latency_s"] = perf_counter() - t0
    payload = ops.payload(key, kind, result)
    rec["digest"] = _digest(payload)
    skey = json.dumps(key)
    if skey not in seen:
        seen.add(skey)
        rec["payload"] = payload
    return rec


def timed(ops, seconds, launches):
    """Every op of the list at least once, then on until the deadline."""
    seen = set()
    return closed_loop(lambda i: run_op(ops, i, seen), len(ops), len(ops), seconds, launches)


def paired_pass(ops, count, tracer):
    """Run each op twice, untraced and traced, alternating which goes first,
    so drift on a shared machine cancels out of the overhead estimate."""
    records, plain, seen, seen_plain = [], [], set(), set()
    plain_s = traced_s = 0.0
    for i in range(count):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                try:
                    rec = run_op(ops, i % len(ops), seen, tracer)
                finally:
                    tracer.uninstall()
                records.append(rec)
                traced_s += rec["latency_s"]
            else:
                rec = run_op(ops, i % len(ops), seen_plain)
                plain.append(rec.get("digest"))
                plain_s += rec["latency_s"]
    return records, plain, plain_s, traced_s


def peak_rss_kb():
    """Peak RSS of this process since exec (VmHWM). ru_maxrss would also
    count the memory of the parent that forked it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def warm_up(pg):
    """Fill lazy state (imports, numpy dispatch) outside the timed region."""
    graph = pg.make_star_graph([1.0, 1.3])
    basis = pg.build_basis(graph, pg.PT_DIRICHLET, 8.0)
    state = pg.WaveState(basis=basis, coeffs=np.ones(len(basis.modes)))
    pg.current_series(state, np.linspace(0.0, 0.1, 5))


def main(argv):
    with open(argv[1]) as fh:
        job = json.load(fh)
    import ptgraph as pg

    src = os.path.realpath(job["src"])
    if not os.path.realpath(pg.__file__).startswith(src + os.sep):
        raise SystemExit(f"ptgraph imported from {pg.__file__}, not from {src}")
    workload = job["workload"]
    if workload == "spectrum-sweep":
        ops = SpectrumOps(pg, job["inputs"])
    elif workload == "modes-evolve":
        ops = ModesOps(pg, job["inputs"], [tuple(op) for op in job["ops"]])
    else:
        ops = CliOps(pg, job["inputs"], job["out_dir"])
    warm_up(pg)
    result = {}
    if job["mode"] == "timed":
        result["records"], result["setup"] = timed(ops, job["seconds"], job["launches"])
    else:
        from .tracer import Tracer

        tracer = Tracer()
        traced, plain, plain_s, traced_s = paired_pass(ops, job["trace_ops"], tracer)
        tracer.write(job["spans"])
        result.update(records=traced, plain_digests=plain,
                      plain_s=plain_s, traced_s=traced_s, summary=tracer.summary(),
                      spans=len(tracer.start))
    result["maxrss_kb"] = peak_rss_kb()
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main(sys.argv))
