"""Span tracing installed from outside the package.

Wraps the public functions of ptgraph's layers by patching the module
attribute and every name another ptgraph module bound to the same object
(e.g. `from .spectral import find_roots` in cli). Each call records a span
(name, start, end, parent span, op id) in memory; self time is the span's
duration minus the time covered by its direct children. Work counts are
taken at the same boundaries. Spans are written out once, at the end.
"""
from __future__ import annotations

import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

#: (module, attribute, span name, counter) for plain functions
FUNCTIONS = (
    ("graph", "bond_grid", "graph.bond_grid", None),
    ("graph", "quadrature", "graph.quadrature", None),
    ("boundary", "l2_inner", "boundary.l2_inner", None),
    ("boundary", "pt_inner", "boundary.pt_inner", None),
    ("boundary", "cpt_inner", "boundary.cpt_inner", None),
    ("boundary", "trace_vectors", "boundary.trace_vectors", None),
    ("boundary", "omega_pt", "boundary.omega_pt", None),
    ("boundary", "omega_hermitian", "boundary.omega_hermitian", None),
    ("boundary", "omega_pt_symplectic", "boundary.omega_pt_symplectic", None),
    ("spectral", "secular", "spectral.secular", "points"),
    ("spectral", "secular_kirchhoff", "spectral.secular", "points"),
    ("spectral", "find_roots", "spectral.find_roots", "roots"),
    ("spectral", "eigenmode", "spectral.eigenmode", None),
    ("spectral", "build_basis", "spectral.build_basis", None),
    ("dynamics", "current_series", "dynamics.current_series", "mode_steps"),
    ("dynamics", "vertex_current", "dynamics.vertex_current", None),
    ("dynamics", "project", "dynamics.project", None),
    ("cli", "cmd_spectrum", "cli.cmd_spectrum", None),
    ("cli", "cmd_modes", "cli.cmd_modes", None),
    ("cli", "cmd_evolve", "cli.cmd_evolve", None),
    ("cli", "cmd_verify", "cli.cmd_verify", None),
)
#: (module, class, method, span name) for methods; from_args is a classmethod
METHODS = (
    ("dynamics", "WaveState", "value", "dynamics.WaveState.value"),
    ("dynamics", "WaveState", "deriv", "dynamics.WaveState.deriv"),
    ("cli", "RunConfig", "from_args", "cli.RunConfig.from_args"),
)


def _count_points(counts, args, kwargs, result):
    counts["spectral.secular.points"] += int(np.size(args[0]))


def _count_roots(counts, args, kwargs, result):
    counts["spectral.roots.found"] += len(result)
    counts["spectral.roots.degenerate"] += sum(1 for r in result if r.degenerate)


def _count_mode_steps(counts, args, kwargs, result):
    state, t_grid = args[0], args[1]
    counts["dynamics.current_series.mode_steps"] += len(state.basis.modes) * int(np.size(t_grid))


COUNTERS = {"points": _count_points, "roots": _count_roots, "mode_steps": _count_mode_steps}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.op_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.op = -1
        self._stack: list[list] = []  # [span index, start, child time]
        self._undo: list[tuple] = []

    def wrap(self, name, fn, counter=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.op_id.append(self.op)
            self.parent.append(stack[-1][0] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            frame = [idx, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - frame[1]
                self.start[idx], self.end[idx] = frame[1], t1
                self.calls[name] += 1
                self.self_s[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every target; returns self so that uninstall() can undo it."""
        for mod_name in {t[0] for t in FUNCTIONS + METHODS}:
            importlib.import_module(f"ptgraph.{mod_name}")
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "ptgraph" or name.startswith("ptgraph.")}
        for mod_name, attr, span, counter in FUNCTIONS:
            orig = getattr(pkg[f"ptgraph.{mod_name}"], attr)
            wrapped = self.wrap(span, orig, COUNTERS.get(counter))
            for mod in pkg.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)
                    elif isinstance(value, dict):  # dispatch tables such as cli._COMMANDS
                        for k, v in list(value.items()):
                            if v is orig:
                                self._undo.append((value, k, orig))
                                value[k] = wrapped
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(pkg[f"ptgraph.{mod_name}"], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(span, raw.__func__))
            else:
                new = self.wrap(span, raw)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, new)
        return self

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._undo.clear()

    def summary(self):
        """calls and self_s per span name, plus the work counts."""
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        return out

    def write(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            op_id=np.frombuffer(self.op_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
