"""Command-line front end writing deterministic CSV artifacts.

Subcommands:
  spectrum   secular roots on (0, kmax] as CSV (n, k, degenerate)
  modes      eigenfunction profiles sampled per bond as CSV
  evolve     vertex-current time series of a coefficient state as CSV
  verify     matrix and spectral consistency report with PASS/FAIL lines

Exit codes: 0 success / all checks pass, 1 computational failure or
internal error, 2 usage or validation error (message names the flag).
Numbers are printed with a fixed number of significant digits and files
are written atomically, so identical configurations give byte-identical
artifacts. Every command computes (and raises) before its first byte is
written; the artifact is then streamed line by line, so memory does not
grow with its size.
"""
from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import __version__
from .boundary import (
    BUILTIN_FAMILIES,
    BCMatrices,
    CUSTOM,
    PT_DIRICHLET,
    PT_NEUMANN,
    _family,
    bc_matrices,
    bc_residual,
    check_ab_symmetry,
    check_ranks,
    l2_inner,
    load_bc_matrices,
    omega_hermitian,
    omega_pt,
    omega_pt_symplectic,
    trace_vectors,
)
from .dynamics import WaveState, current_series
from .errors import PTGraphError
from .graph import DEFAULT_RESOLUTION, MetricStarGraph, bond_grid, make_star_graph
from .spectral import build_basis, find_roots

DEFAULT_KMAX = 20.0
DEFAULT_ROOT_TOL = 1e-12
DEFAULT_PRECISION = 12

#: verify thresholds (fixed; the report gates against exactly these)
VERIFY_BC_RESIDUAL_TOL = 1e-10
VERIFY_OMEGA_PT_TOL = 1e-8
VERIFY_OMEGA_HERMITIAN_TOL = 1e-9
VERIFY_OMEGA_ROUTE_TOL = 1e-12
VERIFY_AB_SYMMETRY_TOL = 1e-14
VERIFY_MODE_COUNT = 5


class UsageError(Exception):
    """Bad flag value; the message starts with the flag name."""

    def __init__(self, flag: str, message: str):
        super().__init__(f"{flag}: {message}")


@dataclass(frozen=True)
class RunConfig:
    """Validated run: the graph and condition pair the flags name, and the flags.

    `from_args` checks the parsed flags against the library preconditions
    and raises UsageError naming the offending flag on any violation; the
    commands then read every other flag from `args`.
    """

    graph: MetricStarGraph
    pair: BCMatrices
    args: argparse.Namespace

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        try:
            lengths = [float(tok) for tok in args.lengths.split(",")]
        except ValueError as exc:
            raise UsageError("--lengths", f"could not parse {args.lengths!r}: {exc}")
        try:
            graph = make_star_graph(lengths)
        except PTGraphError as exc:
            raise UsageError("--lengths", str(exc))

        tag, _, path = args.family.partition(":")  # a built-in tag, or custom:<path>
        allowed_families = _ALLOWED_FAMILIES[args.command]
        if (CUSTOM if tag == CUSTOM else args.family) not in allowed_families:
            raise UsageError("--family", f"{args.family!r} is not one of {', '.join(allowed_families)}")
        if tag == CUSTOM and not path:
            raise UsageError("--family", "custom family needs a file path (custom:<path>)")
        if not (args.kmax > 0 and math.isfinite(args.kmax)):
            raise UsageError("--kmax", f"must be a positive number, got {args.kmax}")
        if not (args.tol > 0 and math.isfinite(args.tol)):
            raise UsageError("--tol", f"must be a positive number, got {args.tol}")
        if args.tol >= args.kmax:
            raise UsageError("--tol", f"must be below --kmax ({args.kmax}), got {args.tol}")
        if args.resolution < 3 or args.resolution % 2 == 0:
            raise UsageError("--resolution", f"must be an odd integer >= 3, got {args.resolution}")
        if args.precision < 1 or args.precision > 17:
            raise UsageError("--precision", f"must be in 1..17, got {args.precision}")
        if args.command == "evolve":
            if not (args.tmax > 0 and math.isfinite(args.tmax)):
                raise UsageError("--tmax", f"must be a positive number, got {args.tmax}")
            if args.tsteps < 2:
                raise UsageError("--tsteps", f"must be an integer >= 2, got {args.tsteps}")
        if args.out:
            if os.path.isdir(args.out):
                raise UsageError("--out", f"{args.out!r} is a directory")
            if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
                raise UsageError("--out", f"the directory of {args.out!r} does not exist")
        if tag != CUSTOM:
            return cls(graph, bc_matrices(args.family, graph), args)
        try:  # last, so a bad flag is reported before a bad file
            return cls(graph, load_bc_matrices(path, graph.n_bonds), args)
        except PTGraphError as exc:
            raise UsageError("--family", f"custom matrix file: {exc}")


def _column(values, precision: int) -> list[str]:
    """Each value with `precision` significant digits; adding 0.0 turns -0
    into 0, so "-0" is never printed."""
    return [format(v, f".{precision}g") for v in (np.asarray(values, dtype=float) + 0.0).tolist()]


def _fmt(x, precision: int) -> str:
    return _column([x], precision)[0]


def _atomic_write(path: str, lines: Iterable[str]):
    """Write the lines to a temporary file beside `path` as they come, then
    rename it over `path`; on any error the temporary file is removed and
    `path` keeps its old content."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".ptgraph-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(line + "\n" for line in lines)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates the file with mode 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(lines: Iterable[str], out_path):
    """Stream the lines to `out_path` (atomically) or to stdout. Callers
    finish everything that can raise first, so `lines` only formats."""
    if out_path:
        _atomic_write(out_path, lines)
    else:
        sys.stdout.writelines(line + "\n" for line in lines)


def _config_comments(args) -> list[str]:
    return [
        f"# ptgraph {__version__}",
        f"# command: {args.command}",
        f"# lengths: {args.lengths}",
        f"# family: {args.family}",
        f"# kmax: {_fmt(args.kmax, args.precision)}",
        f"# tol: {_fmt(args.tol, args.precision)}",
        f"# resolution: {args.resolution}",
        f"# precision: {args.precision}",
    ]


def cmd_spectrum(cfg: RunConfig) -> int:
    a = cfg.args
    roots = find_roots(cfg.graph, a.tol, a.kmax, cfg.pair.family)
    lines = _config_comments(a)
    lines.append("n,k,degenerate")
    ks = _column([r.k for r in roots], a.precision)
    rows = (
        f"{n},{k},{'true' if r.degenerate else 'false'}"
        for n, (k, r) in enumerate(zip(ks, roots), start=1)
    )
    _emit(itertools.chain(lines, rows), a.out)
    return 0


def cmd_modes(cfg: RunConfig) -> int:
    a = cfg.args
    basis = build_basis(cfg.graph, cfg.pair.family, a.kmax, k_min=a.tol, resolution=a.resolution)
    lines = _config_comments(a)
    for n, mode in enumerate(basis.modes, start=1):
        lines.append(f"# norm_check,{n},{_fmt(mode.norm_check, a.precision)}")
    lines.append("n,bond,x,re_psi,im_psi")

    def rows():
        # one (mode, bond) block of samples at a time, so memory does not
        # grow with the artifact; each bond's grid is built once
        grids = [bond_grid(cfg.graph, j, a.resolution) for j in range(1, cfg.graph.n_bonds + 1)]
        for n, mode in enumerate(basis.modes, start=1):
            for bond, xs in enumerate(grids, start=1):
                vals = np.asarray(mode.value(bond, xs), dtype=complex)
                columns = (_column(c, a.precision) for c in (xs, vals.real, vals.imag))
                for x, re, im in zip(*columns):
                    yield f"{n},{bond},{x},{re},{im}"

    _emit(itertools.chain(lines, rows()), a.out)
    return 0


def _parse_coeffs(raw: str, n_modes: int) -> np.ndarray:
    if raw.startswith("equal:"):
        try:
            count = int(raw[len("equal:"):])
        except ValueError:
            raise UsageError("--coeffs", f"could not parse mode count in {raw!r}")
        if count < 1:
            raise UsageError("--coeffs", f"equal:<K> needs K >= 1, got {count}")
        vals = None  # built only once count has passed the mode check below
    elif raw.startswith("list:"):
        try:
            vals = [complex(t) for t in raw[len("list:"):].split(",")]
        except ValueError as exc:
            raise UsageError("--coeffs", f"could not parse coefficient: {exc}")
        if not np.all(np.isfinite(vals)):
            raise UsageError("--coeffs", f"coefficients must be finite, got {raw!r}")
        count = len(vals)
    else:
        raise UsageError("--coeffs", f"expected equal:<K> or list:<c1,c2,...>, got {raw!r}")
    if count > n_modes:
        raise UsageError("--coeffs", f"{count} coefficients given but only {n_modes} modes available")
    c = np.zeros(n_modes, dtype=complex)
    c[:count] = 1.0 / math.sqrt(count) if vals is None else vals
    return c


def cmd_evolve(cfg: RunConfig) -> int:
    a = cfg.args
    basis = build_basis(cfg.graph, cfg.pair.family, a.kmax, k_min=a.tol, resolution=a.resolution)
    coeffs = _parse_coeffs(a.coeffs, len(basis.modes))
    state = WaveState(basis=basis, coeffs=coeffs, t=0.0)
    series = current_series(state, np.linspace(0.0, a.tmax, a.tsteps))
    lines = _config_comments(a)
    lines.append(f"# coeffs: {a.coeffs}")
    lines.append(f"# tmax: {_fmt(a.tmax, a.precision)}")
    lines.append(f"# tsteps: {a.tsteps}")
    lines.append("t,J_total," + ",".join(f"J_{j}" for j in range(1, cfg.graph.n_bonds + 1)))
    table = np.column_stack([series.times, series.total, series.per_bond.T])
    rows = (",".join(_column(row, a.precision)) for row in table)
    _emit(itertools.chain(lines, rows), a.out)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    a, graph, p = cfg.args, cfg.graph, cfg.args.precision
    report = [f"ptgraph {__version__} verify", f"family  : {a.family}", f"lengths : {a.lengths}"]

    def check(ok: bool, label: str):
        report.append(f"[{'PASS' if ok else 'FAIL'}] {label}")

    def measure(name: str, value: float, tol: Optional[float] = None, label: str = ""):
        """Report `name : value` and, given a tolerance, gate value < tol."""
        report.append(f"{name} : {_fmt(value, p)}")
        if tol is not None:
            check(value < tol, f"{label} < {tol:g}")

    n2, bc = 2 * graph.n_bonds, cfg.pair
    self_adjoint = bc.family != CUSTOM and _family(bc.family).self_adjoint
    ranks = check_ranks(bc)
    report.append(f"rank_a  : {ranks.rank_a}")
    report.append(f"rank_b  : {ranks.rank_b}")
    report.append(f"rank_ab : {ranks.rank_ab}")
    check(ranks.rank_ab == n2, f"rank(A|B) = 2N = {n2}")
    if ranks.rank_a < n2 or ranks.rank_b < n2:
        report.append(
            "[NOTE] rank(A) or rank(B) is below 2N although the compact-form "
            "condition is usually quoted with both equal to 2N; the stacked "
            "rank above is the nondegeneracy condition actually enforced."
        )
    measure("ab_symmetry_defect", check_ab_symmetry(bc),
            VERIFY_AB_SYMMETRY_TOL if self_adjoint else None, "self-adjointness defect")
    if not self_adjoint:
        report.append(
            "[INFO] defect recorded only: non-self-adjoint families are nonzero here by design"
        )

    if bc.family == CUSTOM:
        report.append("[INFO] spectral checks need a built-in family; skipped for custom matrices")
    else:
        basis = build_basis(graph, bc.family, a.kmax, k_min=a.tol, resolution=a.resolution)
        modes = basis.modes[:VERIFY_MODE_COUNT]
        report.append(
            f"modes_used : {len(modes)} of {len(basis.modes)} regular "
            f"(k = {', '.join(_fmt(m.k, p) for m in modes)})"
        )
        if basis.degenerate_roots:
            ks = ", ".join(_fmt(r.k, p) for r in basis.degenerate_roots)
            report.append(
                f"[WARN] {len(basis.degenerate_roots)} degenerate root(s) flagged (k = {ks}); "
                "eigenfunctions are undefined there and the basis may be incomplete"
            )
        if not modes:
            report.append("[INFO] no regular modes below kmax; mode-based checks are vacuous")
        else:
            traces = [trace_vectors(f) for f in modes]
            res_max = max(bc_residual(bc, t) for t in traces)
            measure("bc_residual_max", res_max, VERIFY_BC_RESIDUAL_TOL, "bc residual")
            if self_adjoint:
                om_max = max(abs(omega_hermitian(tf, tg)) for tf in traces for tg in traces)
                measure("omega_hermitian_max", om_max, VERIFY_OMEGA_HERMITIAN_TOL,
                        "|omega_hermitian| over mode pairs")
            else:
                om = [omega_pt(tf, tg) for tf in traces for tg in traces]
                sym = [omega_pt_symplectic(tf, tg) for tf in traces for tg in traces]
                measure("omega_pt_max", max(map(abs, om)), VERIFY_OMEGA_PT_TOL,
                        "|omega_pt| over mode pairs")
                measure("omega_route_diff", max(abs(x - y) for x, y in zip(om, sym)),
                        VERIFY_OMEGA_ROUTE_TOL, "boundary vs symplectic route agreement")
            gram = np.array([[l2_inner(f, g, a.resolution) for g in modes] for f in modes])
            measure("gram_max_identity_dev", float(np.max(np.abs(gram - np.eye(len(modes))))))
            measure("gram_cond", np.linalg.cond(gram))

    failed = any(line.startswith("[FAIL]") for line in report)
    report.append(f"result: {'FAIL' if failed else 'PASS'}")
    _emit(report, None)
    if a.out:
        _atomic_write(a.out, report)
    return 1 if failed else 0


_ALLOWED_FAMILIES = {
    "spectrum": BUILTIN_FAMILIES,
    "modes": (PT_DIRICHLET, PT_NEUMANN),
    "evolve": BUILTIN_FAMILIES,
    "verify": BUILTIN_FAMILIES + (CUSTOM,),
}

_COMMANDS = {
    "spectrum": cmd_spectrum,
    "modes": cmd_modes,
    "evolve": cmd_evolve,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptgraph",
        description="Spectral solver and verification toolkit for PT-symmetric quantum star graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("spectrum", "write the secular roots as CSV"),
        ("modes", "write sampled eigenfunction profiles as CSV"),
        ("evolve", "write the vertex-current time series as CSV"),
        ("verify", "run matrix and spectral consistency checks"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--lengths", required=True, help="comma-separated bond lengths, e.g. 1.0,1.5,2.0")
        families = (f"{fam}:<path>" if fam == CUSTOM else fam for fam in _ALLOWED_FAMILIES[name])
        sp.add_argument("--family", default=PT_DIRICHLET, help=" | ".join(families))
        sp.add_argument("--kmax", type=float, default=DEFAULT_KMAX, help="upper end of the root window")
        sp.add_argument("--tol", type=float, default=DEFAULT_ROOT_TOL, help="lower end k_min of the root window, excludes k = 0")
        sp.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION,
                        help="points per bond for sampling and quadrature (odd); "
                        "mode norm checks use at least the k-sized grid")
        sp.add_argument("--out", default=None, help="output file (stdout if omitted)")
        sp.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                        help="significant digits in output numbers")
    evolve = sub.choices["evolve"]
    evolve.add_argument("--coeffs", required=True, help="equal:<K> or list:<c1,c2,...>")
    evolve.add_argument("--tmax", type=float, default=1.0, help="end of the time window")
    evolve.add_argument("--tsteps", type=int, default=1000, help="number of time samples")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_args(args)
        return _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PTGraphError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
