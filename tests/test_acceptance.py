"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Golden
numbers come from the independent oracle runs recorded in tests/util.py;
the dense-scan root count of criterion 1 is recomputed live from the
directly-typed three-bond secular form.
"""
import math
import time

import numpy as np
import pytest

import ptgraph as pg
from ptgraph.cli import main as cli_main
from util import GOLDEN_K1, dense_scan_roots, random_trig


def report(num, name, ok, detail=""):
    line = f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def equal_state(basis, n_modes=5):
    c = np.zeros(len(basis.modes), dtype=complex)
    c[:n_modes] = 1.0 / math.sqrt(n_modes)
    return pg.WaveState(basis=basis, coeffs=c, t=0.0)


def test_criterion_01_secular_roots(graph123):
    start = time.perf_counter()
    roots = pg.find_roots(graph123, 0.0, 20.0, tol=1e-12)
    elapsed = time.perf_counter() - start
    sign_roots, even_roots = dense_scan_roots(graph123.lengths, 20.0)
    oracle_count = len(sign_roots) + len(even_roots)
    ok = (
        len(roots) == oracle_count
        and all(abs(pg.secular(r.k, graph123)) < 1e-10 for r in roots)
        and abs(roots[0].k - GOLDEN_K1) < 1e-9
        and elapsed < 1.0
    )
    report(
        1,
        "secular roots on (0,20] match the dense-scan oracle",
        ok,
        f"{len(roots)} roots vs oracle {oracle_count}, k1 err "
        f"{abs(roots[0].k - GOLDEN_K1):.2e}, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_02_family_independence(basis123_d, basis123_n):
    ks_d = np.array([m.k for m in basis123_d.modes])
    ks_n = np.array([m.k for m in basis123_n.modes])
    ok = ks_d.shape == ks_n.shape and np.max(np.abs(ks_d - ks_n)) < 1e-10
    report(
        2,
        "both PT families share one root set",
        ok,
        f"max |dk| = {np.max(np.abs(ks_d - ks_n)):.2e}",
    )


def test_criterion_03_normalization(basis_inc_d, basis_inc_n):
    worst = 0.0
    for basis in (basis_inc_d, basis_inc_n):
        assert len(basis.modes) >= 20
        for mode in basis.modes[:20]:
            worst = max(worst, abs(pg.l2_inner(mode, mode, 2001) - 1.0))
    report(
        3,
        "first 20 modes of each family are unit-norm at resolution 2001",
        worst < 1e-8,
        f"max |<phi,phi>-1| = {worst:.2e}",
    )


def test_criterion_04_boundary_conditions(basis_inc_d, basis_inc_n, graph_inc):
    worst = 0.0
    for basis in (basis_inc_d, basis_inc_n):
        bc = pg.bc_matrices(basis.family, graph_inc)
        for mode in basis.modes[:20]:
            t = pg.trace_vectors(mode, graph_inc)
            worst = max(worst, pg.bc_residual(bc, t))
    report(
        4,
        "first 20 modes satisfy their family's matrix conditions",
        worst < 1e-10,
        f"max residual = {worst:.2e}",
    )


def test_criterion_05_positive_norms(basis_inc_d, basis_inc_n):
    min_cpt = math.inf
    ok = True
    for basis in (basis_inc_d, basis_inc_n):
        for mode in basis.modes:
            ok = ok and mode.norm_const > 0.0 and math.isfinite(mode.norm_const)
        for mode in basis.modes[:10]:
            val = pg.cpt_inner(mode, mode, basis, truncation=20)
            ok = ok and abs(val.imag) < 1e-10 and val.real > 0.0
            min_cpt = min(min_cpt, val.real)
    report(
        5,
        "norm constants and truncated-kernel self products are positive",
        ok,
        f"min cpt self product = {min_cpt:.3f}",
    )


def test_criterion_06_omega_oracle_agreement(graph123):
    rng = np.random.default_rng(2024)
    worst_direct = 0.0
    worst_route = 0.0
    for _ in range(50):
        f = random_trig(graph123, rng)
        g = random_trig(graph123, rng)
        worst_direct = max(
            worst_direct,
            abs(pg.omega_hermitian(f, g, graph123) - pg.omega_direct(f, g, pg.HERMITIAN)),
        )
        worst_route = max(
            worst_route,
            abs(pg.omega_pt(f, g, graph123) - pg.omega_pt_symplectic(f, g, graph123)),
        )
    ok = worst_direct < 1e-6 and worst_route < 1e-12
    report(
        6,
        "boundary forms agree with the volume-integral oracle",
        ok,
        f"hermitian dev {worst_direct:.2e}, route dev {worst_route:.2e}",
    )


def test_criterion_07_pt_annihilation(basis123_d, basis123_n, graph123):
    worst = 0.0
    for basis in (basis123_d, basis123_n):
        funcs = basis.modes[:5]
        for f in funcs:
            for g in funcs:
                worst = max(worst, abs(pg.omega_pt(f, g, graph123)))
    report(
        7,
        "the PT skew form vanishes on eigenmode pairs of both families",
        worst < 1e-8,
        f"max |omega_pt| = {worst:.2e}",
    )


def test_criterion_08_kirchhoff_dichotomy(basis123_d, basis123_n, basis123_k):
    grid = np.linspace(0.0, 1.0, 1000)
    start = time.perf_counter()
    max_d = np.max(np.abs(pg.current_series(equal_state(basis123_d), grid).total))
    max_n = np.max(np.abs(pg.current_series(equal_state(basis123_n), grid).total))
    max_k = np.max(np.abs(pg.current_series(equal_state(basis123_k), grid).total))
    elapsed = time.perf_counter() - start
    ok = max_d > 1e-3 and max_n > 1e-3 and max_k < 1e-10 and elapsed < 5.0
    report(
        8,
        "vertex current breaks for PT families and vanishes for the reference",
        ok,
        f"max|J| d={max_d:.3f} n={max_n:.3f} k={max_k:.1e}, {elapsed:.2f} s",
    )


def test_criterion_09_matrix_conditions(graph123, capsys):
    bk = pg.bc_matrices(pg.KIRCHHOFF_REF, graph123)
    absym_k = pg.check_ab_symmetry(bk)
    expected = {
        pg.PT_DIRICHLET: (5, 1),
        pg.PT_NEUMANN: (1, 5),
        pg.KIRCHHOFF_REF: (5, 1),
    }
    ok = absym_k < 1e-14
    recorded = []
    for fam, (ra, rb) in expected.items():
        r = pg.check_ranks(pg.bc_matrices(fam, graph123))
        recorded.append(f"{fam}: a={r.rank_a} b={r.rank_b} ab={r.rank_ab}")
        ok = ok and r.rank_ab == 6 and (r.rank_a, r.rank_b) == (ra, rb)
    rc = cli_main(["verify", "--lengths", "1.0,1.5,2.0", "--family", "pt-dirichlet"])
    out = capsys.readouterr().out
    ok = ok and rc == 0 and "[NOTE]" in out and "rank" in out
    report(
        9,
        "self-adjointness defect and rank pattern match, discrepancy surfaced",
        ok,
        f"kirchhoff defect {absym_k:.1e}; " + "; ".join(recorded),
    )


def test_criterion_10_projection_round_trip(basis123_d):
    rng = np.random.default_rng(99)
    worst = 0.0
    cond = 0.0
    for _ in range(3):
        coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
        target = pg.combine(basis123_d.modes[:3], coeffs)
        res = pg.project(target, basis123_d)
        worst = max(worst, res.residual)
        cond = res.gram_cond
    report(
        10,
        "projection reproduces synthetic three-mode states",
        worst < 1e-6,
        f"max L2 error = {worst:.2e}, gram cond = {cond:.3f}",
    )


def test_criterion_11_degenerate_handling(graph111, capsys):
    roots = pg.find_roots(graph111, 0.0, 4.0)
    basis = pg.build_basis(graph111, pg.PT_DIRICHLET, 4.0)
    rc = cli_main(["verify", "--lengths", "1,1,1", "--family", "pt-dirichlet", "--kmax", "4"])
    out = capsys.readouterr().out
    ok = (
        len(roots) == 1
        and roots[0].degenerate
        and abs(roots[0].k - math.pi) < 1e-6
        and basis.modes == ()
        and len(basis.degenerate_roots) == 1
        and rc == 0
        and "[WARN]" in out
        and "incomplete" in out
    )
    report(
        11,
        "equal lengths give flagged degenerate roots and a basis warning",
        ok,
        f"root at {roots[0].k:.8f}, regular modes {len(basis.modes)}",
    )
