"""Completeness of the root finder against the independent dense scan.

The oracle is tests/util.dense_scan_roots, which types the secular
functions directly for any number of bonds; nothing here reaches into the
library's root-finding internals.
"""
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ptgraph as pg
from util import REPRO_COUNTS_40, dense_scan_roots, dense_secular, run_python


def family_of(kirchhoff):
    return pg.KIRCHHOFF_REF if kirchhoff else pg.PT_DIRICHLET


def assert_distinct_roots(roots, lengths, kirchhoff):
    ks = np.array([r.k for r in roots])
    assert np.all(np.diff(ks) > 0)
    assert np.all(np.abs(dense_secular(ks, lengths, kirchhoff)) < 1e-10)


@pytest.mark.parametrize("lengths,kirchhoff,count", REPRO_COUNTS_40)
def test_close_root_pairs_are_all_found(lengths, kirchhoff, count):
    roots = pg.find_roots(pg.make_star_graph(lengths), 0.0, 40.0, family=family_of(kirchhoff))
    assert len(roots) == count
    assert_distinct_roots(roots, lengths, kirchhoff)


@pytest.mark.parametrize("kirchhoff", [False, True])
def test_pole_shared_by_five_bonds(kirchhoff):
    # every sin(k L_j) vanishes at 60 pi, where the secular functions vanish
    # to fourth order
    lengths = (1.2, 1.3, 1.45, 1.1, 1.05)
    roots = pg.find_roots(pg.make_star_graph(lengths), 0.0, 200.0, family=family_of(kirchhoff))
    assert_distinct_roots(roots, lengths, kirchhoff)
    at_pole = [r for r in roots if abs(r.k - 60 * math.pi) < 1e-9]
    assert len(at_pole) == 1 and at_pole[0].degenerate
    lo, hi = 185.0, 192.0
    sign_roots, even_roots = dense_scan_roots(lengths, hi, step=1e-5, kirchhoff=kirchhoff, k_min=lo)
    assert sum(lo < r.k <= hi for r in roots) == len(sign_roots) + len(even_roots)


def test_rolle_bound_next_to_a_shared_pole():
    # the pieces next to the pole 5 pi shared by both bonds have huge
    # w = L / u, where a Rolle bound built as a difference cancelled and
    # went negative (invalid value in sqrt)
    lengths = (1.0, 1.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        roots = pg.find_roots(pg.make_star_graph(lengths), 0.0, 40.0)
    assert_distinct_roots(roots, lengths, False)
    sign_roots, even_roots = dense_scan_roots(lengths, 40.0, step=1e-5)
    assert len(roots) == len(sign_roots) + len(even_roots)


#: bond lengths whose ratios are small rationals, so sine zeros coincide
RATIONAL_LENGTHS = (1.0, 1.25, 1.5, 2.0, 2.5, 3.0)
#: relative perturbations: distinct ones differ by at least 1e-6
PERTURBATIONS = (0.0,) + tuple(s * 10.0 ** -e for e in (3, 4, 5, 6) for s in (1, -1))
#: sine zeros up to this k are searched for the closest pair
SEARCH_KMAX = 12.0
#: zeros closer than this (relative) coincide
COINCIDENT_REL = 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.sampled_from(RATIONAL_LENGTHS), st.sampled_from(PERTURBATIONS)),
             min_size=3, max_size=4),
    st.booleans(),
)
def test_near_commensurate_counts_match_dense_scan(bonds, kirchhoff):
    lengths = tuple(q * (1.0 + eps) for q, eps in bonds)
    zeros = sorted((n * math.pi / l, j) for j, l in enumerate(lengths)
                   for n in range(1, int(SEARCH_KMAX * l / math.pi) + 1))
    # a zero shared by three bonds is an even-order root, which a sign
    # scan cannot see; the five-bond test covers those
    assume(not any(c[0] - a[0] <= COINCIDENT_REL * c[0] for a, c in zip(zeros, zeros[2:])))
    pairs = [(b[0] - a[0], 0.5 * (a[0] + b[0])) for a, b in zip(zeros, zeros[1:]) if a[1] != b[1]]
    centre = min(pairs)[1]
    lo, hi = centre - 0.02, centre + 0.02
    gaps = [g for g, k in pairs if lo - 0.1 < k < hi and g > COINCIDENT_REL * k]
    step = min([2e-6] + [g / 32 for g in gaps])
    sign_roots, _ = dense_scan_roots(lengths, hi, step=step, zero_tol=0.0,
                                     kirchhoff=kirchhoff, k_min=lo)
    roots = pg.find_roots(pg.make_star_graph(lengths), lo, hi, family=family_of(kirchhoff))
    assert len(roots) == len(sign_roots)
    assert_distinct_roots(roots, lengths, kirchhoff)


@pytest.mark.parametrize(
    "lengths,k_min,k_max,k_stuck",
    [
        # S = 2 sin k cos(k / 2): a double root at pi, off the pole lattice
        ((1.5, 0.5), 0.0, 4.0, math.pi),
        # S vanishes to fourth order at the triple pole 2 pi and rounds to
        # exactly 0 in a band about 2e-8 wide next to it
        ((0.5, 1.0, 1.0), 0.0, 20.0, 2 * math.pi),
        # with x = k / 2, S = sin 3x (sin 3x sin 5x + 2 sin x sin 5x + sin x sin 3x),
        # whose second factor is even about x = pi / 2: a double root at pi
        ((0.5, 1.5, 1.5, 2.5), 3.0, 4.0, math.pi),
    ],
)
def test_inseparable_roots_raise(lengths, k_min, k_max, k_stuck):
    # in a subprocess with a timeout, so that a root finder that never
    # returns fails this test instead of hanging the suite
    code = f"import ptgraph as pg; pg.find_roots(pg.make_star_graph({list(lengths)}), {k_min}, {k_max})"
    cp = run_python("-c", code)
    last = cp.stderr.strip().splitlines()[-1]
    assert last.startswith("ptgraph.errors.EvaluationFailure")
    assert float(re.search(r"near k = (\S+)", last).group(1)) == pytest.approx(k_stuck, abs=1e-6)


@pytest.mark.parametrize("sign", [1, -1])
def test_first_off_axis_pt_zero_reference(sign):
    """Defect 1's first complex-conjugate zero of the PT secular function on
    (1, 1.3, 1.7), the reference that a complex-zero locator must meet to 1e-12.

    The product form is typed here in 40-digit arithmetic and shares no code
    with the library; the pinned digits guard the reference itself.
    """
    with mpmath.workdps(40):
        l1, l2, l3 = (mpmath.mpf(x) for x in ("1", "1.3", "1.7"))

        def s(k):
            s1, s2, s3 = mpmath.sin(k * l1), mpmath.sin(k * l2), mpmath.sin(k * l3)
            return s2 * s3 + s1 * s3 + s1 * s2

        k = mpmath.findroot(s, mpmath.mpc(5.47, sign * 0.545))
        assert abs(s(k)) < 1e-30
        want = mpmath.mpc("5.469998793107624279", sign * mpmath.mpf("0.545107173148999025"))
        assert abs(k - want) < 1e-15


def mp_pt_secular(lengths):
    """sum_j prod_{i != j} sin(k L_i) in mpmath arithmetic at the exact binary
    lengths, typed from the product form; it shares no code with the library."""
    ls = [mpmath.mpf(x) for x in lengths]

    def s(k):
        sines = [mpmath.sin(k * x) for x in ls]
        return mpmath.fsum(mpmath.fprod(sines[:j] + sines[j + 1:]) for j in range(len(ls)))

    return s


# Spectrum-sweep inputs on which the benchmark's dense-scan oracle reads
# wrong: it takes two simple roots a few 1e-4 apart for one dip, and a
# near-tangent dip for a root. All are pt-dirichlet.
CLOSE_PAIRS = [
    ((1.146996, 1.156946, 1.446058), 200.0, ("10.8695573241", "10.8709119244")),
    ((1.116832, 1.21459, 1.328106, 1.337944, 1.125582, 1.412375, 1.225312, 1.239259), 50.0,
     ("29.9966752691", "29.9974740291")),
]
NEAR_TANGENT_DIPS = [
    ((1.495989, 1.154462, 1.299699, 1.062363, 1.429075, 1.154379, 1.234643, 1.247527,
      1.158966, 1.243229, 1.333401, 1.186268), 50.0, "35.37748", 9.3e-12),
    ((1.435884, 1.092863, 1.373476, 1.455972, 1.027498, 1.093824, 1.456538, 1.092362,
      1.261746, 1.471739, 1.013735, 1.224363), 50.0, "8.62750", 3.9e-13),
]


@pytest.mark.parametrize("lengths,kmax,pair", CLOSE_PAIRS)
def test_close_pair_of_simple_roots_is_found(lengths, kmax, pair):
    roots = pg.find_roots(pg.make_star_graph(lengths), 0.0, kmax)
    with mpmath.workdps(40):
        s = mp_pt_secular(lengths)
        want = [mpmath.findroot(s, mpmath.mpf(k)) for k in pair]
        for w, k in zip(want, pair):
            assert abs(w - mpmath.mpf(k)) < 1e-10
            assert abs(mpmath.diff(s, w)) > 1e-4  # simple
        # S changes sign across each root and has one sign between them
        d = mpmath.mpf("1e-6")
        signs = [mpmath.sign(s(k)) for k in (want[0] - d, (want[0] + want[1]) / 2, want[1] + d)]
        assert signs[0] == -signs[1] == signs[2] != 0
    near = [r for r in roots if float(want[0]) - 1e-3 < r.k < float(want[1]) + 1e-3]
    assert [r.degenerate for r in near] == [False, False]
    assert all(abs(r.k - float(w)) < 1e-10 for r, w in zip(near, want))


@pytest.mark.parametrize("lengths,kmax,dip,min_abs", NEAR_TANGENT_DIPS)
def test_near_tangent_dip_is_not_a_root(lengths, kmax, dip, min_abs):
    roots = pg.find_roots(pg.make_star_graph(lengths), 0.0, kmax)
    half = 5e-3  # the nearest root is 7.1e-3 away
    with mpmath.workdps(40):
        s = mp_pt_secular(lengths)
        c = mpmath.findroot(lambda k: mpmath.diff(s, k), mpmath.mpf(dip))
        assert abs(c - mpmath.mpf(dip)) < 1e-5
        # |S| has its minimum at c, and S keeps the sign of S(c) about it
        assert abs(s(c)) == pytest.approx(min_abs, rel=0.05)
        assert s(c) * mpmath.diff(s, c, 2) > 0
        grid = mpmath.linspace(c - half, c + half, 101)
        assert {mpmath.sign(s(k)) for k in grid} == {mpmath.sign(s(c))}
    assert not [r for r in roots if abs(r.k - float(c)) <= half]
