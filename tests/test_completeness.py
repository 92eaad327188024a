"""Completeness of the root finder against the independent dense scan.

The oracle is tests/util.dense_scan_roots, which types the secular
functions directly for any number of bonds; nothing here reaches into the
library's root-finding internals.
"""
import math
import re
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ptgraph as pg
from util import REPRO_COUNTS_40, dense_scan_roots, dense_secular


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
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=10)
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
