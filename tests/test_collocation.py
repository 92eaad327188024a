"""find_roots against a discretised-operator oracle that never writes a
secular function down: the Chebyshev collocation of -d^2/dx^2 under the
family's (A, B) in tests/util.py. Each real eigenvalue of the collocation
is a root, and a pole shared by m bonds is one root of find_roots and an
eigenvalue of multiplicity m - 1."""
import math
from functools import lru_cache

import numpy as np
import pytest

import ptgraph as pg
from perfbench import cli_pool
from util import collocation_wavenumbers

#: a collocation k is real if |Im k| <= REAL_REL |k|; the nearest non-real one
#: on the digest configurations has |Im k| = 0.097
REAL_REL = 1e-6
#: a real collocation k matches a root within ROOT_REL |k|; the worst seen is 5e-11
ROOT_REL = 1e-9


def digest_case(spec):
    """(lengths, family, kmax) of a cli_pool configuration, with the CLI defaults."""
    flags = dict(zip(spec.split()[1::2], spec.split()[2::2]))
    lengths = tuple(float(x) for x in flags["--lengths"].split(","))
    return lengths, flags.get("--family", pg.PT_DIRICHLET), float(flags.get("--kmax", 20))


CASES = {cid: digest_case(spec) for cid, spec in cli_pool.CONFIGS.items() if "custom:" not in spec}


@lru_cache(maxsize=None)
def spectrum(lengths, family, k_max):
    """collocation_wavenumbers of a built-in family, once per case."""
    bc = pg.bc_matrices(family, pg.make_star_graph(lengths))
    return collocation_wavenumbers(lengths, bc.a, bc.b, k_max)


def real_part(ks):
    return ks[np.abs(ks.imag) <= REAL_REL * np.abs(ks)].real


def roots_with_multiplicity(lengths, family, k_max):
    """find_roots on (0, k_max], each root repeated max(1, m - 1) times, with m
    the number of bonds whose sine vanishes there."""
    out = []
    for r in pg.find_roots(pg.make_star_graph(lengths), 0.0, k_max, family):
        m = sum(abs(math.sin(r.k * length)) < 1e-8 for length in lengths)
        out += [r.k] * max(1, m - 1)
    return np.array(out)


def assert_real_spectrum_matches(lengths, family, k_max):
    real = np.sort(real_part(spectrum(lengths, family, k_max)))
    roots = roots_with_multiplicity(lengths, family, k_max)
    assert real.size == roots.size, (real, roots)
    assert np.all(np.abs(real - roots) <= ROOT_REL * roots), np.abs(real - roots) / roots


def test_the_cases_are_the_fourteen_non_custom_digest_configurations():
    assert len(CASES) == 14


@pytest.mark.parametrize("cid", sorted(CASES))
def test_real_eigenvalues_are_the_roots_with_multiplicity(cid):
    assert_real_spectrum_matches(*CASES[cid])


def test_the_first_non_real_pair_of_pt_dirichlet():
    # defect 1, pinned to 40 digits by mpmath in test_spectral.py
    ks = spectrum((1.0, 1.3, 1.7), pg.PT_DIRICHLET, 10.0)
    off_axis = ks[np.abs(ks.imag) > REAL_REL * np.abs(ks)]
    want = [5.4699987931076243 - 0.545107173148999j, 5.4699987931076243 + 0.545107173148999j]
    assert np.allclose(off_axis[:2], want, rtol=1e-8, atol=0.0)


@pytest.mark.xfail(strict=True, reason="defect 1: find_roots reports no non-real eigenvalue")
def test_find_roots_reports_every_eigenvalue_below_kmax():
    ks = spectrum((1.0, 1.3, 1.7), pg.PT_DIRICHLET, 10.0)
    roots = roots_with_multiplicity((1.0, 1.3, 1.7), pg.PT_DIRICHLET, 10.0)
    assert ks.size == roots.size


def test_close_pair_without_a_match_window():
    # defect 5: two simple roots 3.7e-3 apart at kmax 200 of spectrum-sweep,
    # seed 2510, which the dip oracle of perfbench reads as one
    lengths = (1.32605, 1.168906, 1.352182, 1.282664, 1.120198)
    real = real_part(spectrum(lengths, pg.PT_DIRICHLET, 64.6))
    pair = real[(real > 64.4) & (real < 64.6)]
    assert np.allclose(np.sort(pair), [64.49141166687184, 64.49515905527204], rtol=1e-8, atol=0.0)
    assert_real_spectrum_matches(lengths, pg.PT_DIRICHLET, 64.6)
