"""The package namespace: `ptgraph.<name>` always resolves to the live
attribute of the submodule that owns it, and nothing is cached in the
package itself."""
import sys

import pytest

import ptgraph as pg
from perfbench.tracer import FUNCTIONS, Tracer

LIBRARY = ("boundary", "dynamics", "errors", "graph", "spectral")
#: the public names, five submodules and the names they export
PUBLIC = [
    "BCMatrices", "BUILTIN_FAMILIES", "BondFunction", "CUSTOM", "CurrentSeries",
    "DEFAULT_RESOLUTION", "DegenerateMode", "DimensionMismatch", "EigenMode", "EmptyBasis",
    "EvaluationFailure", "EvenPointCount", "GraphMismatch", "HERMITIAN", "InsufficientBasis",
    "InvalidWindow", "KIRCHHOFF_REF", "LengthMismatch", "MetricStarGraph", "NonFiniteInput",
    "NonPositiveLength", "NormalizationError", "NotARoot", "OutOfDomain", "PT", "PTGraphError",
    "PT_DIRICHLET", "PT_NEUMANN", "ProjectionResult", "RankReport", "SecularRoot",
    "SingularGram", "SpectralBasis", "TooFewBonds", "TraceVectors", "UnknownFamily",
    "UnsortedGrid", "VertexCurrent", "WaveState", "bc_matrices", "bc_residual", "bond_current",
    "bond_function", "bond_grid", "boundary", "build_basis", "check_ab_symmetry",
    "check_ranks", "combine", "cpt_inner", "current_series", "dynamics", "eigenmode",
    "errors", "evolve", "find_roots", "graph", "l2_inner", "load_bc_matrices",
    "make_star_graph", "omega_direct", "omega_hermitian", "omega_pt", "omega_pt_symplectic",
    "project", "pt_inner", "quadrature", "secular", "secular_kirchhoff", "simpson_weights",
    "spectral", "trace_vectors", "trig_function", "vertex_current", "zero_function",
]


def test_all_lists_the_public_names():
    assert len(PUBLIC) == 75
    assert sorted(pg.__all__) == PUBLIC


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(pg))


def test_each_name_is_its_submodule_attribute():
    for name in PUBLIC:
        obj = getattr(pg, name)
        if name in LIBRARY:
            assert obj is sys.modules[f"ptgraph.{name}"]
        else:
            assert any(vars(getattr(pg, m)).get(name) is obj for m in LIBRARY), name
    assert pg.find_roots is pg.spectral.find_roots
    assert pg.PTGraphError is pg.errors.PTGraphError


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ptgraph import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == PUBLIC
    assert namespace["find_roots"] is pg.spectral.find_roots


@pytest.mark.parametrize("name", ["no_such_name", "np", "annotations", "import_module", "_private"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(pg, name)


def test_name_first_looked_up_under_the_tracer_is_the_original_after_uninstall():
    # a lookup that bound the wrapped function in the package namespace
    # would outlive uninstall(), which restores only what it patched
    names = [attr for _, attr, _, _ in FUNCTIONS if attr in PUBLIC]
    originals = {attr: getattr(getattr(pg, mod), attr) for mod, attr, _, _ in FUNCTIONS
                 if attr in PUBLIC}
    assert names and not set(names) & set(vars(pg))
    tracer = Tracer().install()
    try:
        traced = {name: getattr(pg, name) for name in names}
    finally:
        tracer.uninstall()
    for name in names:
        assert traced[name] is not originals[name]
        assert traced[name].__wrapped__ is originals[name]
        assert getattr(pg, name) is originals[name]
    assert not set(names) & set(vars(pg))
