"""Spectral solver and verification toolkit for PT-symmetric quantum star graphs.

Finds the real zeros of the secular equation of the free Schrodinger
operator on a metric star graph under PT-consistent vertex conditions (the
PT families also have complex-conjugate eigenvalues off the real axis, which
are not reported yet), constructs the normalized eigenfunctions, evolves
coefficient states in time, and computes vertex probability currents to
exhibit the breaking of current conservation at the vertex. A Hermitian
(Kirchhoff) coupling is kept alongside as the conserving reference.

`import ptgraph` loads no submodule and no numpy: the first lookup of a
public name imports the whole library (PEP 562).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: submodule -> the public names it owns; the first lookup imports them in this order
_EXPORTS = {
    "boundary": (
        "BUILTIN_FAMILIES", "CUSTOM", "HERMITIAN", "KIRCHHOFF_REF", "PT", "PT_DIRICHLET",
        "PT_NEUMANN", "BCMatrices", "BondFunction", "RankReport", "TraceVectors",
        "bc_matrices", "bc_residual", "bond_function", "check_ab_symmetry", "check_ranks",
        "combine", "cpt_inner", "l2_inner", "load_bc_matrices", "omega_direct",
        "omega_hermitian", "omega_pt", "omega_pt_symplectic", "pt_inner", "trace_vectors",
        "trig_function", "zero_function",
    ),
    "dynamics": (
        "CurrentSeries", "ProjectionResult", "VertexCurrent", "WaveState", "bond_current",
        "current_series", "evolve", "project", "vertex_current",
    ),
    "errors": (
        "DegenerateMode", "DimensionMismatch", "EmptyBasis", "EvaluationFailure",
        "EvenPointCount", "GraphMismatch", "InsufficientBasis", "InvalidWindow",
        "LengthMismatch", "NonFiniteInput", "NonPositiveLength", "NormalizationError",
        "NotARoot", "OutOfDomain", "PTGraphError", "SingularGram", "TooFewBonds",
        "UnknownFamily", "UnsortedGrid",
    ),
    "graph": (
        "DEFAULT_RESOLUTION", "MetricStarGraph", "bond_grid", "make_star_graph", "quadrature",
        "simpson_weights",
    ),
    "spectral": (
        "EigenMode", "SecularRoot", "SpectralBasis", "build_basis", "eigenmode", "find_roots",
        "secular", "secular_kirchhoff",
    ),
}
#: public name -> owning submodule; a submodule owns its own name
_OWNER = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_OWNER)


def __getattr__(name):
    # Nothing is cached here: a perfbench tracer patches the submodules, and a
    # name bound in this namespace would outlive its uninstall().
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if not _EXPORTS.keys() <= globals().keys():  # each import binds its submodule here
        for module in _EXPORTS:
            _import_module(f"{__name__}.{module}")
    owner = globals()[_OWNER[name]]
    return owner if name == _OWNER[name] else getattr(owner, name)


def __dir__():
    return list(globals().keys() | _OWNER.keys())
