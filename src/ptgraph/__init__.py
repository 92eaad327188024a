"""Spectral solver and verification toolkit for PT-symmetric quantum star graphs.

Builds the real eigenvalue spectrum of the free Schrodinger operator on a
metric star graph under PT-consistent vertex conditions, constructs the
normalized eigenfunctions, evolves coefficient states in time, and computes
vertex probability currents to exhibit the breaking of current conservation
at the vertex. A Hermitian (Kirchhoff) coupling is kept alongside as the
conserving reference.
"""

__version__ = "0.1.0"

from .boundary import (
    BUILTIN_FAMILIES,
    CUSTOM,
    HERMITIAN,
    KIRCHHOFF_REF,
    PT,
    PT_DIRICHLET,
    PT_NEUMANN,
    BCMatrices,
    BondFunction,
    RankReport,
    TraceVectors,
    bc_matrices,
    bc_residual,
    bond_function,
    check_ab_symmetry,
    check_ranks,
    combine,
    cpt_inner,
    l2_inner,
    load_bc_matrices,
    omega_direct,
    omega_hermitian,
    omega_pt,
    omega_pt_symplectic,
    pt_inner,
    trace_vectors,
    trig_function,
    zero_function,
)
from .dynamics import (
    CurrentSeries,
    ProjectionResult,
    VertexCurrent,
    WaveState,
    bond_current,
    current_series,
    evolve,
    project,
    vertex_current,
)
from .errors import (
    DegenerateMode,
    DimensionMismatch,
    EmptyBasis,
    EvaluationFailure,
    EvenPointCount,
    GraphMismatch,
    InsufficientBasis,
    InvalidWindow,
    LengthMismatch,
    NonFiniteInput,
    NonPositiveLength,
    NormalizationError,
    NotARoot,
    OutOfDomain,
    PTGraphError,
    SingularGram,
    TooFewBonds,
    UnknownFamily,
    UnsortedGrid,
)
from .graph import (
    DEFAULT_RESOLUTION,
    BondGrid,
    MetricStarGraph,
    bond_grid,
    make_star_graph,
    quadrature,
    simpson_weights,
)
from .spectral import (
    EigenMode,
    SecularRoot,
    SpectralBasis,
    build_basis,
    eigenmode,
    find_roots,
    secular,
    secular_kirchhoff,
)

__all__ = [name for name in dir() if not name.startswith("_")]
