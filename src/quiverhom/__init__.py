"""Exact homological calculus for bound quiver algebras.

The package covers the full pipeline: directed-multigraph calculus (full
and convex subquivers, boundary splits, the homological heart), bound
quiver algebras over the rationals or a prime field with exact arithmetic
throughout, quiver representations with minimal projective resolutions
(cosyzygies through the dual over the opposite algebra), Ext dimension
tables, resolution transport onto the heart's restricted algebra, a
recursive block decomposition, and randomized seeded suites that verify the
structural theorems on generated instances.
"""

from .algebra import (
    AlgebraHom,
    ConvexIsoReport,
    FiniteDimAlgebra,
    IdealSpec,
    TriangularBlocks,
    build_algebra,
    corner_algebra,
    opposite_algebra,
    opposite_algebra as get_opposite,
    quotient_by_idempotent,
    restricted_algebra,
    triangular_blocks,
    verify_convex_isos,
)
from .errors import (
    CompositionError,
    DanglingIdError,
    InputError,
    InvariantViolation,
    ModuleValidationError,
    ParseError,
    QuiverHomError,
)
from .fields import QQ, PrimeField, Rationals, field_from_descriptor
from .formats import (
    WorkspaceBundle,
    export_dot,
    load_bundle,
    serialize_ideal,
    serialize_module,
    serialize_quiver,
    serialize_subquiver,
)
from .homology import (
    DimBound,
    ExtTable,
    HeartShiftPair,
    ResolutionPrefix,
    TransportedResolution,
    check_term_reachability,
    ext_dims,
    gl_dim,
    heart_shift_pair,
    inj_dim,
    is_projective_module,
    proj_dim,
    projective_cover_and_syzygy,
    resolution,
    transport_resolution,
)
from .lab import (
    Block,
    DecompositionNode,
    DecompositionTree,
    InstanceSpec,
    SuiteReport,
    Witness,
    decompose,
    gen_instance,
    verify_convex_epi,
    verify_ext_cross,
    verify_heart_theorem,
    verify_subquiver_calculus,
)
from .modules import (
    ModuleMap,
    Representation,
    dual_map,
    dual_module,
    embed_submodule,
    heart_parts,
    hom_basis,
    inflate,
    kernel_of_map,
    left_module_over_opposite,
    quotient_by_submodule,
    restrict,
    standard_module,
    submodule_closure,
    trace_submodule,
)
from .quiver import (
    Arrow,
    BoundarySplit,
    ComponentsReport,
    FullSubquiver,
    HeartProfile,
    Path,
    Quiver,
)

__version__ = "0.1.0"
