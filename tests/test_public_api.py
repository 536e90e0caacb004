"""The public names of the package.

A literal snapshot of every non-module name that ``quiverhom/__init__.py``
binds.  A name may leave only with a written-down removal, so a dropped or
renamed export fails here instead of in a user's import.
"""

import types

import quiverhom

PUBLIC_NAMES = {
    "AlgebraHom",
    "Arrow",
    "Block",
    "BoundarySplit",
    "ComponentsReport",
    "CompositionError",
    "ConvexIsoReport",
    "DanglingIdError",
    "DecompositionNode",
    "DecompositionTree",
    "DimBound",
    "ExtTable",
    "FiniteDimAlgebra",
    "FullSubquiver",
    "HeartProfile",
    "HeartShiftPair",
    "IdealSpec",
    "IdempotentSplit",
    "InputError",
    "InstanceSpec",
    "InvariantViolation",
    "ModuleMap",
    "ModuleValidationError",
    "ParseError",
    "Path",
    "PrimeField",
    "QQ",
    "Quiver",
    "QuiverHomError",
    "Rationals",
    "Representation",
    "ResolutionPrefix",
    "SuiteReport",
    "TransportedResolution",
    "TriangularBlocks",
    "Witness",
    "WorkspaceBundle",
    "build_algebra",
    "check_term_reachability",
    "corner_algebra",
    "decompose",
    "dual_map",
    "dual_module",
    "embed_submodule",
    "export_dot",
    "ext_dims",
    "field_from_descriptor",
    "gen_instance",
    "get_opposite",
    "gl_dim",
    "heart_parts",
    "heart_shift_pair",
    "hom_basis",
    "image_of_map",
    "inflate",
    "inj_dim",
    "is_projective_module",
    "kernel_of_map",
    "largest_submodule_supported",
    "left_module_over_opposite",
    "load_bundle",
    "opposite_algebra",
    "proj_dim",
    "projective_cover_and_syzygy",
    "quotient_by_idempotent",
    "quotient_by_submodule",
    "resolution",
    "restrict",
    "restricted_algebra",
    "serialize_ideal",
    "serialize_module",
    "serialize_quiver",
    "serialize_subquiver",
    "standard_module",
    "structure_parts",
    "submodule_closure",
    "trace_submodule",
    "transport_resolution",
    "triangular_blocks",
    "verify_convex_epi",
    "verify_convex_isos",
    "verify_ext_cross",
    "verify_heart_theorem",
    "verify_subquiver_calculus",
    "zero_module",
}


def test_public_names_are_unchanged():
    bound = {
        name
        for name, value in vars(quiverhom).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(bound - PUBLIC_NAMES) == []
    assert sorted(PUBLIC_NAMES - bound) == []
