"""The public names of the package.

A literal snapshot of every non-module name that ``quiverhom/__init__.py``
binds.  A name may leave only with a written-down removal, so a dropped or
renamed export fails here instead of in a user's import.  The module and
map constructors are pinned too: they always check, with no parameter
that skips it.
"""

import inspect
import types

import pytest

import quiverhom
from quiverhom import QQ, IdealSpec, InputError, ModuleMap, Quiver, Representation, build_algebra

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


def test_the_module_and_map_constructors_take_no_knob():
    assert list(inspect.signature(Representation).parameters) == ["algebra", "dims", "mats"]
    assert list(inspect.signature(ModuleMap).parameters) == ["source", "target", "blocks"]


@pytest.mark.parametrize(
    "dims, mats", [({"1": 1, "2": 1}, {"a": [[0.5]]}), ({"2": 2.5}, {})], ids=["float entry", "float dim"]
)
def test_a_malformed_module_is_an_input_error(dims, mats):
    # on the line 1 -> 2 with J^2 = 0
    alg = build_algebra(Quiver.build(["1", "2"], [("a", "1", "2")]), IdealSpec.zero(2), QQ)
    with pytest.raises(InputError):
        Representation(alg, dims, mats)
