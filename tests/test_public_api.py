"""The public names of the package.

A literal snapshot of every non-module name that ``quiverhom/__init__.py``
binds, of the parameter names of each exported function and class, and of
the public methods and properties of each exported class.  A name may
leave, or a signature change, only with a written-down removal, so a
dropped or renamed export, parameter or method fails here instead of in a
user's call.  The module and map constructors always check, with no parameter that
skips it, and a malformed module is an ``InputError``.
"""

import functools
import inspect
import types

import pytest

import quiverhom
from quiverhom import QQ, IdealSpec, InputError, Quiver, Representation, build_algebra

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
    "inflate",
    "inj_dim",
    "is_projective_module",
    "kernel_of_map",
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
    "submodule_closure",
    "trace_submodule",
    "transport_resolution",
    "triangular_blocks",
    "verify_convex_epi",
    "verify_convex_isos",
    "verify_ext_cross",
    "verify_heart_theorem",
    "verify_subquiver_calculus",
}


# The parameter names of every exported function and class, in order, so a
# changed signature fails here as a dropped name does.  None marks an error
# class, which takes Exception's own arguments.
SIGNATURES = {
    "AlgebraHom": (
        "source", "target", "images", "multiplicative", "unital", "unit_image_idempotent",
        "surjective", "injective",
    ),
    "Arrow": ("name", "source", "target"),
    "Block": ("vertices", "dim", "simple_cycle"),
    "BoundarySplit": ("plus", "minus", "zero"),
    "ComponentsReport": ("components", "nontrivial_flags", "condensation", "simple_cycle_type"),
    "CompositionError": None,
    "ConvexIsoReport": ("convex", "corner_dim", "quotient_dim", "restricted_dim", "entries"),
    "DanglingIdError": None,
    "DecompositionNode": ("kind", "vertices", "heart_vertices", "t", "block", "eprime_e_dim"),
    "DecompositionTree": ("nodes",),
    "DimBound": ("kind", "value"),
    "ExtTable": ("dims", "cutoff", "side"),
    "FiniteDimAlgebra": ("field", "vertices", "elements", "table", "quiver", "ideal", "dim_floor"),
    "FullSubquiver": ("parent", "vertex_set"),
    "HeartProfile": ("cycle_vertices", "heart", "t"),
    "HeartShiftPair": ("a_part", "b_part", "syzygy_parts", "cosyzygy_parts"),
    "IdealSpec": ("relations", "truncation"),
    "InputError": None,
    "InstanceSpec": ("seed",),
    "InvariantViolation": None,
    "ModuleMap": ("source", "target", "blocks"),
    "ModuleValidationError": None,
    "ParseError": ("message", "line", "column"),
    "Path": ("source", "arrows", "target"),
    "PrimeField": ("p",),
    "Quiver": ("vertices", "arrows"),
    "QuiverHomError": None,
    "Rationals": (),
    "Representation": ("algebra", "dims", "mats"),
    "ResolutionPrefix": ("module", "terms", "reps", "diffs", "syzygies", "minimal"),
    "SuiteReport": ("suite", "master_seed", "attempted", "passed", "witnesses"),
    "TransportedResolution": (
        "gamma", "module", "terms", "reps", "diffs", "exact", "minimal", "terms_projective"
    ),
    "TriangularBlocks": (
        "dim_ee", "dim_e_eprime", "dim_eprime_e", "dim_eprime_eprime", "lower_triangular", "upper_triangular"
    ),
    "Witness": ("seed", "check_id", "observed", "expected"),
    "WorkspaceBundle": ("quiver", "ideal", "algebra", "modules", "module_names", "subquiver", "field"),
    "build_algebra": ("q", "ideal", "field"),
    "check_term_reachability": ("q", "terms"),
    "corner_algebra": ("alg", "sub"),
    "decompose": ("alg",),
    "dual_map": ("f",),
    "dual_module": ("m",),
    "embed_submodule": ("rep", "rows_by_vertex"),
    "export_dot": ("q", "highlight"),
    "ext_dims": ("m", "n", "k", "side"),
    "field_from_descriptor": ("desc",),
    "gen_instance": ("spec",),
    "get_opposite": ("alg",),
    "gl_dim": ("alg", "cutoff"),
    "heart_parts": ("c", "heart"),
    "heart_shift_pair": ("m", "n", "heart", "t"),
    "hom_basis": ("m", "n"),
    "inflate": ("m", "big"),
    "inj_dim": ("m", "cutoff"),
    "is_projective_module": ("m",),
    "kernel_of_map": ("f",),
    "left_module_over_opposite": ("quotient",),
    "load_bundle": ("paths", "field"),
    "opposite_algebra": ("alg",),
    "proj_dim": ("m", "cutoff"),
    "projective_cover_and_syzygy": ("m",),
    "quotient_by_idempotent": ("alg", "sub"),
    "quotient_by_submodule": ("rep", "rows_by_vertex"),
    "resolution": ("m", "k"),
    "restrict": ("m", "small"),
    "restricted_algebra": ("alg", "sub"),
    "serialize_ideal": ("ideal",),
    "serialize_module": ("m", "name"),
    "serialize_quiver": ("q",),
    "serialize_subquiver": ("vertex_set", "q"),
    "standard_module": ("alg", "kind", "v"),
    "submodule_closure": ("rep", "seed_rows"),
    "trace_submodule": ("c", "generators"),
    "transport_resolution": ("a", "k", "heart"),
    "triangular_blocks": ("alg", "sub"),
    "verify_convex_epi": ("spec", "cases", "cutoff"),
    "verify_convex_isos": ("alg", "sub"),
    "verify_ext_cross": ("spec", "cases", "cutoff"),
    "verify_heart_theorem": ("spec", "cases", "cutoff"),
    "verify_subquiver_calculus": ("spec", "cases"),
}


# The public method and property names of every exported class, its
# package bases' included; fields and plain class attributes are not listed.
MEMBERS = {
    "AlgebraHom": ("from_images",),
    "Arrow": (),
    "Block": (),
    "BoundarySplit": (),
    "ComponentsReport": ("nontrivial_count",),
    "CompositionError": (),
    "ConvexIsoReport": ("dims_agree", "failed_entries", "ok"),
    "DanglingIdError": (),
    "DecompositionNode": (),
    "DecompositionTree": ("blocks", "render", "splits"),
    "DimBound": ("at_least", "finite", "infinite", "is_finite"),
    "ExtTable": ("describe",),
    "FiniteDimAlgebra": (
        "arrow_index", "dense", "dim", "dim_exceeds", "elements", "idempotent_index", "is_presented", "mul",
        "projective_layout", "radical_indices", "table", "unit", "vertex_idempotent",
    ),
    "FullSubquiver": ("arrows", "as_quiver", "complement", "is_empty", "vertices"),
    "HeartProfile": (),
    "HeartShiftPair": (),
    "IdealSpec": ("monomial", "opposite", "uniform_relations", "zero"),
    "InputError": (),
    "InstanceSpec": (),
    "InvariantViolation": (),
    "ModuleMap": ("compose", "field", "is_zero", "validate"),
    "ModuleValidationError": (),
    "ParseError": (),
    "Path": ("label", "length"),
    "PrimeField": ("add", "mul", "name", "neg", "of", "parse", "sub", "to_str"),
    "Quiver": (
        "arrow_by_name", "boundary_split", "build", "check_vertices", "components", "convex_closure",
        "full_subquiver", "homological_heart", "in_arrows", "is_acyclic", "is_convex", "out_arrows",
        "path_at", "path_counts", "paths_up_to", "reachable_from", "reaching", "scc_list", "sort_vertices",
        "vertex_index",
    ),
    "QuiverHomError": (),
    "Rationals": ("add", "mul", "neg", "of", "parse", "sub", "to_str"),
    "Representation": (
        "element_matrix", "equal_to", "field", "is_zero", "support", "top_lifts", "total_dim", "validate"
    ),
    "ResolutionPrefix": ("exact", "syzygy", "term_labels"),
    "SuiteReport": ("all_passed", "render"),
    "TransportedResolution": (),
    "TriangularBlocks": ("total",),
    "Witness": (),
    "WorkspaceBundle": (),
}

_MEMBER_KINDS = (types.FunctionType, property, functools.cached_property, staticmethod, classmethod)


def _members(klass) -> tuple[str, ...]:
    """The public methods and properties that klass and its package bases define."""
    return tuple(sorted({
        name
        for base in klass.__mro__ if base.__module__.startswith("quiverhom")
        for name, value in vars(base).items()
        if not name.startswith("_") and isinstance(value, _MEMBER_KINDS)
    }))


def _parameters(value):
    try:
        return tuple(inspect.signature(value).parameters)
    except ValueError:  # a class with no __init__ of its own in Python
        return None


def test_public_names_are_unchanged():
    bound = {
        name
        for name, value in vars(quiverhom).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(bound - PUBLIC_NAMES) == []
    assert sorted(PUBLIC_NAMES - bound) == []


def test_public_signatures_are_unchanged():
    exported = {name: getattr(quiverhom, name) for name in PUBLIC_NAMES}
    got = {
        name: _parameters(value)
        for name, value in exported.items()
        if inspect.isfunction(value) or inspect.isclass(value)
    }
    assert got == SIGNATURES


def test_public_methods_are_unchanged():
    exported = {name: getattr(quiverhom, name) for name in PUBLIC_NAMES}
    got = {name: _members(value) for name, value in exported.items() if inspect.isclass(value)}
    assert got == MEMBERS


@pytest.mark.parametrize(
    "dims, mats", [({"1": 1, "2": 1}, {"a": [[0.5]]}), ({"2": 2.5}, {})], ids=["float entry", "float dim"]
)
def test_a_malformed_module_is_an_input_error(dims, mats):
    # on the line 1 -> 2 with J^2 = 0
    alg = build_algebra(Quiver.build(["1", "2"], [("a", "1", "2")]), IdealSpec.zero(2), QQ)
    with pytest.raises(InputError):
        Representation(alg, dims, mats)
