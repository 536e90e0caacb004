"""Representations and module maps: duality, submodules, Hom spaces.

Cross-checks lean on classical identities with independent computations:
Hom out of a projective is evaluation at its vertex, duality swaps Hom
arguments, kernels and images obey rank-nullity vertexwise.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from quiverhom import (
    QQ,
    DanglingIdError,
    IdealSpec,
    IdempotentSplit,
    InputError,
    ModuleMap,
    ModuleValidationError,
    PrimeField,
    Quiver,
    Representation,
    build_algebra,
    dual_module,
    embed_submodule,
    get_opposite,
    heart_parts,
    hom_basis,
    image_of_map,
    inflate,
    is_projective_module,
    kernel_of_map,
    largest_submodule_supported,
    left_module_over_opposite,
    quotient_by_idempotent,
    quotient_by_submodule,
    restrict,
    restricted_algebra,
    standard_module,
    structure_parts,
    submodule_closure,
    trace_submodule,
    zero_module,
)
from quiverhom import linalg
from quiverhom.homology import materialize_term, projective_cover_and_syzygy


def random_module(rng, alg, bound=8):
    """Quotient of a small projective sum by a random closed subspace."""
    pdim = {v: sum(1 for el in alg.elements if el.source == v) for v in alg.vertices}
    mults = {}
    total = 0
    for _ in range(rng.randint(1, 3)):
        v = alg.vertices[rng.randrange(len(alg.vertices))]
        if total + pdim[v] <= bound:
            mults[v] = mults.get(v, 0) + 1
            total += pdim[v]
    if not mults:
        return standard_module(alg, "simple", alg.vertices[0])
    term, _ = materialize_term(alg, mults)
    rows = {}
    for v in alg.vertices:
        if term.dims[v] and rng.random() < 0.5:
            rows[v] = [[alg.field.of(rng.randint(-2, 2)) for _ in range(term.dims[v])]]
    quot, _ = quotient_by_submodule(term, submodule_closure(term, rows))
    return quot


def test_standard_modules_shapes(cycle_tail_algebra):
    s1 = standard_module(cycle_tail_algebra, "simple", "1")
    assert s1.dims == {"1": 1, "2": 0, "3": 0, "4": 0}
    p1 = standard_module(cycle_tail_algebra, "projective", "1")
    # paths out of 1: e_1, a, ac, acd
    assert p1.dims == {"1": 1, "2": 1, "3": 1, "4": 1}
    i1 = standard_module(cycle_tail_algebra, "injective", "1")
    # paths into 1: e_1, b
    assert i1.dims == {"1": 1, "2": 1, "3": 0, "4": 0}
    with pytest.raises(DanglingIdError):
        standard_module(cycle_tail_algebra, "simple", "9")
    with pytest.raises(InputError):
        standard_module(cycle_tail_algebra, "flabby", "1")


def test_validate_flags_relation_violations(cycle_tail_algebra):
    # a then b must act as zero; the identity action on 1-dim spaces breaks it
    dims = {"1": 1, "2": 1, "3": 0, "4": 0}
    mats = {
        "a": [[QQ.one]],
        "b": [[QQ.one]],
        "c": [[] for _ in range(1)],
        "d": [],
    }
    rep = Representation(cycle_tail_algebra, dims, mats, validate=False)
    with pytest.raises(ModuleValidationError):
        rep.validate()


def test_module_map_validation(cycle_tail_algebra):
    p1 = standard_module(cycle_tail_algebra, "projective", "1")
    s1 = standard_module(cycle_tail_algebra, "simple", "1")
    blocks = {"1": [[QQ.one]], "2": [[]], "3": [[]], "4": [[]]}
    f = ModuleMap(p1, s1, blocks, validate=True)
    assert not f.is_zero
    bad = {"1": [[QQ.zero]], "2": [[]], "3": [[]], "4": [[]]}
    g = ModuleMap(p1, s1, bad, validate=True)  # zero map always intertwines
    assert g.is_zero
    s2 = standard_module(cycle_tail_algebra, "simple", "2")
    with pytest.raises(ModuleValidationError):
        ModuleMap(p1, s2, {"1": [[]], "2": [[QQ.one]], "3": [[]], "4": [[]]}, validate=True)


def test_hom_out_of_projective_is_evaluation():
    rng = random.Random(400)
    q = Quiver.build(
        ["1", "2", "3"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "2")],
    )
    alg = build_algebra(q, IdealSpec.monomial([("c", "c")], 3), QQ)
    for _ in range(15):
        m = random_module(rng, alg)
        for v in alg.vertices:
            p = standard_module(alg, "projective", v)
            assert len(hom_basis(p, m)) == m.dims[v]


def test_hom_dimension_swaps_under_duality():
    rng = random.Random(401)
    q = Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    alg = build_algebra(q, IdealSpec.monomial([("a", "b"), ("b", "a")], 3), QQ)
    for _ in range(15):
        m = random_module(rng, alg)
        n = random_module(rng, alg)
        lhs = len(hom_basis(m, n))
        rhs = len(hom_basis(dual_module(n), dual_module(m)))
        assert lhs == rhs


def test_double_dual_restores_module_data():
    rng = random.Random(402)
    q = Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    alg = build_algebra(q, IdealSpec.monomial([("a", "b"), ("b", "a")], 4), QQ)
    assert get_opposite(get_opposite(alg)) is alg
    for _ in range(10):
        m = random_module(rng, alg)
        dd = dual_module(dual_module(m))
        assert dd.algebra is m.algebra
        assert dd.equal_to(m)


def test_submodule_closure_embeds_and_quotient_balances():
    rng = random.Random(403)
    q = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    alg = build_algebra(q, IdealSpec.zero(3), QQ)
    for _ in range(15):
        m = random_module(rng, alg)
        rows = {
            v: [[QQ.of(rng.randint(-2, 2)) for _ in range(m.dims[v])]]
            for v in alg.vertices
            if m.dims[v] and rng.random() < 0.6
        }
        closed = submodule_closure(m, rows)
        sub, incl = embed_submodule(m, closed)
        incl.validate()
        quot, proj = quotient_by_submodule(m, closed)
        proj.validate()
        assert sub.total_dim + quot.total_dim == m.total_dim
        # inclusion then projection is zero
        assert incl.compose(proj).is_zero


def test_kernel_image_rank_nullity(cycle_tail_algebra):
    p1 = standard_module(cycle_tail_algebra, "projective", "1")
    m = standard_module(cycle_tail_algebra, "simple", "1")
    blocks = {
        "1": [[QQ.one]],
        "2": [[] for _ in range(p1.dims["2"])],
        "3": [[] for _ in range(p1.dims["3"])],
        "4": [[] for _ in range(p1.dims["4"])],
    }
    f = ModuleMap(p1, m, blocks, validate=True)
    ker, kincl = kernel_of_map(f)
    img, iincl = embed_submodule(m, image_of_map(f))
    kincl.validate()
    iincl.validate()
    for v in cycle_tail_algebra.vertices:
        assert ker.dims[v] + img.dims[v] == p1.dims[v]
    assert img.equal_to(m) or img.dims == m.dims


GF5 = PrimeField(5)

# (vertices, arrows, relations, truncation): a cycle with a tail, and a
# square whose two paths are tied by a non-monomial relation
KERNEL_PRESENTATIONS = (
    (
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "1"), ("c", "2", "3"), ("d", "3", "4")],
        (((1, ("a", "b")),), ((1, ("b", "a")),)),
        4,
    ),
    (
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")],
        (((1, ("a", "b")), (-2, ("c", "d"))),),
        3,
    ),
)


@lru_cache(maxsize=None)
def kernel_test_algebra(which, field):
    vertices, arrows, relations, truncation = KERNEL_PRESENTATIONS[which]
    return build_algebra(
        Quiver.build(vertices, arrows), IdealSpec(relations, truncation), field
    )


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([QQ, GF5]), st.integers(0, 1), st.integers(0, 2**32))
def test_kernel_of_map_matches_left_kernel(F, which, seed):
    rng = random.Random(seed)
    alg = kernel_test_algebra(which, F)
    m = random_module(rng, alg)
    n = random_module(rng, alg)
    blocks = {v: linalg.zeros(m.dims[v], n.dims[v], F) for v in alg.vertices}
    for h in hom_basis(m, n):
        c = F.of(rng.randint(-2, 2))
        for v in alg.vertices:
            blocks[v] = linalg.mat_add(blocks[v], linalg.mat_scale(c, h.blocks[v], F), F)
    maps = [ModuleMap(m, n, blocks), projective_cover_and_syzygy(m).cover]
    for f in maps:
        ker, incl = kernel_of_map(f)
        for v in alg.vertices:
            assert incl.blocks[v] == linalg.left_kernel(f.blocks[v], f.target.dims[v], F)
            assert ker.dims[v] == len(incl.blocks[v])
        incl.validate()
        assert incl.compose(f).is_zero


def test_embed_submodule_rejects_rows_that_are_not_arrow_stable(cycle_tail_algebra):
    p1 = standard_module(cycle_tail_algebra, "projective", "1")
    # the top of P_1 alone: arrow a sends it to vertex 2, where no rows are given
    with pytest.raises(ModuleValidationError, match="not arrow-stable at 'a'"):
        embed_submodule(p1, {"1": linalg.identity(p1.dims["1"], QQ)})


def test_structure_parts_shapes(cycle_tail_algebra):
    p1 = standard_module(cycle_tail_algebra, "projective", "1")
    parts = structure_parts(p1)
    assert parts.top.dims == {"1": 1, "2": 0, "3": 0, "4": 0}
    for v in cycle_tail_algebra.vertices:
        assert parts.radical.dims[v] + parts.top.dims[v] == p1.dims[v]
    i4 = standard_module(cycle_tail_algebra, "injective", "4")
    socle = structure_parts(i4).socle
    assert socle.dims == {"1": 0, "2": 0, "3": 0, "4": 1}
    parts.radical_inclusion.validate()
    parts.top_projection.validate()
    parts.socle_inclusion.validate()


def test_projectivity_detector(cycle_tail_algebra):
    for v in cycle_tail_algebra.vertices:
        assert is_projective_module(standard_module(cycle_tail_algebra, "projective", v))
        assert not is_projective_module(standard_module(cycle_tail_algebra, "simple", v)) or v == "4"
    # the simple at the sink is the projective there
    assert is_projective_module(standard_module(cycle_tail_algebra, "simple", "4"))


def test_largest_supported_submodule_is_maximal(cycle_tail_algebra):
    rng = random.Random(404)
    allowed = {"3", "4"}
    for _ in range(15):
        m = random_module(rng, cycle_tail_algebra)
        rows = largest_submodule_supported(m, allowed)
        sub, incl = embed_submodule(m, rows)
        incl.validate()
        assert all(sub.dims[v] == 0 for v in m.algebra.vertices if v not in allowed)
        quot, _ = quotient_by_submodule(m, rows)
        again = largest_submodule_supported(quot, allowed)
        assert all(not r for r in again.values())


def test_trace_of_projectives_matches_supported_submodule(cycle_tail_algebra):
    # for successor-closed support the trace of the plus projectives is the
    # largest submodule living there
    rng = random.Random(405)
    gens = [standard_module(cycle_tail_algebra, "projective", v) for v in ("3", "4")]
    for _ in range(10):
        m = random_module(rng, cycle_tail_algebra)
        traced = trace_submodule(m, gens)
        supported = largest_submodule_supported(m, {"3", "4"})
        sub_t, _ = embed_submodule(m, traced)
        sub_s, _ = embed_submodule(m, supported)
        assert sub_t.dims == sub_s.dims


def test_heart_parts_on_cycle_tail(cycle_tail_algebra, cycle_tail_quiver):
    hp = cycle_tail_quiver.homological_heart()
    split = IdempotentSplit.from_heart(cycle_tail_quiver, hp.heart)
    p1 = standard_module(cycle_tail_algebra, "projective", "1")
    parts = heart_parts(p1, split)
    assert parts.plus_part.dims == {"1": 0, "2": 0, "3": 1, "4": 1}
    assert parts.quot_by_plus.dims == {"1": 1, "2": 1, "3": 0, "4": 0}
    parts.plus_inclusion.validate()
    parts.quot_by_plus_map.validate()
    # with no minus vertices the minus part is everything
    assert parts.minus_part.dims == p1.dims
    assert parts.quot_by_minus.is_zero


def test_restrict_inflate_roundtrip(cycle_tail_quiver, cycle_tail_ideal, cycle_tail_algebra):
    rng = random.Random(406)
    sub = cycle_tail_quiver.full_subquiver({"1", "2"})
    gamma = restricted_algebra(cycle_tail_quiver, cycle_tail_ideal, sub, QQ)
    for _ in range(10):
        m = random_module(rng, gamma, bound=6)
        big = inflate(m, cycle_tail_algebra)
        big.validate()
        back = restrict(big, gamma)
        assert back.equal_to(m)
    p1 = standard_module(cycle_tail_algebra, "projective", "1")
    with pytest.raises(InputError):
        restrict(p1, gamma)  # support sticks out at 3 and 4


def test_quotient_algebra_as_left_module(cycle_tail_algebra, line_algebra):
    split = IdempotentSplit(frozenset({"1", "2"}), frozenset({"3", "4"}))
    quo = quotient_by_idempotent(cycle_tail_algebra, split)
    gamma_left = left_module_over_opposite(quo)
    gamma_left.validate()
    assert gamma_left.total_dim == quo.dim
    # everything outside the kept block sits strictly above it here
    assert is_projective_module(gamma_left)
    # removing the middle of the line leaves a non-projective left module
    split2 = IdempotentSplit(frozenset({"w"}), frozenset({"v", "x"}))
    quo2 = quotient_by_idempotent(line_algebra, split2)
    left2 = left_module_over_opposite(quo2)
    left2.validate()
    assert not is_projective_module(left2)


def test_zero_module_edge_cases(cycle_tail_algebra):
    z = zero_module(cycle_tail_algebra)
    assert z.is_zero and z.total_dim == 0
    assert is_projective_module(z)
    assert len(hom_basis(z, z)) == 0
