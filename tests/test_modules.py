"""Representations and module maps: duality, submodules, Hom spaces.

Cross-checks lean on classical identities with independent computations:
Hom out of a projective is evaluation at its vertex, duality swaps Hom
arguments, kernels and images obey rank-nullity vertexwise.
"""

import gc
import random
import re
import time
import weakref
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from quiverhom import (
    QQ,
    DanglingIdError,
    IdealSpec,
    InputError,
    ModuleMap,
    ModuleValidationError,
    PrimeField,
    Quiver,
    Representation,
    build_algebra,
    corner_algebra,
    dual_map,
    dual_module,
    embed_submodule,
    get_opposite,
    heart_parts,
    hom_basis,
    inflate,
    is_projective_module,
    kernel_of_map,
    left_module_over_opposite,
    opposite_algebra,
    quotient_by_idempotent,
    quotient_by_submodule,
    restrict,
    restricted_algebra,
    standard_module,
    submodule_closure,
    trace_submodule,
)
from quiverhom import linalg
from quiverhom.homology import ext_dims, materialize_term, projective_cover_and_syzygy
from quiverhom.lab import ALGEBRA_DIM_CAP, _gen_ideal, _gen_quiver

from test_cover_step import path_product
from test_elimination_oracle import oracle_left_kernel


def random_module(rng, alg, bound=8, closure=submodule_closure):
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
    term = materialize_term(alg, mults)
    rows = {}
    for v in alg.vertices:
        if term.dims[v] and rng.random() < 0.5:
            rows[v] = [[alg.field.of(rng.randint(-2, 2)) for _ in range(term.dims[v])]]
    quot, _ = quotient_by_submodule(term, closure(term, rows))
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


def test_construction_flags_relation_violations(cycle_tail_algebra):
    # a then b must act as zero; the identity action on 1-dim spaces breaks it
    dims = {"1": 1, "2": 1, "3": 0, "4": 0}
    mats = {
        "a": [[QQ.one]],
        "b": [[QQ.one]],
        "c": [[] for _ in range(1)],
        "d": [],
    }
    with pytest.raises(ModuleValidationError, match="does not annihilate"):
        Representation(cycle_tail_algebra, dims, mats)


def test_module_map_validation(cycle_tail_algebra):
    p1 = standard_module(cycle_tail_algebra, "projective", "1")
    s1 = standard_module(cycle_tail_algebra, "simple", "1")
    blocks = {"1": [[QQ.one]], "2": [[]], "3": [[]], "4": [[]]}
    f = ModuleMap(p1, s1, blocks)
    assert not f.is_zero
    bad = {"1": [[QQ.zero]], "2": [[]], "3": [[]], "4": [[]]}
    g = ModuleMap(p1, s1, bad)  # zero map always intertwines
    assert g.is_zero
    s2 = standard_module(cycle_tail_algebra, "simple", "2")
    with pytest.raises(ModuleValidationError):
        ModuleMap(p1, s2, {"1": [[]], "2": [[QQ.one]], "3": [[]], "4": [[]]})


@pytest.mark.parametrize("F", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_validated_construction_checks_and_copies(F):
    alg = build_algebra(Quiver.build(["1", "2"], [("a", "1", "2")]), IdealSpec.zero(2), F)
    dims = {"1": 1, "2": 1}
    for d in (2.7, "2", -1, True):
        with pytest.raises(ModuleValidationError, match=f"{d!r} at vertex '1' is not an int >= 0"):
            Representation(alg, {"1": d}, {})
    mats = {"a": [[F.of(2)]]}
    m = Representation(alg, dims, mats)
    blocks = {"1": [[F.of(3)]], "2": [[F.of(3)]]}
    f = ModuleMap(m, m, blocks)
    # the caller's lists are copied: mutating them leaves the module and map unchanged
    mats["a"][0][0] = F.of(4)
    mats["a"].append([F.of(1)])
    blocks["1"][0][0] = F.of(4)
    assert m.mats == {"a": [[F.of(2)]]} and f.blocks == {"1": [[F.of(3)]], "2": [[F.of(3)]]}
    with pytest.raises(InputError, match="not an int or a Fraction"):
        Representation(alg, dims, {"a": [[0.1]]})
    # a bool, and over GF(5) also a Fraction and ints outside [0, 5)
    for x in [True] if F == QQ else [True, Fraction(2), 5, 7]:
        with pytest.raises(ModuleValidationError, match=re.escape(f"entry {x!r} at arrow 'a'")):
            Representation(alg, dims, {"a": [[x]]})
    # the internal builder keeps the lists it is given
    rows = [[F.of(2)]]
    assert Representation._unchecked(alg, dims, {"a": rows}).mats["a"] is rows
    if F != QQ:
        with pytest.raises(ModuleValidationError, match="entry 7 at vertex '1' is not canonical"):
            ModuleMap(m, m, {"1": [[7]], "2": [[2]]})


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


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "GF3"])
def test_dual_map_reverses_a_cover_and_is_an_involution(
    cycle_tail_quiver, cycle_tail_ideal, field
):
    alg = build_algebra(cycle_tail_quiver, cycle_tail_ideal, field)
    rng = random.Random(404)
    modules = [standard_module(alg, "simple", "1"), random_module(rng, alg)]
    for m in modules:
        f = projective_cover_and_syzygy(m).cover
        d = dual_map(f)
        assert d.source.equal_to(dual_module(f.target))
        assert d.target.equal_to(dual_module(f.source))
        ModuleMap(dual_module(f.target), dual_module(f.source), d.blocks)
        assert dual_map(d).blocks == f.blocks


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
    f = ModuleMap(p1, m, blocks)
    ker, kincl = kernel_of_map(f)
    img, iincl = embed_submodule(m, f.blocks)
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
            blocks[v] = [
                [F.add(x, F.mul(c, y)) for x, y in zip(row, hrow)]
                for row, hrow in zip(blocks[v], h.blocks[v])
            ]
    zero = Representation(alg, {}, {})
    # the zero maps have m x 0 and 0 x n blocks at every vertex
    maps = [
        ModuleMap(m, n, blocks),
        projective_cover_and_syzygy(m).cover,
        ModuleMap(m, zero, {}),
        ModuleMap(zero, n, {}),
    ]
    for f in maps:
        # a kernel is a submodule by construction: no arrow-stability re-check
        with mock.patch.object(linalg, "reduce_mod_rowspace", side_effect=AssertionError):
            ker, incl = kernel_of_map(f)
        for v in alg.vertices:
            want = oracle_left_kernel(f.blocks[v], f.target.dims[v], None if F == QQ else F.p)
            assert incl.blocks[v] == want[0]
            assert ker.dims[v] == len(incl.blocks[v])
        # the oracle for that construction: the inclusion intertwines every arrow
        incl.validate()
        assert incl.compose(f).is_zero


@pytest.mark.parametrize("F", [QQ, GF5], ids=["QQ", "GF5"])
@pytest.mark.parametrize("which", [0, 1], ids=["cycle_tail", "square"])
def test_opposite_on_a_non_monomial_ideal(F, which):
    alg = kernel_test_algebra(which, F)
    op = get_opposite(alg)
    assert get_opposite(op) is alg
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert op.table[i].get(j) == alg.table[j].get(i)
    # the transposed table must satisfy the reversed relations
    for v in op.vertices:
        p = standard_module(op, "projective", v)
        Representation(op, p.dims, p.mats)
    for u in alg.vertices:
        s = standard_module(alg, "simple", u)
        for v in alg.vertices:
            inj = standard_module(alg, "injective", v)
            # Hom(S_u, I_v) is one-dimensional exactly when u == v
            want = (int(u == v), 0, 0, 0)
            assert ext_dims(s, inj, 3).dims == want
            assert ext_dims(s, inj, 3, "injective").dims == want



def test_a_dropped_algebra_and_its_opposite_leave_no_cycle():
    # the opposite holds its algebra weakly, so dropping the algebra frees
    # both by reference counting alone, with the cyclic collector off
    q = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")])
    gc.collect()
    gc.disable()
    try:
        alg = build_algebra(q, IdealSpec.zero(3), QQ)
        s = standard_module(alg, "simple", "1")
        assert ext_dims(s, s, 3, side="injective").dims == ext_dims(s, s, 3).dims
        assert get_opposite(get_opposite(alg)) is alg
        del alg, s
        assert gc.collect() == 0
    finally:
        gc.enable()
    # an opposite that outlives its algebra builds its own opposite again
    op = get_opposite(build_algebra(q, IdealSpec.zero(3), QQ))
    back = get_opposite(op)
    assert back is not None and get_opposite(op) is back
    assert [el.arrows for el in back.elements] == [el.arrows[::-1] for el in op.elements]

def test_the_algebra_keeps_its_opposite_and_the_pair_is_freed_when_dropped():
    assert get_opposite is opposite_algebra
    q = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")])
    gc.collect()
    gc.disable()
    try:
        alg = build_algebra(q, IdealSpec.zero(3), QQ)
        op = opposite_algebra(alg)
        assert opposite_algebra(alg) is op and opposite_algebra(op) is alg
        assert dual_module(standard_module(alg, "simple", "1")).algebra is op
        refs = weakref.ref(alg), weakref.ref(op)
        del alg, op
        # reference counting alone frees both, with the cyclic collector off
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("F", [QQ, GF5], ids=["QQ", "GF5"])
@pytest.mark.parametrize(
    "call", [submodule_closure, embed_submodule, quotient_by_submodule], ids=lambda f: f.__name__
)
def test_rows_a_caller_hands_in_are_checked_where_they_enter(F, call):
    # P_1 on 1 -> 2 has dim 1 at both vertices; a non-canonical entry is a
    # bool over QQ and 7 over GF(5)
    alg = build_algebra(Quiver.build(["1", "2"], [("a", "1", "2")]), IdealSpec.zero(2), F)
    p1 = standard_module(alg, "projective", "1")
    loose = True if F == QQ else 7
    for rows, error, message in (
        ({"9": [[1]]}, DanglingIdError, "rows name unknown vertex '9'"),
        ({"2": [[1, 2]]}, ModuleValidationError, "rows at vertex '2' have wrong length, want 1"),
        ({"1": [[0.5]]}, InputError, "coefficient 0.5 is not an int or a Fraction"),
        ({"1": [[loose]]}, ModuleValidationError, f"entry {loose!r} at vertex '1' is not canonical in {F.name}"),
    ):
        with pytest.raises(InputError) as caught:
            call(p1, rows)
        assert type(caught.value) is error and str(caught.value) == message
    # canonical rows of the right length pass: P_1 is the closure of its top
    whole = {"1": [[1]], "2": [[1]]}
    assert submodule_closure(p1, {"1": [[1]]}) == whole
    assert embed_submodule(p1, whole)[0].total_dim == 2 and quotient_by_submodule(p1, whole)[0].is_zero


@pytest.mark.parametrize("F", [QQ, GF5], ids=["QQ", "GF5"])
def test_a_row_or_matrix_that_is_not_a_list_is_a_shape_error(F):
    alg = build_algebra(Quiver.build(["1", "2"], [("a", "1", "2")]), IdealSpec.zero(2), F)
    p1 = standard_module(alg, "projective", "1")
    for call, message in (
        (lambda: Representation(alg, {"1": 1, "2": 1}, {"a": [5]}), "matrix for arrow 'a' has wrong shape, want 1x1"),
        (lambda: Representation(alg, {"1": 1, "2": 1}, {"a": 5}), "matrix for arrow 'a' has wrong shape, want 1x1"),
        (lambda: ModuleMap(p1, p1, {"1": [5]}), "block at vertex '1' has wrong shape"),
        (lambda: ModuleMap(p1, p1, {"1": 5}), "block at vertex '1' has wrong shape"),
        (lambda: submodule_closure(p1, {"1": [5]}), "rows at vertex '1' have wrong length, want 1"),
        (lambda: quotient_by_submodule(p1, {"1": 5}), "rows at vertex '1' have wrong length, want 1"),
        (lambda: embed_submodule(p1, {"2": [5]}), "rows at vertex '2' have wrong length, want 1"),
    ):
        with pytest.raises(ModuleValidationError) as caught:
            call()
        assert str(caught.value) == message
    # rows given as tuples are still read as rows
    assert submodule_closure(p1, {"1": ((1,),)}) == {"1": [[1]], "2": [[1]]}


def test_embed_submodule_rejects_rows_that_are_not_arrow_stable(cycle_tail_algebra):
    p1 = standard_module(cycle_tail_algebra, "projective", "1")
    # the top of P_1 alone: arrow a sends it to vertex 2, where no rows are given
    with pytest.raises(ModuleValidationError, match="not arrow-stable at 'a'"):
        embed_submodule(p1, {"1": linalg.identity(p1.dims["1"], QQ)})


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
        rows = reference_supported(m, allowed)
        sub, incl = embed_submodule(m, rows)
        incl.validate()
        assert all(sub.dims[v] == 0 for v in m.algebra.vertices if v not in allowed)
        quot, _ = quotient_by_submodule(m, rows)
        again = reference_supported(quot, allowed)
        assert all(not r for r in again.values())


def test_trace_of_projectives_matches_supported_submodule(cycle_tail_algebra):
    # for successor-closed support the trace of the plus projectives is the
    # largest submodule living there
    rng = random.Random(405)
    gens = [standard_module(cycle_tail_algebra, "projective", v) for v in ("3", "4")]
    for _ in range(10):
        m = random_module(rng, cycle_tail_algebra)
        traced = trace_submodule(m, gens)
        supported = reference_supported(m, {"3", "4"})
        sub_t, _ = embed_submodule(m, traced)
        sub_s, _ = embed_submodule(m, supported)
        assert sub_t.dims == sub_s.dims


def test_heart_parts_on_cycle_tail(cycle_tail_algebra, cycle_tail_quiver):
    hp = cycle_tail_quiver.homological_heart()
    p1 = standard_module(cycle_tail_algebra, "projective", "1")
    # plus = {3, 4} and minus = {} are read off the heart's boundary split
    parts = heart_parts(p1, hp.heart)
    assert parts.plus_part.dims == {"1": 0, "2": 0, "3": 1, "4": 1}
    assert parts.quot_by_plus.dims == {"1": 1, "2": 1, "3": 0, "4": 0}
    # with no minus vertices the minus part is everything
    assert parts.minus_part.dims == p1.dims


def test_restrict_inflate_roundtrip(cycle_tail_quiver, cycle_tail_ideal, cycle_tail_algebra):
    rng = random.Random(406)
    sub = cycle_tail_quiver.full_subquiver({"1", "2"})
    gamma = restricted_algebra(build_algebra(cycle_tail_quiver, cycle_tail_ideal, QQ), sub)
    for _ in range(10):
        m = random_module(rng, gamma, bound=6)
        big = inflate(m, cycle_tail_algebra)
        big.validate()
        back = restrict(big, gamma)
        assert back.equal_to(m)
    p1 = standard_module(cycle_tail_algebra, "projective", "1")
    with pytest.raises(InputError):
        restrict(p1, gamma)  # support sticks out at 3 and 4


def test_inflate_and_restrict_refuse_a_quiver_that_is_no_full_subquiver():
    # on 1 -> 2, an arrow z of the module's quiver that the ambient quiver lacks was
    # dropped by inflate; a vertex or an arrow restrict could not find was a KeyError
    def algebra_on(vertices, arrows):
        return build_algebra(Quiver.build(vertices, arrows), IdealSpec.zero(2), QQ)

    big = algebra_on(["1", "2"], [("a", "1", "2")])
    small = algebra_on(["1", "2"], [("z", "1", "2")])
    turned = algebra_on(["1", "2"], [("a", "2", "1")])
    bare = algebra_on(["1", "2"], [])
    m = Representation(small, {"1": 1, "2": 1}, {"z": [[QQ.one]]})
    s1 = standard_module(big, "simple", "1")
    cases = [
        (lambda: inflate(m, big), InputError, "arrow 'z' is not the same arrow in the subquiver and the ambient quiver"),
        (lambda: inflate(standard_module(bare, "simple", "1"), big), InputError,
         "arrow 'a' is not the same arrow in the subquiver and the ambient quiver"),
        (lambda: restrict(s1, small), InputError, "arrow 'z' is not the same arrow in the subquiver and the ambient quiver"),
        (lambda: restrict(s1, turned), InputError, "arrow 'a' is not the same arrow in the subquiver and the ambient quiver"),
        (lambda: restrict(s1, algebra_on(["1", "9"], [])), DanglingIdError, "vertex '9' missing from the ambient quiver"),
    ]
    for call, error, message in cases:
        with pytest.raises(InputError) as caught:
            call()
        assert type(caught.value) is error and str(caught.value) == message
    # the full subquiver on {1} passes both ways
    one = algebra_on(["1"], [])
    assert inflate(restrict(s1, one), big).equal_to(s1)


def test_quotient_algebra_as_left_module(cycle_tail_algebra, line_algebra):
    quo = quotient_by_idempotent(cycle_tail_algebra, cycle_tail_algebra.quiver.full_subquiver({"1", "2"}))
    gamma_left = left_module_over_opposite(quo)
    gamma_left.validate()
    assert gamma_left.total_dim == quo.dim
    # everything outside the kept block sits strictly above it here
    assert is_projective_module(gamma_left)
    # removing the middle of the line leaves a non-projective left module
    quo2 = quotient_by_idempotent(line_algebra, line_algebra.quiver.full_subquiver({"w"}))
    left2 = left_module_over_opposite(quo2)
    left2.validate()
    assert not is_projective_module(left2)


def test_zero_module_edge_cases(cycle_tail_algebra):
    z = Representation(cycle_tail_algebra, {}, {})
    assert z.is_zero and z.total_dim == 0
    assert is_projective_module(z)
    assert len(hom_basis(z, z)) == 0


@pytest.mark.parametrize(
    "mults, bad",
    [({"1": 2, "2": -1}, "2"), ({"1": -1}, "1"), ({"1": 1.0}, "1"), ({"1": True}, "1"), ({"1": 1, "2": "1"}, "2")],
)
def test_materialize_term_refuses_a_multiplicity_that_is_not_an_int_at_least_0(mults, bad):
    # on the line 1 -> 2 with J^3 = 0; unchecked, the first four would build
    # P_1^2, the zero module and P_1 in place of the malformed multiplicity
    alg = build_algebra(Quiver.build(["1", "2"], [("a", "1", "2")]), IdealSpec.zero(3), QQ)
    with pytest.raises(InputError, match=f"multiplicity .* of vertex '{bad}'"):
        materialize_term(alg, mults)
    assert materialize_term(alg, {"1": 2, "2": 0}).dims == {"1": 2, "2": 2}


def _compose_mismatched(alg, line):
    p1, s1 = standard_module(alg, "projective", "1"), standard_module(alg, "simple", "1")
    f = ModuleMap(p1, s1, {"1": [[QQ.one]]})
    f.compose(f)  # f ends at S_1, which is not where f starts


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda alg, line: Representation(alg, {"1": 1, "9": 1}, {}), DanglingIdError,
         "module names unknown vertex '9'"),
        (lambda alg, line: Representation(alg, {"1": 1}, {"z": []}), DanglingIdError,
         "module names unknown arrow 'z'"),
        (lambda alg, line: Representation(alg, {"1": 1, "2": 1}, {"a": [[QQ.one, QQ.one]]}),
         ModuleValidationError, "matrix for arrow 'a' has wrong shape, want 1x1"),
        (lambda alg, line: ModuleMap(standard_module(alg, "simple", "1"), standard_module(alg, "simple", "1"),
                                     {"1": [[QQ.one], [QQ.one]]}),
         ModuleValidationError, "block at vertex '1' has wrong shape"),
        (lambda alg, line: ModuleMap(standard_module(alg, "simple", "1"), standard_module(alg, "simple", "1"),
                                     {"9": [[QQ.one]], "1": [[QQ.one]]}),
         DanglingIdError, "map names unknown vertex '9'"),
        (_compose_mismatched, InputError, "composition shapes do not match"),
        (lambda alg, line: materialize_term(alg, {"9": 1}), InputError,
         "unknown vertex id '9' in projective term"),
        (lambda alg, line: inflate(standard_module(line, "simple", "v"), alg), DanglingIdError,
         "vertex 'v' missing from the ambient quiver"),
        (lambda alg, line: hom_basis(standard_module(line, "simple", "v"), standard_module(alg, "simple", "1")),
         InputError, "hom endpoints live over different algebras"),
        (lambda alg, line: ModuleMap(standard_module(line, "simple", "v"), standard_module(alg, "simple", "1"), {}),
         InputError, "module map endpoints live over different algebras"),
        (lambda alg, line: Representation(alg, [("1", 1)], {}), InputError, "module dims must be a mapping, not list"),
        (lambda alg, line: Representation(alg, {"1": 1}, [[1]]), InputError,
         "module matrices must be a mapping, not list"),
        (lambda alg, line: ModuleMap(standard_module(alg, "simple", "1"), standard_module(alg, "simple", "1"), [[1]]),
         InputError, "map blocks must be a mapping, not list"),
        (lambda alg, line: materialize_term(alg, [("1", 1)]), InputError,
         "a projective term must be a mapping, not list"),
        (lambda alg, line: left_module_over_opposite(alg), InputError,
         "need a quotient algebra with parent projection data"),
        (lambda alg, line: left_module_over_opposite(corner_algebra(alg, alg.quiver.full_subquiver({"1", "2"}))),
         InputError, "need a quotient algebra with parent projection data"),
    ],
    ids=["unknown vertex", "unknown arrow", "arrow matrix shape",
         "map block shape", "map vertex",
         "compose shapes", "term vertex", "inflate vertex", "hom across algebras",
         "map across algebras", "dims not a mapping", "matrices not a mapping", "blocks not a mapping",
         "term not a mapping", "left module of no quotient", "left module of a corner"],
)
def test_module_layer_refusals_name_the_culprit(cycle_tail_algebra, line_algebra, call, error, message):
    with pytest.raises(InputError) as caught:
        call(cycle_tail_algebra, line_algebra)
    assert type(caught.value) is error and str(caught.value) == message


# ---------------------------------------------------------------------------
# the path action, and the closed forms of the submodule calculus


GF3 = PrimeField(3)


@pytest.mark.parametrize("F", [QQ, GF3], ids=["QQ", "GF3"])
def test_element_matrices_are_path_products_at_one_product_per_longer_element(F):
    """Each element's matrix equals its path's arrow product, read in index
    order or longest first, and reading them all costs at most one product
    per element of length >= 2."""
    loop = build_algebra(
        Quiver.build(["1"], [("a", "1", "1")]), IdealSpec.monomial([], 20), F
    )
    shift = [[F.one if j == i + 1 else F.zero for j in range(8)] for i in range(8)]
    rng = random.Random(407)
    cases = [(Representation(loop, {"1": 8}, {"a": shift}), list(reversed(range(loop.dim))))]
    for k in range(8):
        alg = kernel_test_algebra(k % 2, F)
        order = list(range(alg.dim))
        cases.append((random_module(rng, alg, bound=10), order if k < 4 else order[::-1]))
    for m, order in cases:
        want = {i: path_product(m, i) for i in order}
        longer = sum(len(el.arrows) >= 2 for el in m.algebra.elements)
        with mock.patch.object(linalg, "mat_mul", wraps=linalg.mat_mul) as mul:
            got = {i: m.element_matrix(i) for i in order}
            assert mul.call_count <= longer
            again = {i: m.element_matrix(i) for i in order}
            assert mul.call_count <= longer
        assert all(again[i] is got[i] for i in order)
        for i in order:
            assert got[i] == want[i]
            types = [[type(x) for row in mat for x in row] for mat in (got[i], want[i])]
            assert types[0] == types[1]
    # the loop's longest element, read first, is a^19 = 0 on the 8-dimensional shift
    assert cases[0][0].element_matrix(loop.dim - 1) == linalg.zeros(8, 8, F)


@pytest.mark.parametrize("F", [QQ, GF3], ids=["QQ", "GF3"])
def test_hom_between_jordan_blocks_of_a_loop_has_dimension_min(F):
    """Over k[a]/(a^20), Hom from the nilpotent Jordan block of size m to the
    one of size n has dimension min(m, n), and every basis map intertwines
    the loop.  The blocks are conjugated by the all-ones lower triangle, so
    their diagonals are nonzero: a loop's equations meet at one variable per
    diagonal entry, which then carries both modules' entries."""
    loop = build_algebra(
        Quiver.build(["1"], [("a", "1", "1")]), IdealSpec.monomial([], 20), F
    )

    def jordan(n):
        shift = [[F.one if j == i + 1 else F.zero for j in range(n)] for i in range(n)]
        lower = [[F.one if j <= i else F.zero for j in range(n)] for i in range(n)]
        inverse = [
            [F.one if j == i else F.neg(F.one) if j == i - 1 else F.zero for j in range(n)]
            for i in range(n)
        ]
        mat = linalg.mat_mul(linalg.mat_mul(lower, shift, n, F), inverse, n, F)
        assert n == 1 or any(mat[i][i] for i in range(n))
        return Representation(loop, {"1": n}, {"a": mat})

    for m_dim in range(1, 5):
        for n_dim in range(1, 5):
            maps = hom_basis(jordan(m_dim), jordan(n_dim))
            assert len(maps) == min(m_dim, n_dim)
            for f in maps:
                ModuleMap(f.source, f.target, f.blocks).validate()


def test_hom_basis_refuses_a_system_past_the_work_budget_before_building_it():
    """Over k[a]/(a^41), End of the nilpotent shift of dim d has d^2 unknowns
    and d^2 equations: d = 20 (160 000 cells) is solved, d = 40 (2 560 000)
    is refused from the dims, with no system allocated."""
    loop = build_algebra(Quiver.build(["1"], [("a", "1", "1")]), IdealSpec.monomial([], 41), QQ)

    def shift(d):
        rows = [[QQ.of(int(j == i + 1)) for j in range(d)] for i in range(d)]
        return Representation(loop, {"1": d}, {"a": rows})

    assert len(hom_basis(shift(20), shift(20))) == 20
    big = shift(40)
    with mock.patch.object(linalg, "zeros", side_effect=AssertionError):
        with pytest.raises(InputError, match="Hom system of 2560000 cells exceeds 1000000"):
            hom_basis(big, big)


def test_a_module_past_the_work_budget_is_refused_before_anything_is_allocated():
    """The constructor counts the parser's cells, sum d_v^2 + sum d_s d_t: on
    one vertex with no arrows, dim 1 000 (10^6 cells) is built and 1 001 is
    refused, as is 10^6, at once and with no matrix allocated."""
    point = build_algebra(Quiver.build(["1"], []), IdealSpec.zero(2), QQ)
    assert Representation(point, {"1": 1000}, {}).total_dim == 1000
    for d in (1001, 10**6):
        t0 = time.perf_counter()
        with mock.patch.object(linalg, "zeros", side_effect=AssertionError), \
                mock.patch.object(linalg, "identity", side_effect=AssertionError):
            with pytest.raises(InputError, match="^module matrices exceed 1000000 units of work$"):
                Representation(point, {"1": d}, {})
        assert time.perf_counter() - t0 < 0.1


def reference_closure(rep, seed_rows):
    """Push the seed spaces along the arrows until nothing grows."""
    F = rep.field
    q = rep.algebra.quiver
    spaces = {v: linalg.rref(seed_rows.get(v, []), rep.dims[v], F)[0] for v in q.vertices}
    changed = True
    while changed:
        changed = False
        for a in q.arrows:
            if not spaces[a.source]:
                continue
            pushed = linalg.mat_mul(spaces[a.source], rep.mats[a.name], rep.dims[a.target], F)
            merged, _ = linalg.rref(spaces[a.target] + pushed, rep.dims[a.target], F)
            if len(merged) != len(spaces[a.target]):
                spaces[a.target] = merged
                changed = True
    return spaces


def reference_supported(rep, allowed):
    """Cut the allowed components by arrow stability until nothing shrinks."""
    F = rep.field
    q = rep.algebra.quiver
    spaces = {v: linalg.identity(rep.dims[v], F) if v in allowed else [] for v in q.vertices}
    changed = True
    while changed:
        changed = False
        for a in q.arrows:
            src = spaces[a.source]
            echelon, pivots = linalg.rref(spaces[a.target], rep.dims[a.target], F)
            free = [j for j in range(rep.dims[a.target]) if j not in pivots]
            if not src or not free:
                continue
            # each arrow image modulo the target space, in free coordinates
            cond = []
            for row in linalg.mat_mul(src, rep.mats[a.name], rep.dims[a.target], F):
                rest = linalg.reduce_mod_rowspace(row, echelon, pivots, F)
                cond.append([rest[j] for j in free])
            kern = oracle_left_kernel(cond, len(free), None if F == QQ else F.p)[0]
            if len(kern) < len(src):
                cut = linalg.mat_mul(kern, src, rep.dims[a.source], F)
                spaces[a.source] = linalg.rref(cut, rep.dims[a.source], F)[0]
                changed = True
    return spaces


def oracle_case(F, which, seed):
    """A module over a mixed-relation algebra or the square, and seeds."""
    rng = random.Random(seed)
    if which == "square":
        alg = kernel_test_algebra(1, F)
    else:
        q = _gen_quiver(rng, 4, 6)
        alg = build_algebra(q, _gen_ideal(rng, q, "mixed"), F)
        assume(alg.dim <= ALGEBRA_DIM_CAP)
    m = random_module(rng, alg, bound=10, closure=reference_closure)
    seeds = {
        v: [[F.of(rng.randint(-2, 2)) for _ in range(m.dims[v])] for _ in range(rng.randint(1, 2))]
        for v in alg.vertices
        if m.dims[v] and rng.random() < 0.5
    }
    return m, seeds


@pytest.mark.parametrize("F", [QQ, GF3], ids=["QQ", "GF3"])
def test_closed_forms_match_the_fixpoint_oracles(F):
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(which=st.sampled_from(["mixed", "square"]), seed=st.integers(0, 2**32))
    def agree(which, seed):
        m, seeds = oracle_case(F, which, seed)
        assert submodule_closure(m, seeds) == reference_closure(m, seeds)

    agree()


@pytest.mark.parametrize("F", [QQ, GF5], ids=["QQ", "GF5"])
def test_socle_is_the_oracle_kernel_of_the_out_arrows(F):
    """At each vertex the socle, the RowSpace left kernel of the out-arrow
    matrices side by side, is the elimination oracle's; with no out-arrows
    it is all of the component."""
    seen = set()

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(which=st.sampled_from(["mixed", "square", "cycle_tail"]), seed=st.integers(0, 2**32))
    def agree(which, seed):
        if which == "cycle_tail":
            m = random_module(random.Random(seed), kernel_test_algebra(0, F), bound=10)
        else:
            m = oracle_case(F, which, seed)[0]
        for v, outs in m.algebra.quiver.out_arrows.items():
            stacked = [[x for a in outs for x in m.mats[a.name][i]] for i in range(m.dims[v])]
            width = sum(m.dims[a.target] for a in outs)
            socle = linalg.RowSpace(stacked, width, F).kernel
            assert socle == oracle_left_kernel(stacked, width, None if F == QQ else F.p)[0]
            if m.dims[v]:
                kind = "zero" if not socle else "whole" if len(socle) == m.dims[v] else "proper"
                seen.add((kind, "out-arrows" if outs else "none"))

    agree()
    want = {("whole", "none"), ("zero", "out-arrows"), ("proper", "out-arrows"), ("whole", "out-arrows")}
    assert seen == want


@pytest.mark.parametrize("F", [QQ, GF3], ids=["QQ", "GF3"])
def test_quotient_projection_is_the_identity_on_free_columns(F):
    rng = random.Random(408)
    shapes = set()
    for _ in range(20):
        alg = kernel_test_algebra(rng.randrange(2), F)
        m = random_module(rng, alg, bound=10)
        seeds = {
            v: [[F.of(rng.randint(-2, 2)) for _ in range(m.dims[v])]]
            for v in alg.vertices
            if m.dims[v] and rng.random() < 0.6
        }
        rows = reference_closure(m, seeds)
        quot, pmap = quotient_by_submodule(m, rows)
        pmap.validate()
        for v in alg.vertices:
            pivots = linalg.rref(rows[v], m.dims[v], F)[1]
            free = [j for j in range(m.dims[v]) if j not in pivots]
            if free != list(range(len(free))):
                shapes.add("pivot before a free column")
            assert quot.dims[v] == len(free)
            assert [pmap.blocks[v][j] for j in free] == linalg.identity(quot.dims[v], F)
            killed = linalg.mat_mul(rows[v], pmap.blocks[v], quot.dims[v], F)
            assert not any(map(any, killed))
    assert "pivot before a free column" in shapes
