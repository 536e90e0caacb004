"""Bound quiver algebras: dimension oracle, table laws, derived algebras.

The dimension oracle re-counts basis paths by walking the quiver and
discarding any word containing a relation path as a contiguous factor;
for monomial ideals this count is the algebra dimension and shares no
code with the echelon-based construction.
"""

import random
import re
import time
from fractions import Fraction

import pytest

from quiverhom import (
    QQ,
    AlgebraHom,
    CompositionError,
    DanglingIdError,
    IdealSpec,
    InputError,
    PrimeField,
    Path,
    Quiver,
    build_algebra,
    corner_algebra,
    opposite_algebra,
    quotient_by_idempotent,
    restricted_algebra,
    triangular_blocks,
    verify_convex_isos,
)
from quiverhom import linalg
from quiverhom.algebra import _RelationSpan, _tables_match
from quiverhom.lab import ALGEBRA_DIM_CAP, _gen_ideal, _gen_quiver

GF3 = PrimeField(3)
GF5 = PrimeField(5)


def relation_free(word, relation_paths):
    """True when no relation path occurs in word as a contiguous factor."""
    bad = [tuple(r) for r in relation_paths]
    return not any(
        word[i : i + len(b)] == b for b in bad for i in range(len(word) - len(b) + 1)
    )


def monomial_dim_oracle(q, relation_paths, truncation):
    count = len(q.vertices)
    frontier = [((), v) for v in q.vertices]
    for _ in range(truncation - 1):
        nxt = []
        for word, end in frontier:
            for a in q.out_arrows[end]:
                grown = word + (a.name,)
                if relation_free(grown, relation_paths):
                    nxt.append((grown, a.target))
        count += len(nxt)
        frontier = nxt
    return count


def random_monomial_setup(rng, max_v=5, max_a=8):
    nv = rng.randint(1, max_v)
    vs = [str(i) for i in range(1, nv + 1)]
    arrows = [
        (f"a{i}", vs[rng.randrange(nv)], vs[rng.randrange(nv)])
        for i in range(rng.randint(0, max_a))
    ]
    q = Quiver.build(vs, arrows)
    trunc = rng.randint(2, 4)
    pool = [p.arrows for p in q.paths_up_to(trunc - 1) if p.length >= 2]
    paths = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(0, 2)) if pool]
    return q, paths, trunc


def test_fixture_dimensions(line_algebra, cycle_tail_algebra, two_cycles_algebra):
    assert line_algebra.dim == 6
    assert cycle_tail_algebra.dim == 11
    assert two_cycles_algebra.dim == 12


def test_fixture_dimensions_match_oracle(
    line_quiver, cycle_tail_quiver, two_cycles_quiver
):
    assert monomial_dim_oracle(line_quiver, [], 3) == 6
    assert monomial_dim_oracle(cycle_tail_quiver, [("a", "b"), ("b", "a")], 4) == 11
    assert (
        monomial_dim_oracle(
            two_cycles_quiver, [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")], 4
        )
        == 12
    )


def test_random_monomial_dimensions_match_oracle():
    rng = random.Random(300)
    for _ in range(60):
        q, paths, trunc = random_monomial_setup(rng)
        ideal = IdealSpec.monomial(paths, trunc)
        for field in (QQ, GF3):
            alg = build_algebra(q, ideal, field)
            assert alg.dim == monomial_dim_oracle(q, paths, trunc)


@pytest.mark.parametrize("F", [QQ, GF3], ids=["QQ", "GF3"])
def test_table_stores_exactly_the_nonzero_monomial_products(F):
    # over a monomial ideal x_i * x_j is the concatenated path when that is
    # composable, shorter than the truncation and relation free, else zero
    rng = random.Random(305)
    for _ in range(40):
        q, paths, trunc = random_monomial_setup(rng)
        alg = build_algebra(q, IdealSpec.monomial(paths, trunc), F)
        index = {el: k for k, el in enumerate(alg.elements)}
        for i, pi in enumerate(alg.elements):
            assert list(alg.table[i]) == sorted(alg.table[i])
            for j, pj in enumerate(alg.elements):
                word = pi.arrows + pj.arrows
                nonzero = (
                    pi.target == pj.source and len(word) < trunc and relation_free(word, paths)
                )
                assert (j in alg.table[i]) == nonzero
                if nonzero:
                    whole = Path(pi.source, word, pj.target)
                    assert alg.table[i][j] == ((index[whole], F.one),)


@pytest.mark.parametrize("F", [QQ, GF3], ids=["QQ", "GF3"])
@pytest.mark.parametrize("style", ["monomial", "mixed"])
def test_no_stored_product_is_empty(F, style):
    rng = random.Random(306)
    for _ in range(40):
        q = _gen_quiver(rng, 4, 6)
        ideal = _gen_ideal(rng, q, style)
        sub = q.full_subquiver(frozenset(v for v in q.vertices if rng.random() < 0.5))
        alg = build_algebra(q, ideal, F)
        for derived in (
            alg,
            corner_algebra(alg, sub),
            quotient_by_idempotent(alg, sub),
            restricted_algebra(alg, sub),
            opposite_algebra(alg),
        ):
            for row in derived.table:
                assert list(row) == sorted(row)
                assert all(row.values())
                assert all(j < derived.dim for j in row)


def _random_element(rng, alg, F):
    picked = rng.sample(range(alg.dim), min(alg.dim, 3))
    values = (F.of(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in picked)
    return {i: c for i, c in zip(picked, values) if c}


@pytest.mark.parametrize("F", [QQ, GF5], ids=["QQ", "GF5"])
def test_elements_hold_only_nonzero_canonical_values(F):
    # what makes == on element dicts the equality of elements
    def check(x):
        assert all(c and F.of(c) == c for c in x.values())

    rng = random.Random(307)
    for _ in range(30):
        q = _gen_quiver(rng, 4, 6)
        ideal = _gen_ideal(rng, q, "mixed")
        sub = q.full_subquiver(frozenset(v for v in q.vertices if rng.random() < 0.5))
        alg = build_algebra(q, ideal, F)
        quo = quotient_by_idempotent(alg, sub)
        for derived in (alg, corner_algebra(alg, sub), quo, opposite_algebra(alg)):
            for row in derived.table:
                for entry in row.values():
                    check(dict(entry))
        for _ in range(10):
            x, y = _random_element(rng, alg, F), _random_element(rng, alg, F)
            check(alg.mul(x, y))
            if quo is not alg:
                check(quo.parent_projection(x))


@pytest.mark.parametrize("F", [QQ, GF5], ids=["QQ", "GF5"])
def test_from_images_reads_its_images_as_canonical_elements(F, cycle_tail_quiver, cycle_tail_ideal):
    alg = build_algebra(cycle_tail_quiver, cycle_tail_ideal, F)
    corner = corner_algebra(alg, cycle_tail_quiver.full_subquiver({"1", "2"}))
    pos = {g: i for i, g in enumerate(corner.parent_indices)}

    def flags(images):
        hom = AlgebraHom.from_images(alg, corner, images)
        got = (hom.multiplicative, hom.unital, hom.unit_image_idempotent)
        return got + (hom.surjective, hom.injective), hom.images

    # the corner map, and twice it
    for scale, want_flags in ((1, (True, True, True, True, False)), (2, (False,) * 3 + (True, False))):
        canonical = [{pos[g]: scale} if g in pos else {} for g in range(alg.dim)]
        want = flags(canonical)
        assert want[0] == want_flags
        padded = [{**dict.fromkeys(range(corner.dim), 0), **im} for im in canonical]
        assert flags(padded) == want
        if F is GF5:
            assert flags([{k: c + 5 for k, c in im.items()} for im in canonical]) == want


@pytest.mark.parametrize("F", [QQ, GF3], ids=["QQ", "GF3"])
def test_quotient_drops_products_that_fall_into_the_ideal(F):
    # ab = 2cd, so killing vertex 3 kills ab although a and b survive
    q = Quiver.build(
        ["1", "2", "3", "4"], [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")]
    )
    alg = build_algebra(q, IdealSpec((((1, ("a", "b")), (-2, ("c", "d"))),), 3), F)
    a = alg.elements.index(Path("1", ("a",), "2"))
    b = alg.elements.index(Path("2", ("b",), "4"))
    assert alg.table[a][b]
    quo = quotient_by_idempotent(alg, q.full_subquiver({"1", "2", "4"}))
    assert quo.dim == 5
    qa, qb = quo.parent_indices.index(a), quo.parent_indices.index(b)
    assert qb not in quo.table[qa]
    assert quo.mul({qa: F.one}, {qb: F.one}) == {}


def test_multiplication_table_is_associative():
    rng = random.Random(301)
    for _ in range(10):
        q, paths, trunc = random_monomial_setup(rng, max_v=3, max_a=5)
        alg = build_algebra(q, IdealSpec.monomial(paths, trunc), QQ)
        for i in range(alg.dim):
            x = {i: QQ.one}
            for j in range(alg.dim):
                y = {j: QQ.one}
                xy = alg.mul(x, y)
                for k in range(alg.dim):
                    z = {k: QQ.one}
                    assert alg.mul(xy, z) == alg.mul(x, alg.mul(y, z))


def test_unit_and_vertex_idempotents(cycle_tail_algebra):
    alg = cycle_tail_algebra
    one = alg.unit()
    for i in range(alg.dim):
        x = {i: QQ.one}
        assert alg.mul(one, x) == x
        assert alg.mul(x, one) == x
    for u in alg.vertices:
        eu = alg.vertex_idempotent({u})
        assert alg.mul(eu, eu) == eu
        for v in alg.vertices:
            if v != u:
                ev = alg.vertex_idempotent({v})
                assert alg.mul(eu, ev) == {}


def test_products_respect_endpoint_idempotents(cycle_tail_algebra):
    # e_u * p * e_v picks out exactly the basis paths from u to v
    alg = cycle_tail_algebra
    for i, el in enumerate(alg.elements):
        x = {i: QQ.one}
        eu = alg.vertex_idempotent({el.source})
        ev = alg.vertex_idempotent({el.target})
        assert alg.mul(eu, alg.mul(x, ev)) == x


def test_radical_chain_vanishes_at_truncation():
    rng = random.Random(302)
    for _ in range(20):
        q, paths, trunc = random_monomial_setup(rng, max_v=4, max_a=6)
        alg = build_algebra(q, IdealSpec.monomial(paths, trunc), QQ)
        layer = [{i: QQ.one} for i in alg.radical_indices]
        for _ in range(trunc - 1):
            layer = [
                alg.mul(x, {j: QQ.one})
                for x in layer
                for j in alg.radical_indices
            ]
            # dropping exact zeros keeps the product count bounded
            layer = [x for x in layer if x]
        assert layer == []


def test_relation_images_vanish(cycle_tail_algebra):
    alg = cycle_tail_algebra
    names = [el.label() for el in alg.elements]
    assert "a*b" not in names and "b*a" not in names
    ia = names.index("a")
    ib = names.index("b")
    assert alg.mul({ia: QQ.one}, {ib: QQ.one}) == {}
    assert alg.mul({ib: QQ.one}, {ia: QQ.one}) == {}


def test_mixed_relation_collapses_parallel_paths():
    q = Quiver.build(
        ["1", "2", "3"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "2"), ("d", "2", "3")],
    )
    # identify the two length-2 routes, keep everything else
    ideal = IdealSpec((((1, ("a", "b")), (-1, ("c", "d"))),), 3)
    alg = build_algebra(q, ideal, QQ)
    # 3 verts + 4 arrows + length-2 paths {ab, ad, cb, cd} minus one identification
    assert alg.dim == 3 + 4 + 4 - 1
    names = {el.label(): i for i, el in enumerate(alg.elements)}
    ia, ib = names["a"], names["b"]
    ic, idd = names["c"], names["d"]
    ab = alg.mul({ia: QQ.one}, {ib: QQ.one})
    cd = alg.mul({ic: QQ.one}, {idd: QQ.one})
    assert ab == cd


@pytest.mark.parametrize("F", [QQ, GF5], ids=["QQ", "GF5"])
def test_a_relation_over_several_buckets_is_its_components(F, cycle_tail_quiver):
    # ab runs 1 -> 1 and cd runs 2 -> 4: the vertex idempotents pick each term
    # out of 2ab - 3cd, so it spans the ideal of the two relations ab and cd
    mixed = IdealSpec((((2, ("a", "b")), (-3, ("c", "d"))),), 4)
    whole = build_algebra(cycle_tail_quiver, mixed, F)
    apart = build_algebra(cycle_tail_quiver, IdealSpec.monomial([("a", "b"), ("c", "d")], 4), F)

    def typed(table):
        return [[(j, [(k, type(c), c) for k, c in entry]) for j, entry in row.items()] for row in table]

    assert whole.elements == apart.elements
    assert typed(whole.table) == typed(apart.table)


@pytest.mark.parametrize("word", [("a", "a"), ("a", "a", "a")], ids=["short", "at-truncation"])
def test_a_coefficient_outside_the_field_is_refused_at_build(word):
    # aaa lies in J^3 and never reaches the span, yet 1/5 is refused there as
    # on a shorter term: it used to build, and every checked module then failed
    loop = Quiver.build(["1"], [("a", "1", "1")])
    with pytest.raises(InputError, match=r"^denominator of 1/5 vanishes in GF\(5\)$"):
        build_algebra(loop, IdealSpec((((Fraction(1, 5), word),),), 3), GF5)


def test_truncation_below_two_rejected():
    with pytest.raises(InputError):
        IdealSpec.zero(1)


@pytest.mark.parametrize("bad", [3.5, 3.0, True, "3"])
def test_a_truncation_that_is_not_an_int_is_input_error(bad):
    # 3.5 used to be accepted and to fail later in build_algebra with TypeError
    with pytest.raises(InputError, match=f"^truncation must be an int, got {bad!r}$"):
        IdealSpec((), bad)


def test_relation_validation_errors(cycle_tail_quiver):
    bad_arrow = IdealSpec((((1, ("a", "zz")),),), 4)
    with pytest.raises(DanglingIdError):
        build_algebra(cycle_tail_quiver, bad_arrow, QQ)
    non_composable = IdealSpec((((1, ("a", "a")),),), 4)
    with pytest.raises(CompositionError):
        build_algebra(cycle_tail_quiver, non_composable, QQ)


def test_a_relation_path_given_as_a_string_is_refused():
    # read as its characters, "ab" would be the path a*b and "a1a2" would name arrow a
    q = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("a1", "1", "2"), ("a2", "2", "3")])
    for word in ("ab", "a1a2"):
        message = f"^a relation path is a sequence of arrow names, not the string '{word}'$"
        with pytest.raises(InputError, match=message):
            IdealSpec.monomial([word], 3)
        with pytest.raises(InputError, match=message):
            build_algebra(q, IdealSpec((((1, word),),), 3), QQ)
    assert build_algebra(q, IdealSpec.monomial([("a", "b")], 3), QQ).dim == 10


@pytest.mark.parametrize(
    "relations, message",
    [
        (None, "the relations are a collection of relations, not None"),
        (5, "the relations are a collection of relations, not 5"),
        ("ab", "the relations are a collection of relations, not the string 'ab'"),
        ((5,), "a relation is a collection of terms, not 5"),
        (((1, ("a", "b")),), "a relation term is a (coefficient, path) pair, not 1"),
        ((((1, 2, ("a", "b")),),), "a relation term is a (coefficient, path) pair, not (1, 2, ('a', 'b'))"),
        ((((1,),),), "a relation term is a (coefficient, path) pair, not (1,)"),
        ((((1, 5),),), "a relation path is a sequence of arrow names, not 5"),
    ],
    ids=["none", "int", "string", "bare-relation", "bare-term", "long-term", "short-term", "int-path"],
)
def test_a_malformed_ideal_spec_is_an_input_error(relations, message):
    # each of these used to raise TypeError or ValueError while it was unpacked
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        IdealSpec(relations, 3)


def test_a_relation_path_given_as_a_list_is_kept_as_a_tuple():
    q = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    listed = IdealSpec([[(1, ["a", "b"])]], 3)
    tupled = IdealSpec((((1, ("a", "b")),),), 3)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert repr(listed) == repr(tupled) == "IdealSpec(relations=(((1, ('a', 'b')),),), truncation=3)"
    assert build_algebra(q, listed, QQ).dim == build_algebra(q, tupled, QQ).dim == 5


def test_corner_quotient_restricted_agree_on_convex(cycle_tail_quiver, cycle_tail_ideal):
    sub = cycle_tail_quiver.full_subquiver({"1", "2"})
    report = verify_convex_isos(build_algebra(cycle_tail_quiver, cycle_tail_ideal, QQ), sub)
    assert report.convex
    assert report.ok
    assert report.dims_agree
    assert report.corner_dim == 4


def test_nonconvex_corner_quotient_mismatch(line_quiver, line_ideal):
    sub = line_quiver.full_subquiver({"v", "x"})
    report = verify_convex_isos(build_algebra(line_quiver, line_ideal, QQ), sub)
    assert not report.convex
    assert report.corner_dim == 3
    assert report.quotient_dim == 2
    assert not report.dims_agree
    failed = {e.name for e in report.failed_entries()}
    assert "corner_quotient_dims" in failed


def test_triangular_blocks_on_one_sided_split(cycle_tail_quiver, cycle_tail_ideal):
    alg = build_algebra(cycle_tail_quiver, cycle_tail_ideal, QQ)
    sub = cycle_tail_quiver.full_subquiver({"1", "2"})
    tb = triangular_blocks(alg, sub)
    assert tb.dim_eprime_e == 0
    assert tb.upper_triangular
    assert tb.total == alg.dim
    assert tb.dim_ee == 4
    assert tb.dim_ee + tb.dim_e_eprime + tb.dim_eprime_eprime == 11


def test_peirce_dimensions_partition_basis():
    rng = random.Random(303)
    for _ in range(20):
        q, paths, trunc = random_monomial_setup(rng)
        alg = build_algebra(q, IdealSpec.monomial(paths, trunc), QQ)
        total = 0
        for u in alg.vertices:
            for v in alg.vertices:
                total += sum(1 for el in alg.elements if el.source == u and el.target == v)
        assert total == alg.dim


def _reversed_label(el):
    return el.label() if el.length == 0 else "*".join(reversed(el.arrows))


def test_opposite_is_involutive_and_reverses_products():
    rng = random.Random(304)
    for _ in range(10):
        q, paths, trunc = random_monomial_setup(rng, max_v=4, max_a=6)
        alg = build_algebra(q, IdealSpec.monomial(paths, trunc), QQ)
        op = opposite_algebra(alg)
        assert op.dim == alg.dim
        assert opposite_algebra(op).dim == alg.dim
        # basis paths correspond by arrow reversal and products anti-commute
        to_op = {}
        op_by_label = {el.label(): k for k, el in enumerate(op.elements)}
        for i, el in enumerate(alg.elements):
            to_op[i] = op_by_label[_reversed_label(el)]
        for i in range(alg.dim):
            for j in range(alg.dim):
                prod = alg.mul({i: QQ.one}, {j: QQ.one})
                oprod = op.mul({to_op[j]: QQ.one}, {to_op[i]: QQ.one})
                assert {to_op[k]: c for k, c in prod.items()} == oprod


def test_quotient_kills_exactly_paths_through_removed_block(cycle_tail_algebra):
    quo = quotient_by_idempotent(cycle_tail_algebra, cycle_tail_algebra.quiver.full_subquiver({"1", "2"}))
    assert quo.dim == 4
    assert all(el.source in {"1", "2"} and el.target in {"1", "2"} for el in quo.elements)


def test_restricted_algebra_intersects_relations(two_cycles_quiver, two_cycles_ideal):
    sub = two_cycles_quiver.full_subquiver({"3", "4"})
    gamma = restricted_algebra(build_algebra(two_cycles_quiver, two_cycles_ideal, QQ), sub)
    assert gamma.dim == 4
    labels = {el.label() for el in gamma.elements}
    assert labels == {"e_3", "e_4", "c", "d"}


def test_a_restriction_is_presented_by_the_rows_whose_pivot_holds_no_other():
    # two loops a, b at 1 and c: 1 -> 2, bound by aa and J^9: the restriction
    # to {1} is the words in a, b avoiding aa, and aa alone presents it; fed
    # every echelon row of the span again, the rebuild was refused past MAX_WORK
    q = Quiver.build(["1", "2"], [("a", "1", "1"), ("b", "1", "1"), ("c", "1", "2")])
    alg = build_algebra(q, IdealSpec.monomial([("a", "a")], 9), QQ)
    assert alg.dim == 230
    gamma = restricted_algebra(alg, q.full_subquiver({"1"}))
    assert gamma.dim == 142 == monomial_dim_oracle(gamma.quiver, [("a", "a")], 9)
    assert gamma.ideal.relations == (((1, ("a", "a")),),)


def test_restricted_algebra_is_kept_by_the_algebra(cycle_tail_quiver, cycle_tail_ideal):
    alg = build_algebra(cycle_tail_quiver, cycle_tail_ideal, QQ)
    gamma = restricted_algebra(alg, cycle_tail_quiver.full_subquiver({"1", "2"}))
    assert restricted_algebra(alg, cycle_tail_quiver.full_subquiver({"2", "1"})) is gamma
    assert restricted_algebra(alg, cycle_tail_quiver.full_subquiver({"1", "2", "3", "4"})) is alg


SPLIT_CALLS = (
    corner_algebra, quotient_by_idempotent, triangular_blocks, restricted_algebra, verify_convex_isos
)


def test_a_vertex_set_in_place_of_a_subquiver_is_an_input_error(cycle_tail_algebra):
    q = cycle_tail_algebra.quiver
    calls = [lambda vs, call=call: call(cycle_tail_algebra, vs) for call in SPLIT_CALLS]
    for vs, kind in ((frozenset({"1"}), "frozenset"), ({"1"}, "set"), (["1"], "list"), ("1", "str")):
        for call in (*calls, q.boundary_split, q.is_convex):
            with pytest.raises(InputError) as caught:
                call(vs)
            assert type(caught.value) is InputError
            assert str(caught.value) == f"a subquiver is a FullSubquiver from Quiver.full_subquiver, not {kind}"


def test_the_table_comparison_names_a_basis_path_one_side_lacks():
    # found by search over lab-drawn algebras: the loop l at 1, x: 1 -> 2 and
    # y: 2 -> 1, bound by y*l, l*x and l*l + x*y; {1} is not convex, and its
    # corner keeps x*y where the restriction, which never sees x*y, keeps l*l
    q = Quiver.build(["1", "2"], [("y", "2", "1"), ("l", "1", "1"), ("x", "1", "2")])
    ideal = IdealSpec((((1, ("y", "l")),), ((1, ("l", "x")),), ((1, ("l", "l")), (1, ("x", "y")))), 3)
    for F in (QQ, PrimeField(2)):
        report = verify_convex_isos(build_algebra(q, ideal, F), q.full_subquiver({"1"}))
        assert not report.convex and report.ok
        assert (report.corner_dim, report.quotient_dim, report.restricted_dim) == (3, 2, 3)
        entries = {e.name: e for e in report.entries}
        assert not entries["corner_restricted_tables"].passed
        assert entries["corner_restricted_tables"].detail == "basis paths differ, e.g. l*l"
        assert entries["corner_quotient_tables"].detail == "dimension 3 != 2"


@pytest.mark.parametrize("F", [QQ, GF3], ids=["QQ", "GF3"])
def test_the_table_comparison_names_the_first_product_that_disagrees(F):
    """Inside ``verify_convex_isos`` equal basis paths force equal products:
    the restriction's ideal lies in the ambient one, and a quotient that keeps
    every corner path kills nothing there.  So two algebras are compared
    directly: loops c, d at one vertex with cc = dd = 0, one bound by cd = dc
    and one by cd = -dc, share the basis e_1, c, d, d*c."""
    one = Quiver.build(["1"], [("c", "1", "1"), ("d", "1", "1")])

    def bound(sign):
        rels = (((1, ("c", "c")),), ((1, ("d", "d")),), ((1, ("c", "d")), (sign, ("d", "c"))))
        return build_algebra(one, IdealSpec(rels, 3), F)

    commuting, anti = bound(-1), bound(1)
    assert [el.label() for el in commuting.elements] == [el.label() for el in anti.elements] == ["e_1", "c", "d", "d*c"]
    assert _tables_match(commuting, anti) == (False, "product c * d disagrees")
    assert _tables_match(commuting, commuting) == (True, "")


def test_a_split_needs_the_algebras_own_presented_quiver(cycle_tail_algebra, line_quiver):
    sub = cycle_tail_algebra.quiver.full_subquiver({"1", "2"})
    for derived in (corner_algebra(cycle_tail_algebra, sub), quotient_by_idempotent(cycle_tail_algebra, sub)):
        for call in SPLIT_CALLS:
            with pytest.raises(InputError, match="needs a presented algebra"):
                call(derived, sub)
        # a table-backed algebra has no relation span to close its basis under prefixes
        with pytest.raises(InputError, match="^a projective layout needs a presented algebra"):
            derived.projective_layout
    other = line_quiver.full_subquiver({"v"})
    for call in SPLIT_CALLS:
        with pytest.raises(InputError, match="not a full subquiver of the algebra's quiver"):
            call(cycle_tail_algebra, other)
    # a vertex set is checked where the subquiver is made, so no split names
    # a vertex the quiver lacks (e = {"9"} used to give a dim-0 corner)
    with pytest.raises(DanglingIdError, match="unknown vertex id '9'"):
        cycle_tail_algebra.quiver.full_subquiver({"9"})


def test_corner_of_the_whole_quiver_is_the_algebra_itself(cycle_tail_algebra):
    whole = cycle_tail_algebra.quiver.full_subquiver({"1", "2", "3", "4"})
    assert corner_algebra(cycle_tail_algebra, whole) is cycle_tail_algebra
    assert quotient_by_idempotent(cycle_tail_algebra, whole) is cycle_tail_algebra


def test_prime_field_algebra_matches_rational_dimension(cycle_tail_quiver, cycle_tail_ideal):
    alg5 = build_algebra(cycle_tail_quiver, cycle_tail_ideal, PrimeField(5))
    assert alg5.dim == 11


def eager_table(q, ideal, F):
    """The product table pair by pair: concatenate, then reduce in the span."""
    span = _RelationSpan(q, ideal, F)
    path_index = {p: g for g, p in enumerate(span.paths)}
    pivots = {span.buckets[key][c] for key, (_, cols) in span.bucket_rref.items() for c in cols}
    basis = [g for g in range(len(span.paths)) if g not in pivots]
    pos = {g: k for k, g in enumerate(basis)}
    table = []
    for gi in basis:
        pi = span.paths[gi]
        row = {}
        for j, gj in enumerate(basis):
            pj = span.paths[gj]
            if pi.target != pj.source or pi.length + pj.length >= ideal.truncation:
                continue
            g = path_index[Path(pi.source, pi.arrows + pj.arrows, pj.target)]
            key = (pi.source, pj.target)
            local = span.buckets[key]
            unit = [F.one if h == g else F.zero for h in local]
            reduced = linalg.reduce_mod_rowspace(unit, *span.bucket_rref.get(key, ([], [])), F)
            entry = tuple((pos[local[k]], c) for k, c in enumerate(reduced) if c)
            if entry:
                row[j] = entry
        table.append(list(row.items()))
    return table


LOOPS_AND_TAIL = Quiver.build(["1", "2"], [("a", "1", "1"), ("b", "1", "1"), ("c", "1", "2")])


@pytest.mark.parametrize("F", [QQ, GF3], ids=["QQ", "GF3"])
@pytest.mark.parametrize(
    "ideal",
    [
        IdealSpec.monomial([("a", "b")], 7),
        IdealSpec((((1, ("a", "b")), (-1, ("b", "a"))),), 7),
    ],
    ids=["monomial", "mixed"],
)
def test_presented_table_is_built_on_first_read(F, ideal):
    alg = build_algebra(LOOPS_AND_TAIL, ideal, F)
    assert alg.dim == 50 > ALGEBRA_DIM_CAP
    assert "table" not in vars(alg)
    assert [list(row.items()) for row in alg.table] == eager_table(LOOPS_AND_TAIL, ideal, F)
    # built once, then a plain attribute; the relation span is kept for derived algebras
    assert vars(alg)["table"] is alg.table
    assert isinstance(vars(alg)["_span"], _RelationSpan)


def counted_floor(q, ideal):
    """Σ over (source, target) buckets of max(0, paths - relation rows), from
    listed paths: one row per (prefix, suffix) pair fitting below the truncation."""
    n = ideal.truncation
    paths = q.paths_up_to(n - 1)
    size, rows = {}, {}
    for p in paths:
        size[(p.source, p.target)] = size.get((p.source, p.target), 0) + 1
    for src, tgt, terms in ideal.uniform_relations(q):
        shortest = min(len(arrows) for _, arrows in terms)
        for pre in paths:
            for suf in paths:
                if pre.target == src and suf.source == tgt and pre.length + shortest + suf.length < n:
                    rows[(pre.source, suf.target)] = rows.get((pre.source, suf.target), 0) + 1
    return sum(max(0, c - rows.get(b, 0)) for b, c in size.items())


# ab and cde run 1 -> 3, and the loop f at 3 gives rows where only ab f fits
SPLIT_PATHS = Quiver.build(
    ["1", "2", "3", "4", "5"],
    [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "4"), ("d", "4", "5"), ("e", "5", "3"), ("f", "3", "3")],
)


@pytest.mark.parametrize("F", [QQ, GF3], ids=["QQ", "GF3"])
@pytest.mark.parametrize(
    "ideal, dims",
    [
        # two terms of different lengths
        (IdealSpec((((1, ("a", "b")), (-1, ("c", "d", "e"))),), 4), {QQ: 21, GF3: 21}),
        # one path twice: every row is zero, and the floor counts each row anyway
        (IdealSpec((((1, ("a", "b")), (-1, ("a", "b"))),), 4), {QQ: 23, GF3: 23}),
        # a coefficient that vanishes mod 3
        (IdealSpec((((3, ("a", "b")),),), 4), {QQ: 21, GF3: 23}),
    ],
    ids=["unequal-lengths", "repeated-path", "zero-mod-3"],
)
def test_dimension_floor_counts_rows_per_bucket(F, ideal, dims):
    alg = build_algebra(SPLIT_PATHS, ideal, F)
    assert "_span" not in vars(alg)
    assert alg.dim_floor == counted_floor(SPLIT_PATHS, ideal) == 21
    assert alg.dim == dims[F] >= alg.dim_floor


@pytest.mark.parametrize("F", [QQ, GF3], ids=["QQ", "GF3"])
def test_floor_past_the_cap_settles_it_without_a_span(F):
    alg = build_algebra(LOOPS_AND_TAIL, IdealSpec.monomial([("a", "c")], 7), F)
    assert alg.dim_floor == counted_floor(LOOPS_AND_TAIL, alg.ideal) > ALGEBRA_DIM_CAP
    assert alg.dim_exceeds(ALGEBRA_DIM_CAP)
    assert "_span" not in vars(alg) and "elements" not in vars(alg)
    # an over-cap algebra still works in full when read
    assert alg.dim == 160 and len(alg.table) == 160 and alg.idempotent_index == {"1": 0, "2": 1}
    # a floor under the cap leaves the question to the basis
    alg = build_algebra(LOOPS_AND_TAIL, IdealSpec.monomial([("a", "a")], 7), F)
    assert alg.dim_floor == 15 and alg.dim_exceeds(ALGEBRA_DIM_CAP) and alg.dim == 86


def test_path_count_walk_stops_at_the_budget():
    # a loop has one path of each length: the walk is refused after ~143
    # levels, long before truncation 10**9
    loop = Quiver.build(["1"], [("a", "1", "1")])
    t0 = time.perf_counter()
    with pytest.raises(InputError, match="units of work"):
        build_algebra(loop, IdealSpec.zero(10**9), QQ)
    assert time.perf_counter() - t0 < 0.1
    # without a cycle the walk ends by itself, far below the truncation
    edge = Quiver.build(["1", "2"], [("a", "1", "2")])
    assert build_algebra(edge, IdealSpec.zero(10**9), QQ).dim == 3


@pytest.mark.parametrize("F", [QQ, PrimeField(2), GF3], ids=["QQ", "GF2", "GF3"])
def test_the_basis_is_closed_under_prefixes_and_each_layout_record_is_one_arrow(F):
    """Every prefix and every suffix of a basis path is a basis path, on drawn
    presentations, their opposites and their restrictions to convex closures,
    and each layout record is its element's prefix followed by one arrow."""
    rng = random.Random(419)
    checked = 0
    while checked < 600:
        q = _gen_quiver(rng, 5, 7)
        alg = build_algebra(q, _gen_ideal(rng, q, rng.choice(["mixed", "monomial"])), F)
        hull = q.convex_closure({v for v in q.vertices if rng.random() < 0.5})
        if alg.dim_exceeds(ALGEBRA_DIM_CAP):
            continue
        checked += 1
        for derived in (alg, opposite_algebra(alg), restricted_algebra(alg, hull)):
            paths = {(el.source, el.arrows) for el in derived.elements}
            layout = derived.projective_layout
            for i, el in enumerate(derived.elements):
                if el.arrows:
                    assert (el.source, el.arrows[:-1]) in paths
                    assert (derived.quiver.arrow_by_name[el.arrows[0]].target, el.arrows[1:]) in paths
                w, pre, arrow = layout.prefix[i]
                assert w == el.target and arrow == (el.arrows[-1] if el.arrows else None)
                if len(el.arrows) > 1:
                    assert 0 <= pre < i and derived.elements[pre].arrows == el.arrows[:-1]
                    assert derived.elements[pre].source == el.source
                else:
                    assert pre == -1


def relabelled(alg, rng):
    """alg presented again with its vertex and arrow orders shuffled and every
    name replaced, the ideal carried over; with the map on vertex names."""
    q = alg.quiver
    vname = dict(zip(q.vertices, rng.sample([f"w{k}" for k in range(len(q.vertices))], len(q.vertices))))
    aname = dict(zip([a.name for a in q.arrows], rng.sample([f"x{k}" for k in range(len(q.arrows))], len(q.arrows))))
    vertices = rng.sample([vname[v] for v in q.vertices], len(q.vertices))
    arrows = rng.sample([(aname[a.name], vname[a.source], vname[a.target]) for a in q.arrows], len(q.arrows))
    rels = tuple(tuple((c, tuple(aname[x] for x in p)) for c, p in rel) for rel in alg.ideal.relations)
    return build_algebra(Quiver.build(vertices, arrows), IdealSpec(rels, alg.ideal.truncation), alg.field), vname


@pytest.mark.parametrize("F", [QQ, PrimeField(2), GF3], ids=["QQ", "GF2", "GF3"])
def test_relabelling_leaves_the_subquiver_comparison_alone(F):
    """The corner, quotient and restricted dimensions are invariants of the
    algebra and the vertex set, so they survive a relabelling, and on a
    convex subquiver so does every check.  On one that is not convex the
    tables are paired by basis paths, which follow the arrow order, so a
    table check may pass in one labelling and fail in another: only the
    dimensions and ``ok`` are compared there."""
    rng = random.Random(71)
    seen = {True: 0, False: 0}
    while sum(seen.values()) < 180:
        q = _gen_quiver(rng, *rng.choice([(4, 6), (8, 12)]))
        alg = build_algebra(q, _gen_ideal(rng, q, rng.choice(["mixed", "monomial"])), F)
        if alg.dim_exceeds(ALGEBRA_DIM_CAP):
            continue
        other, vname = relabelled(alg, rng)
        picked = {v for v in q.vertices if rng.random() < 0.5}
        for sub in (q.full_subquiver(picked), q.convex_closure(picked), q.full_subquiver(set(q.vertices) - picked)):
            got = verify_convex_isos(alg, sub)
            moved = verify_convex_isos(other, other.quiver.full_subquiver({vname[v] for v in sub.vertex_set}))
            assert moved.convex == got.convex
            assert (moved.corner_dim, moved.quotient_dim, moved.restricted_dim, moved.ok) == (
                got.corner_dim, got.quotient_dim, got.restricted_dim, got.ok
            )
            if got.convex:
                assert moved.entries == got.entries
            seen[got.convex] += 1
    assert seen[False] >= 20
