"""Resolutions, Ext tables, dimension bounds, and resolution transport.

Independent anchors: hand-computed resolutions of simples over the line and
the cycle-with-tail fixtures, the syzygy dimension shift for Ext, and the
agreement between the projective- and injective-side Ext computations.
"""

import dataclasses
import gc
import math
import random
import re
import time
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quiverhom.homology as homology
import quiverhom.linalg as linalg
from quiverhom import (
    QQ,
    DanglingIdError,
    DimBound,
    ModuleMap,
    IdealSpec,
    InputError,
    InstanceSpec,
    PrimeField,
    Quiver,
    Representation,
    build_algebra,
    check_term_reachability,
    dual_module,
    ext_dims,
    gen_instance,
    gl_dim,
    heart_parts,
    heart_shift_pair,
    inj_dim,
    proj_dim,
    resolution,
    restricted_algebra,
    standard_module,
    transport_resolution,
    verify_convex_epi,
    verify_ext_cross,
    verify_heart_theorem,
)
from quiverhom.homology import SyzygyTable, projective_cover_and_syzygy, term_label
from quiverhom.lab import ALGEBRA_DIM_CAP, _gen_ideal, _gen_module, _gen_quiver

from test_modules import random_module


def nz(term):
    return {v: k for v, k in term.items() if k}


def content(m):
    """A module's dims and matrices as plain lists, keyed apart from the chain."""
    return sorted(m.dims.items()), sorted((a, [list(r) for r in b]) for a, b in m.mats.items())


def distinct_steps(m, count):
    """How many of Omega^0 m .. Omega^(count-1) m differ in content, stepped
    one by one without a chain: the cover steps a chain takes to read them."""
    seen = []
    for _ in range(count):
        if content(m) not in seen:
            seen.append(content(m))
        m = projective_cover_and_syzygy(m).syzygy
    return len(seen)


def resolved_syzygy(m, i):
    """Omega^i m, stepped one by one without a chain."""
    for _ in range(i):
        m = projective_cover_and_syzygy(m).syzygy
    return m


def test_line_simple_resolution(line_algebra):
    sv = standard_module(line_algebra, "simple", "v")
    res = resolution(sv, 3)
    assert res.minimal and res.exact
    assert nz(res.terms[0]) == {"v": 1}
    assert nz(res.terms[1]) == {"w": 1}
    assert nz(res.terms[2]) == {}
    assert res.syzygy(2).is_zero
    assert proj_dim(sv, 5) == DimBound.finite(1)


def test_line_global_dimension(line_algebra):
    assert gl_dim(line_algebra, 5) == DimBound.finite(1)


def test_cycle_tail_periodic_resolution(cycle_tail_algebra):
    s1 = standard_module(cycle_tail_algebra, "simple", "1")
    res = resolution(s1, 6)
    assert res.minimal and res.exact
    want = [{"1": 1}, {"2": 1}, {"1": 1}, {"2": 1}, {"1": 1}, {"2": 1}, {"1": 1}]
    assert [nz(t) for t in res.terms] == want
    # the second syzygy is the simple again, up to dimension data
    assert res.syzygy(2).dims == s1.dims
    # so the chain closes at Omega^2 and certifies an infinite resolution
    assert proj_dim(s1, 10) == DimBound.infinite()
    assert proj_dim(s1, 1) == DimBound.at_least(1)
    assert proj_dim(s1, 2) == DimBound.infinite()
    assert gl_dim(cycle_tail_algebra, 8) == DimBound.infinite()


def test_cycle_tail_resolution_terms_agree_over_gf3(
    cycle_tail_quiver, cycle_tail_ideal, cycle_tail_algebra
):
    gf3 = build_algebra(cycle_tail_quiver, cycle_tail_ideal, PrimeField(3))
    for v in cycle_tail_algebra.vertices:
        over_q = resolution(standard_module(cycle_tail_algebra, "simple", v), 6)
        over_3 = resolution(standard_module(gf3, "simple", v), 6)
        assert over_3.minimal and over_3.exact
        assert over_3.terms == over_q.terms


def test_injective_coresolution_mirrors_projective(cycle_tail_algebra):
    s3 = standard_module(cycle_tail_algebra, "simple", "3")
    # the coresolution of s3 is the dual of this resolution over the opposite algebra
    cores = resolution(SyzygyTable().chain(s3).dual, 3)
    assert cores.minimal and cores.exact
    # injective at 3 collects paths into 3: e_3, c, ac/bc chains
    assert nz(cores.terms[0]) == {"3": 1}
    # I_3 / S_3 is the injective I_2
    assert inj_dim(s3, 6) == DimBound.finite(1)


@pytest.mark.parametrize("vertex, k, side", [("1", 4, "projective"), ("3", 3, "injective")])
def test_exactness_is_read_from_the_held_complex(cycle_tail_algebra, vertex, k, side):
    chain = SyzygyTable().chain(standard_module(cycle_tail_algebra, "simple", vertex))
    # the injective side resolves the dual over the opposite algebra
    res = resolution(chain.dual if side == "injective" else chain, k)
    assert res.exact
    # zero one nonzero block of the second differential; the flag must follow the maps
    d = res.diffs[1]
    v = next(v for v, b in d.blocks.items() if any(map(any, b)))
    zeroed = linalg.zeros(len(d.blocks[v]), d.target.dims[v], QQ)
    broken = ModuleMap._unchecked(d.source, d.target, {**d.blocks, v: zeroed})
    forged = dataclasses.replace(res, diffs=(res.diffs[0], broken) + res.diffs[2:])
    assert not forged.exact


def test_resolution_rejects_bad_input(line_algebra):
    sv = standard_module(line_algebra, "simple", "v")
    with pytest.raises(InputError):
        resolution(sv, -1)


def no_chain_walks():
    """Fail at the first syzygy step or walk, before a huge cutoff can fill memory."""
    return mock.patch.multiple(
        homology.SyzygyTable,
        step=mock.Mock(side_effect=AssertionError("a chain was stepped")),
        walk=mock.Mock(side_effect=AssertionError("a chain was walked")),
    )


def test_cutoff_past_the_ceiling_is_input_error(line_algebra):
    # memory grows with the cutoff, so a huge one must be refused before any step
    sv = standard_module(line_algebra, "simple", "v")
    k = homology.MAX_CUTOFF + 1
    heart = line_algebra.quiver.homological_heart().heart
    calls = (
        lambda: resolution(sv, k),
        lambda: ext_dims(sv, sv, k),
        lambda: ext_dims(sv, sv, k, "injective"),
        lambda: proj_dim(sv, k),
        lambda: inj_dim(sv, k),
        lambda: gl_dim(line_algebra, k),
        # the bound t of the shift pair drops Omega^{t+1}, so it is a cutoff too
        lambda: heart_shift_pair(sv, sv, heart, k),
    )
    with no_chain_walks():
        for call in calls:
            with pytest.raises(InputError, match=f"{k} exceeds MAX_CUTOFF = 1000"):
                call()
        with pytest.raises(InputError, match="^the complement bound must be nonnegative$"):
            heart_shift_pair(sv, sv, heart, -1)
    assert proj_dim(sv, homology.MAX_CUTOFF) == proj_dim(sv, 6) == DimBound.finite(1)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2", None])
def test_a_cutoff_that_is_not_an_int_is_input_error(line_algebra, bad):
    # 2.5 used to reach islice (ValueError) or pass as proj_dim's bound,
    # True ran as cutoff 1, and "2" raised TypeError at its comparison
    sv = standard_module(line_algebra, "simple", "v")
    heart = line_algebra.quiver.homological_heart().heart
    calls = (
        lambda: resolution(sv, bad),
        lambda: ext_dims(sv, sv, bad),
        lambda: ext_dims(sv, sv, bad, "injective"),
        lambda: proj_dim(sv, bad),
        lambda: inj_dim(sv, bad),
        lambda: gl_dim(line_algebra, bad),
        lambda: heart_shift_pair(sv, sv, heart, bad),
    )
    with no_chain_walks():
        for call in calls:
            with pytest.raises(InputError, match=f"must be an int, got {re.escape(repr(bad))}$"):
                call()


@pytest.mark.parametrize(
    "bad, message", [(-5, "^cutoff must be nonnegative$"), ("x", "^cutoff must be an int, got 'x'$")]
)
def test_gl_dim_refuses_a_bad_cutoff_on_an_algebra_without_vertices(bad, message):
    # with no simple to resolve, proj_dim's own check was never reached
    empty = build_algebra(Quiver.build([], []), IdealSpec.zero(2), QQ)
    with pytest.raises(InputError, match=message):
        gl_dim(empty, bad)
    assert gl_dim(empty, 3) == DimBound.finite(0)


def test_syzygy_index_outside_prefix_is_input_error(line_algebra):
    res = resolution(standard_module(line_algebra, "simple", "v"), 2)
    assert res.syzygy(0) is res.module
    assert res.syzygy(3) is res.syzygies[2]
    for i in (-1, -3, 4):
        with pytest.raises(InputError, match="outside 0..3"):
            res.syzygy(i)


def test_ext_sides_agree_on_random_instances():
    rng = random.Random(500)
    q = Quiver.build(
        ["1", "2", "3"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")],
    )
    alg = build_algebra(q, IdealSpec.monomial([("a", "b"), ("c", "a")], 4), QQ)
    for _ in range(12):
        m = random_module(rng, alg)
        n = random_module(rng, alg)
        left = ext_dims(m, n, 4, "projective")
        right = ext_dims(m, n, 4, "injective")
        assert left.dims == right.dims


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "GF3"])
def test_ext_reads_the_chain_without_a_prefix(cycle_tail_quiver, cycle_tail_ideal, field):
    alg = build_algebra(cycle_tail_quiver, cycle_tail_ideal, field)
    rng = random.Random(502)
    k = 4
    pairs = [(random_module(rng, alg), random_module(rng, alg)) for _ in range(3)]
    # over a line 0 -> 1 -> ... -> k+1 with radical square zero, Omega^i S_0 = S_i,
    # and dually for S_(k+1): chains that neither close nor vanish before Omega^(k+1)
    line = Quiver.build(
        [str(i) for i in range(k + 2)], [(f"a{i}", str(i), str(i + 1)) for i in range(k + 1)]
    )
    line_alg = build_algebra(line, IdealSpec.zero(2), field)
    pairs.append(
        (standard_module(line_alg, "simple", "0"), standard_module(line_alg, "simple", str(k + 1)))
    )
    wants = []
    with (
        mock.patch.object(homology, "resolution", wraps=homology.resolution) as res,
        mock.patch.object(homology, "_certify_exact", wraps=homology._certify_exact) as cert,
        mock.patch.object(
            homology, "projective_cover_and_syzygy", wraps=projective_cover_and_syzygy
        ) as cover,
    ):
        for m, n in pairs:
            for side in ("projective", "injective"):
                # one resolved chain per side, m's or the dual of n's, stepped on
                # Omega^0..Omega^k: P_(k+1) is read off the top of Omega^(k+1);
                # into a semisimple module (n's, or the dual of m's) the Hom
                # complex is zero, and only Omega^0..Omega^(k-1) are stepped
                resolved, into = (m, n) if side == "projective" else (dual_module(n), m)
                semisimple = not any(any(row) for mat in into.mats.values() for row in mat)
                wants.append(distinct_steps(resolved, k if semisimple else k + 1))
                cover.reset_mock()
                ext_dims(m, n, k, side)
                assert cover.call_count == wants[-1]
                if m.algebra is line_alg:
                    assert distinct_steps(resolved, k + 2) == k + 2
                    assert not resolved_syzygy(resolved, k + 1).is_zero
    assert res.call_count == 0 and cert.call_count == 0
    # some chains close into a lasso before Omega^k
    assert min(wants) < k + 1


@pytest.mark.parametrize("name", ["line", "cycle_tail", "two_cycles"])
def test_ext_of_simples_agrees_over_prime_fields(request, name):
    # monomial relations: Ext of simples does not depend on the field
    q = request.getfixturevalue(f"{name}_quiver")
    ideal = request.getfixturevalue(f"{name}_ideal")
    tables = []
    for field in (QQ, PrimeField(2), PrimeField(3)):
        alg = build_algebra(q, ideal, field)
        simples = [standard_module(alg, "simple", v) for v in alg.vertices]
        tables.append(
            [
                ext_dims(s, t, 6, side).dims
                for s in simples
                for t in simples
                for side in ("projective", "injective")
            ]
        )
    assert tables[0] == tables[1] == tables[2]
    assert any(any(dims[1:]) for dims in tables[0])


def test_ext_zero_is_hom_dimension(cycle_tail_algebra):
    from quiverhom import hom_basis

    rng = random.Random(501)
    for _ in range(8):
        m = random_module(rng, cycle_tail_algebra)
        n = random_module(rng, cycle_tail_algebra)
        table = ext_dims(m, n, 2)
        assert table[0] == len(hom_basis(m, n))


def test_ext_shifts_along_syzygies(cycle_tail_algebra):
    rng = random.Random(502)
    for _ in range(6):
        m = random_module(rng, cycle_tail_algebra)
        n = random_module(rng, cycle_tail_algebra)
        if m.is_zero:
            continue
        omega = projective_cover_and_syzygy(m).syzygy
        full = ext_dims(m, n, 4)
        shifted = ext_dims(omega, n, 3)
        for k in range(2, 5):
            assert full[k] == shifted[k - 1]


def test_ext_table_shape_and_errors(cycle_tail_algebra, line_algebra):
    s1 = standard_module(cycle_tail_algebra, "simple", "1")
    table = ext_dims(s1, s1, 6)
    assert table.cutoff == 6 and len(table.dims) == 7
    # period-two resolution against the simple alternates 1, 0, 1, ...
    assert table.dims == (1, 0, 1, 0, 1, 0, 1)
    assert table.dims[0] == table[0] == 1
    sv = standard_module(line_algebra, "simple", "v")
    with pytest.raises(InputError):
        ext_dims(s1, sv, 2)
    with pytest.raises(InputError):
        ext_dims(s1, s1, -1)
    with pytest.raises(InputError):
        ext_dims(s1, s1, 2, "sideways")


def test_dim_bound_conventions(cycle_tail_algebra):
    z = Representation(cycle_tail_algebra, {}, {})
    assert proj_dim(z, 3) == DimBound.finite(-1)
    assert str(DimBound.finite(1)) == "Finite(1)"
    assert str(DimBound.at_least(10)) == "AtLeast(10)"
    p2 = standard_module(cycle_tail_algebra, "projective", "2")
    assert proj_dim(p2, 0) == DimBound.finite(0)
    with pytest.raises(InputError):
        proj_dim(p2, -1)


def test_term_reachability_flags_unreachable_terms(line_quiver):
    q = line_quiver  # v -> w -> x, whose longest path has length 2
    # S_v's resolution P_w -> P_v, padded past its end; zero multiplicities do not count
    assert check_term_reachability(q, [{"v": 1}, {"w": 1}, {}])
    assert check_term_reachability(q, [{"v": 1, "x": 0}, {"w": 1, "v": 0}, {"v": 0}])
    # a term at a vertex that no path of length >= 1 from term 0 reaches
    assert not check_term_reachability(q, [{"v": 1}, {"v": 1}, {}])
    assert not check_term_reachability(q, [{"w": 2}, {"x": 1}, {"w": 1}])
    # at depth 0 any term holds, and with no term at all nothing is asked
    for term in ({}, {"v": 1}, {"x": 3, "w": 0}):
        assert check_term_reachability(q, [term])
    assert check_term_reachability(q, [])
    # the walk from term 0 dies after length 2
    assert check_term_reachability(q, [{"v": 1}, {"w": 1}, {"x": 1}, {}, {}])
    assert not check_term_reachability(q, [{"v": 1}, {"w": 1}, {"x": 1}, {"x": 1}])
    assert not check_term_reachability(q, [{"v": 1}, {}, {}, {}, {"w": 1}])
    # an unknown vertex id is refused in any term, even at multiplicity 0 or
    # after a term that already fails
    for terms in ([{"nope": 1}], [{"v": 1}, {"nope": 1}], [{"v": 1}, {"v": 1}, {"nope": 0}]):
        with pytest.raises(DanglingIdError, match="'nope'"):
            check_term_reachability(q, terms)


@pytest.mark.parametrize("terms, kind", [(None, "NoneType"), (5, "int"), ({"v": 1}, "dict")])
def test_term_reachability_refuses_terms_that_are_not_a_sequence(line_quiver, terms, kind):
    with pytest.raises(InputError, match=f"^terms must be a sequence, not {kind}$"):
        check_term_reachability(line_quiver, terms)


@pytest.mark.parametrize(
    "terms, message",
    [
        ([{"v": "x"}], "multiplicity 'x' of vertex 'v' in projective term is not an int >= 0"),
        ([{"v": 1}, {"w": -1}], "multiplicity -1 of vertex 'w' in projective term is not an int >= 0"),
        ([[("v", 1)]], "a projective term must be a mapping, not list"),
    ],
    ids=["str multiplicity", "negative multiplicity", "list term"],
)
def test_term_reachability_refuses_a_malformed_term(line_quiver, terms, message):
    with pytest.raises(InputError) as caught:
        check_term_reachability(line_quiver, terms)
    assert type(caught.value) is InputError and str(caught.value) == message


def test_term_labels_name_each_projective_with_its_multiplicity(cycle_tail_algebra):
    assert term_label(cycle_tail_algebra, {"3": 1, "1": 2, "2": 0}) == "P_1^2 + P_3"
    assert term_label(cycle_tail_algebra, {"4": 0}) == "0"


def test_term_reachability_goes_round_a_cycle_past_the_exact_length():
    # 1 -> 2 <-> 3, 2 -> 4: from 1, the paths of length exactly 3 end at 2 only,
    # but 1 2 3 2 4 has length 4 >= 3
    q = Quiver.build(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "2"), ("d", "2", "4")],
    )
    assert check_term_reachability(q, [{"1": 1}, {}, {}, {"4": 1}])
    assert check_term_reachability(q, [{"1": 1}, {"2": 1}, {"3": 1, "4": 1}, {"4": 2}])
    assert not check_term_reachability(q, [{"1": 1}, {}, {}, {"1": 1}])
    # the same with a loop: 1 -> 2, a loop at 2, 2 -> 3
    looped = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("l", "2", "2"), ("b", "2", "3")])
    assert check_term_reachability(looped, [{"1": 1}] + [{}] * 5 + [{"3": 1}])
    assert not check_term_reachability(looped, [{"1": 1}] + [{}] * 5 + [{"1": 1}])


def reference_reachable(vertices, arrows, start, depth):
    """Per k in 0..depth, the vertices at the end of a path of length >= k
    from start: the rows of start in A^k times the reflexive-transitive
    closure of A, with A the boolean adjacency matrix."""
    n = len(vertices)
    at = {v: i for i, v in enumerate(vertices)}
    adj = [[False] * n for _ in range(n)]
    for s, t in arrows:
        adj[at[s]][at[t]] = True

    def mul(x, y):
        return [[any(x[i][j] and y[j][c] for j in range(n)) for c in range(n)] for i in range(n)]

    eye = [[i == c for c in range(n)] for i in range(n)]
    star = eye
    for _ in range(n):
        star = [[a or b for a, b in zip(r, s)] for r, s in zip(star, mul(star, adj))]
    power, out = eye, []
    for _ in range(depth + 1):
        ends = mul(power, star)
        out.append({vertices[c] for c in range(n) if any(ends[at[s]][c] for s in start)})
        power = mul(power, adj)
    return out


def test_term_reachability_matches_boolean_matrix_powers():
    rng = random.Random(20261019)
    verdicts = {True: 0, False: 0}
    for _ in range(1200):
        vertices = [str(i) for i in range(rng.randint(1, 6))]
        # loops, parallel arrows and isolated vertices all come up
        arrows = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(rng.randint(0, 9))]
        q = Quiver.build(vertices, [(f"a{i}", s, t) for i, (s, t) in enumerate(arrows)])
        depth = rng.randint(0, 6)
        first = {v: rng.randint(0, 2) for v in rng.sample(vertices, rng.randint(0, len(vertices)))}
        start = {v for v, mult in first.items() if mult}
        allowed = reference_reachable(vertices, arrows, start, depth)
        terms = [first]
        for k in range(1, depth + 1):
            # half the terms keep to the reachable vertices, so both verdicts occur
            pool = sorted(allowed[k]) if rng.random() < 0.5 else vertices
            picked = rng.sample(pool, rng.randint(0, len(pool)))
            terms.append({v: rng.randint(0, 2) for v in picked})
        expected = all(
            v in allowed[k] for k, term in enumerate(terms) for v, mult in term.items() if mult
        )
        assert check_term_reachability(q, terms) == expected, (vertices, arrows, terms)
        verdicts[expected] += 1
    assert min(verdicts.values()) >= 300, verdicts


def test_transport_resolution_certificates(cycle_tail_quiver, cycle_tail_algebra):
    hp = cycle_tail_quiver.homological_heart()
    s1 = standard_module(cycle_tail_algebra, "simple", "1")
    # the second syzygy lives on the heart, so it transports
    omega = resolution(s1, 2).syzygy(2)
    moved = transport_resolution(omega, 4, hp.heart)
    assert moved.exact and moved.minimal and moved.terms_projective
    # Gamma is the restriction the algebra keeps, never one built beside it
    assert moved.gamma is restricted_algebra(cycle_tail_algebra, hp.heart)
    p1 = standard_module(cycle_tail_algebra, "projective", "1")
    # {3, 4} has no plus vertices, so P_1's support at 1 and 2 lies outside it
    with pytest.raises(InputError, match=r"support outside the heart closure: \['1', '2'\]"):
        transport_resolution(p1, 2, cycle_tail_quiver.full_subquiver({"3", "4"}))


def test_the_heart_functions_refuse_a_subquiver_of_another_quiver(cycle_tail_algebra, line_quiver):
    s1 = standard_module(cycle_tail_algebra, "simple", "1")
    other = line_quiver.full_subquiver({"v"})
    calls = (
        lambda: heart_parts(s1, other),
        lambda: transport_resolution(s1, 2, other),
        lambda: heart_shift_pair(s1, s1, other, 1),
    )
    refusal = "^the subquiver is not a full subquiver of the algebra's quiver$"
    with no_chain_walks():
        for call in calls:
            with pytest.raises(InputError, match=refusal):
                call()


def test_the_heart_functions_refuse_a_vertex_set_in_place_of_a_subquiver(cycle_tail_algebra):
    s1 = standard_module(cycle_tail_algebra, "simple", "1")
    calls = (
        lambda: heart_parts(s1, frozenset({"1", "2"})),
        lambda: transport_resolution(s1, 2, {"1", "2"}),
        lambda: heart_shift_pair(s1, s1, ["1", "2"], 1),
    )
    with no_chain_walks():
        for call, kind in zip(calls, ("frozenset", "set", "list")):
            with pytest.raises(InputError) as caught:
                call()
            assert str(caught.value) == f"a subquiver is a FullSubquiver from Quiver.full_subquiver, not {kind}"


def test_a_shift_pair_refuses_endpoints_over_different_algebras(cycle_tail_algebra, line_algebra):
    s1 = standard_module(cycle_tail_algebra, "simple", "1")
    sv = standard_module(line_algebra, "simple", "v")
    heart = cycle_tail_algebra.quiver.full_subquiver({"1", "2"})
    with no_chain_walks(), pytest.raises(InputError, match="^shift pair endpoints live over different algebras$"):
        heart_shift_pair(s1, sv, heart, 1)


@pytest.mark.parametrize("F", [QQ, PrimeField(3)], ids=["QQ", "GF3"])
def test_the_heart_functions_refuse_a_subquiver_that_is_not_convex(F, cycle_tail_algebra):
    # on 1 -> 2 -> 3 the arrow 2 -> 3 re-enters {1, 3}: 2 is both plus and
    # minus, and P_1's plus part is 0, not its components at 2
    line = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    p1 = standard_module(build_algebra(line, IdealSpec.zero(3), F), "projective", "1")
    gap = line.full_subquiver({"1", "3"})
    calls = (
        lambda: heart_parts(p1, gap),
        lambda: transport_resolution(p1, 2, gap),
        lambda: heart_shift_pair(p1, p1, gap, 1),
    )
    with no_chain_walks():
        for call in calls:
            with pytest.raises(InputError, match=r"^the subquiver is not convex: \['2'\] lie on paths between"):
                call()
    # a subquiver of another quiver is refused as such first, convex or not
    s1 = standard_module(cycle_tail_algebra, "simple", "1")
    calls = (
        lambda: heart_parts(s1, gap),
        lambda: transport_resolution(s1, 2, gap),
        lambda: heart_shift_pair(s1, s1, gap, 1),
    )
    with no_chain_walks():
        for call in calls:
            with pytest.raises(InputError, match="^the subquiver is not a full subquiver of the algebra's quiver$"):
                call()


def test_exactness_certificate_turns_false_on_a_planted_differential(cycle_tail_algebra):
    # S_1 -> P_2 -> P_1 -> S_1 is periodic here, so every differential is nonzero
    res = resolution(standard_module(cycle_tail_algebra, "simple", "1"), 3)
    assert res.exact

    def planted(i, x):
        """The resolution with every entry of differential i set to x."""
        d = res.diffs[i]
        blocks = {v: [[x] * d.target.dims[v] for _ in range(n)] for v, n in d.source.dims.items()}
        fault = ModuleMap._unchecked(d.source, d.target, blocks)
        return dataclasses.replace(res, diffs=res.diffs[:i] + (fault,) + res.diffs[i + 1:])

    for i in range(len(res.diffs)):
        # the augmentation fails its rank at the module, a higher one the rank sum
        assert not planted(i, QQ.zero).exact, i
    # all ones sends b in P_2 to the top of P_1, so d_0 d_1 is not zero
    assert not planted(1, QQ.one).exact


def test_transport_certificates_each_turn_false_on_their_own_fault(
    cycle_tail_quiver, cycle_tail_algebra, monkeypatch
):
    hp = cycle_tail_quiver.homological_heart()
    gamma = restricted_algebra(cycle_tail_algebra, hp.heart)
    omega = resolution(standard_module(cycle_tail_algebra, "simple", "1"), 2).syzygy(2)

    def flags():
        moved = transport_resolution(omega, 4, hp.heart)
        return moved.exact, moved.minimal, moved.terms_projective

    assert flags() == (True, True, True)
    with monkeypatch.context() as patch:
        # no radical rows: every nonzero differential row reads as off the radical
        patch.setattr(homology, "radical_rows", lambda m: {v: [] for v in m.algebra.vertices})
        assert flags() == (True, False, True)
    materialize = homology.materialize_term

    def one_generator_too_many(alg, mults):
        # only the model over gamma: the cover steps over the algebra read it too
        if alg is gamma:
            v = gamma.vertices[0]
            mults = {**mults, v: mults.get(v, 0) + 1}
        return materialize(alg, mults)

    monkeypatch.setattr(homology, "materialize_term", one_generator_too_many)
    assert flags() == (True, True, False)


def test_heart_shift_pair_reproduces_shifted_ext(cycle_tail_quiver, cycle_tail_algebra):
    hp = cycle_tail_quiver.homological_heart()
    assert hp.t == 1
    s1 = standard_module(cycle_tail_algebra, "simple", "1")
    pair = heart_shift_pair(s1, s1, hp.heart, hp.t)
    gamma = restricted_algebra(cycle_tail_algebra, hp.heart)
    assert pair.a_part.algebra is gamma and pair.b_part.algebra is gamma
    shift = 2 * hp.t + 2
    lam_table = ext_dims(s1, s1, 9)
    gam_table = ext_dims(pair.a_part, pair.b_part, 9 - shift)
    for ell in range(2 * hp.t + 3, 10):
        assert lam_table[ell] == gam_table[ell - shift]


def test_chain_readers_share_each_cover_step(cycle_tail_quiver, cycle_tail_algebra):
    hp = cycle_tail_quiver.homological_heart()
    s1 = standard_module(cycle_tail_algebra, "simple", "1")
    p3 = standard_module(cycle_tail_algebra, "projective", "3")
    m, n = SyzygyTable().chain(s1), SyzygyTable().chain(p3)
    with mock.patch.object(
        homology, "projective_cover_and_syzygy", wraps=projective_cover_and_syzygy
    ) as cover:
        res = resolution(m, 6)
        # Omega^2 S1 = S1 in content, so the chain steps S1 and Omega S1 only
        assert cover.call_count == distinct_steps(s1, 7) == 2
        assert proj_dim(m, 6) == proj_dim(s1, 6)
        assert ext_dims(m, n, 5) == ext_dims(s1, p3, 5)
        assert ext_dims(m, n, 3, "injective") == ext_dims(s1, p3, 3, "injective")
        assert inj_dim(n, 4) == inj_dim(p3, 4)
        pair = heart_shift_pair(m, n, hp.heart, hp.t)
        bare = heart_shift_pair(s1, p3, hp.heart, hp.t)
        calls = cover.call_count
        assert transport_resolution(m.drop(hp.t + 1), 3, hp.heart).exact
        assert cover.call_count == calls
    assert res.terms == resolution(s1, 6).terms
    assert m.drop(2).module is res.syzygy(2)
    assert pair.a_part.equal_to(bare.a_part) and pair.b_part.equal_to(bare.b_part)
    # a fresh chain of the same module steps again: nothing outlives its chain
    with mock.patch.object(
        homology, "projective_cover_and_syzygy", wraps=projective_cover_and_syzygy
    ) as cover:
        resolution(SyzygyTable().chain(s1), 6)
        assert cover.call_count == 2


def test_cover_past_term_budget_is_input_error():
    # the cover terms of this dual grow 48, 141, 588, 1544, 5652
    _, _, (_, n) = gen_instance(InstanceSpec(seed=3))
    t0 = time.perf_counter()
    with pytest.raises(InputError, match="exceeds budget 500"):
        inj_dim(n, 5)
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# lassos: a repeated syzygy certifies an infinite projective dimension


def nakayama(n, L, field):
    arrows = [(f"a{i}", str(i), str((i + 1) % n)) for i in range(n)]
    q = Quiver.build([str(i) for i in range(n)], arrows)
    return build_algebra(q, IdealSpec.zero(L), field)


def nakayama_period(n, L):
    """Least p > 0 with Omega^p S = S, for any simple S of the self-injective
    Nakayama algebra on the n-cycle with all paths of length L zero.

    Omega^2 S_i = S_(i+L); Omega^1 S_i is uniserial of length L - 1, so a
    simple only when L = 2, and then it is S_(i+1).
    """
    return n if L == 2 else 2 * n // math.gcd(n, L)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "GF3"])
@pytest.mark.parametrize("n, L", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 6), (5, 3)])
def test_nakayama_simples_are_infinite_from_their_period(n, L, field):
    alg = nakayama(n, L, field)
    p = nakayama_period(n, L)
    for v in alg.vertices:
        s = standard_module(alg, "simple", v)
        for cutoff in range(p + 2):
            want = DimBound.infinite() if cutoff >= p else DimBound.at_least(cutoff)
            assert proj_dim(s, cutoff) == want
            assert inj_dim(s, cutoff) == want
    assert gl_dim(alg, p - 1) == DimBound.at_least(p - 1)
    assert gl_dim(alg, p) == DimBound.infinite()
    assert str(gl_dim(alg, p)) == "Infinite"


def test_gl_dim_looks_past_a_simple_that_only_reaches_the_cutoff():
    # radical square zero: Omega^i S_0 = S_i down the line, and the loop's simple is its
    # own syzygy; S_0 comes first and reaches the cutoff before S_4 closes its lasso
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(3)] + [("b", "4", "4")]
    alg = build_algebra(Quiver.build([str(i) for i in range(5)], arrows), IdealSpec.zero(2), QQ)
    assert alg.vertices[0] == "0"
    assert proj_dim(standard_module(alg, "simple", "0"), 2) == DimBound.at_least(2)
    assert proj_dim(standard_module(alg, "simple", "4"), 2) == DimBound.infinite()
    assert gl_dim(alg, 2) == DimBound.infinite()
    # without the loop, the cutoff-bound simple outranks the finite ones
    line_quiver = Quiver.build([str(i) for i in range(4)], arrows[:3])
    line = build_algebra(line_quiver, IdealSpec.zero(2), QQ)
    assert gl_dim(line, 2) == DimBound.at_least(2)
    assert gl_dim(line, 3) == DimBound.finite(3)


def linear_pd(distance, L):
    """pd of the simple at distance d from the sink of a linear A_n with
    paths of length L zero: Omega^2 S moves L vertices on, Omega^1 of a simple
    within L - 1 of the sink is projective."""
    return 2 * (distance // L) + (1 if distance % L else 0)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "GF3"])
def test_linear_truncations_have_the_closed_form_dimension(field):
    for n in range(1, 8):
        arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(n - 1)]
        q = Quiver.build([str(i) for i in range(n)], arrows)
        for L in range(2, 6):
            alg = build_algebra(q, IdealSpec.zero(L), field)
            for i in range(n):
                s = standard_module(alg, "simple", str(i))
                assert proj_dim(s, n + 1) == DimBound.finite(linear_pd(n - 1 - i, L))
            assert gl_dim(alg, n + 1) == DimBound.finite(linear_pd(n - 1, L))


def reference_verdict(m, cutoff, horizon):
    """proj_dim's verdict from syzygies stepped one by one without a chain,
    with the terms of the first cutoff + 1 steps, and whether a zero syzygy
    turns up by Omega^horizon."""
    mods, terms = [m], []
    while len(mods) <= horizon and not mods[-1].is_zero:
        step = projective_cover_and_syzygy(mods[-1])
        terms.append(step.mults)
        mods.append(step.syzygy)
    reaches_zero = mods[-1].is_zero
    if m.is_zero:
        return DimBound.finite(-1), terms, reaches_zero
    first_zero = next((d for d in range(cutoff + 1) if mods[d + 1].is_zero), None)
    if first_zero is not None:
        return DimBound.finite(first_zero), terms, reaches_zero
    keys = [content(x) for x in mods[: cutoff + 1]]
    if any(keys[j] in keys[:j] for j in range(len(keys))):
        return DimBound.infinite(), terms, reaches_zero
    return DimBound.at_least(cutoff), terms, reaches_zero


@pytest.mark.parametrize("F", [QQ, PrimeField(3)], ids=["QQ", "GF3"])
def test_verdicts_match_a_chain_free_reference(F):
    seen = set()

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32),
        style=st.sampled_from(["monomial", "mixed"]),
        bound=st.integers(1, 10),
        cutoff=st.integers(0, 6),
    )
    def agrees(seed, style, bound, cutoff):
        rng = random.Random(seed)
        q = _gen_quiver(rng, 4, 6)
        alg = build_algebra(q, _gen_ideal(rng, q, style), F)
        assume(alg.dim <= ALGEBRA_DIM_CAP)
        m = _gen_module(rng, alg, bound)
        horizon = 2 * cutoff + 4
        try:
            want, terms, reaches_zero = reference_verdict(m, cutoff, horizon)
        except InputError:
            assume(False)
        chain = SyzygyTable().chain(m)
        got = proj_dim(chain, cutoff)
        assert got == want
        # an Infinite verdict is never refuted by a zero syzygy further down
        assert not (got.kind == "infinite" and reaches_zero)
        res = resolution(chain, cutoff)
        padded = terms + [{}] * (cutoff + 1 - len(terms))
        assert [nz(t) for t in res.terms] == [nz(t) for t in padded[: cutoff + 1]]
        assert res.exact and res.minimal
        seen.add(got.kind)

    agrees()
    assert seen == {"finite", "infinite", "at_least"}


def test_dropped_lasso_chain_leaves_no_cyclic_garbage(cycle_tail_algebra):
    s1 = standard_module(cycle_tail_algebra, "simple", "1")
    p3 = standard_module(cycle_tail_algebra, "projective", "3")
    gc.collect()
    chain = SyzygyTable().chain(s1)
    assert proj_dim(chain, 6) == DimBound.infinite()
    assert inj_dim(chain, 6) == DimBound.infinite()
    resolution(chain, 6)
    ext_dims(chain, p3, 5, "injective")
    assert chain.drop(2).module is chain.module
    del chain
    assert gc.collect() == 0


def test_dropped_table_of_two_roots_leaves_no_cyclic_garbage(cycle_tail_algebra):
    s1 = standard_module(cycle_tail_algebra, "simple", "1")
    p3 = standard_module(cycle_tail_algebra, "projective", "3")
    gc.collect()
    table = SyzygyTable()
    m, n = table.chain(s1), table.chain(p3)
    assert proj_dim(m, 6) == DimBound.infinite()
    # the injective side walks the dual of p3 in the same table
    assert ext_dims(m, n, 5, "injective").dims == ext_dims(s1, p3, 5).dims
    assert n.dual.table is table and len(table.modules) > 3
    del table, m, n
    assert gc.collect() == 0


def test_syzygy_table_keys_content_only_for_a_repeated_dimension_vector(monkeypatch):
    # on 1 -> 2: P_1 and S_1 + S_2 share the dimension vector (1, 1) and
    # differ in their matrix, and S_1, S_2 have vectors of their own
    alg = build_algebra(Quiver.build(["1", "2"], [("a", "1", "2")]), IdealSpec.zero(2), QQ)
    p1 = standard_module(alg, "projective", "1")
    s1, s2 = (standard_module(alg, "simple", v) for v in ("1", "2"))

    def split():
        return Representation(alg, {"1": 1, "2": 1}, {"a": [[0]]})

    compared = []
    real = Representation.equal_to
    monkeypatch.setattr(Representation, "equal_to", lambda m, other: compared.append(m) or real(m, other))
    table = SyzygyTable()
    assert [table.node(m) for m in (p1, s1, s2)] == [0, 1, 2]
    # distinct vectors are told apart by their dims alone
    assert compared == []
    # a second module of P_1's vector is compared with P_1 and takes its own node
    assert table.node(split()) == 3 and len(compared) == 1
    # equal content returns the first equal node of the vector, comparing in node order
    copy = Representation(alg, {"1": 1, "2": 1}, {"a": [[1]]})
    assert table.node(copy) == 0 and len(compared) == 2
    assert table.node(split()) == 3 and len(compared) == 4
    assert compared[2:] == [p1, table.modules[3]]
    assert len(table.modules) == 4 and table.modules[0] is p1
    assert table.index == {(alg, (1, 1)): [0, 3], (alg, (1, 0)): [1], (alg, (0, 1)): [2]}


def test_a_seed_1_pass_finds_most_repeated_vectors_equal_in_content(monkeypatch):
    """The lookups of one seed-1 pass of the epi, heart and ext-cross suites
    at acceptance scale: how many there are, how many land on a dimension
    vector already listed, how many of those find an equal module, and how
    many nodes a vector lists at most."""
    seen = []  # per lookup: the nodes listed for its vector before it, and whether it found one
    real = SyzygyTable.node

    def node(table, module):
        listed = list(table.index.get((module.algebra, tuple(module.dims.values())), ()))
        found = real(table, module)
        seen.append((len(listed), found in listed))
        return found

    monkeypatch.setattr(SyzygyTable, "node", node)
    spec = InstanceSpec(seed=1)
    reports = (
        verify_convex_epi(spec, cases=200, cutoff=6),
        verify_heart_theorem(spec, cases=100),
        verify_ext_cross(spec, cases=100, cutoff=3),
    )
    assert all(r.all_passed for r in reports)
    assert len(seen) == 5659
    assert sum(1 for listed, _ in seen if listed) == 2055
    assert sum(1 for _, found in seen if found) == 2004
    assert max(listed + (not found) for listed, found in seen) == 3
