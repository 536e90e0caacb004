"""Module draws, product tables and algebra-map flags against the
constructions they replaced.

The references are kept here as they were written before: a draw built the
whole sum of projectives densely and took the generated submodule with
``submodule_closure`` and the quotient with ``quotient_by_submodule``; the
product table looked each product up as a ``Path``; ``from_images`` checked
every pair of basis elements; the corner and the quotient by an idempotent
each built their own table on the kept basis elements; the quotient
eliminated one unit row per basis element with an end outside, and the
restricted algebra took the span's vectors on inside paths by one
elimination with the outside columns first, fed back as relations every
row of their echelon basis.  Results are
compared exactly: dimensions, matrices with the type of every nonzero
entry, table entries with theirs, and after a draw the state of the random
generator.
"""

import random

import pytest

from quiverhom import QQ, IdealSpec, PrimeField, Quiver, build_algebra, linalg
from quiverhom.algebra import (
    AlgebraHom,
    FiniteDimAlgebra,
    _apply_images,
    _RelationSpan,
    corner_algebra,
    quotient_by_idempotent,
    restricted_algebra,
)
from quiverhom.errors import InvariantViolation
from quiverhom.lab import ALGEBRA_DIM_CAP, _gen_ideal, _gen_module, _gen_quiver
from quiverhom.modules import (
    materialize_term,
    quotient_by_submodule,
    standard_module,
    submodule_closure,
)
from quiverhom.quiver import Path

GF = PrimeField(7)
FIELDS = [QQ, GF, PrimeField(2**31 - 1)]
FIELD_IDS = ["QQ", "GF7", "GF2^31-1"]


def reference_gen_module(rng, alg, bound):
    """The draw as it was: the dense term, its closure and its quotient."""
    verts = list(alg.vertices)
    F = alg.field
    pdim = alg.projective_layout.dims
    mults, total = {}, 0
    for _ in range(rng.randint(1, 3)):
        v = verts[rng.randrange(len(verts))]
        if total + pdim[v] <= bound:
            mults[v] = mults.get(v, 0) + 1
            total += pdim[v]
    if not mults:
        return standard_module(alg, "simple", verts[rng.randrange(len(verts))])
    term = materialize_term(alg, mults)
    for _ in range(6):
        rows = {}
        for v in verts:
            if term.dims[v] and rng.random() < 0.4:
                rows[v] = [[F.of(rng.randint(-1, 1)) for _ in range(term.dims[v])]]
        closed = submodule_closure(term, rows)
        quot, _ = quotient_by_submodule(term, closed)
        if quot.total_dim > 0:
            return quot
    return term


def typed(mats):
    """Each matrix's entries with their types, arrows in order."""
    return [[[(type(x), x) for x in row] for row in mats[a]] for a in sorted(mats)]


def random_algebras(F, count, seed):
    """count algebras of the lab's random presentations within the dim cap,
    on small quivers and on quivers as large as the suites draw."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = _gen_quiver(rng, *rng.choice([(4, 6), (8, 12)]))
        alg = build_algebra(q, _gen_ideal(rng, q, rng.choice(["mixed", "monomial"])), F)
        if not alg.dim_exceeds(ALGEBRA_DIM_CAP):
            out.append(alg)
    return out


@pytest.mark.parametrize("F", FIELDS, ids=FIELD_IDS)
def test_gen_module_matches_the_dense_draw_and_its_rng_calls(F):
    draws = 0
    for n, alg in enumerate(random_algebras(F, 400, 11)):
        for k in range(3):
            seed, bound = 1000 * n + k, (3, 6, 12)[k]
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got, want = _gen_module(rng, alg, bound), reference_gen_module(ref_rng, alg, bound)
            assert rng.getstate() == ref_rng.getstate()
            assert got.algebra is alg and got.dims == want.dims
            assert typed(got.mats) == typed(want.mats)
            draws += 1
    assert draws == 1200


@pytest.mark.parametrize("F", FIELDS, ids=FIELD_IDS)
def test_gen_module_falls_back_to_the_term_when_every_quotient_vanishes(F, monkeypatch):
    # over k, the term is k itself, and a draw kills it with chance 0.4 * 2/3;
    # among these seeds one draw kills it six times over
    import quiverhom.lab as lab

    fallbacks = []
    monkeypatch.setattr(lab, "materialize_term", lambda *a: fallbacks.append(a) or materialize_term(*a))
    alg = build_algebra(Quiver.build(["1"], []), IdealSpec.zero(2), F)
    for seed in range(2000, 2200):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got, want = _gen_module(rng, alg, 1), reference_gen_module(ref_rng, alg, 1)
        assert rng.getstate() == ref_rng.getstate()
        assert got.dims == want.dims == {"1": 1} and typed(got.mats) == typed(want.mats)
    assert fallbacks == [(alg, {"1": 1})]


@pytest.mark.parametrize("F", FIELDS, ids=FIELD_IDS)
def test_product_table_matches_a_table_built_by_path_lookup(F):
    rng = random.Random(17)
    built = 0
    while built < 1100:
        q = _gen_quiver(rng, *rng.choice([(4, 6), (8, 12)]))
        ideal = _gen_ideal(rng, q, rng.choice(["mixed", "monomial"]))
        alg = build_algebra(q, ideal, F)
        if alg.dim_exceeds(80):
            continue
        assert reference_table(_RelationSpan(q, ideal, F)) == typed_table(alg.table)
        built += 1


def typed_table(table):
    return [[(j, [(k, type(c), c) for k, c in entry]) for j, entry in row.items()] for row in table]


def reference_table(span):
    """The table as it was built: every product looked up by its Path."""
    F, n = span.field, span.ideal.truncation
    path_index = {p: g for g, p in enumerate(span.paths)}
    pivots = {span.buckets[key][c] for key, (_, cols) in span.bucket_rref.items() for c in cols}
    basis = [g for g in range(len(span.paths)) if g not in pivots]
    pos = {g: k for k, g in enumerate(basis)}
    table = []
    for gi in basis:
        pi = span.paths[gi]
        row = []
        for j, gj in enumerate(basis):
            pj = span.paths[gj]
            if pi.target != pj.source or pi.length + pj.length >= n:
                continue
            g = path_index[Path(pi.source, pi.arrows + pj.arrows, pj.target)]
            if g in pos:
                entry = [(pos[g], F.one)]
            else:
                # the unit vector at g reduced against its bucket's echelon basis
                key = (pi.source, pj.target)
                local = span.buckets[key]
                unit = [F.one if h == g else F.zero for h in local]
                reduced = linalg.reduce_mod_rowspace(unit, *span.bucket_rref[key], F)
                entry = [(pos[local[k]], c) for k, c in enumerate(reduced) if c]
            if entry:
                row.append((j, [(k, type(c), c) for k, c in entry]))
        table.append(row)
    return table


def reference_multiplicative(source, target, images):
    """Every pair of basis elements, as from_images checked them before."""
    F = target.field
    images = tuple({k: c for k, c in zip(im, map(F.of, im.values())) if c} for im in images)
    return all(
        _apply_images(images, F, dict(source.table[i].get(j, ()))) == target.mul(images[i], images[j])
        for i in range(source.dim)
        for j in range(source.dim)
    )


@pytest.mark.parametrize("F", [QQ, GF], ids=["QQ", "GF7"])
def test_from_images_flags_match_the_check_of_every_pair(F):
    rng = random.Random(23)
    seen = {True: 0, False: 0}
    for alg in random_algebras(F, 60, 29):
        # the identity, a projection onto a random set of basis elements (a
        # corner map when the set is a corner's, else rarely multiplicative),
        # and random images, which almost never are
        keep = {i for i in range(alg.dim) if rng.random() < 0.5}
        image_sets = [
            [{i: F.one} for i in range(alg.dim)],
            [{i: F.one} if i in keep else {} for i in range(alg.dim)],
            [{k: F.of(rng.randint(-2, 2)) for k in range(alg.dim) if rng.random() < 0.2}
             for _ in range(alg.dim)],
        ]
        for images in image_sets:
            got = AlgebraHom.from_images(alg, alg, images)
            want = reference_multiplicative(alg, alg, images)
            assert got.multiplicative == want
            seen[want] += 1
    # both verdicts are exercised
    assert seen[True] >= 60 and seen[False] >= 20


def reference_corner(alg, sub):
    """eAe as corner_algebra built it, with a table of its own."""
    e = sub.vertex_set
    if len(e) == len(alg.vertices):
        return alg
    keep = [i for i, el in enumerate(alg.elements) if el.source in e and el.target in e]
    pos = {g: i for i, g in enumerate(keep)}
    elements = tuple(alg.elements[g] for g in keep)
    table = []
    for gi in keep:
        row = {}
        for gj, entry in alg.table[gi].items():
            if gj not in pos:
                continue
            if any(k not in pos for k, _ in entry):
                raise InvariantViolation("corner product escaped the corner")
            row[pos[gj]] = tuple((pos[k], c) for k, c in entry)
        table.append(row)
    vertices = tuple(v for v in alg.vertices if v in e)
    out = FiniteDimAlgebra(alg.field, vertices, elements, tuple(table))
    out.parent = alg
    out.parent_indices = tuple(keep)
    return out


def reference_quotient(alg, sub):
    """A/<e'> as quotient_by_idempotent built it, with a table of its own."""
    eprime = sub.complement()
    if not eprime:
        return alg
    F = alg.field
    d = alg.dim
    rows = []
    for i, el in enumerate(alg.elements):
        if el.source in eprime or el.target in eprime:
            rows.append(alg.dense({i: F.one}))
    e = sub.vertex_set
    for i, el in enumerate(alg.elements):
        if el.source in e and el.target in eprime:
            for j, entry in alg.table[i].items():
                if alg.elements[j].target in e:
                    rows.append(alg.dense(dict(entry)))
    echelon, pivots = linalg.rref(rows, d, F)
    pivot_set = set(pivots)
    keep = [i for i in range(d) if i not in pivot_set]
    pos = {g: i for i, g in enumerate(keep)}

    def project(x):
        vec = linalg.reduce_mod_rowspace(alg.dense(x), echelon, pivots, F)
        return {pos[i]: c for i, c in enumerate(vec) if c and i in pos}

    elements = tuple(alg.elements[g] for g in keep)
    table = []
    for gi in keep:
        row = {}
        for gj, entry in alg.table[gi].items():
            if gj in pos:
                reduced = tuple(project(dict(entry)).items())
                if reduced:
                    row[pos[gj]] = reduced
        table.append(row)
    vertices = tuple(v for v in alg.vertices if v not in eprime)
    out = FiniteDimAlgebra(F, vertices, elements, tuple(table))
    out.parent = alg
    out.parent_indices = tuple(keep)
    out.parent_projection = project
    return out


def reference_intersect_coords(rows, ncols, keep, field):
    """Canonical basis of the row space's vectors supported on the keep
    columns: those columns last, one rref, the rows with a pivot among them
    moved back and eliminated again."""
    outside = [j for j in range(ncols) if j not in keep]
    order = outside + [j for j in range(ncols) if j in keep]
    echelon, pivots = linalg.rref([[row[j] for j in order] for row in rows], ncols, field)
    picked = []
    for row, c in zip(echelon, pivots):
        if c >= len(outside):
            back = [field.zero] * ncols
            for pos, j in enumerate(order):
                back[j] = row[pos]
            picked.append(back)
    return linalg.rref(picked, ncols, field)


def path_vertices(q, path):
    return [path.source] + [q.arrow_by_name[name].target for name in path.arrows]


def reference_restricted(alg, sub):
    """KQ'/(I meet KQ') as restricted_algebra built it, every echelon row of
    the span's vectors on inside paths given as a relation."""
    if len(sub.vertex_set) == len(alg.vertices):
        return alg
    span, F, inside = alg._span, alg.field, sub.vertex_set
    rels = []
    for (s, t), (echelon, _) in sorted(span.bucket_rref.items()):
        if s not in inside or t not in inside:
            continue
        local = span.buckets[(s, t)]
        keep = {pos for pos, g in enumerate(local) if set(path_vertices(alg.quiver, span.paths[g])) <= inside}
        if not keep:
            continue
        for row in reference_intersect_coords(echelon, len(local), keep, F)[0]:
            rels.append(tuple((c, span.paths[local[pos]].arrows) for pos, c in enumerate(row) if c))
    return build_algebra(sub.as_quiver(), IdealSpec(tuple(rels), alg.ideal.truncation), F)


def typed_element(x):
    return [(k, type(c), c) for k, c in x.items()]


def kept_basis_cases(F):
    """(algebra, subquiver) pairs: a commutative square without vertex 3,
    where a*b = c*d lies in <e_3>, and the whole square, then per random
    algebra a random vertex set, its convex closure and its complement."""
    rng = random.Random(43)
    square = Quiver.build(["1", "2", "3", "4"], [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")])
    alg = build_algebra(square, IdealSpec((((1, ("a", "b")), (-1, ("c", "d"))),), 3), F)
    yield alg, square.full_subquiver({"1", "2", "4"})
    yield alg, square.full_subquiver(square.vertices)
    for alg in random_algebras(F, 100, 47):
        q = alg.quiver
        picked = {v for v in q.vertices if rng.random() < 0.5}
        for sub in (q.full_subquiver(picked), q.convex_closure(picked), q.full_subquiver(set(q.vertices) - picked)):
            yield alg, sub


@pytest.mark.parametrize("F", [QQ, PrimeField(2), PrimeField(2**31 - 1)], ids=["QQ", "GF2", "GF2^31-1"])
def test_corner_and_quotient_match_their_own_table_builders(F):
    seen = set()
    for alg, sub in kept_basis_cases(F):
        split = alg.quiver.boundary_split(sub)
        seen.add("not convex" if split.plus & split.minus else "convex")
        for build, reference in ((corner_algebra, reference_corner), (quotient_by_idempotent, reference_quotient)):
            got, want = build(alg, sub), reference(alg, sub)
            assert (got is alg) == (want is alg)
            if want is alg:
                continue
            assert got.vertices == want.vertices and got.elements == want.elements
            assert got.parent is alg and got.parent_indices == want.parent_indices
            assert typed_table(got.table) == typed_table(want.table)
            if build is quotient_by_idempotent:
                units = [{i: F.one} for i in range(alg.dim)]
                assert [typed_element(got.parent_projection(u)) for u in units] == [
                    typed_element(want.parent_projection(u)) for u in units
                ]
                kept = set(want.parent_indices)
                if any(
                    j in kept and not want.parent_projection(dict(entry))
                    for i in kept
                    for j, entry in alg.table[i].items()
                ):
                    seen.add("product reduced to zero")
    assert seen == {"convex", "not convex", "product reduced to zero"}


@pytest.mark.parametrize("F", [QQ, PrimeField(2), PrimeField(2**31 - 1)], ids=["QQ", "GF2", "GF2^31-1"])
def test_restricted_algebra_matches_the_permuted_elimination(F):
    fewer = 0
    for alg, sub in kept_basis_cases(F):
        got, want = restricted_algebra(alg, sub), reference_restricted(alg, sub)
        assert (got is alg) == (want is alg)
        if want is alg:
            continue
        assert got.quiver == want.quiver and got.ideal.truncation == want.ideal.truncation
        assert got.vertices == want.vertices and got.elements == want.elements
        assert typed_table(got.table) == typed_table(want.table)
        # the presentation keeps some of the reference's relations, and only those
        assert set(got.ideal.relations) <= set(want.ideal.relations)
        fewer += len(got.ideal.relations) < len(want.ideal.relations)
    assert fewer >= 10


@pytest.mark.parametrize("F", [QQ, PrimeField(2), PrimeField(2**31 - 1)], ids=["QQ", "GF2", "GF2^31-1"])
def test_restricted_basis_counts_are_inside_paths_less_the_inside_rank(F):
    # per bucket with both ends inside, with E its echelon basis and E_out that
    # cut to the columns of paths leaving sub: the span's vectors on inside
    # paths have dimension rank E - rank E_out, and the rest of the inside
    # paths are the restriction's basis there
    for alg, sub in kept_basis_cases(F):
        gamma, span, inside = restricted_algebra(alg, sub), alg._span, sub.vertex_set
        counts = {}
        for el in gamma.elements:
            counts[(el.source, el.target)] = counts.get((el.source, el.target), 0) + 1
        expected = {}
        for (s, t), local in span.buckets.items():
            if s not in inside or t not in inside:
                continue
            out = [pos for pos, g in enumerate(local) if not set(path_vertices(alg.quiver, span.paths[g])) <= inside]
            echelon = span.bucket_rref.get((s, t), ([], []))[0]
            cut = [[row[j] for j in out] for row in echelon]
            drop = linalg.rank(echelon, len(local), F) - linalg.rank(cut, len(out), F)
            expected[(s, t)] = len(local) - len(out) - drop
        assert counts == {key: c for key, c in expected.items() if c}
