"""The heart parts and the transport's quotients against elimination.

``heart_parts`` and ``transport_resolution`` read every part off vertex
components.  That is exact because around a convex subquiver the plus
vertices, and the vertices off minus, are closed under successors.  Here the
parts are rebuilt as they are defined, by elimination: C+ is the largest
submodule supported on the plus vertices, embedded and divided out; C- is
the submodule generated by the components off minus; and each transported
differential is lifted through the quotient's coordinate section (its free
columns) and projected.  The generated submodule, the embed and the
quotient are written out here as the package wrote them before, so the
reference shares none of them with the package.  Both constructions must
agree exactly, in dimensions, matrices and entry types, over QQ, GF(2) and
GF(3), on the homological heart and on convex closures of random vertex
sets of lab quivers.
"""

import random
from unittest import mock

import pytest

from quiverhom import (
    QQ,
    PrimeField,
    Representation,
    build_algebra,
    heart_parts,
    resolution,
    restrict,
    restricted_algebra,
    transport_resolution,
)
from quiverhom import linalg
from quiverhom.lab import ALGEBRA_DIM_CAP, _gen_ideal, _gen_module, _gen_quiver
from quiverhom.modules import HeartParts, ModuleMap

from test_cover_step import path_product
from test_modules import reference_supported

FIELDS = [QQ, PrimeField(2), PrimeField(3)]


def typed(rows):
    """A matrix with each entry paired with its type."""
    return [[(type(x), x) for x in row] for row in rows]


def same_module(got, want):
    return (
        got.algebra is want.algebra
        and got.dims == want.dims
        and {a: typed(m) for a, m in got.mats.items()} == {a: typed(m) for a, m in want.mats.items()}
    )


def same_map(got, want):
    return (
        same_module(got.source, want.source)
        and same_module(got.target, want.target)
        and {v: typed(b) for v, b in got.blocks.items()} == {v: typed(b) for v, b in want.blocks.items()}
    )


def closure(rep, seed_rows):
    """The submodule the seed rows generate, as canonical bases: at w the
    span of seed_v times the matrix of each basis element v -> w."""
    F, q = rep.field, rep.algebra.quiver
    rows = {v: [] for v in q.vertices}
    for i, el in enumerate(rep.algebra.elements):
        seed, w = seed_rows.get(el.source), el.target
        if seed and rep.dims[w]:
            rows[w].extend(linalg.mat_mul(seed, path_product(rep, i), rep.dims[w], F) if el.arrows else seed)
    return {v: linalg.rref(rows[v], rep.dims[v], F)[0] for v in q.vertices}


def embed(rep, rows_by_vertex):
    """The submodule that the rows span, in the coordinates of each vertex's
    echelon basis: a member's entries at its pivot columns."""
    F, q = rep.field, rep.algebra.quiver
    echelons = {v: linalg.rref(rows_by_vertex.get(v, []), rep.dims[v], F) for v in q.vertices}
    mats = {}
    for a in q.arrows:
        basis, pivots = echelons[a.target]
        images = linalg.mat_mul(echelons[a.source][0], rep.mats[a.name], rep.dims[a.target], F)
        assert not any(any(linalg.reduce_mod_rowspace(img, basis, pivots, F)) for img in images)
        mats[a.name] = [[img[c] for c in pivots] for img in images]
    return Representation._unchecked(rep.algebra, {v: len(b) for v, (b, _) in echelons.items()}, mats)


def quotient(rep, rows_by_vertex):
    """The quotient by the submodule that the rows span, with its projection
    block at every vertex: the free columns of each vertex's echelon basis
    are its coordinates, and an arrow acts by its free rows, projected."""
    F, q = rep.field, rep.algebra.quiver
    proj, free = {}, {}
    for v in q.vertices:
        echelon, pivots = linalg.rref(rows_by_vertex.get(v, []), rep.dims[v], F)
        proj[v] = linalg.quotient_projection(echelon, pivots, rep.dims[v], F)
        free[v] = [j for j in range(rep.dims[v]) if j not in pivots]
    mats = {}
    for a in q.arrows:
        rows = [rep.mats[a.name][j] for j in free[a.source]]
        mats[a.name] = linalg.mat_mul(rows, proj[a.target], len(free[a.target]), F)
    return Representation._unchecked(rep.algebra, {v: len(cols) for v, cols in free.items()}, mats), proj


def reference_heart_parts(c, heart):
    """The three parts by elimination, as they are defined."""
    q, F = c.algebra.quiver, c.field
    split = q.boundary_split(heart)
    plus_rows = reference_supported(c, split.plus)
    seed = {v: linalg.identity(c.dims[v], F) for v in q.vertices if v not in split.minus}
    minus_rows = closure(c, seed)
    return HeartParts(embed(c, plus_rows), quotient(c, plus_rows)[0], embed(c, minus_rows))


def reference_transport(a, k, heart):
    """Restricted terms and differentials of the transport, each term divided
    by its largest submodule supported on the plus vertices and each
    differential lifted through the free columns and projected."""
    alg, F = a.algebra, a.field
    gamma = restricted_algebra(alg, heart)
    plus = alg.quiver.boundary_split(heart).plus
    res = resolution(a, k)
    quots, projs, secs = [], [], []
    for rep in (a, *res.reps):
        rows = reference_supported(rep, plus)
        quot, proj = quotient(rep, rows)
        quots.append(quot)
        projs.append(proj)
        secs.append({
            v: [j for j in range(d) if j not in linalg.rref(rows[v], d, F)[1]] for v, d in rep.dims.items()
        })
    r_quots = [restrict(quot, gamma) for quot in quots]
    r_diffs = []
    for i, d in enumerate(res.diffs):
        blocks = {}
        for v in gamma.quiver.vertices:
            lifted = [d.blocks[v][j] for j in secs[i + 1][v]]
            blocks[v] = linalg.mat_mul(lifted, projs[i][v], quots[i].dims[v], F)
        r_diffs.append(ModuleMap(r_quots[i + 1], r_quots[i], blocks))
    return r_quots, r_diffs


def cases(F, count):
    """(module, heart) pairs over lab algebras: each drawn module and its
    second syzygy on the homological heart and on the convex closure of a
    random vertex set; per heart also the submodule generated at the
    vertices the heart reaches, which the transport takes."""
    rng = random.Random(3800)
    made = 0
    while made < count:
        q = _gen_quiver(rng, 5, 7)
        alg = build_algebra(q, _gen_ideal(rng, q, "mixed"), F)
        if alg.dim > ALGEBRA_DIM_CAP:
            continue
        made += 1
        m = _gen_module(rng, alg, 6)
        hearts = [q.homological_heart().heart, q.convex_closure(v for v in q.vertices if rng.random() < 0.5)]
        for heart in hearts:
            reach = q.reachable_from(heart.vertex_set)
            seed = {v: linalg.identity(m.dims[v], F) for v in reach}
            inner = embed(m, closure(m, seed))
            yield alg, heart, [m, resolution(m, 2).syzygy(2)], inner


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.name)
def test_coordinate_parts_equal_the_elimination_construction(F):
    assert list(HeartParts.__dataclass_fields__) == ["plus_part", "quot_by_plus", "minus_part"]
    seen = set()
    for alg, heart, modules, inner in cases(F, 40):
        q = alg.quiver
        split = q.boundary_split(heart)
        # both vertex sets the parts are read off are closed under successors
        for a in q.arrows:
            assert a.source not in split.plus or a.target in split.plus
            assert a.source in split.minus or a.target not in split.minus
        for c in (*modules, inner):
            got, want = heart_parts(c, heart), reference_heart_parts(c, heart)
            for name in HeartParts.__dataclass_fields__:
                part = getattr(got, name)
                assert same_module(part, getattr(want, name)), name
                if 0 < part.total_dim < c.total_dim:
                    seen.add("proper part")
        moved = transport_resolution(inner, 2, heart)
        terms, diffs = reference_transport(inner, 2, heart)
        assert same_module(moved.module, terms[0])
        assert all(map(same_module, moved.reps, terms[1:]))
        assert all(map(same_map, moved.diffs, diffs))
        if any(not d.is_zero for d in diffs):
            seen.add("nonzero transported differential")
        seen.add("empty heart" if heart.is_empty else "heart")
    assert seen == {"proper part", "nonzero transported differential", "empty heart", "heart"}


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.name)
def test_heart_parts_make_no_elimination(F):
    # nor any ModuleMap: each part is a module of components, with no map to or from c
    rref, made = mock.Mock(wraps=linalg.rref), mock.Mock()
    for alg, heart, modules, inner in cases(F, 10):
        with (
            mock.patch.object(linalg, "rref", rref),
            mock.patch.object(ModuleMap, "__init__", made),
            mock.patch.object(ModuleMap, "_unchecked", made),
        ):
            for c in (*modules, inner):
                heart_parts(c, heart)
        assert rref.call_count == 0 and not made.called
