"""Results built inside the package are well-formed.

Modules and maps made inside the package skip the checked constructors, so
nothing at run time looks at their shape.  Here each builder's results, on
lab-drawn modules over QQ and GF(p), have a dimension at every vertex and a
matrix at every arrow in the quiver's order, a block at every vertex, every
matrix of the shape its endpoints declare, and pass the checked
constructors unchanged.
"""

import random

import pytest

from quiverhom import (
    QQ,
    ModuleMap,
    PrimeField,
    Representation,
    build_algebra,
    dual_map,
    dual_module,
    embed_submodule,
    hom_basis,
    kernel_of_map,
    quotient_by_submodule,
    standard_module,
    submodule_closure,
)
from quiverhom.homology import SyzygyTable, projective_cover_and_syzygy
from quiverhom.lab import ALGEBRA_DIM_CAP, _gen_ideal, _gen_module, _gen_quiver
from quiverhom.modules import materialize_term

GF = PrimeField(2**31 - 1)


def assert_shaped(rows, nrows, ncols):
    assert len(rows) == nrows and all(len(r) == ncols for r in rows)


def assert_module(m):
    """Dims and mats in the quiver's order, shapes as the dims say, and the
    checked constructor accepts it unchanged."""
    q = m.algebra.quiver
    assert list(m.dims) == list(q.vertices)
    assert list(m.mats) == [a.name for a in q.arrows]
    assert all(type(d) is int and d >= 0 for d in m.dims.values())
    for a in q.arrows:
        assert_shaped(m.mats[a.name], m.dims[a.source], m.dims[a.target])
    assert Representation(m.algebra, m.dims, m.mats).equal_to(m)


def assert_map(f):
    """A block at every vertex, of the shape the endpoints declare, and the
    checked constructor accepts it unchanged."""
    assert_module(f.source)
    assert_module(f.target)
    assert list(f.blocks) == list(f.source.algebra.quiver.vertices)
    for v, b in f.blocks.items():
        assert_shaped(b, f.source.dims[v], f.target.dims[v])
    assert ModuleMap(f.source, f.target, f.blocks).blocks == f.blocks


def lab_modules(F, count):
    """Lab-drawn (algebra, module) pairs under the algebra cap."""
    drawn, seed = [], 0
    while len(drawn) < count:
        rng = random.Random(seed)
        seed += 1
        q = _gen_quiver(rng, 4, 6)
        alg = build_algebra(q, _gen_ideal(rng, q, "mixed"), F)
        if alg.dim <= ALGEBRA_DIM_CAP:
            drawn.append((rng, alg, _gen_module(rng, alg, rng.randint(1, 8))))
    return drawn


@pytest.mark.parametrize("F", [QQ, GF], ids=["QQ", "GF"])
def test_internal_builders_return_well_formed_modules_and_maps(F):
    seen = set()
    for rng, alg, m in lab_modules(F, 24):
        assert_module(m)
        assert_module(Representation(alg, {}, {}))
        for v in alg.vertices:
            for kind in ("simple", "projective", "injective"):
                assert_module(standard_module(alg, kind, v))
        assert_module(materialize_term(alg, {v: rng.randint(0, 2) for v in alg.vertices}))
        assert_module(dual_module(m))
        step = projective_cover_and_syzygy(m)
        assert_module(step.syzygy)
        assert_map(step.cover)
        assert_map(step.syzygy_inclusion)
        seen.add("zero syzygy" if step.syzygy.is_zero else "syzygy")
        term = step.term
        rows = {
            v: [[F.of(rng.randint(-1, 1)) for _ in range(term.dims[v])]]
            for v in alg.vertices
            if term.dims[v] and rng.random() < 0.5
        }
        closed = submodule_closure(term, rows)
        sub, incl = embed_submodule(term, closed)
        quot, proj = quotient_by_submodule(term, closed)
        kernel, kincl = kernel_of_map(step.cover)
        for f in (incl, proj, kincl, incl.compose(proj), step.syzygy_inclusion.compose(step.cover)):
            assert_map(f)
        assert_map(dual_map(step.cover))
        for f in hom_basis(m, m) + hom_basis(term, m):
            assert_map(f)
            seen.add("hom")
    assert seen == {"syzygy", "zero syzygy", "hom"}


@pytest.mark.parametrize("F", [QQ, GF], ids=["QQ", "GF"])
def test_a_simple_has_the_node_of_its_checked_construction(F):
    for _, alg, _ in lab_modules(F, 6):
        table = SyzygyTable()
        for v in alg.vertices:
            simple = standard_module(alg, "simple", v)
            assert table.node(simple) == table.node(Representation(alg, {v: 1}, {}))
