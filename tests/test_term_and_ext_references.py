"""Term bookkeeping and Ext tables against the constructions they replaced.

``reference_term_info`` builds every term afresh, generator by generator, as
``term_info`` did before the projective layout kept each P_v's own
bookkeeping.  ``reference_ext_dims`` always fills the Hom complex, with each
element's matrix the product of its path's arrow matrices taken here, and
takes its ranks, as ``_ext_dims_projective`` did before a semisimple N was
read off the tops of the syzygies.  The new code must agree with both
exactly: equal TermInfos, offsets included, equal materialized terms (dims,
matrices with their entry types, and bookkeeping), and equal Ext tables on
both sides, over QQ and GF(p), on random lab modules and on simples.
"""

import random
from itertools import accumulate, islice

import pytest

from quiverhom import (
    QQ,
    IdealSpec,
    InputError,
    PrimeField,
    Quiver,
    Representation,
    build_algebra,
    dual_module,
    ext_dims,
    linalg,
    standard_module,
)
from quiverhom.homology import SyzygyTable
from quiverhom.lab import ALGEBRA_DIM_CAP, _gen_ideal, _gen_module, _gen_quiver
from quiverhom.modules import TermInfo, materialize_term, term_info

from test_cover_step import NAKAYAMA_SHAPES, path_product, same_mats

GF = PrimeField(2**31 - 1)
CUTOFF = 3


def reference_term_info(alg, mults):
    """TermInfo of P_v^{mults[v]}, built from the layout's blocks."""
    generators = tuple((v, c) for v in alg.vertices for c in range(mults.get(v, 0)))
    blocks = alg.projective_layout.blocks
    basis, offsets = {}, {}
    for g, (v, _) in enumerate(generators):
        for w, block in blocks[v].items():
            b = basis.setdefault(w, [])
            offsets.setdefault(w, {})[g] = len(b)
            b.extend((g, i) for i in block)
    full = dict.fromkeys(alg.vertices, ())
    full.update((w, tuple(b)) for w, b in basis.items())
    return TermInfo(generators, full, offsets)


def reference_materialize(alg, mults):
    """The term P_v^{mults[v]} and its TermInfo, from the reference bookkeeping."""
    info = reference_term_info(alg, mults)
    dims = {w: len(b) for w, b in info.basis.items()}
    mats = {}
    for a in alg.quiver.arrows:
        j, starts = alg.arrow_index[a.name], info.offsets.get(a.target)
        mat = linalg.zeros(dims[a.source], dims[a.target], alg.field)
        for p, (g, i) in enumerate(info.basis[a.source]):
            for k, c in alg.table[i].get(j, ()):
                mat[p][starts[g] + alg.projective_layout.local[k]] = c
        mats[a.name] = mat
    return Representation._unchecked(alg, dims, mats), info


def reference_ext_dims(m, n, k):
    """Ext^0..Ext^k of (m's chain, n) from the filled Hom complex's ranks."""
    table = m.table
    path = list(islice(table.walk(m.node), k + 2))
    steps = [table.step(i) for i in path[:-1]]
    vertices, F = n.algebra.vertices, n.field
    gens = [[(v, j) for v in vertices for j in table.modules[i].top_lifts()[v]] for i in path]
    offsets = [list(accumulate((n.dims[v] for v, _ in gen), initial=0)) for gen in gens]
    hom_dims = [offs[-1] for offs in offsets]
    mats = [path_product(n, i) for i in range(n.algebra.dim)]
    ranks = [0]
    for i in range(1, k + 2):
        basis, kernel = steps[i - 1].info.basis, steps[i - 1].kernel
        delta = linalg.zeros(hom_dims[i - 1], hom_dims[i], F)
        for g, (u, j) in enumerate(gens[i]):
            for c, coeff in enumerate(kernel[u][j]):
                if coeff:
                    gsrc, elt = basis[u][c]
                    for a, mrow in enumerate(mats[elt]):
                        row = delta[offsets[i - 1][gsrc] + a]
                        for b, x in enumerate(mrow):
                            col = offsets[i][g] + b
                            row[col] = F.add(row[col], F.mul(coeff, x))
        ranks.append(linalg.rank(delta, hom_dims[i], F))
    return tuple(hom_dims[i] - ranks[i] - ranks[i + 1] for i in range(k + 1))


def assert_terms_match(alg, mults):
    info = term_info(alg, mults)
    assert info == reference_term_info(alg, mults)
    term = materialize_term(alg, mults)
    want, want_info = reference_materialize(alg, mults)
    assert want_info == info
    assert term.dims == want.dims and same_mats(term.mats, want.mats)


def outcome(fn, *args):
    """A function's result, or the message of the InputError it raised."""
    try:
        return fn(*args)
    except InputError as exc:
        return f"InputError: {exc}"


def assert_ext_matches(m, n, seen):
    """Both sides of Ext(m, n) against the reference, each on a fresh table."""
    proj = outcome(lambda: ext_dims(m, n, CUTOFF, "projective").dims)
    assert proj == outcome(reference_ext_dims, SyzygyTable().chain(m), n, CUTOFF)
    inj = outcome(lambda: ext_dims(m, n, CUTOFF, "injective").dims)
    assert inj == outcome(reference_ext_dims, SyzygyTable().chain(n).dual, dual_module(m), CUTOFF)
    for side, into in (("projective", n), ("injective", m)):
        seen.add((side, not any(any(r) for mat in into.mats.values() for r in mat)))


@pytest.mark.parametrize("F", [QQ, GF], ids=["QQ", "GF"])
def test_terms_and_ext_match_the_references_on_lab_modules(F):
    seen, drawn, seed = set(), 0, 0
    while drawn < 30:
        rng = random.Random(seed)
        seed += 1
        q = _gen_quiver(rng, 4, 6)
        alg = build_algebra(q, _gen_ideal(rng, q, "mixed"), F)
        if alg.dim > ALGEBRA_DIM_CAP:
            continue
        m = _gen_module(rng, alg, rng.randint(1, 12))
        n = _gen_module(rng, alg, rng.randint(1, 12))
        simple = standard_module(alg, "simple", rng.choice(alg.vertices))
        for mod in (m, n, dual_module(m), simple, Representation(alg, {}, {})):
            tops = mod.top_lifts()
            assert_terms_match(mod.algebra, {v: len(free) for v, free in tops.items()})
        # sums with no, one, and several generators, repeated ones included
        for _ in range(3):
            assert_terms_match(alg, {v: rng.choice((0, 0, 1, 2)) for v in alg.vertices})
        for pair in ((m, n), (n, m), (m, simple), (simple, n), (simple, simple)):
            assert_ext_matches(*pair, seen)
        drawn += 1
    # N semisimple and not, on both sides
    assert seen == {(side, s) for side in ("projective", "injective") for s in (True, False)}


@pytest.mark.parametrize("F", [QQ, PrimeField(3)], ids=["QQ", "GF3"])
@pytest.mark.parametrize("n, L", NAKAYAMA_SHAPES)
def test_terms_and_ext_match_the_references_on_nakayama_simples(F, n, L):
    arrows = [(f"a{i}", str(i), str((i + 1) % n)) for i in range(n)]
    alg = build_algebra(Quiver.build([str(v) for v in range(n)], arrows), IdealSpec.zero(L), F)
    simples = [standard_module(alg, "simple", v) for v in alg.vertices]
    for v in alg.vertices:
        assert_terms_match(alg, {v: 1})
    seen = set()
    for s in simples:
        for t in simples:
            assert_ext_matches(s, t, seen)
    assert seen == {("projective", True), ("injective", True)}


@pytest.mark.parametrize("p", [2, 3])
def test_ext_matches_the_reference_where_a_hom_complex_entry_cancels_mod_p(p):
    # on the Kronecker quiver M has k at both vertices and both arrows the
    # identity, so its first syzygy is spanned by a - b, and each diagonal
    # entry of the 2 x 2 delta_1 into N = M + M is 1 * 1 + (p - 1) * 1 = p:
    # summed as plain ints, it is zero only once rref reduces its input
    F = PrimeField(p)
    alg = build_algebra(Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), IdealSpec.zero(2), F)
    m = Representation(alg, {"1": 1, "2": 1}, {"a": [[1]], "b": [[1]]})
    n = Representation(alg, {"1": 2, "2": 2}, {"a": linalg.identity(2, F), "b": linalg.identity(2, F)})
    assert ext_dims(m, n, CUTOFF).dims == (2, 2, 0, 0)
    assert_ext_matches(m, n, set())
