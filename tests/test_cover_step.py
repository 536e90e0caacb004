"""The cover step against the construction it replaced.

The reference builds the whole term densely (the product-table construction
written out below, with no projective layout), maps each term basis element
to the lift row of its element's matrix, the product of its path's arrow
matrices taken here, and takes the syzygy with ``kernel_of_map``.
``projective_cover_and_syzygy`` must agree with it exactly: syzygy
dimensions and matrices, kernel bases, term bookkeeping, and the minimality
certificate, term, cover and inclusion it builds on first read.
Computed matrices are compared entry by entry with their types, so an int
where the reference has a Fraction counts as a difference too; the term's
entries are product-table coefficients, copied, so its matrices are
compared by value.
"""

import random
from unittest import mock

import pytest

from quiverhom import (
    QQ,
    IdealSpec,
    InputError,
    ModuleMap,
    PrimeField,
    Quiver,
    Representation,
    build_algebra,
    dual_module,
    ext_dims,
    homology,
    is_projective_module,
    linalg,
    standard_module,
)
from quiverhom.homology import MAX_TERM_WIDTH, SyzygyTable, cover_width, projective_cover_and_syzygy, resolution
from quiverhom.lab import ALGEBRA_DIM_CAP, _gen_ideal, _gen_module, _gen_quiver, _widths_ok
from quiverhom.modules import TermInfo, kernel_of_map, materialize_term

GF = PrimeField(2**31 - 1)
# the (vertices, relation length) shapes of the benchmark's self-injective Nakayama algebras
NAKAYAMA_SHAPES = ((1, 2), (2, 3), (3, 2), (3, 4), (4, 3), (5, 6), (6, 5), (4, 7), (7, 4))


def reference_term(alg, mults):
    """P_v^{mults[v]} with a position per (generator, element) pair, as the
    term was built before the projective layout."""
    q, F = alg.quiver, alg.field
    generators = [(v, c) for v in alg.vertices for c in range(mults.get(v, 0))]
    basis = {w: [] for w in q.vertices}
    offsets = {}  # per w, where each generator's first element at w sits
    for g, (v, _) in enumerate(generators):
        for i, el in enumerate(alg.elements):
            if el.source == v:
                offsets.setdefault(el.target, {}).setdefault(g, len(basis[el.target]))
                basis[el.target].append((g, i))
    pos = {w: {pair: p for p, pair in enumerate(basis[w])} for w in q.vertices}
    mats = {}
    for a in q.arrows:
        j = alg.arrow_index[a.name]
        mat = linalg.zeros(len(basis[a.source]), len(basis[a.target]), F)
        for p, (g, i) in enumerate(basis[a.source]):
            for k, c in alg.table[i].get(j, ()):
                mat[p][pos[a.target][(g, k)]] = c
        mats[a.name] = mat
    dims = {w: len(rows) for w, rows in basis.items()}
    info = TermInfo(tuple(generators), {w: tuple(r) for w, r in basis.items()}, offsets)
    return Representation._unchecked(alg, dims, mats), info


def path_product(m, i):
    """The matrix of basis element i on m: its path's arrow matrices
    multiplied left to right, or the identity for a vertex."""
    el, F = m.algebra.elements[i], m.field
    if not el.arrows:
        return linalg.identity(m.dims[el.source], F)
    mat = m.mats[el.arrows[0]]
    for name in el.arrows[1:]:
        mat = linalg.mat_mul(mat, m.mats[name], m.dims[m.algebra.quiver.arrow_by_name[name].target], F)
    return mat


def reference_step(m):
    """(mults, term, info, cover, syzygy, inclusion, minimal) of the dense construction."""
    lifts = m.top_lifts()
    mults = {v: len(free) for v, free in lifts.items()}
    term, info = reference_term(m.algebra, mults)
    mats = [path_product(m, i) for i in range(m.algebra.dim)]
    blocks = {}
    for w, pairs in info.basis.items():
        rows = []
        for g, i in pairs:
            v, c = info.generators[g]
            rows.append(list(mats[i][lifts[v][c]]))
        blocks[w] = rows
    cover = ModuleMap._unchecked(term, m, blocks)
    syz, incl = kernel_of_map(cover)
    # each generator's unit, found by its idempotent in the basis
    idem = m.algebra.idempotent_index
    units = [(v, info.basis[v].index((g, idem[v]))) for g, (v, _) in enumerate(info.generators)]
    minimal = not any(row[p] for w, p in units for row in incl.blocks[w])
    return mults, term, info, cover, syz, incl, minimal


def same_mats(a, b):
    """Equal dicts of matrices, each nonzero entry of the same type as well."""
    typed = [[(type(x), x) for k in sorted(d) for row in d[k] for x in row if x] for d in (a, b)]
    return a == b and typed[0] == typed[1]


def same_module(a, b):
    return a.algebra is b.algebra and a.dims == b.dims and same_mats(a.mats, b.mats)


def assert_step_matches(m):
    """The cover step of m equals the reference; returns its syzygy, or None
    when the cover is past the term budget (refused by both)."""
    try:
        with mock.patch.object(linalg, "vec_mat", wraps=linalg.vec_mat) as vec_mat:
            step = projective_cover_and_syzygy(m)
    except InputError:
        assert cover_width(m) > MAX_TERM_WIDTH
        return None
    # the lift walk takes one product per element of length >= 2, and none past a zero row
    walks, elements = m.algebra.projective_layout.walks, m.algebra.elements
    longer = sum(len(elements[i].arrows) >= 2 for v, _ in step.info.generators for i in walks[v])
    assert vec_mat.call_count <= longer
    mults, term, info, cover, syz, incl, minimal = reference_step(m)
    # the certificate, the term, the cover and the inclusion are built only when read
    assert not {"minimal", "term", "cover", "syzygy_inclusion"} & set(vars(step))
    assert step.mults == mults and step.info == info and step.minimal == minimal
    assert same_module(step.syzygy, syz)
    assert same_mats(step.kernel, incl.blocks)
    assert step.term.algebra is m.algebra and step.term.dims == term.dims
    assert step.term.mats == term.mats
    assert step.cover.source is step.term and step.cover.target is m
    assert same_mats(step.cover.blocks, cover.blocks)
    assert step.syzygy_inclusion.source is step.syzygy
    assert step.syzygy_inclusion.target is step.term
    assert same_mats(step.syzygy_inclusion.blocks, incl.blocks)
    return step.syzygy


def assert_chain_matches(m, depth):
    """Steps m and its first syzygies, up to depth steps, against the reference."""
    for _ in range(depth):
        m = assert_step_matches(m)
        if m is None or m.is_zero:
            return


@pytest.mark.parametrize("F", [QQ, GF], ids=["QQ", "GF"])
def test_cover_step_matches_dense_reference_on_lab_modules(F):
    drawn, seed = 0, 0
    while drawn < 200:
        rng = random.Random(seed)
        seed += 1
        q = _gen_quiver(rng, 4, 6)
        alg = build_algebra(q, _gen_ideal(rng, q, "mixed"), F)
        if alg.dim > ALGEBRA_DIM_CAP:
            continue
        m = _gen_module(rng, alg, rng.randint(1, 12))
        assert_chain_matches(m, 3)
        assert_chain_matches(dual_module(m), 3)
        drawn += 1


@pytest.mark.parametrize("F", [QQ, GF], ids=["QQ", "GF"])
def test_ext_tables_and_the_width_gate_leave_the_certificate_unread(F):
    # the lab corpus above, on one table: the width gate to depth 4 on both
    # sides, then the Ext tables of each module with itself on both sides
    drawn, seed, table, tables = 0, 0, SyzygyTable(), 0
    while drawn < 60:
        rng = random.Random(seed)
        seed += 1
        q = _gen_quiver(rng, 4, 6)
        alg = build_algebra(q, _gen_ideal(rng, q, "mixed"), F)
        if alg.dim > ALGEBRA_DIM_CAP:
            continue
        m = table.chain(_gen_module(rng, alg, rng.randint(1, 12)))
        drawn += 1
        if _widths_ok(m, 4) and _widths_ok(m.dual, 4):
            for side in ("projective", "injective"):
                ext_dims(m, m, 3, side)
            tables += 1
    assert tables >= 30 and len(table.steps) >= 200
    assert not any("minimal" in vars(step) for step in table.steps.values())
    # a resolution is its one reader
    assert resolution(m, 2).minimal
    assert "minimal" in vars(m.step)


@pytest.mark.parametrize("F", [QQ, GF], ids=["QQ", "GF"])
def test_the_width_budget_admits_its_edge_and_refuses_one_past_it(F):
    # on 1 -> 2 -> 3 -> 4 -> 5, P_1 has dim 5 and P_5 dim 1: the semisimple
    # S_1^100 has a cover exactly MAX_TERM_WIDTH wide, and S_1^100 + S_5 one wider
    q = Quiver.build([str(v) for v in range(1, 6)], [(f"a{v}", str(v), str(v + 1)) for v in range(1, 5)])
    alg = build_algebra(q, IdealSpec.zero(5), F)
    k = MAX_TERM_WIDTH // 5
    edge = Representation(alg, {"1": k}, {})
    past = Representation(alg, {"1": k, "5": 1}, {})
    assert (cover_width(edge), cover_width(past)) == (MAX_TERM_WIDTH, MAX_TERM_WIDTH + 1)
    refusal = f"^projective cover of dim {MAX_TERM_WIDTH + 1} exceeds budget {MAX_TERM_WIDTH}$"
    step = projective_cover_and_syzygy(edge)
    assert step.mults["1"] == k and step.syzygy.total_dim == MAX_TERM_WIDTH - k
    with pytest.raises(InputError, match=refusal):
        projective_cover_and_syzygy(past)
    # into a semisimple module, Ext^0 reads the top of Omega^0, whose width
    # is refused as its cover step would refuse it, with no step taken
    table, simple = SyzygyTable(), standard_module(alg, "simple", "1")
    assert ext_dims(table.chain(edge), simple, 0).dims == (k,)
    with pytest.raises(InputError, match=refusal):
        ext_dims(table.chain(past), simple, 0)
    assert not table.steps


@pytest.mark.parametrize("F", [QQ, PrimeField(3)], ids=["QQ", "GF3"])
def test_projectivity_is_the_cover_step_having_zero_syzygy_on_lab_modules(F):
    # the reference is the definition the width test replaced: a cover step
    # whose syzygy is zero; each lab module comes with its dual, its first
    # two syzygies and the indecomposable projectives of its algebra
    drawn, seed, verdicts = 0, 0, []
    while drawn < 80:
        rng = random.Random(seed)
        seed += 1
        q = _gen_quiver(rng, 4, 6)
        alg = build_algebra(q, _gen_ideal(rng, q, "mixed"), F)
        if alg.dim > ALGEBRA_DIM_CAP:
            continue
        drawn += 1
        m = _gen_module(rng, alg, rng.randint(1, 12))
        modules = [m, dual_module(m), *(standard_module(alg, "projective", v) for v in alg.vertices)]
        for _ in range(2):
            if cover_width(m) <= MAX_TERM_WIDTH:
                m = projective_cover_and_syzygy(m).syzygy
                modules.append(m)
        for x in modules:
            # a cover past the budget has no reference step
            if cover_width(x) <= MAX_TERM_WIDTH:
                verdicts.append((is_projective_module(x), x.is_zero))
                assert verdicts[-1][0] == projective_cover_and_syzygy(x).syzygy.is_zero
    # projective and non-projective ones, zero modules aside
    assert verdicts.count((True, False)) >= 250 and verdicts.count((False, False)) >= 100


@pytest.mark.parametrize("F", [QQ, GF], ids=["QQ", "GF"])
def test_projectivity_past_the_width_budget_takes_no_cover_step(F):
    # on 1 -> 2 -> 3 -> 4 -> 5 with P_1 of dim 5: P_1^101 and S_1^100 + S_5
    # have covers one past and five past the budget, which a step refuses
    q = Quiver.build([str(v) for v in range(1, 6)], [(f"a{v}", str(v), str(v + 1)) for v in range(1, 5)])
    alg = build_algebra(q, IdealSpec.zero(5), F)
    wide = materialize_term(alg, {"1": MAX_TERM_WIDTH // 5 + 1})
    past = Representation(alg, {"1": MAX_TERM_WIDTH // 5, "5": 1}, {})
    for m in (wide, past):
        with pytest.raises(InputError, match="exceeds budget"):
            projective_cover_and_syzygy(m)
    with mock.patch.object(homology, "projective_cover_and_syzygy", side_effect=AssertionError) as step:
        assert is_projective_module(wide) and not is_projective_module(past)
    assert not step.called


@pytest.mark.parametrize("F", [QQ, GF], ids=["QQ", "GF"])
@pytest.mark.parametrize("n, L", NAKAYAMA_SHAPES)
def test_cover_step_matches_dense_reference_on_nakayama_simples(F, n, L):
    arrows = [(f"a{i}", str(i), str((i + 1) % n)) for i in range(n)]
    alg = build_algebra(Quiver.build([str(v) for v in range(n)], arrows), IdealSpec.zero(L), F)
    for v in alg.vertices:
        assert_chain_matches(standard_module(alg, "simple", v), 4)


def test_cover_step_matches_dense_reference_with_repeated_generators():
    # a top of dimension 2 at one vertex: two generators share their element paths
    q = Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    alg = build_algebra(q, IdealSpec.zero(4), QQ)
    p1 = standard_module(alg, "projective", "1")
    # P_1 + P_1, its matrices block diagonal
    mats = {
        a: [r + [0] * len(r) for r in mat] + [[0] * len(r) + r for r in mat]
        for a, mat in p1.mats.items()
    }
    m = Representation(alg, {v: 2 * d for v, d in p1.dims.items()}, mats)
    assert projective_cover_and_syzygy(m).mults == {"1": 2, "2": 0}
    assert_chain_matches(m, 4)


def test_cover_step_matches_dense_reference_on_the_zero_module():
    q = Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    for F in (QQ, GF):
        alg = build_algebra(q, IdealSpec.zero(3), F)
        syz = assert_step_matches(Representation(alg, {}, {}))
        assert syz.is_zero


def gap_module(F):
    """On 1 -> 2 -> 3 -> 4 with J^3 = 0: k at 1, 3 and 4, zero at 2, and the
    arrow 3 -> 4 the identity.  Its top is at 1 and 3; at 4 the cover has one
    row, from the path 3 -> 4, for the module's one dimension."""
    q = Quiver.build(["1", "2", "3", "4"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")])
    alg = build_algebra(q, IdealSpec.zero(3), F)
    return Representation(alg, {"1": 1, "3": 1, "4": 1}, {"c": [[F.one]]})


@pytest.mark.parametrize("F", [QQ, GF], ids=["QQ", "GF"])
def test_cover_step_matches_dense_reference_where_the_rows_equal_the_dimension(F):
    m = gap_module(F)
    step = projective_cover_and_syzygy(m)
    assert len(step.cover_rows["4"]) == m.dims["4"] == 1
    assert_chain_matches(m, 4)


def counted_eliminations(monkeypatch):
    """The top-level rref and RowSpace calls from here on, as (kind, rows, ncols)."""
    calls, depth = [], [0]

    def counted(kind, fn):
        def wrapper(*args):
            if not depth[0]:
                calls.append((kind, len(args[-3]), args[-2]))
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1

        return wrapper

    monkeypatch.setattr(linalg, "rref", counted("rref", linalg.rref))
    monkeypatch.setattr(linalg.RowSpace, "__init__", counted("RowSpace", linalg.RowSpace.__init__))
    return calls


@pytest.mark.parametrize("F", [QQ, GF], ids=["QQ", "GF"])
def test_a_cover_step_eliminates_only_where_the_term_or_the_radical_is(F, monkeypatch):
    # the simple at 0 of the 7-cycle with J^4 = 0: no radical rows anywhere,
    # and the term P_0 reaches 0..3 along one path, a row at each
    arrows = [(f"a{i}", str(i), str((i + 1) % 7)) for i in range(7)]
    alg = build_algebra(Quiver.build([str(v) for v in range(7)], arrows), IdealSpec.zero(4), F)
    simple = standard_module(alg, "simple", "0")
    gap = gap_module(F)
    calls = counted_eliminations(monkeypatch)
    step = projective_cover_and_syzygy(simple)
    # 0 has no radical, so its one row, the unit, needs no rank; 1..3 have
    # rows and no dimension, so their kernel is every row, taken without a
    # RowSpace
    assert calls == []
    assert step.syzygy.dims == {str(v): int(v in (1, 2, 3)) for v in range(7)}
    calls.clear()
    step = projective_cover_and_syzygy(gap)
    # top lifts at 4, the only vertex with radical rows, read its one row's
    # pivot; at 4 the cover has one row (the path 3 -> 4), whose rank is
    # decided without rref; at 2 the path 1 -> 2 runs into a zero component,
    # which is all kernel; 1 and 3 have no radical, so their rows are the
    # units at their generators and zero rows, the kernel read off with no
    # elimination: at 3 the path 1 -> 3 (zero) beside the unit row of P_3
    assert calls == []
    assert step.syzygy.dims == {"1": 0, "2": 1, "3": 1, "4": 0}


def all_top_module(F):
    """On 1 => 2 -> 3 (arrows a and a2 from 1 to 2, b from 2 to 3) with
    J^3 = 0: k^2 at each vertex, a and a2 acting by zero and b invertible.
    M_2 has no radical (d = 2) and its cover has six rows, the units of its
    two generators after the zero rows of a and a2 from the two at 1; M_3 is
    all radical, its six rows of rank 2."""
    q = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("a2", "1", "2"), ("b", "2", "3")])
    alg = build_algebra(q, IdealSpec.zero(3), F)
    zero, one = F.zero, F.one
    mats = {"a": [[zero, zero]] * 2, "a2": [[zero, zero]] * 2, "b": [[one, zero], [one, one]]}
    return Representation(alg, {"1": 2, "2": 2, "3": 2}, mats)


@pytest.mark.parametrize("F", [QQ, GF], ids=["QQ", "GF"])
def test_a_vertex_without_radical_takes_its_kernel_with_no_elimination(F, monkeypatch):
    m = all_top_module(F)
    assert m.top_lifts() == {"1": [0, 1], "2": [0, 1], "3": []}
    calls = counted_eliminations(monkeypatch)
    step = projective_cover_and_syzygy(m)
    assert (len(step.cover_rows["2"]), len(step.cover_rows["3"])) == (6, 6)
    # only the vertex with a radical eliminates; at 2 the zero rows are the kernel
    assert calls == [("RowSpace", 6, 2)]
    assert step.kernel_entries["2"] == [[(c, F.one)] for c in range(4)]
    assert step.syzygy.dims == {"1": 0, "2": 4, "3": 4}
    assert_chain_matches(m, 4)


def test_resolving_the_nakayama_simples_eliminates_pinned_cells(monkeypatch):
    # every simple of the oriented 4-cycle with J^7 = 0 over GF(2^31 - 1),
    # resolved to cutoff 8; cells are rows x columns summed over every rref,
    # those inside a RowSpace included
    arrows = [(f"a{i}", str(i), str((i + 1) % 4)) for i in range(4)]
    alg = build_algebra(Quiver.build([str(v) for v in range(4)], arrows), IdealSpec.zero(7), GF)
    cells, rref = [], linalg.rref

    def counted(rows, ncols, F):
        cells.append(len(rows) * ncols)
        return rref(rows, ncols, F)

    monkeypatch.setattr(linalg, "rref", counted)
    for v in alg.vertices:
        resolution(standard_module(alg, "simple", v), 8)
    # each kernel eliminates the d x r reversed transpose of its r x d block,
    # not the r x (d + r) matrix [rows | I], which made 416 cells; a vertex
    # with no radical eliminates nothing
    assert (len(cells), sum(cells)) == (80, 256)


def test_cover_steps_keep_kernel_rows_as_pairs_and_build_dense_rows_only_when_read(monkeypatch):
    # every simple of the oriented 4-cycle with J^7 = 0 over GF(2^31 - 1),
    # resolved to cutoff 8 through ext_dims, into a simple (whose complex has
    # zero maps) and into a projective (whose complex reads the kernel rows)
    arrows = [(f"a{i}", str(i), str((i + 1) % 4)) for i in range(4)]
    alg = build_algebra(Quiver.build([str(v) for v in range(4)], arrows), IdealSpec.zero(7), GF)
    simples = [standard_module(alg, "simple", v) for v in alg.vertices]
    p0 = standard_module(alg, "projective", "0")
    identities, inside = [], [False]
    identity, cover = linalg.identity, homology.projective_cover_and_syzygy

    def counted_identity(n, F):
        identities.append(inside[0])
        return identity(n, F)

    def flagged_step(m):
        inside[0] = True
        try:
            return cover(m)
        finally:
            inside[0] = False

    monkeypatch.setattr(linalg, "identity", counted_identity)
    monkeypatch.setattr(homology, "projective_cover_and_syzygy", flagged_step)
    table = SyzygyTable()
    for s in simples:
        chain = table.chain(s)
        assert ext_dims(chain, simples[0], 8) == ext_dims(s, simples[0], 8)
        assert ext_dims(chain, p0, 8) == ext_dims(s, p0, 8)
    # no cover step wrote out an identity, where a component of the module is zero
    assert True not in identities
    steps = table.steps.values()
    assert len(steps) >= 4 and all("kernel" not in vars(step) for step in steps)
    for step in steps:
        # the inclusion builds the dense kernel, and each pair is an entry of it
        blocks = step.syzygy_inclusion.blocks
        assert "kernel" in vars(step) and blocks == step.kernel
        for w, rows in step.kernel_entries.items():
            assert [[(c, x) for c, x in enumerate(row) if x] for row in blocks[w]] == rows
