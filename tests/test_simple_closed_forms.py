"""Closed forms for Ext between simples, on the algebras the suites admit.

The 80 algebras of ``golden/admitted_seed1.json`` are drawn again from their
admitted seeds, as the admission loop draws them, and each is checked over
QQ and GF(5) against four answers that come from no resolution:

- Ext^0(S_v, S_w) = [v = w];
- Ext^1(S_v, S_w) = the number of arrows v -> w.  The drawn ideals are
  admissible (relations lie in J^2 and J^n lies in I), so the arrows from v
  span e_v J / J^2, the top of the radical of P_v;
- Ext^2(S_v, S_w) = dim e_v (I / (IJ + JI)) e_w, the number of minimal
  relations from v to w (Bongartz).  Modulo J^(n+1), which lies in IJ, I is
  spanned by the truncated products p.rho.s and the paths of length n, and
  IJ + JI by the products with |p| + |s| >= 1.  Both are ranked by an
  elimination of their own that reads only the quiver and the relations;
- the Euler form: when pd S_v is finite and the Cartan matrix C, whose row v
  is the dimension vector of P_v, is invertible,
  sum_i (-1)^i dim Ext^i(S_v, S_w) = (C^-1)_vw.  C is inverted here by a
  Fraction elimination of its own.

Simples refused at the width budget are checked up to Ext^1 only.  Simples
into simples take the semisimple shortcut, so these check the tops and
multiplicities of the terms, not the Hom complex.  Floors on the counts keep
a growing number of skipped simples from going unseen.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from quiverhom import QQ, InputError, PrimeField, build_algebra, ext_dims, proj_dim, standard_module
from quiverhom.homology import SyzygyTable
from quiverhom.lab import MAX_ARROWS, MAX_ATTEMPTS, MAX_VERTICES, RELATION_STYLE, _gen_ideal, _gen_quiver

GOLDEN = Path(__file__).parent / "golden" / "admitted_seed1.json"
PD_CUTOFF = 6


def minimal_relations(q, ideal, p=None):
    """dim e_v (I / (IJ + JI)) e_w per (v, w), over QQ or, given p, GF(p)."""
    n = ideal.truncation
    level = [(v, (), v) for v in q.vertices]
    paths = list(level)
    for _ in range(n):
        level = [(s, arrows + (a.name,), a.target) for s, arrows, t in level for a in q.arrows if a.source == t]
        paths += level
    spans = {"I": {}, "IJ + JI": {}}
    for src, tgt, terms in ideal.uniform_relations(q):
        for u, pre, _ in (x for x in paths if x[2] == src):
            for _, post, t in (x for x in paths if x[0] == tgt):
                row = {pre + term + post: Fraction(c) for c, term in terms if len(pre + term + post) <= n}
                for name in ("I", "IJ + JI") if pre or post else ("I",):
                    spans[name].setdefault((u, t), []).append(row)
    for s, arrows, t in paths:
        if len(arrows) == n:
            spans["I"].setdefault((s, t), []).append({arrows: Fraction(1)})
    ranks = {name: {ends: sparse_rank(rows, p) for ends, rows in span.items()} for name, span in spans.items()}
    return {ends: r - ranks["IJ + JI"].get(ends, 0) for ends, r in ranks["I"].items()}


def sparse_rank(rows, p=None):
    """Rank of rows given as {column: Fraction}, over QQ or, given p, GF(p)."""
    if p is not None:
        rows = [{k: x.numerator * pow(x.denominator, -1, p) % p for k, x in row.items()} for row in rows]
    pivots = {}
    for row in rows:
        row = {k: x for k, x in row.items() if x}
        while row and min(row) in pivots:
            piv = pivots[min(row)]
            f = row[min(row)] / piv[min(row)] if p is None else row[min(row)] * pow(piv[min(row)], -1, p)
            for k, x in piv.items():
                row[k] = row.get(k, 0) - f * x if p is None else (row.get(k, 0) - f * x) % p
            row = {k: x for k, x in row.items() if x}
        if row:
            pivots[min(row)] = row
    return len(pivots)


def admitted_algebras(F):
    """(quiver, algebra, golden dim) per golden row, drawn from its seed as
    ``lab._admit`` draws it: small quivers from the second half of the attempts on."""
    out = []
    for _, _, attempts, seed, dim in json.loads(GOLDEN.read_text()):
        rng = random.Random(seed)
        small = attempts - 1 >= MAX_ATTEMPTS // 2
        q = _gen_quiver(rng, 3 if small else MAX_VERTICES, 4 if small else MAX_ARROWS)
        alg = build_algebra(q, _gen_ideal(rng, q, RELATION_STYLE), F)
        out.append((q, alg, dim))
    return out


def inverse(rows):
    """The inverse of a square matrix of ints, by Gauss-Jordan over Fractions,
    or None when it is singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@pytest.mark.parametrize("F", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_ext_between_simples_meets_its_closed_forms(F):
    counts = {"pairs": 0, "arrow pairs": 0, "euler pairs": 0, "ext2 pairs": 0, "relation pairs": 0}
    for q, alg, dim in admitted_algebras(F):
        assert alg.dim == dim
        verts = q.vertices
        arrows = {(v, w): 0 for v in verts for w in verts}
        for a in q.arrows:
            arrows[(a.source, a.target)] += 1
        ends = [(el.source, el.target) for el in alg.elements]
        inv = inverse([[ends.count((v, w)) for w in verts] for v in verts])
        relations = minimal_relations(q, alg.ideal, None if F == QQ else F.p)
        simples = {v: SyzygyTable().chain(standard_module(alg, "simple", v)) for v in verts}
        for i, v in enumerate(verts):
            try:
                pd = proj_dim(simples[v], PD_CUTOFF)
            except InputError:  # a term past the width budget
                pd = None
            euler = inv is not None and pd is not None and pd.is_finite
            cutoff = max(pd.value, 2) if euler else 1 if pd is None else 2
            for j, w in enumerate(verts):
                got = ext_dims(simples[v], simples[w], cutoff).dims
                assert got[:2] == (int(v == w), arrows[(v, w)]), (q, v, w)
                counts["pairs"] += 1
                counts["arrow pairs"] += arrows[(v, w)] > 0
                if pd is not None:
                    assert got[2] == relations.get((v, w), 0), (q, v, w)
                    counts["ext2 pairs"] += 1
                    counts["relation pairs"] += got[2] > 0
                if euler:
                    assert sum((-1) ** k * d for k, d in enumerate(got)) == inv[i][j], (q, v, w)
                    counts["euler pairs"] += 1
    # per field at this writing: 2 967 pairs, 252 with arrows, 2 529 in the Euler
    # check, 2 922 in the Ext^2 check and 130 of those nonzero; 8 simples refused
    # at the width budget and 2 singular C skipped
    assert counts["arrow pairs"] >= 250 and counts["euler pairs"] >= 2500, counts
    assert counts["ext2 pairs"] >= 2900 and counts["relation pairs"] >= 125, counts
