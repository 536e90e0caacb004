"""Closed forms for Ext between simples, on the algebras the suites admit.

The 80 algebras of ``golden/admitted_seed1.json`` are drawn again from their
admitted seeds, as the admission loop draws them, and each is checked over
QQ and GF(5) against three answers that come from no resolution:

- Ext^0(S_v, S_w) = [v = w];
- Ext^1(S_v, S_w) = the number of arrows v -> w.  The drawn ideals are
  admissible (relations lie in J^2 and J^n lies in I), so the arrows from v
  span e_v J / J^2, the top of the radical of P_v;
- the Euler form: when pd S_v is finite and the Cartan matrix C, whose row v
  is the dimension vector of P_v, is invertible,
  sum_i (-1)^i dim Ext^i(S_v, S_w) = (C^-1)_vw.  C is inverted here by a
  Fraction elimination of its own.

Simples into simples take the semisimple shortcut, so these check the tops
and multiplicities of the terms, not the Hom complex.  Floors on the counts
keep a growing number of skipped simples from going unseen.
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
    counts = {"pairs": 0, "arrow pairs": 0, "euler pairs": 0}
    for q, alg, dim in admitted_algebras(F):
        assert alg.dim == dim
        verts = q.vertices
        arrows = {(v, w): 0 for v in verts for w in verts}
        for a in q.arrows:
            arrows[(a.source, a.target)] += 1
        ends = [(el.source, el.target) for el in alg.elements]
        inv = inverse([[ends.count((v, w)) for w in verts] for v in verts])
        simples = {v: SyzygyTable().chain(standard_module(alg, "simple", v)) for v in verts}
        for i, v in enumerate(verts):
            try:
                pd = proj_dim(simples[v], PD_CUTOFF)
            except InputError:  # a term past the width budget
                pd = None
            euler = inv is not None and pd is not None and pd.is_finite
            cutoff = max(pd.value, 1) if euler else 1
            for j, w in enumerate(verts):
                got = ext_dims(simples[v], simples[w], cutoff).dims
                assert got[:2] == (int(v == w), arrows[(v, w)]), (q, v, w)
                counts["pairs"] += 1
                counts["arrow pairs"] += arrows[(v, w)] > 0
                if euler:
                    assert sum((-1) ** k * d for k, d in enumerate(got)) == inv[i][j], (q, v, w)
                    counts["euler pairs"] += 1
    # per field at this writing: 2 967 pairs, 252 with arrows, 2 529 in the Euler
    # check; 8 simples refused at the width budget and 2 singular C skipped
    assert counts["arrow pairs"] >= 250 and counts["euler pairs"] >= 2500, counts
