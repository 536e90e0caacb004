"""Two theorems, and a symmetry, as oracles for homological dimensions.

A resolution alone decides every ``Finite`` and ``Infinite`` verdict of
``proj_dim``, ``inj_dim`` and ``gl_dim``.  Two theorems give necessary
conditions on those verdicts that share no code with it:

- Eilenberg ("Algebras of cohomologically finite dimension", Comment. Math.
  Helv. 28, 1954): if gl.dim A is finite, the Cartan matrix C is invertible
  over the integers, det C = ±1.  Here C_vw is the number of basis elements
  from v to w, read off the basis elements' ends, and det C is taken by a
  Fraction elimination of its own.  So no ``Finite`` ``gl_dim`` may have
  |det C| ≠ 1;
- the strong no loop theorem (Igusa–Liu–Paquette, Adv. Math. 228, 2011):
  over an elementary algebra, a simple S with Ext^1(S, S) ≠ 0 has infinite
  projective dimension, and over the opposite algebra infinite injective
  dimension.  The drawn relations lie in J^2 and the truncation is at least
  2, so Ext^1(S_v, S_v) ≠ 0 exactly when v has a loop.  So no simple at a
  looped vertex may have a ``Finite`` pd or id.

And gl.dim A = gl.dim A^op: both are the supremum of id S over the simple
A-modules S, as the dual D(S) has pd over A^op equal to id S.  So two
decided verdicts for an algebra and its opposite agree.

They are checked on the 80 algebras of ``golden/admitted_seed1.json``, drawn
again as ``test_simple_closed_forms`` draws them, on their opposites and on
the heart Γ of each whose heart is nonempty, over QQ and GF(5), at cutoff
24.  A ``Finite`` verdict with det C = ±1 is consistent with both theorems,
so the counts of the verdicts each check constrains are pinned as floors.
A planted fault that reads a lasso as ``Finite`` must fail both theorem
checks.
"""

from collections import Counter
from fractions import Fraction
from functools import cache

import pytest

import quiverhom.homology as homology
from quiverhom import QQ, DimBound, InputError, PrimeField, opposite_algebra, restricted_algebra, standard_module

from test_simple_closed_forms import admitted_algebras

CUTOFF = 24
FIELDS = [QQ, PrimeField(5)]
IDS = ["QQ", "GF5"]


def determinant(rows):
    """The determinant of a square matrix of ints, by elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def cartan_unimodular(alg) -> bool:
    """Whether det C = ±1, C_vw the number of basis elements from v to w."""
    ends = Counter((el.source, el.target) for el in alg.elements)
    return abs(determinant([[ends[v, w] for w in alg.vertices] for v in alg.vertices])) == 1


def verdict(decide, *args) -> str:
    """The bound as printed, or "refused" when a term passes the width budget."""
    try:
        return str(decide(*args))
    except InputError:
        return "refused"


def kind(v: str) -> str:
    return v.split("(")[0]


def survey(F):
    """Per golden row: the gl_dim verdicts and Cartan flags of the row, its
    opposite and its heart Γ, and the pd and id verdicts of its looped
    simples.  The verdicts are read through the homology module, so a fault
    planted there is read too."""
    rows = []
    for q, alg, _ in admitted_algebras(F):
        algebras = {"row": alg, "opposite": opposite_algebra(alg)}
        heart = q.homological_heart().heart
        if not heart.is_empty:
            algebras["heart"] = restricted_algebra(alg, heart)
        gl = {name: (verdict(homology.gl_dim, a, CUTOFF), cartan_unimodular(a)) for name, a in algebras.items()}
        looped = sorted({a.source for a in q.arrows if a.source == a.target})
        simples = [standard_module(alg, "simple", v) for v in looped]
        sides = {
            side: [verdict(decide, s, CUTOFF) for s in simples]
            for side, decide in (("pd", homology.proj_dim), ("id", homology.inj_dim))
        }
        rows.append((gl, sides))
    return rows


def eilenberg_violations(rows):
    return [(n, name, v) for n, (gl, _) in enumerate(rows) for name, (v, unimodular) in gl.items()
            if kind(v) == "Finite" and not unimodular]


def no_loop_violations(rows):
    return [(n, side, v) for n, (_, sides) in enumerate(rows) for side, vs in sides.items()
            for v in vs if kind(v) == "Finite"]


def opposite_violations(rows):
    # two decided verdicts must be equal; an open one (AtLeast, refused) bounds nothing here
    decided = ("Finite", "Infinite")
    return [(n, gl["row"][0], gl["opposite"][0]) for n, (gl, _) in enumerate(rows)
            if kind(gl["row"][0]) in decided and kind(gl["opposite"][0]) in decided
            and gl["row"][0] != gl["opposite"][0]]


CHECKS = {"eilenberg": eilenberg_violations, "no loop": no_loop_violations, "opposite": opposite_violations}
surveyed = cache(survey)  # the fault test surveys afresh


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
@pytest.mark.parametrize("check", CHECKS)
def test_dimension_verdicts_meet_the_theorems(F, check):
    assert CHECKS[check](surveyed(F)) == []


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
def test_the_theorems_constrain_the_verdicts_they_are_pinned_on(F):
    rows = surveyed(F)
    assert len(rows) == 80
    gl = Counter((name, kind(v), unimodular) for g, _ in rows for name, (v, unimodular) in g.items())
    sides = Counter((side, kind(v)) for _, s in rows for side, vs in s.items() for v in vs)
    # at this writing, on both fields: the rows read 46 Finite (det ±1), 28
    # Infinite, 1 AtLeast and 5 refused (|det| ≠ 1); the 36 nonempty hearts
    # 2 Finite (det ±1), 28 Infinite, 1 AtLeast and 5 refused; the 35 looped
    # simples' pd 27 Infinite, 4 AtLeast and 4 refused, their id 27, 5 and 3;
    # and every opposite reads as its row
    det_not_unit = Counter(name for g, _ in rows for name, (_, unimodular) in g.items() if not unimodular)
    assert gl["row", "Finite", True] >= 46 and det_not_unit["row"] >= 34, gl
    assert gl["heart", "Infinite", False] >= 28 and det_not_unit["heart"] >= 34, gl
    assert sides["pd", "Infinite"] >= 27 and sides["id", "Infinite"] >= 27, sides
    assert sum(g["row"][0] == g["opposite"][0] for g, _ in rows) == 80


FAULTS = {
    # a repeated syzygy read as a resolution that ends at the cutoff
    "lasso read as Finite": lambda bound: DimBound.finite(CUTOFF) if bound.kind == "infinite" else bound,
}
CAUGHT = {"lasso read as Finite": {"eilenberg", "no loop"}}


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
@pytest.mark.parametrize("fault", FAULTS)
def test_each_fault_in_the_verdicts_fails_a_theorem(monkeypatch, F, fault):
    proj_dim, bad = homology.proj_dim, FAULTS[fault]
    monkeypatch.setattr(homology, "proj_dim", lambda m, cutoff: bad(proj_dim(m, cutoff)))
    rows = survey(F)
    caught = {name for name, check in CHECKS.items() if check(rows)}
    assert caught == CAUGHT[fault]
