"""Oracles for the Hom complex that every projective-side Ext table is read from.

``ext_dims`` assembles Hom(P_i, N) -> Hom(P_(i+1), N) from each cover step's
kernel rows and takes ranks.  Nothing else in the tests reaches that
assembly with an independent answer: simples into simples take the
semisimple shortcut, and the reference tests rebuild the complex from the
same kernel rows.  The expected values here come from no resolution:

- the Kronecker quiver 1 => 2 (arrows a, b): the regular modules M_lam
  (k --1, lam--> k, and M_inf with a = 0, b = 1) have Hom(M_lam, M_mu) =
  [lam = mu], the algebra is hereditary, and the Euler form
  <(1, 1), (1, 1)> = 1 + 1 - 2 = 0 gives Ext^1 = Ext^0;
- the same with a tail 2 -> 3 (arrow d) and the relation a d = c b d for a
  c outside {0, 1, -1}.  The kernel of P_1 -> M_lam at 2 is spanned by
  x = b - lam a, and x d = (1 - lam c) b d.  So M_lam has the resolution
  P_2 -> P_1 unless lam = 1/c, where it is P_3 -> P_2 + P_3 -> P_1; on
  modules zero at 3 both give the Kronecker answer, and Ext(M_lam, S_3) =
  (0, [lam c = 1], [lam c = 1]).  The module Q = P_1 / x P_1 at lam = 1/c
  (dims (1, 1, 1), b acting by 1/c, d by 1) has the resolution
  P_3 -> P_2 -> P_1, and its kernel row at 2 is a - c b: Ext(Q, Q) =
  (1, 0, 0), Ext(Q, M_mu) = ([mu c = 1], [mu c = 1], 0) and Ext(M_lam, Q)
  = 0, each from the complex worked by hand on those resolutions;
- on lab-drawn modules, Ext^0(M, M) = len(hom_basis(M, M)).  ``hom_basis``
  is the one piece this file shares with the code it checks: it solves its
  own intertwiner system, but its kernel comes from ``linalg.RowSpace``,
  like a cover step's;
- Ext(M, I_w) = (dim M_w, 0, 0): an injective has no higher Ext, and
  Hom(M, I_w) is dual to M_w.

Every check runs over QQ, GF(5) and GF(2^31 - 1).  The last test replaces
each cover step's kernel rows with one of three faults in what the complex
reads and requires each fault to fail some check here.
"""

import random
from fractions import Fraction

import pytest

import quiverhom.homology as homology
from quiverhom import (
    QQ,
    IdealSpec,
    PrimeField,
    Quiver,
    Representation,
    build_algebra,
    ext_dims,
    hom_basis,
    standard_module,
)
from quiverhom.homology import SyzygyTable
from quiverhom.lab import ALGEBRA_DIM_CAP, _gen_ideal, _gen_module, _gen_quiver, _widths_ok

GF5 = PrimeField(5)
BIG = PrimeField(2**31 - 1)
FIELDS = [QQ, GF5, BIG]
IDS = ["QQ", "GF5", "GF2^31-1"]

INF = None  # the parameter of M_inf
LAMBDAS = [0, 1, Fraction(1, 2), 3, INF]  # over GF(5), 1/2 = 3
# per field, relation coefficients outside {0, 1, -1}
C_VALUES = {QQ: [2, Fraction(-3, 2)], GF5: [2, 3], BIG: [2, Fraction(-3, 2)]}


def same(F, lam, mu) -> bool:
    return lam is mu if INF in (lam, mu) else F.of(lam) == F.of(mu)


def regular(alg, lam) -> Representation:
    """M_lam: k at 1 and 2, a acting by 1 and b by lam; M_inf: a by 0, b by 1."""
    F = alg.field
    a, b = (0, 1) if lam is INF else (1, F.of(lam))
    return Representation(alg, {"1": 1, "2": 1}, {"a": [[a]], "b": [[b]]})


def kronecker(F, c=None):
    """1 => 2, or with c the tail 2 -> 3 and the relation a d = c b d."""
    if c is None:
        q = Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
        return build_algebra(q, IdealSpec.zero(2), F)
    q = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "1", "2"), ("d", "2", "3")])
    return build_algebra(q, IdealSpec((((1, ("a", "d")), (-c, ("b", "d"))),), 3), F)


def quotient_q(alg, c) -> Representation:
    """Q = P_1 / (b - a/c): dims (1, 1, 1), a by 1, b by 1/c, d by 1."""
    F = alg.field
    mats = {"a": [[1]], "b": [[F.of(Fraction(1) / c)]], "d": [[1]]}
    return Representation(alg, {"1": 1, "2": 1, "3": 1}, mats)


def kronecker_mismatches(F) -> list:
    alg = kronecker(F)
    mods = {lam: regular(alg, lam) for lam in LAMBDAS}
    out = []
    for lam, m in mods.items():
        for mu, n in mods.items():
            k = int(same(F, lam, mu))
            got = ext_dims(m, n, 2).dims
            if got != (k, k, 0):
                out.append((lam, mu, got))
    return out


def relation_family_mismatches(F) -> list:
    out = []
    for c in C_VALUES[F]:
        alg = kronecker(F, c)
        inv = Fraction(1) / c
        mods = {lam: regular(alg, lam) for lam in LAMBDAS + [c, inv]}
        q, s3 = quotient_q(alg, c), standard_module(alg, "simple", "3")
        want = {("Q", "Q"): (1, 0, 0)}
        for lam in mods:
            on = int(same(F, lam, inv))
            want[(lam, "S3")] = (0, on, on)
            want[("Q", lam)] = (on, on, 0)
            want[(lam, "Q")] = (0, 0, 0)
            for mu in mods:
                k = int(same(F, lam, mu))
                want[(lam, mu)] = (k, k, 0)
        named = {**mods, "Q": q, "S3": s3}
        for (x, y), dims in want.items():
            got = ext_dims(named[x], named[y], 2).dims
            if got != dims:
                out.append((c, x, y, got, dims))
    return out


def lab_modules(F, count: int):
    """count module draws, as the cover-step reference draws them, each kept
    only when its terms to P_3 stay within the suites' width cap."""
    seed = 0
    while count:
        rng = random.Random(seed)
        seed += 1
        q = _gen_quiver(rng, 4, 6)
        alg = build_algebra(q, _gen_ideal(rng, q, "mixed"), F)
        if alg.dim > ALGEBRA_DIM_CAP:
            continue
        m = _gen_module(rng, alg, rng.randint(1, 8))
        if _widths_ok(SyzygyTable().chain(m), 3):
            count -= 1
            yield m


def endomorphism_mismatches(F, count: int = 200) -> list:
    out = []
    for m in lab_modules(F, count):
        got, want = ext_dims(m, m, 0).dims[0], len(hom_basis(m, m))
        if got != want:
            out.append((m.dims, got, want))
    return out


def injective_mismatches(F, count: int = 40) -> list:
    out = []
    for m in lab_modules(F, count):
        for w in m.algebra.vertices:
            got = ext_dims(m, standard_module(m.algebra, "injective", w), 2).dims
            if got != (m.dims[w], 0, 0):
                out.append((m.dims, w, got))
    return out


CHECKS = {
    "kronecker": kronecker_mismatches,
    "relation family": relation_family_mismatches,
    "endomorphisms": endomorphism_mismatches,
    "injectives": injective_mismatches,
}


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
@pytest.mark.parametrize("check", CHECKS)
def test_ext_tables_match_the_oracles(F, check):
    assert CHECKS[check](F) == []


FAULTS = {
    # the kernel rows begin with their unit pair, at the kernel pivot
    "coefficient read as 1": lambda row, F: [(c, F.one) for c, _ in row],
    "last pair dropped": lambda row, F: row[:-1],
    "unit pair dropped": lambda row, F: row[1:],
}
# the checks that each fault fails, on every field
CAUGHT = {
    "coefficient read as 1": {"kronecker", "relation family", "endomorphisms"},
    "last pair dropped": {"kronecker", "relation family", "endomorphisms", "injectives"},
    "unit pair dropped": {"kronecker", "relation family", "endomorphisms", "injectives"},
}


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
@pytest.mark.parametrize("fault", FAULTS)
def test_each_fault_in_the_kernel_rows_fails_a_check(monkeypatch, F, fault):
    step_of = homology.projective_cover_and_syzygy
    bad = FAULTS[fault]

    def faulty(m):
        step = step_of(m)
        rows = {w: [bad(row, m.field) for row in rs] for w, rs in step.kernel_entries.items()}
        return homology.CoverStep(step.mults, step.info, step.syzygy, step.module, step.cover_rows, rows)

    monkeypatch.setattr(homology, "projective_cover_and_syzygy", faulty)
    caught = {name for name, check in CHECKS.items() if check(F)}
    assert caught == CAUGHT[fault]
