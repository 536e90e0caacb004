"""Randomized verification suites and the block decomposition pipeline.

Each suite generates seeded random instances, runs a fixed list of exact
checks per instance, and aggregates a deterministic report: attempted and
passed counts plus one witness per failed check.  A witness records the
integer seed that regenerates the exact instance, so every failure replays.

Instance generation is work-bounded.  The suites that need an algebra share
one admission loop, ``_admit``: per attempt it derives a seed, generates a
quiver and an ideal (small ones after half the attempts), builds the
algebra and drops it past the dimension cap, then lets the suite draw its
modules and gate them.  A candidate whose resolutions would grow past the
width cap is skipped deterministically and the next derived seed is tried,
keeping suite runtimes at desk scale without touching the mathematical
content of the checks.  The dimension cap is read off path counts; the width
cap takes cover steps, so a candidate it rejects has had its product table
and kernels computed.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import islice

from . import linalg
from .algebra import (
    MAX_WORK,
    FiniteDimAlgebra,
    IdealSpec,
    _require_presented,
    build_algebra,
    quotient_by_idempotent,
    restricted_algebra,
    triangular_blocks,
    verify_convex_isos,
)
from .errors import InputError, InvariantViolation, require_int
from .fields import QQ
from .homology import (
    SyzygyChain,
    SyzygyTable,
    _gl_dim,
    check_cutoff,
    check_term_reachability,
    cover_width,
    ext_dims,
    heart_shift_pair,
    is_projective_module,
    transport_resolution,
)
from .modules import (
    Representation,
    _closure_rows,
    _quotient_by_rows,
    inflate,
    left_module_over_opposite,
    materialize_term,
    standard_module,
    submodule_closure,
    trace_submodule,
)
from .quiver import Quiver

# instance admission caps: resolutions wider than this retry the generator
WIDTH_CAP = 60
ALGEBRA_DIM_CAP = 40
MAX_ATTEMPTS = 200
HEART_T_CAP = 2  # heart cases with a larger bound t retry the generator

# random instance bounds; gen_instance draws modules of total dimension up to
# MODULE_SIZE_BOUND, the suites up to SUITE_MODULE_BOUND
MAX_VERTICES = 8
MAX_ARROWS = 12
RELATION_STYLE = "mixed"
TRUNCATION_BOUND = 4
MODULE_SIZE_BOUND = 12
SUITE_MODULE_BOUND = 6


@dataclass(frozen=True)
class InstanceSpec:
    """The master seed of deterministic random instance generation."""

    seed: int

    def __post_init__(self) -> None:
        require_int(self.seed, "seed")


@dataclass(frozen=True)
class Witness:
    """One failed check: the seed regenerates the instance exactly."""

    seed: int
    check_id: str
    observed: str
    expected: str


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    master_seed: int
    attempted: int
    passed: int
    witnesses: tuple[Witness, ...]

    @property
    def all_passed(self) -> bool:
        return self.passed == self.attempted

    def render(self) -> str:
        lines = [
            f"suite {self.suite}",
            f"seed {self.master_seed}",
            f"cases {self.attempted}",
            f"passed {self.passed}",
            f"failures {len(self.witnesses)}",
        ]
        for w in self.witnesses:
            lines.append(
                f"witness seed={w.seed} check={w.check_id} "
                f"observed={w.observed} expected={w.expected}"
            )
        return "\n".join(lines) + "\n"


def _derive(master: int, idx: int, attempt: int) -> int:
    # integer-only seed derivation; stable across platforms
    return (master * 1_000_003 + idx * 1_009 + attempt * 7_919) % (2**63)


# ---------------------------------------------------------------------------
# instance generation


def _gen_quiver(rng: random.Random, max_vertices: int, max_arrows: int) -> Quiver:
    nv = rng.randint(1, max_vertices)
    vertices = [str(i + 1) for i in range(nv)]
    na = rng.randint(0, max_arrows)
    arrows = []
    for i in range(na):
        src = vertices[rng.randrange(nv)]
        tgt = vertices[rng.randrange(nv)]
        arrows.append((f"a{i + 1}", src, tgt))
    return Quiver.build(vertices, arrows)


def _path_by_rank(q: Quiver, levels, sizes, rank: int, target=None):
    """The path at rank among those counted by sizes, (length, source, count)
    triples in `paths_up_to` order, and to target if one is given."""
    for k, s, c in sizes:
        if rank < c:
            return q.path_at(levels[: k + 1], s, rank, target)
        rank -= c


def _gen_ideal(rng: random.Random, q: Quiver, style: str) -> IdealSpec:
    """Up to three relations from the paths of length 2 to n - 1, each a path
    or, in mixed style, a path plus a multiple of a parallel one.  Paths are
    drawn by rank, so only their counts are needed, not a list of them."""
    n = rng.randint(3, TRUNCATION_BOUND)
    levels = list(islice(q.path_counts(), n))
    sizes = [(k, s, sum(ends.values())) for k in range(2, len(levels)) for s, ends in levels[k].items()]
    pool = sum(c for *_, c in sizes)
    rels = []
    if pool:
        for _ in range(rng.randint(0, 3)):
            p = _path_by_rank(q, levels, sizes, rng.randrange(pool))
            if style == "mixed" and rng.random() < 0.5:
                s, t = p.source, p.target
                bucket = [(k, s, levels[k][s].get(t, 0)) for k in range(2, len(levels)) if s in levels[k]]
                mates = sum(c for *_, c in bucket) - 1
                if mates:
                    # the mates are p's bucket without p: from p's place on, take the next
                    at = {a.name: i for i, a in enumerate(q.arrows)}
                    key = lambda c: (c.length, [at[a] for a in c.arrows])
                    rank = rng.randrange(mates)
                    mate = _path_by_rank(q, levels, bucket, rank, t)
                    if key(mate) >= key(p):
                        mate = _path_by_rank(q, levels, bucket, rank + 1, t)
                    coeff = rng.choice([1, -1, 2])
                    rels.append(((1, p.arrows), (coeff, mate.arrows)))
                    continue
            rels.append(((1, p.arrows),))
    return IdealSpec(tuple(rels), n)


def _gen_module(rng: random.Random, alg: FiniteDimAlgebra, bound: int) -> Representation:
    """Random nonzero quotient of a random sum P of projectives, within bound.

    P is built first (``materialize_term``).  Each of up to six attempts
    seeds one random row at some vertices and divides P by the submodule the
    seeds generate, through the unchecked closure and quotient of ``modules``
    that ``submodule_closure`` and ``quotient_by_submodule`` check their input
    for.  The first nonzero quotient is returned, or P if all six vanish.
    """
    verts = list(alg.vertices)
    F = alg.field
    pdim = alg.projective_layout.dims
    mults: dict[str, int] = {}
    total = 0
    for _ in range(rng.randint(1, 3)):
        v = verts[rng.randrange(len(verts))]
        if total + pdim[v] <= bound:
            mults[v] = mults.get(v, 0) + 1
            total += pdim[v]
    if not mults:
        return standard_module(alg, "simple", verts[rng.randrange(len(verts))])
    term = materialize_term(alg, mults)
    for _ in range(6):
        seeds = {v: [[F.of(rng.randint(-1, 1)) for _ in range(d)]]
                 for v, d in term.dims.items() if d and rng.random() < 0.4}
        quot, _ = _quotient_by_rows(term, _closure_rows(term, seeds))
        if quot.total_dim:
            return quot
    return term


def gen_instance(spec: InstanceSpec):
    """Deterministic random (quiver, ideal, modules) triple within the bounds.

    Modules are quotients of projective sums, hence valid by construction;
    they are still revalidated before being returned.
    """
    rng = random.Random(spec.seed)
    q = _gen_quiver(rng, MAX_VERTICES, MAX_ARROWS)
    ideal = _gen_ideal(rng, q, RELATION_STYLE)
    alg = build_algebra(q, ideal, QQ)
    mods = [_gen_module(rng, alg, MODULE_SIZE_BOUND) for _ in range(2)]
    for m in mods:
        m.validate()
    return q, ideal, mods


def _widths_ok(chain: SyzygyChain, depth: int) -> bool:
    """True when the syzygy chain stays within the width cap to this depth.

    Each syzygy is a submodule of its term, so capping the module and every
    term caps the syzygies too.  A term's width is its cover_width and its
    syzygy's is term - module, as the cover surjects; so only a step that
    passes and is followed by another is taken on the chain.
    """
    if chain.module.total_dim > WIDTH_CAP:
        return False
    for k in range(depth):
        width = cover_width(chain.module)
        if width > WIDTH_CAP:
            return False
        if width == chain.module.total_dim or k == depth - 1:
            return True
        chain = chain.drop(1)
    return True


def _admit(spec: InstanceSpec, idx: int, kind: str, draw):
    """The attempt loop shared by the suites that need an algebra.

    Each attempt derives its seed, switches to small quivers after half the
    attempts, generates a quiver and an ideal, builds the algebra and drops
    it past ALGEBRA_DIM_CAP; `dim_exceeds` answers from the algebra's counted
    dim_floor when it can.  Then draw(rng, lam) draws the rest of the
    instance and gates it, returning None to retry.  Returns
    (seed, lam, what draw returned).
    """
    for attempt in range(MAX_ATTEMPTS):
        seed = _derive(spec.seed, idx, attempt)
        rng = random.Random(seed)
        small = attempt >= MAX_ATTEMPTS // 2
        maxv = 3 if small else MAX_VERTICES
        maxa = 4 if small else MAX_ARROWS
        q = _gen_quiver(rng, maxv, maxa)
        ideal = _gen_ideal(rng, q, RELATION_STYLE)
        lam = build_algebra(q, ideal, QQ)
        if lam.dim_exceeds(ALGEBRA_DIM_CAP):
            continue
        drawn = draw(rng, lam)
        if drawn is not None:
            return seed, lam, drawn
    raise InvariantViolation(f"no admissible {kind} instance for case {idx}")


# ---------------------------------------------------------------------------
# suite runner plumbing


def _run_suite(name: str, spec: InstanceSpec, cases: int, case_fn) -> SuiteReport:
    require_int(cases, "case count")
    if cases < 0:
        raise InputError(f"case count must be nonnegative, got {cases}")
    witnesses: list[Witness] = []
    passed = 0
    for idx in range(cases):
        wits = case_fn(spec, idx)
        if wits:
            witnesses.extend(wits)
        else:
            passed += 1
    witnesses.sort(key=lambda w: (w.seed, w.check_id, w.observed))
    return SuiteReport(name, spec.seed, cases, passed, tuple(witnesses))


class _CaseChecks:
    """Collects witnesses for one case under a fixed instance seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self.witnesses: list[Witness] = []

    def expect(self, check_id: str, observed, expected) -> bool:
        if observed != expected:
            self.witnesses.append(
                Witness(self.seed, check_id, repr(observed), repr(expected))
            )
            return False
        return True

    def require(self, check_id: str, condition: bool, detail: str = "") -> bool:
        if not condition:
            self.witnesses.append(Witness(self.seed, check_id, detail or "false", "true"))
        return condition


# ---------------------------------------------------------------------------
# suite 1: subquiver calculus


def verify_subquiver_calculus(spec: InstanceSpec, cases: int = 500) -> SuiteReport:
    """Boundary partition, one-sided convexity, heart and closure properties.

    Instances up to six vertices additionally get the brute-force minimality
    cross-check over all full subquivers.
    """
    return _run_suite("subquiver-calculus", spec, cases, _subquiver_case)


def _subquiver_case(spec: InstanceSpec, idx: int) -> list[Witness]:
    seed = _derive(spec.seed, idx, 0)
    rng = random.Random(seed)
    q = _gen_quiver(rng, MAX_VERTICES, MAX_ARROWS)
    ck = _CaseChecks(seed)
    subset = frozenset(v for v in q.vertices if rng.random() < 0.5)
    sub = q.full_subquiver(subset)
    sp = q.boundary_split(sub)
    union = set(subset) | set(sp.plus) | set(sp.minus) | set(sp.zero)
    ck.expect("partition_cover", sorted(union), sorted(q.vertices))
    ck.require("partition_zero_disjoint", not (sp.zero & (sp.plus | sp.minus | subset)))
    ck.require("partition_inside_disjoint", not ((sp.plus | sp.minus) & subset))
    if not sp.plus or not sp.minus:
        ck.require("one_sided_implies_convex", q.is_convex(sub))
    lplus = q.full_subquiver(subset | sp.plus)
    ck.require("lplus_convex", q.is_convex(lplus))
    ck.expect("lplus_plus_empty", sorted(q.boundary_split(lplus).plus), [])
    lminus = q.full_subquiver(subset | sp.minus)
    ck.require("lminus_convex", q.is_convex(lminus))
    ck.expect("lminus_minus_empty", sorted(q.boundary_split(lminus).minus), [])

    hp = q.homological_heart()
    heart = hp.heart
    ck.require("heart_convex", q.is_convex(heart))
    comp_quiver = q.full_subquiver(heart.complement()).as_quiver()
    ck.require("complement_acyclic", comp_quiver.is_acyclic)
    rep = q.components()
    flat = sorted(v for comp in rep.components for v in comp)
    ck.expect("components_partition", flat, sorted(q.vertices))
    ck.require("condensation_acyclic", rep.condensation.is_acyclic)
    cycle_union = frozenset().union(*[c for c, f in zip(rep.components, rep.nontrivial_flags) if f])
    ck.require("heart_contains_cycles", cycle_union <= heart.vertex_set)
    # the cycles found by walks, which share no code with the component pass
    walk_cycles = [v for v in q.vertices if v in q.reachable_from(a.target for a in q.out_arrows[v])]
    ck.expect(
        "heart_is_cycle_closure",
        sorted(q.convex_closure(walk_cycles).vertex_set),
        sorted(heart.vertex_set),
    )
    if q.is_acyclic:
        ck.expect("acyclic_heart_empty", sorted(heart.vertex_set), [])

    closure = q.convex_closure(subset)
    ck.require("closure_convex", q.is_convex(closure))
    ck.expect(
        "closure_idempotent",
        sorted(q.convex_closure(closure.vertex_set).vertex_set),
        sorted(closure.vertex_set),
    )
    if q.is_convex(sub):
        ck.expect("closure_fixes_convex", sorted(closure.vertex_set), sorted(subset))

    if len(q.vertices) <= 6:
        vs = list(q.vertices)
        for mask in range(1 << len(vs)):
            cand = frozenset(vs[i] for i in range(len(vs)) if mask >> i & 1)
            if not q.is_convex(q.full_subquiver(cand)):
                continue
            if cycle_union <= cand and not heart.vertex_set <= cand:
                ck.require("heart_minimal", False, f"convex superset {sorted(cand)}")
            if subset <= cand and not closure.vertex_set <= cand:
                ck.require("closure_minimal", False, f"convex superset {sorted(cand)}")
    return ck.witnesses


# ---------------------------------------------------------------------------
# suite 2: convex restriction is a homological epimorphism


def verify_convex_epi(spec: InstanceSpec, cases: int = 200, cutoff: int = 6) -> SuiteReport:
    """Ext agreement between a convex restriction and the ambient algebra.

    Also checks the triangular corner when the minus class is empty, and
    left projectivity of the quotient when the plus closure is everything.
    """
    check_cutoff(cutoff, "epi suite cutoff")
    if cutoff < 2:
        raise InputError("epi suite cutoff must be at least 2")
    return _run_suite("convex-epi", spec, cases, partial(_epi_case, cutoff=cutoff))


def _epi_case(spec: InstanceSpec, idx: int, cutoff: int) -> list[Witness]:
    def draw(rng, lam):
        q = lam.quiver
        k = rng.randint(1, max(1, len(q.vertices) // 2))
        seeds = rng.sample(list(q.vertices), k)
        sub = q.convex_closure(seeds)
        gamma = restricted_algebra(lam, sub)
        table = SyzygyTable()
        m = table.chain(_gen_module(rng, gamma, SUITE_MODULE_BOUND))
        n = table.chain(_gen_module(rng, gamma, SUITE_MODULE_BOUND))
        if not _widths_ok(m, cutoff + 2):
            return None
        mi = table.chain(inflate(m.module, lam))
        ni = table.chain(inflate(n.module, lam))
        if not _widths_ok(mi, cutoff + 2):
            return None
        return sub, m, n, mi, ni

    seed, lam, (sub, m, n, mi, ni) = _admit(spec, idx, "epi", draw)
    q = lam.quiver
    ck = _CaseChecks(seed)
    ck.require("closure_convex", q.is_convex(sub))
    table_g = ext_dims(m, n, cutoff)
    table_l = ext_dims(mi, ni, cutoff)
    for kk in range(cutoff + 1):
        ck.expect(f"ext_agree_k{kk}", table_l[kk], table_g[kk])
    sp = q.boundary_split(sub)
    if not sp.minus:
        tb = triangular_blocks(lam, sub)
        ck.expect("eprime_e_zero", tb.dim_eprime_e, 0)
        report = verify_convex_isos(lam, sub)
        ck.require("corner_agrees", report.ok and report.dims_agree)
    if sp.plus and not (sp.minus | sp.zero):
        quo = quotient_by_idempotent(lam, sub)
        gamma_left = left_module_over_opposite(quo)
        ck.require("gamma_left_projective", is_projective_module(gamma_left))
    return ck.witnesses


# ---------------------------------------------------------------------------
# suite 3: the heart dimension-shift theorem


def verify_heart_theorem(
    spec: InstanceSpec, cases: int = 100, cutoff: int | None = None
) -> SuiteReport:
    """Syzygy support containment, transported resolutions, and the Ext shift.

    Per instance with heart and bound t the shift window is [2t+3, 2t+6],
    its top clipped by the cutoff when one is supplied.  Instances with a
    heart are admitted only for t <= HEART_T_CAP, so a cutoff must reach
    2 * HEART_T_CAP + 3 = 7; like every cutoff, it stays within MAX_CUTOFF.
    """
    least = 2 * HEART_T_CAP + 3
    if cutoff is not None:
        check_cutoff(cutoff, "heart suite cutoff")
        if cutoff < least:
            raise InputError(f"heart suite cutoff must reach 2t+3 = {least}, got {cutoff}")
    return _run_suite("heart-theorem", spec, cases, partial(_heart_case, cutoff=cutoff))


def _heart_case(spec: InstanceSpec, idx: int, cutoff: int | None) -> list[Witness]:
    def draw(rng, lam):
        hp = lam.quiver.homological_heart()
        t = hp.t
        if t > HEART_T_CAP and not hp.heart.is_empty:
            return None  # refused before its modules are drawn; the attempt's rng is its own
        table = SyzygyTable()
        m = table.chain(_gen_module(rng, lam, SUITE_MODULE_BOUND))
        n = table.chain(_gen_module(rng, lam, SUITE_MODULE_BOUND))
        if hp.heart.is_empty:
            return (hp, None, m, n) if _widths_ok(m, t + 4) else None
        lmax = 2 * t + 6 if cutoff is None else min(cutoff, 2 * t + 6)
        simples = (table.chain(standard_module(lam, "simple", v)) for v in lam.vertices)
        admitted = (
            _widths_ok(m, lmax + 1)
            and _widths_ok(n.dual, t + 4)
            and all(_widths_ok(s, 7) for s in simples)
        )
        return (hp, lmax, m, n) if admitted else None

    seed, lam, (hp, lmax, m, n) = _admit(spec, idx, "heart", draw)
    t = hp.t
    if hp.heart.is_empty:
        return _heart_case_acyclic(seed, lam, t, m, n)
    q = lam.quiver
    ck = _CaseChecks(seed)
    syz = m.table  # the case's table: every chain below reads it
    heart_set = set(hp.heart.vertex_set)
    split = q.boundary_split(hp.heart)
    gamma = restricted_algebra(lam, hp.heart)
    up = heart_set | set(split.plus)
    down = heart_set | set(split.minus)

    # the multiplicities of P_0..P_(t+4), each stepped by the width gate or the transport
    terms = [m.drop(i).step.mults for i in range(t + 5)]
    for ell in range(t + 1, t + 4):
        support = m.drop(ell).module.support
        ck.require(f"syzygy_support_l{ell}", set(support) <= up, f"support {sorted(support)}")
        # the ell-th cosyzygy of n is the dual of the ell-th syzygy of its dual;
        # dual_module copies dims, so both have the same support
        support = n.dual.drop(ell).module.support
        ck.require(
            f"cosyzygy_support_l{ell}", set(support) <= down, f"support {sorted(support)}"
        )
    ck.require("term_reachability", check_term_reachability(q, terms[: t + 4]))

    deep = m.drop(t + 1)
    omega = deep.module
    tr = transport_resolution(deep, 3, hp.heart)
    ck.require("transport_exact", tr.exact)
    ck.require("transport_minimal", tr.minimal)
    ck.require("transport_terms_projective", tr.terms_projective)
    # the terms of Omega^{t+1} m
    term_support = {v for mults in terms[t + 1 :] for v, mult in mults.items() if mult > 0}
    ck.require("deep_term_support", term_support <= up, f"terms {sorted(term_support)}")

    pair = heart_shift_pair(m, n, hp.heart, t)
    hparts = pair.syzygy_parts
    gens = [standard_module(lam, "projective", v) for v in sorted(split.plus)]
    traced = trace_submodule(omega, gens)
    F = lam.field
    for v in q.vertices:
        same = linalg.rowspaces_equal(
            traced[v], linalg.identity(hparts.plus_part.dims[v], F), omega.dims[v], F
        )
        ck.require(f"plus_part_is_trace_{v}", same)
    eprime_seed = {
        v: linalg.identity(omega.dims[v], F)
        for v in q.vertices
        if v not in heart_set and omega.dims[v]
    }
    killed = submodule_closure(omega, eprime_seed)
    killed_dim = sum(len(rows) for rows in killed.values())
    ck.expect("plus_quotient_dim", hparts.quot_by_plus.total_dim, omega.total_dim - killed_dim)

    lam_table = ext_dims(m, n, lmax)
    # one table serves both the shift and the heart-pair checks: Ext^i ignores the cutoff
    gam_table = ext_dims(syz.chain(pair.a_part), syz.chain(pair.b_part), max(3, lmax - 2 * t - 2))
    for ell in range(2 * t + 3, lmax + 1):
        ck.expect(f"ext_shift_l{ell}", lam_table[ell], gam_table[ell - 2 * t - 2])

    lam58 = ext_dims(syz.chain(hparts.quot_by_plus), syz.chain(pair.cosyzygy_parts.minus_part), 3)
    for nn in range(4):
        ck.expect(f"heart_pair_ext_n{nn}", lam58[nn], gam_table[nn])

    gl_lam = _gl_dim(syz, lam, 6)
    gl_gam = _gl_dim(syz, gamma, 6)
    if gl_lam.is_finite and gl_gam.is_finite:
        ck.require(
            "gl_dim_monotone",
            gl_lam.value >= gl_gam.value,
            f"lam {gl_lam} gamma {gl_gam}",
        )
    return ck.witnesses


def _heart_case_acyclic(seed, lam, t, m, n) -> list[Witness]:
    ck = _CaseChecks(seed)
    gamma = restricted_algebra(lam, lam.quiver.full_subquiver(frozenset()))
    ck.expect("acyclic_gamma_zero", gamma.dim, 0)
    table = ext_dims(m, n, t + 3)
    for ell in range(t + 1, t + 4):
        ck.expect(f"acyclic_ext_vanish_l{ell}", table[ell], 0)
    ck.require("acyclic_gl_finite", _gl_dim(m.table, lam, len(lam.vertices) + 1).is_finite)
    return ck.witnesses


# ---------------------------------------------------------------------------
# suite 4: projective-side and injective-side Ext agree


def verify_ext_cross(spec: InstanceSpec, cases: int = 100, cutoff: int = 3) -> SuiteReport:
    """Both Ext computations (resolve m vs coresolve n) on random pairs."""
    check_cutoff(cutoff, "ext-cross suite cutoff")
    return _run_suite("ext-cross", spec, cases, partial(_ext_cross_case, cutoff=cutoff))


def _ext_cross_case(spec: InstanceSpec, idx: int, cutoff: int) -> list[Witness]:
    def draw(rng, lam):
        table = SyzygyTable()
        m = table.chain(_gen_module(rng, lam, SUITE_MODULE_BOUND))
        n = table.chain(_gen_module(rng, lam, SUITE_MODULE_BOUND))
        if _widths_ok(m, cutoff + 2) and _widths_ok(n.dual, cutoff + 2):
            return m, n
        return None

    seed, _, (m, n) = _admit(spec, idx, "ext-cross", draw)
    ck = _CaseChecks(seed)
    t_proj = ext_dims(m, n, cutoff, side="projective")
    t_inj = ext_dims(m, n, cutoff, side="injective")
    for kk in range(cutoff + 1):
        ck.expect(f"ext_sides_agree_k{kk}", t_proj[kk], t_inj[kk])
    return ck.witnesses


# ---------------------------------------------------------------------------
# decomposition pipeline


@dataclass(frozen=True)
class Block:
    """A peeled path-connected block with its corner algebra dimension."""

    vertices: tuple[str, ...]
    dim: int
    simple_cycle: bool


@dataclass(frozen=True)
class DecompositionNode:
    """One stage of the decomposition: a split or the acyclic leaf."""

    kind: str
    vertices: tuple[str, ...]
    heart_vertices: tuple[str, ...] = ()
    t: int = 0
    block: Block | None = None
    eprime_e_dim: int = 0


@dataclass(frozen=True)
class DecompositionTree:
    """The stages of a decomposition: the splits, root first, then the acyclic leaf."""

    nodes: tuple[DecompositionNode, ...]

    @property
    def blocks(self) -> tuple[Block, ...]:
        return tuple(node.block for node in self.nodes[:-1])

    @property
    def splits(self) -> int:
        return len(self.nodes) - 1

    def render(self) -> str:
        out = []
        for depth, node in enumerate(self.nodes):
            out.append(f"{'  ' * depth}{node.kind} vertices={','.join(node.vertices) or '-'}")
            if b := node.block:
                out[-1] += (
                    f" heart={','.join(node.heart_vertices)} t={node.t} block={','.join(b.vertices)}"
                    f" block_dim={b.dim} simple_cycle={'yes' if b.simple_cycle else 'no'} eprime_e={node.eprime_e_dim}"
                )
        return "\n".join(out) + "\n"


def decompose(alg: FiniteDimAlgebra) -> DecompositionTree:
    """Peel path-connected blocks off the heart of a presented algebra.

    Each stage takes the heart H of what is left, emits a source component S
    of H's condensation as a block and goes on with H minus S, until no cycle
    is left.  Every stage and heart is convex in alg's quiver (H is a convex
    closure, no arrow enters S from H minus S, and convexity is transitive),
    so it holds every path of alg between its vertices: its restricted algebra
    has alg's count of basis elements s -> t, and both corners, eAe and the
    vanishing e'Ae, are read off one count of alg's basis by its ends.

    Each nontrivial strongly connected component is peeled once and each node
    lists the vertices left, so a quiver whose blocks x vertices pass
    ``MAX_WORK`` is refused before the first stage.
    """
    _require_presented(alg, "decompose")
    q = alg.quiver
    splits = q.components().nontrivial_count
    if splits * len(q.vertices) > MAX_WORK:
        raise InputError(f"decompose: {splits} blocks x {len(q.vertices)} vertices exceed {MAX_WORK} units of work")
    into: dict[str, Counter] = {v: Counter() for v in q.vertices}  # into[t][s]: basis elements s -> t
    for el in () if q.is_acyclic else alg.elements:  # an acyclic algebra builds no span
        into[el.target][el.source] += 1
    nodes = []
    while not q.is_acyclic:
        hp = q.homological_heart()
        hq = hp.heart.as_quiver()
        source = hq.scc_list[0]
        arrows = hq.full_subquiver(source).arrows  # a simple cycle iff as many as its vertices
        if not arrows:
            raise InvariantViolation("heart condensation source is a trivial component")
        ends = [(s, c) for t in source for s, c in into[t].items()]
        rest = hp.heart.vertex_set - source
        if eprime_e := sum(c for s, c in ends if s in rest):
            raise InvariantViolation("claimed source block admits incoming paths")
        block = Block(hq.sort_vertices(source), sum(c for s, c in ends if s in source), len(arrows) == len(source))
        nodes.append(DecompositionNode("split", q.vertices, hq.vertices, hp.t, block, eprime_e))
        q = hq.full_subquiver(rest).as_quiver()
    nodes.append(DecompositionNode("acyclic", q.vertices))
    return DecompositionTree(tuple(nodes))
