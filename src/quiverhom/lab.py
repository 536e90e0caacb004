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
content of the checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import linalg
from .algebra import (
    FiniteDimAlgebra,
    IdealSpec,
    IdempotentSplit,
    build_algebra,
    corner_algebra,
    quotient_by_idempotent,
    restricted_algebra,
    triangular_blocks,
    verify_convex_isos,
)
from .errors import InputError, InvariantViolation
from .fields import QQ
from .homology import (
    check_term_reachability,
    cover_steps,
    ext_dims,
    gl_dim,
    heart_shift_pair,
    is_projective_module,
    materialize_term,
    resolution,
    transport_resolution,
)
from .modules import (
    Representation,
    dual_module,
    heart_parts,
    inflate,
    left_module_over_opposite,
    quotient_by_submodule,
    standard_module,
    submodule_closure,
    trace_submodule,
    zero_module,
)
from .quiver import Quiver

# instance admission caps: resolutions wider than this retry the generator
WIDTH_CAP = 60
ALGEBRA_DIM_CAP = 40
MAX_ATTEMPTS = 200


@dataclass(frozen=True)
class InstanceSpec:
    """Bounds and seed for deterministic random instance generation."""

    seed: int
    max_vertices: int = 8
    max_arrows: int = 12
    relation_style: str = "mixed"
    truncation_bound: int = 4
    module_size_bound: int = 12

    def __post_init__(self):
        if self.max_vertices < 1 or self.max_arrows < 0:
            raise InvariantViolation("instance bounds must be positive")
        if self.relation_style not in ("monomial", "mixed"):
            raise InvariantViolation(f"unknown relation style {self.relation_style!r}")
        if self.truncation_bound < 2 or self.module_size_bound < 1:
            raise InvariantViolation("instance bounds must be positive")


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


def _gen_ideal(rng: random.Random, q: Quiver, style: str, truncation_bound: int) -> IdealSpec:
    lo = 2 if truncation_bound == 2 else 3
    n = rng.randint(lo, truncation_bound)
    pool = [p for p in q.paths_up_to(n - 1) if p.length >= 2]
    rels = []
    if pool:
        for _ in range(rng.randint(0, 3)):
            p = pool[rng.randrange(len(pool))]
            if style == "mixed" and rng.random() < 0.5:
                mates = [
                    c
                    for c in pool
                    if c.source == p.source and c.target == p.target and c != p
                ]
                if mates:
                    mate = mates[rng.randrange(len(mates))]
                    coeff = rng.choice([1, -1, 2])
                    rels.append(((1, p.arrows), (coeff, mate.arrows)))
                    continue
            rels.append(((1, p.arrows),))
    return IdealSpec(tuple(rels), n)


def _gen_module(rng: random.Random, alg: FiniteDimAlgebra, bound: int) -> Representation:
    """Random nonzero quotient of a random sum of projectives, within bound."""
    verts = list(alg.vertices)
    if not verts:
        return zero_module(alg)
    F = alg.field
    pdim = {v: sum(1 for el in alg.elements if el.source == v) for v in verts}
    mults: dict[str, int] = {}
    total = 0
    for _ in range(rng.randint(1, 3)):
        v = verts[rng.randrange(len(verts))]
        if total + pdim[v] <= bound:
            mults[v] = mults.get(v, 0) + 1
            total += pdim[v]
    if not mults:
        return standard_module(alg, "simple", verts[rng.randrange(len(verts))])
    term, _ = materialize_term(alg, mults)
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


def gen_instance(spec: InstanceSpec):
    """Deterministic random (quiver, ideal, modules) triple within the bounds.

    Modules are quotients of projective sums, hence valid by construction;
    they are still revalidated before being returned.
    """
    rng = random.Random(spec.seed)
    q = _gen_quiver(rng, spec.max_vertices, spec.max_arrows)
    ideal = _gen_ideal(rng, q, spec.relation_style, spec.truncation_bound)
    alg = build_algebra(q, ideal, QQ)
    mods = [_gen_module(rng, alg, spec.module_size_bound) for _ in range(2)]
    for m in mods:
        m.validate()
    return q, ideal, mods


def _widths_ok(m: Representation, depth: int, cap: int = WIDTH_CAP) -> bool:
    """True when the syzygy chain stays within the width cap to this depth.

    Each syzygy is a submodule of its term, so capping m and every term
    caps the syzygies too.
    """
    if m.total_dim > cap:
        return False
    for _, step in zip(range(depth), cover_steps(m)):
        if step.term.total_dim > cap:
            return False
        if step.syzygy.is_zero:
            break
    return True


def _admit(spec: InstanceSpec, idx: int, kind: str, draw):
    """The attempt loop shared by the suites that need an algebra.

    Each attempt derives its seed, switches to small quivers after half the
    attempts, generates a quiver and an ideal, builds the algebra and drops
    it past ALGEBRA_DIM_CAP.  Then draw(rng, q, ideal, lam) draws the rest of
    the instance and gates it, returning None to retry.  Returns
    (seed, q, ideal, lam, what draw returned).
    """
    for attempt in range(MAX_ATTEMPTS):
        seed = _derive(spec.seed, idx, attempt)
        rng = random.Random(seed)
        small = attempt >= MAX_ATTEMPTS // 2
        maxv = 3 if small else spec.max_vertices
        maxa = 4 if small else spec.max_arrows
        q = _gen_quiver(rng, maxv, maxa)
        ideal = _gen_ideal(rng, q, spec.relation_style, spec.truncation_bound)
        lam = build_algebra(q, ideal, QQ)
        if lam.dim > ALGEBRA_DIM_CAP:
            continue
        drawn = draw(rng, q, ideal, lam)
        if drawn is not None:
            return seed, q, ideal, lam, drawn
    raise InvariantViolation(f"no admissible {kind} instance for case {idx}")


# ---------------------------------------------------------------------------
# suite runner plumbing


def _run_suite(name: str, spec: InstanceSpec, cases: int, case_fn) -> SuiteReport:
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
    q = _gen_quiver(rng, spec.max_vertices, spec.max_arrows)
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
    cycle_union = frozenset().union(
        *[comp for comp, flag in zip(rep.components, rep.nontrivial_flags) if flag]
    ) if rep.nontrivial_count else frozenset()
    ck.require("heart_contains_cycles", cycle_union <= heart.vertex_set)
    ck.expect(
        "heart_is_cycle_closure",
        sorted(q.convex_closure(cycle_union).vertex_set),
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
    if cutoff < 2:
        raise InputError("epi suite cutoff must be at least 2")

    def case(spec: InstanceSpec, idx: int) -> list[Witness]:
        return _epi_case(spec, idx, cutoff)

    return _run_suite("convex-epi", spec, cases, case)


def _epi_case(spec: InstanceSpec, idx: int, cutoff: int) -> list[Witness]:
    mbound = min(spec.module_size_bound, 6)

    def draw(rng, q, ideal, lam):
        k = rng.randint(1, max(1, len(q.vertices) // 2))
        seeds = rng.sample(list(q.vertices), k)
        sub = q.convex_closure(seeds)
        gamma = restricted_algebra(q, ideal, sub, QQ)
        m = _gen_module(rng, gamma, mbound)
        n = _gen_module(rng, gamma, mbound)
        if not _widths_ok(m, cutoff + 2):
            return None
        mi = inflate(m, lam)
        ni = inflate(n, lam)
        if not _widths_ok(mi, cutoff + 2):
            return None
        return sub, m, n, mi, ni

    seed, q, ideal, lam, (sub, m, n, mi, ni) = _admit(spec, idx, "epi", draw)
    ck = _CaseChecks(seed)
    ck.require("closure_convex", q.is_convex(sub))
    table_g = ext_dims(m, n, cutoff)
    table_l = ext_dims(mi, ni, cutoff)
    for kk in range(cutoff + 1):
        ck.expect(f"ext_agree_k{kk}", table_l[kk], table_g[kk])
    split = IdempotentSplit.from_subquiver(sub)
    sp = q.boundary_split(sub)
    if not sp.minus:
        tb = triangular_blocks(lam, split)
        ck.expect("eprime_e_zero", tb.dim_eprime_e, 0)
        report = verify_convex_isos(q, ideal, sub, QQ)
        ck.require("corner_agrees", report.ok and report.dims_agree)
    if split.eprime and set(q.vertices) == set(sub.vertex_set) | set(sp.plus):
        quo = quotient_by_idempotent(lam, split)
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
    clipped by the cutoff when one is supplied.
    """

    def case(spec: InstanceSpec, idx: int) -> list[Witness]:
        return _heart_case(spec, idx, cutoff)

    return _run_suite("heart-theorem", spec, cases, case)


def _heart_case(spec: InstanceSpec, idx: int, cutoff: int | None) -> list[Witness]:
    mbound = min(spec.module_size_bound, 6)

    def draw(rng, q, ideal, lam):
        hp = q.homological_heart()
        t = hp.t
        m = _gen_module(rng, lam, mbound)
        n = _gen_module(rng, lam, mbound)
        if hp.heart.is_empty:
            return (hp, None, m, n) if _widths_ok(m, t + 4) else None
        if t > 2:
            return None
        lmax = 2 * t + 6 if cutoff is None else min(cutoff, 2 * t + 6)
        if lmax < 2 * t + 3:
            raise InputError("heart suite cutoff must reach 2t+3")
        admitted = (
            _widths_ok(m, lmax + 1)
            and _widths_ok(dual_module(n), t + 4)
            and all(_widths_ok(standard_module(lam, "simple", v), 7) for v in lam.vertices)
        )
        return (hp, lmax, m, n) if admitted else None

    seed, q, ideal, lam, (hp, lmax, m, n) = _admit(spec, idx, "heart", draw)
    t = hp.t
    if hp.heart.is_empty:
        return _heart_case_acyclic(seed, q, ideal, lam, t, m, n)
    ck = _CaseChecks(seed)
    heart_set = set(hp.heart.vertex_set)
    split = IdempotentSplit.from_heart(q, hp.heart)
    gamma = restricted_algebra(q, ideal, hp.heart, QQ)
    up = heart_set | set(split.plus)
    down = heart_set | set(split.minus)

    res = resolution(m, t + 3, "projective")
    for ell in range(t + 1, t + 4):
        ck.require(
            f"syzygy_support_l{ell}",
            set(res.syzygy(ell).support) <= up,
            f"support {sorted(res.syzygy(ell).support)}",
        )
    ires = resolution(n, t + 3, "injective")
    for ell in range(t + 1, t + 4):
        ck.require(
            f"cosyzygy_support_l{ell}",
            set(ires.syzygy(ell).support) <= down,
            f"support {sorted(ires.syzygy(ell).support)}",
        )
    ck.require("term_reachability", check_term_reachability(res))

    omega = res.syzygy(t + 1)
    ares = resolution(omega, 3, "projective")
    term_support = {
        v for mults in ares.terms for v, mult in mults.items() if mult > 0
    }
    ck.require("deep_term_support", term_support <= up, f"terms {sorted(term_support)}")
    tr = transport_resolution(omega, 3, split, gamma)
    ck.require("transport_exact", tr.exact)
    ck.require("transport_minimal", tr.minimal)
    ck.require("transport_terms_projective", tr.terms_projective)

    hparts = heart_parts(omega, split)
    gens = [standard_module(lam, "projective", v) for v in sorted(split.plus)]
    traced = trace_submodule(omega, gens)
    F = lam.field
    for v in q.vertices:
        same = linalg.rowspaces_equal(
            traced[v], hparts.plus_inclusion.blocks[v], omega.dims[v], F
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

    pair = heart_shift_pair(m, n, split, t, gamma)
    lam_table = ext_dims(m, n, lmax)
    gam_table = ext_dims(pair.a_part, pair.b_part, lmax - 2 * t - 2)
    for ell in range(2 * t + 3, lmax + 1):
        ck.expect(f"ext_shift_l{ell}", lam_table[ell], gam_table[ell - 2 * t - 2])

    cosyz = ires.syzygy(t + 1)
    a_lam = hparts.quot_by_plus
    b_lam = heart_parts(cosyz, split).minus_part
    lam58 = ext_dims(a_lam, b_lam, 3)
    gam58 = ext_dims(pair.a_part, pair.b_part, 3)
    for nn in range(4):
        ck.expect(f"heart_pair_ext_n{nn}", lam58[nn], gam58[nn])

    gl_lam = gl_dim(lam, 6)
    gl_gam = gl_dim(gamma, 6)
    if gl_lam.is_finite and gl_gam.is_finite:
        ck.require(
            "gl_dim_monotone",
            gl_lam.value >= gl_gam.value,
            f"lam {gl_lam} gamma {gl_gam}",
        )
    return ck.witnesses


def _heart_case_acyclic(seed, q, ideal, lam, t, m, n) -> list[Witness]:
    ck = _CaseChecks(seed)
    gamma = restricted_algebra(q, ideal, q.full_subquiver(frozenset()), QQ)
    ck.expect("acyclic_gamma_zero", gamma.dim, 0)
    table = ext_dims(m, n, t + 3)
    for ell in range(t + 1, t + 4):
        ck.expect(f"acyclic_ext_vanish_l{ell}", table[ell], 0)
    ck.require("acyclic_gl_finite", gl_dim(lam, len(q.vertices) + 1).is_finite)
    return ck.witnesses


# ---------------------------------------------------------------------------
# suite 4: projective-side and injective-side Ext agree


def verify_ext_cross(spec: InstanceSpec, cases: int = 100, cutoff: int = 3) -> SuiteReport:
    """Both Ext computations (resolve m vs coresolve n) on random pairs."""

    def case(spec: InstanceSpec, idx: int) -> list[Witness]:
        return _ext_cross_case(spec, idx, cutoff)

    return _run_suite("ext-cross", spec, cases, case)


def _ext_cross_case(spec: InstanceSpec, idx: int, cutoff: int) -> list[Witness]:
    mbound = min(spec.module_size_bound, 6)

    def draw(rng, q, ideal, lam):
        m = _gen_module(rng, lam, mbound)
        n = _gen_module(rng, lam, mbound)
        if _widths_ok(m, cutoff + 2) and _widths_ok(dual_module(n), cutoff + 2):
            return m, n
        return None

    seed, _, _, _, (m, n) = _admit(spec, idx, "ext-cross", draw)
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
    child: "DecompositionNode | None" = None


@dataclass(frozen=True)
class DecompositionTree:
    root: DecompositionNode
    blocks: tuple[Block, ...]
    splits: int

    def render(self) -> str:
        lines: list[str] = []
        node = self.root
        depth = 0
        while node is not None:
            pad = "  " * depth
            if node.kind == "acyclic":
                lines.append(f"{pad}acyclic vertices={','.join(node.vertices) or '-'}")
                node = None
            else:
                b = node.block
                lines.append(
                    f"{pad}split vertices={','.join(node.vertices)} "
                    f"heart={','.join(node.heart_vertices)} t={node.t} "
                    f"block={','.join(b.vertices)} block_dim={b.dim} "
                    f"simple_cycle={'yes' if b.simple_cycle else 'no'} "
                    f"eprime_e={node.eprime_e_dim}"
                )
                node = node.child
                depth += 1
        return "\n".join(lines) + "\n"


def decompose(q: Quiver, ideal: IdealSpec, field=QQ) -> DecompositionTree:
    """Peel path-connected blocks off the heart, one triangular split at a time.

    Each stage reduces to the homological heart, picks a source component of
    the heart's condensation, verifies the vanishing corner that makes the
    split triangular, emits the block with its algebra, and recurses on the
    rest.  A stage without nontrivial components is the acyclic leaf.
    """
    blocks: list[Block] = []
    root = _decompose_stage(q, ideal, field, blocks)
    return DecompositionTree(root, tuple(blocks), len(blocks))


def _decompose_stage(q: Quiver, ideal: IdealSpec, field, blocks: list[Block]) -> DecompositionNode:
    rep = q.components()
    if rep.nontrivial_count == 0:
        return DecompositionNode("acyclic", tuple(q.vertices))
    hp = q.homological_heart()
    heart_alg = restricted_algebra(q, ideal, hp.heart, field)
    hq = heart_alg.quiver
    hrep = hq.components()
    source = hrep.components[0]
    if not hrep.nontrivial_flags[0]:
        raise InvariantViolation("heart condensation source is a trivial component")
    sub = hq.full_subquiver(source)
    split = IdempotentSplit.from_subquiver(sub)
    tb = triangular_blocks(heart_alg, split)
    if tb.dim_eprime_e != 0:
        raise InvariantViolation("claimed source block admits incoming paths")
    corner = corner_algebra(heart_alg, split)
    # the source is a nontrivial strongly connected component of hq
    block = Block(hq.sort_vertices(source), corner.dim, hq._is_simple_cycle(source))
    blocks.append(block)
    rest = hq.full_subquiver(frozenset(hp.heart.vertex_set) - source)
    rest_alg = restricted_algebra(hq, heart_alg.ideal, rest, field)
    child = _decompose_stage(rest_alg.quiver, rest_alg.ideal, field, blocks)
    return DecompositionNode(
        "split",
        tuple(q.vertices),
        tuple(hp.heart.vertices),
        hp.t,
        block,
        tb.dim_eprime_e,
        child,
    )
