"""Resolutions, Ext dimensions, and heart transport for representations.

Projective resolutions are built step by step from projective covers: lift a
basis of the top, map a matching sum of indecomposable projectives onto the
module, and take the kernel as the next syzygy.  Every prefix carries
exactness and minimality certificates that are recomputed from ranks rather
than trusted from the construction.  Injective coresolutions are obtained by
dualising, resolving over the opposite algebra, and dualising back.

Ext dimensions come from the Hom complex of a minimal resolution, using the
evaluation isomorphism Hom(P, N) = sum of copies of components of N indexed
by the generators of P.  Everything is exact arithmetic over the base field.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

from . import linalg
from .algebra import FiniteDimAlgebra, IdempotentSplit
from .errors import InputError, InvariantViolation
from .modules import (
    ModuleMap,
    Representation,
    _arrow_element_index,
    dual_map,
    dual_module,
    get_opposite,
    heart_parts,
    largest_submodule_supported,
    kernel_of_map,
    quotient_with_section,
    restrict,
)


@dataclass(frozen=True)
class DimBound:
    """A homological dimension: an exact value or a lower bound at a cutoff."""

    kind: str
    value: int

    @staticmethod
    def finite(d: int) -> "DimBound":
        return DimBound("finite", d)

    @staticmethod
    def at_least(c: int) -> "DimBound":
        return DimBound("at_least", c)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def __str__(self) -> str:
        return f"Finite({self.value})" if self.is_finite else f"AtLeast({self.value})"


# ---------------------------------------------------------------------------
# sums of indecomposable projectives, with generator bookkeeping


@dataclass(frozen=True)
class TermInfo:
    """Basis bookkeeping for a finite sum of indecomposable projectives.

    generators lists (vertex, copy) pairs in vertex order; basis maps each
    vertex w to the (generator index, algebra element index) pairs that make
    up the component there; gen_pos locates each generator's unit vector.
    """

    generators: tuple[tuple[str, int], ...]
    basis: dict[str, tuple[tuple[int, int], ...]]
    gen_pos: tuple[tuple[str, int], ...]


def term_label(alg: FiniteDimAlgebra, mults: dict[str, int]) -> str:
    parts = []
    for v in alg.vertices:
        m = mults.get(v, 0)
        if m == 1:
            parts.append(f"P_{v}")
        elif m > 1:
            parts.append(f"P_{v}^{m}")
    return " + ".join(parts) if parts else "0"


def materialize_term(
    alg: FiniteDimAlgebra, mults: dict[str, int]
) -> tuple[Representation, TermInfo]:
    """Build the sum of projectives P_v^{mults[v]} with explicit bookkeeping."""
    q = alg.quiver
    F = alg.field
    for v in mults:
        if v not in alg.idempotent_index:
            raise InputError(f"unknown vertex id {v!r} in projective term")
    generators = []
    for v in alg.vertices:
        for c in range(mults.get(v, 0)):
            generators.append((v, c))
    by_source: dict[str, list[int]] = {v: [] for v in q.vertices}
    for i, el in enumerate(alg.elements):
        by_source[el.source].append(i)
    basis: dict[str, list[tuple[int, int]]] = {w: [] for w in q.vertices}
    for g, (v, _) in enumerate(generators):
        for i in by_source[v]:
            basis[alg.elements[i].target].append((g, i))
    pos = {w: {pair: p for p, pair in enumerate(basis[w])} for w in q.vertices}
    dims = {w: len(basis[w]) for w in q.vertices}
    gen_pos = []
    for g, (v, _) in enumerate(generators):
        unit = alg.idempotent_index[v]
        gen_pos.append((v, pos[v][(g, unit)]))
    mats = {}
    for a in q.arrows:
        j = _arrow_element_index(alg, a.name)
        mat = linalg.zeros(dims[a.source], dims[a.target], F)
        for p, (g, i) in enumerate(basis[a.source]):
            for k, c in alg.table[i][j]:
                mat[p][pos[a.target][(g, k)]] = c
        mats[a.name] = mat
    rep = Representation(alg, dims, mats, validate=False)
    info = TermInfo(
        tuple(generators),
        {w: tuple(rows) for w, rows in basis.items()},
        tuple(gen_pos),
    )
    return rep, info


# ---------------------------------------------------------------------------
# projective covers and syzygies


@dataclass(frozen=True)
class CoverStep:
    """One projective cover: term, cover map, syzygy, and certificates."""

    mults: dict[str, int]
    term: Representation
    info: TermInfo
    cover: ModuleMap
    syzygy: Representation
    syzygy_inclusion: ModuleMap
    minimal: bool


def projective_cover_and_syzygy(m: Representation) -> CoverStep:
    """Projective cover of a module together with its first syzygy.

    The cover lifts the free coordinates of the radical's echelon form, one
    generator per top basis vector, so the construction is deterministic.
    Minimality is certified by checking that the kernel avoids the generator
    unit coordinates, which span a complement of the radical of the term.
    """
    alg = m.algebra
    q = alg.quiver
    F = m.field
    rad_rows: dict[str, list[list]] = {v: [] for v in q.vertices}
    for a in q.arrows:
        rad_rows[a.target].extend(m.mats[a.name])
    mults: dict[str, int] = {}
    lifts: dict[str, list[int]] = {}
    for v in q.vertices:
        _, pivots = linalg.rref(rad_rows[v], m.dims[v], F)
        taken = set(pivots)
        free = [j for j in range(m.dims[v]) if j not in taken]
        mults[v] = len(free)
        lifts[v] = free
    term, info = materialize_term(alg, mults)
    elt_cache: dict[int, list[list]] = {}

    def elt_matrix(i: int) -> list[list]:
        got = elt_cache.get(i)
        if got is None:
            got = m.element_matrix(i)
            elt_cache[i] = got
        return got

    copy_col: dict[tuple[str, int], int] = {}
    for v in q.vertices:
        for c, j in enumerate(lifts[v]):
            copy_col[(v, c)] = j
    blocks = {}
    for w in q.vertices:
        rows = []
        for g, i in info.basis[w]:
            v, c = info.generators[g]
            rows.append(list(elt_matrix(i)[copy_col[(v, c)]]))
        blocks[w] = rows
    cover = ModuleMap(term, m, blocks, validate=False)
    syz, incl = kernel_of_map(cover)
    for v in q.vertices:
        # nullity + target dim must exhaust the term: the cover surjects
        if term.dims[v] - syz.dims[v] != m.dims[v]:
            raise InvariantViolation(f"projective cover fails to surject at {v!r}")
    minimal = True
    for w, p in info.gen_pos:
        for row in incl.blocks[w]:
            if not F.is_zero(row[p]):
                minimal = False
    return CoverStep(mults, term, info, cover, syz, incl, minimal)


def cover_steps(m: Representation) -> Iterator[CoverStep]:
    """The cover steps of m, of its first syzygy, of its second, and so on.

    Lazy and endless: each step is computed only when it is asked for, so
    callers take exactly as many as they need.
    """
    while True:
        step = projective_cover_and_syzygy(m)
        yield step
        m = step.syzygy


def is_projective_module(m: Representation) -> bool:
    """A module is projective exactly when its cover has zero syzygy."""
    return projective_cover_and_syzygy(m).syzygy.is_zero


# ---------------------------------------------------------------------------
# resolution prefixes


@dataclass(frozen=True)
class ResolutionPrefix:
    """A finite prefix of a minimal resolution or coresolution.

    For direction "projective" the maps run P_k -> ... -> P_0 -> module, with
    diffs[0] the augmentation and diffs[i] : reps[i] -> reps[i-1]; syzygies[i]
    is the (i+1)-st syzygy.  For direction "injective" everything dualises:
    diffs[0] : module -> I_0, diffs[i] : reps[i-1] -> reps[i], and syzygies[i]
    is the (i+1)-st cosyzygy.  The certificate flags are recomputed from
    ranks, not inherited from the construction.
    """

    direction: str
    module: Representation
    terms: tuple[dict[str, int], ...]
    reps: tuple[Representation, ...]
    diffs: tuple[ModuleMap, ...]
    syzygies: tuple[Representation, ...]
    infos: tuple[TermInfo, ...] | None
    minimal: bool
    exact: bool

    def syzygy(self, i: int) -> Representation:
        """The i-th (co)syzygy; index 0 returns the module itself."""
        if i == 0:
            return self.module
        return self.syzygies[i - 1]

    def term_labels(self) -> tuple[str, ...]:
        alg = self.module.algebra
        return tuple(term_label(alg, t) for t in self.terms)


def _certify_exact(module: Representation, reps, diffs) -> bool:
    """Recompute exactness of an augmented complex from ranks."""
    q = module.algebra.quiver
    F = module.field
    ranks = []
    for d in diffs:
        ranks.append({v: linalg.rank(d.blocks[v], d.target.dims[v], F) for v in q.vertices})
    for v in q.vertices:
        if ranks[0][v] != module.dims[v]:
            return False
    for i in range(1, len(diffs)):
        if not diffs[i].compose(diffs[i - 1]).is_zero:
            return False
        for v in q.vertices:
            if ranks[i][v] + ranks[i - 1][v] != reps[i - 1].dims[v]:
                return False
    return True


def resolution(m: Representation, k: int, direction: str = "projective") -> ResolutionPrefix:
    """Minimal resolution prefix with terms indexed 0..k.

    Terms beyond the projective (or injective) dimension come out zero; the
    prefix always has k+1 terms so tables over a fixed cutoff line up.
    """
    if k < 0:
        raise InputError("resolution length must be nonnegative")
    if direction == "injective":
        return _injective_resolution(m, k)
    if direction != "projective":
        raise InputError(f"unknown resolution direction {direction!r}")
    steps = list(islice(cover_steps(m), k + 1))
    diffs = [steps[0].cover]
    for prev, step in zip(steps, steps[1:]):
        diffs.append(step.cover.compose(prev.syzygy_inclusion))
    reps = tuple(step.term for step in steps)
    return ResolutionPrefix(
        "projective",
        m,
        tuple(step.mults for step in steps),
        reps,
        tuple(diffs),
        tuple(step.syzygy for step in steps),
        tuple(step.info for step in steps),
        all(step.minimal for step in steps),
        _certify_exact(m, reps, diffs),
    )


def _injective_resolution(m: Representation, k: int) -> ResolutionPrefix:
    dm = dual_module(m)
    res = resolution(dm, k, "projective")
    reps = tuple(dual_module(p) for p in res.reps)
    syzygies = tuple(dual_module(s) for s in res.syzygies)
    first = dual_map(res.diffs[0])
    # rebuild the source as the module itself; the double dual has equal data
    diffs = [ModuleMap(m, reps[0], first.blocks, validate=False)]
    for i in range(1, len(res.diffs)):
        diffs.append(dual_map(res.diffs[i]))
    return ResolutionPrefix(
        "injective",
        m,
        res.terms,
        reps,
        tuple(diffs),
        syzygies,
        None,
        res.minimal,
        res.exact,
    )


def check_term_reachability(res: ResolutionPrefix) -> bool:
    """Every vertex in term k must be fed by term 0 through a path of length >= k.

    A path of length at least k exists exactly when one of length between k
    and k plus the vertex count exists, so a bounded exact-length sweep
    decides the property.
    """
    q = res.module.algebra.quiver
    start = {v for v, mult in res.terms[0].items() if mult > 0}
    depth = len(res.terms) - 1
    if depth == 0:
        return True
    slack = len(q.vertices)
    levels = [set(start)]
    for _ in range(depth + slack):
        prev = levels[-1]
        if res.direction == "projective":
            nxt = {a.target for a in q.arrows if a.source in prev}
        else:
            nxt = {a.source for a in q.arrows if a.target in prev}
        levels.append(nxt)
    for kk in range(1, depth + 1):
        allowed = set()
        for j in range(kk, min(kk + slack, len(levels) - 1) + 1):
            allowed |= levels[j]
        for v, mult in res.terms[kk].items():
            if mult > 0 and v not in allowed:
                return False
    return True


# ---------------------------------------------------------------------------
# Ext dimension tables


@dataclass(frozen=True)
class ExtTable:
    """Dimensions of Ext^0..Ext^cutoff for a fixed pair of modules."""

    dims: tuple[int, ...]
    cutoff: int
    side: str

    def __getitem__(self, i: int) -> int:
        return self.dims[i]

    def describe(self) -> str:
        return " ".join(f"ext^{i}={d}" for i, d in enumerate(self.dims))


def ext_dims(
    m: Representation, n: Representation, k: int, side: str = "projective"
) -> ExtTable:
    """Dimensions of Ext^i(m, n) for i = 0..k.

    The projective side resolves m and takes cohomology of the evaluated Hom
    complex; the injective side coresolves n, which is the same computation
    over the opposite algebra applied to the duals in reversed order.
    """
    if m.algebra is not n.algebra:
        raise InputError("ext endpoints live over different algebras")
    if k < 0:
        raise InputError("ext cutoff must be nonnegative")
    if side == "projective":
        return ExtTable(_ext_dims_projective(m, n, k), k, side)
    if side == "injective":
        return ExtTable(_ext_dims_projective(dual_module(n), dual_module(m), k), k, side)
    raise InputError(f"unknown ext side {side!r}")


def _ext_dims_projective(m: Representation, n: Representation, k: int) -> tuple[int, ...]:
    res = resolution(m, k + 1, "projective")
    F = m.field
    elt_cache: dict[int, list[list]] = {}

    def act(i: int) -> list[list]:
        got = elt_cache.get(i)
        if got is None:
            got = n.element_matrix(i)
            elt_cache[i] = got
        return got

    hom_dims = []
    offsets: list[list[int]] = []
    for info in res.infos:
        offs = []
        total = 0
        for v, _ in info.generators:
            offs.append(total)
            total += n.dims[v]
        offsets.append(offs)
        hom_dims.append(total)
    ranks = [0]
    for i in range(1, k + 2):
        info_t = res.infos[i]
        info_s = res.infos[i - 1]
        nrows, ncols = hom_dims[i - 1], hom_dims[i]
        delta = linalg.zeros(nrows, ncols, F)
        for g, (u, _) in enumerate(info_t.generators):
            _, r = info_t.gen_pos[g]
            image = res.diffs[i].blocks[u][r]
            col0 = offsets[i][g]
            for c, coeff in enumerate(image):
                if F.is_zero(coeff):
                    continue
                gsrc, elt = info_s.basis[u][c]
                row0 = offsets[i - 1][gsrc]
                mat = act(elt)
                for a in range(len(mat)):
                    row = delta[row0 + a]
                    for b in range(n.dims[u]):
                        if not F.is_zero(mat[a][b]):
                            row[col0 + b] = F.add(row[col0 + b], F.mul(coeff, mat[a][b]))
        ranks.append(linalg.rank(delta, ncols, F))
    dims = [hom_dims[0] - ranks[1]]
    for i in range(1, k + 1):
        dims.append(hom_dims[i] - ranks[i] - ranks[i + 1])
    return tuple(dims)


# ---------------------------------------------------------------------------
# homological dimensions


def proj_dim(m: Representation, cutoff: int) -> DimBound:
    """Projective dimension, resolved up to the cutoff.

    Returns Finite(d) when the (d+1)-st syzygy vanishes with d <= cutoff and
    AtLeast(cutoff) otherwise.  The zero module reports Finite(-1).
    """
    if cutoff < 0:
        raise InputError("cutoff must be nonnegative")
    if m.is_zero:
        return DimBound.finite(-1)
    for depth, step in enumerate(islice(cover_steps(m), cutoff + 1)):
        if step.syzygy.is_zero:
            return DimBound.finite(depth)
    return DimBound.at_least(cutoff)


def inj_dim(m: Representation, cutoff: int) -> DimBound:
    """Injective dimension, by resolving the dual over the opposite algebra."""
    return proj_dim(dual_module(m), cutoff)


def gl_dim(alg: FiniteDimAlgebra, cutoff: int) -> DimBound:
    """Global dimension bound: the maximum of proj_dim over the simples."""
    from .modules import standard_module

    best = -1
    for v in alg.vertices:
        bound = proj_dim(standard_module(alg, "simple", v), cutoff)
        if not bound.is_finite:
            return DimBound.at_least(cutoff)
        best = max(best, bound.value)
    return DimBound.finite(max(best, 0))


# ---------------------------------------------------------------------------
# transport of resolutions through a heart quotient


@dataclass(frozen=True)
class TransportedResolution:
    """A resolution pushed through the plus-part quotient and restricted.

    The terms record multiplicities over the restricted algebra's vertices;
    the flags certify that the transported complex is an exact, minimal
    resolution by sums of restricted projectives.
    """

    gamma: FiniteDimAlgebra
    module: Representation
    terms: tuple[dict[str, int], ...]
    reps: tuple[Representation, ...]
    diffs: tuple[ModuleMap, ...]
    exact: bool
    minimal: bool
    terms_projective: bool


def transport_resolution(
    a: Representation, k: int, split: IdempotentSplit, gamma: FiniteDimAlgebra
) -> TransportedResolution:
    """Transport a projective resolution of a to the restricted algebra.

    The input must be supported on the heart and its strict successors; each
    term and the module itself are divided by their largest submodule
    supported on the plus vertices, the differentials are induced through
    coordinate sections, and the whole complex is restricted.
    """
    if split.plus is None or split.minus is None:
        raise InputError("transport needs a split with plus/minus refinement")
    allowed = set(split.e) | set(split.plus)
    outside = sorted(a.support - allowed)
    if outside:
        raise InputError(f"module has support outside the heart closure: {outside}")
    res = resolution(a, k, "projective")
    chain = [a]
    chain.extend(res.reps)
    quots = []
    projs = []
    secs = []
    for rep in chain:
        rows = largest_submodule_supported(rep, split.plus)
        qq, pp, ss = quotient_with_section(rep, rows)
        quots.append(qq)
        projs.append(pp)
        secs.append(ss)
    r_quots = [restrict(qq, gamma) for qq in quots]
    F = a.field
    lam_vertices = a.algebra.quiver.vertices
    g_vertices = gamma.quiver.vertices
    r_diffs = []
    for i in range(k + 1):
        d = res.diffs[i]
        tgt = i - 1 if i > 0 else -1
        tgt_q = quots[tgt + 1]
        blocks = {}
        for v in lam_vertices:
            lifted = linalg.mat_mul(secs[i + 1][v], d.blocks[v], d.target.dims[v], F)
            blocks[v] = linalg.mat_mul(lifted, projs[tgt + 1].blocks[v], tgt_q.dims[v], F)
        src_r = r_quots[i + 1]
        tgt_r = r_quots[tgt + 1]
        gblocks = {v: blocks[v] for v in g_vertices}
        r_diffs.append(ModuleMap(src_r, tgt_r, gblocks, validate=True))
    exact = _certify_exact(r_quots[0], r_quots[1:], r_diffs)
    minimal = True
    for i in range(1, k + 1):
        target = r_quots[i]
        rad_rows: dict[str, list[list]] = {v: [] for v in g_vertices}
        for arr in gamma.quiver.arrows:
            rad_rows[arr.target].extend(target.mats[arr.name])
        for v in g_vertices:
            space = linalg.RowSpace(rad_rows[v], target.dims[v], F)
            for row in r_diffs[i].blocks[v]:
                if any(not F.is_zero(x) for x in row) and not space.contains(row):
                    minimal = False
    terms = []
    terms_projective = True
    for i, mults in enumerate(res.terms):
        gm = {v: mults.get(v, 0) for v in g_vertices if mults.get(v, 0) > 0}
        terms.append(gm)
        model, _ = materialize_term(gamma, gm)
        got = r_quots[i + 1]
        if model.dims != got.dims or model.mats != got.mats:
            terms_projective = False
    return TransportedResolution(
        gamma,
        r_quots[0],
        tuple(terms),
        tuple(r_quots[1:]),
        tuple(r_diffs),
        exact,
        minimal,
        terms_projective,
    )


# ---------------------------------------------------------------------------
# the dimension-shift pair


@dataclass(frozen=True)
class HeartShiftPair:
    """The two restricted modules whose Ext groups reproduce shifted Ext.

    a_part is the (t+1)-st syzygy of m divided by its plus part; b_part is
    the minus part of the (t+1)-st cosyzygy of n; both restricted.
    """

    a_part: Representation
    b_part: Representation
    syzygy: Representation
    cosyzygy: Representation


def heart_shift_pair(
    m: Representation,
    n: Representation,
    split: IdempotentSplit,
    t: int,
    gamma: FiniteDimAlgebra,
) -> HeartShiftPair:
    """Build the pair (A_m, B_n) driving the Ext dimension shift.

    Requires the heart split of the ambient algebra, the bound t on paths
    through the complement, and the restricted heart algebra.
    """
    if m.algebra is not n.algebra:
        raise InputError("shift pair endpoints live over different algebras")
    if t < 0:
        raise InputError("the complement bound must be nonnegative")
    res = resolution(m, t + 1, "projective")
    omega = res.syzygies[t]
    hp = heart_parts(omega, split)
    a_part = restrict(hp.quot_by_plus, gamma)
    ires = resolution(n, t + 1, "injective")
    cosyz = ires.syzygies[t]
    hn = heart_parts(cosyz, split)
    b_part = restrict(hn.minus_part, gamma)
    return HeartShiftPair(a_part, b_part, omega, cosyz)
