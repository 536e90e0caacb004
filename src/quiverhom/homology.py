"""Resolutions, Ext dimensions, and heart transport for representations.

Projective resolutions are built step by step from projective covers: lift a
basis of the top, map a matching sum of indecomposable projectives onto the
module, and take the kernel as the next syzygy.  A cover step, a plain
record (``CoverStep``), reads the algebra's projective layout and product
table and keeps only lift rows and kernel rows, as their nonzero (column,
entry) pairs, which are all its syzygy and the Ext tables read; its
minimality certificate, dense kernel, term, cover map and syzygy inclusion
are built when first read, which the syzygy walk, the Ext tables and the
gates never do: only ``resolution`` reads the certificate.  Its work follows
the term and the module, not the quiver: it eliminates only where the
term has rows and the module a radical, the top deciding the rest, and
builds syzygy arrow matrices only out of vertices with kernel rows.  M is
projective iff its cover P(M) -> M is an isomorphism, i.e. dim P(M) = dim M,
which ``is_projective_module`` reads off the top with no step.
One ``SyzygyTable`` per case or command keeps one node per module content:
it lists the nodes of each (algebra, dimension vector) and tells them apart
by ``Representation.equal_to``.  Every ``SyzygyChain`` minted from it reads
the same nodes, so no content is stepped twice, and a syzygy equal to one
already on its chain closes the chain into a lasso.  Equal modules are
isomorphic, so a nonzero repeat certifies an infinite projective dimension,
reported as ``Infinite`` by ``proj_dim``, ``inj_dim`` and ``gl_dim``, which
looks past a simple that only reaches its cutoff.  Isomorphic syzygies of
different content go unnoticed, so a lasso may be missed but is never
false.  Terms wider than ``MAX_TERM_WIDTH`` are refused unbuilt, and
``check_cutoff`` refuses a cutoff not an int, below 0 or past
``MAX_CUTOFF``.  A prefix's minimality comes from its cover steps; its
exactness is recomputed from ranks of the complex it holds each time it is
read.  Prefixes are projective only.  The injective side is the chain's
``dual``, whose node the table finds by content like any other: the ell-th
cosyzygy of a module is the dual of the ell-th syzygy of its dual over the
opposite algebra, and has the same dimension vector.

Ext dimensions come from the Hom complex of a minimal resolution, read off
the cover steps of a chain, using the evaluation isomorphism Hom(P, N) = sum
of copies of components of N indexed by the generators of P.  Ext^k needs
P_0..P_(k+1), but the generators of P_(k+1) are the top lifts of
Omega^(k+1), so the chain takes cover steps on Omega^0..Omega^k only.  Into
a semisimple N (every arrow acting by zero) the complex has zero maps, so
its dimensions are read off the tops of Omega^0..Omega^k, and only
Omega^0..Omega^(k-1) are stepped.  Everything is exact arithmetic over the
base field.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, islice
from typing import NamedTuple

from . import linalg
from .algebra import FiniteDimAlgebra, restricted_algebra
from .errors import InputError, InvariantViolation, require_int
from .fields import Rationals
from .modules import (
    HeartParts,
    ModuleMap,
    Representation,
    _components,
    _check_multiplicities,
    _convex_split,
    dual_module,
    heart_parts,
    materialize_term,
    radical_rows,
    restrict,
    standard_module,
    term_info,
)
from .quiver import FullSubquiver, Quiver


@dataclass(frozen=True)
class DimBound:
    """A homological dimension: an exact value, a lower bound at a cutoff, or
    infinite, certified by a syzygy that repeats."""

    kind: str
    value: int | None

    @staticmethod
    def finite(d: int) -> "DimBound":
        return DimBound("finite", d)

    @staticmethod
    def at_least(c: int) -> "DimBound":
        return DimBound("at_least", c)

    @staticmethod
    def infinite() -> "DimBound":
        return DimBound("infinite", None)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def __str__(self) -> str:
        if self.kind == "infinite":
            return "Infinite"
        return f"Finite({self.value})" if self.is_finite else f"AtLeast({self.value})"


# ---------------------------------------------------------------------------
# projective covers and syzygies


def term_label(alg: FiniteDimAlgebra, mults: dict[str, int]) -> str:
    parts = []
    for v in alg.vertices:
        m = mults.get(v, 0)
        if m == 1:
            parts.append(f"P_{v}")
        elif m > 1:
            parts.append(f"P_{v}^{m}")
    return " + ".join(parts) if parts else "0"


class CoverStep:
    """One projective cover of module: term, cover map, syzygy, and certificates.

    A plain record, kept as given.  cover_rows holds the image in module of
    each term basis element, per vertex where the term is nonzero, and
    kernel_entries the syzygy's canonical echelon basis in the term, each
    row as its nonzero (column, entry) pairs, ascending, per vertex where it
    has rows.  The minimality certificate, the dense kernel, the term, the
    cover and the syzygy's inclusion are built from them when first read,
    and hold no reference back to the step; of the certificate's readers
    only ``resolution`` asks.
    """

    def __init__(self, mults, info, syzygy, module, cover_rows, kernel_entries):
        self.mults, self.info, self.syzygy, self.module = mults, info, syzygy, module
        self.cover_rows, self.kernel_entries = cover_rows, kernel_entries

    @cached_property
    def minimal(self) -> bool:
        """No kernel pair lies at a generator unit coordinate; those span a
        complement of the radical of the term."""
        info, kernel = self.info, self.kernel_entries
        units = {(v, info.offsets[v][g]) for g, (v, _) in enumerate(info.generators)}
        return not any((w, c) in units for w in dict(units) for row in kernel.get(w, ()) for c, _ in row)

    @cached_property
    def kernel(self) -> dict[str, list[list]]:
        entries, F = self.kernel_entries, self.module.field
        return {w: linalg.from_entries(entries.get(w, ()), len(b), F) for w, b in self.info.basis.items()}

    @cached_property
    def term(self) -> Representation:
        return materialize_term(self.module.algebra, self.mults)

    @cached_property
    def cover(self) -> ModuleMap:
        rows = self.cover_rows
        return ModuleMap._unchecked(self.term, self.module, {v: rows.get(v, []) for v in self.module.dims})

    @cached_property
    def syzygy_inclusion(self) -> ModuleMap:
        return ModuleMap._unchecked(self.syzygy, self.term, self.kernel)


# widest projective term a cover step builds; wider ones are an input error
MAX_TERM_WIDTH = 500
# longest resolution and highest Ext degree accepted: a walk's memory grows
# with the cutoff, and the suites and benchmarks use at most 10
MAX_CUTOFF = 1000


def check_cutoff(k: int, what: str) -> None:
    """Refuse a cutoff not an int, below 0 or past MAX_CUTOFF, naming it as `what`."""
    require_int(k, what)
    if k < 0:
        raise InputError(f"{what} must be nonnegative")
    if k > MAX_CUTOFF:
        raise InputError(f"{what} {k} exceeds MAX_CUTOFF = {MAX_CUTOFF}")


def cover_width(m: Representation) -> int:
    """Dimension of the projective cover: sum_v dim top_v * dim P_v."""
    lifts, dims = m.top_lifts(), m.algebra.projective_layout.dims
    return sum(len(lifts[v]) * dims[v] for v in m.algebra.vertices)


def _refuse_wide_cover(m: Representation) -> None:
    """Refuse a module whose projective cover is wider than MAX_TERM_WIDTH."""
    width = cover_width(m)
    if width > MAX_TERM_WIDTH:
        raise InputError(f"projective cover of dim {width} exceeds budget {MAX_TERM_WIDTH}")


def projective_cover_and_syzygy(m: Representation) -> CoverStep:
    """Projective cover of a module together with its first syzygy.

    The cover lifts the free coordinates of the radical's echelon form, one
    generator per top basis vector, so the construction is deterministic; a
    generator's basis element x maps to its lift row times the matrix of x.
    At a vertex w the cover surjects iff its rows there have rank dim M_w.
    Where M_w is zero the kernel is the whole term component, its rows unit
    pairs and its coordinates the term positions (a vertex with no term
    rows either is skipped).  Where M_w has no radical, every arrow into w
    acts by zero, so the rows are the units at w's generators (the
    identity) and zero rows, the kernel's pivots, with no rank taken.
    Elsewhere dim M_w rows take one rank-only rref, full rank leaving the
    kernel zero, and only more rows a RowSpace, whose kernel pivots are the
    coordinates.  An arrow out of a vertex with kernel rows acts on their
    pairs through the product table, read only at the coordinates at its
    target; other arrows get the empty matrix.  Images are summed as plain
    ints or Fractions, and over GF(p) each row is reduced once, at the end.
    The step's minimality certificate is computed only when read.
    """
    alg = m.algebra
    q, F = alg.quiver, alg.field
    lifts = m.top_lifts()
    mults = dict(zip(lifts, map(len, lifts.values())))
    _refuse_wide_cover(m)
    info = term_info(alg, mults)
    layout = alg.projective_layout
    prefix = layout.prefix
    cover_rows: dict[str, list[list]] = {}
    for v, c in info.generators:
        # the lift row times each basis path's matrix, along the layout's
        # prefix record: the basis is closed under prefixes, so each row is
        # its prefix's row times one arrow, taken only where that row is nonzero
        unit = [F.zero] * m.dims[v]
        unit[lifts[v][c]] = F.one
        walked: dict[int, list] = {}  # each element's row, by element index
        for i in layout.walks[v]:
            w, pre, arrow = prefix[i]
            if arrow is None:
                row = unit
            elif pre < 0:  # the unit row times an arrow: its matrix row at the lift
                row = m.mats[arrow][lifts[v][c]]
            elif any(walked[pre]):
                row = linalg.vec_mat(walked[pre], m.mats[arrow], m.dims[w], F)
            else:
                row = [F.zero] * m.dims[w]
            walked[i] = row
            cover_rows.setdefault(w, []).append(row)
    kernel: dict[str, list[list[tuple]]] = {}  # rows as (column, entry) pairs, where there are rows
    coords: dict[str, Sequence[int | None]] = {}  # there, each term position's kernel coordinate
    for w, d in m.dims.items():
        rows = cover_rows.get(w, ())
        if not d:
            if rows:  # the whole term component, whose positions are the coordinates
                kernel[w], coords[w] = [[(c, F.one)] for c in range(len(rows))], range(len(rows))
            continue
        if len(lifts[w]) == d:  # no radical: the kernel is the zero rows
            pivots = [c for c, row in enumerate(rows) if not any(row)]
            entries = [[(c, F.one)] for c in pivots]
        else:  # a radical at w: the rows must have rank d
            if len(rows) > d:
                space = linalg.RowSpace(rows, d, F)
                entries, rank, pivots = space.kernel_entries, space.rank, space.kernel_pivots
            else:
                pivots, rank = (), linalg.rank(rows, d, F) if rows else 0
            if rank != d:
                raise InvariantViolation(f"projective cover fails to surject at {w!r}")
        if pivots:
            kernel[w], coords[w] = entries, [None] * len(rows)
            for r, c in enumerate(pivots):
                coords[w][c] = r
    table, local, p = alg.table, layout.local, None if isinstance(F, Rationals) else F.p
    mats: dict[str, list[list]] = {name: [] for name in q.arrow_by_name}
    for v, rows in kernel.items():
        basis = info.basis[v]
        for a in q.out_arrows[v]:
            j, starts, cols = alg.arrow_index[a.name], info.offsets.get(a.target), coords.get(a.target)
            width = len(kernel.get(a.target, ()))
            for row in rows:
                img = [0] * width
                # with no kernel at the target, an image has no coordinates to read
                for c, x in row if width else ():
                    g, i = basis[c]
                    for k, coeff in table[i].get(j, ()):
                        r = cols[starts[g] + local[k]]
                        if r is not None:
                            img[r] += x * coeff
                mats[a.name].append([y % p for y in img] if p else img)
    syz = Representation._unchecked(alg, {w: len(kernel.get(w, ())) for w in m.dims}, mats)
    return CoverStep(mults, info, syz, m, cover_rows, kernel)


class SyzygyTable:
    """The syzygies read in one case or command, one node per module content.

    Content includes the algebra, so nodes over an algebra, its opposite and
    its restrictions sit side by side.  index lists the nodes of each
    (algebra, dimension vector) in the order they were made.  Per node, steps
    holds the cover step and succ the node of its syzygy, each made when
    first read.  No dual is kept: a dual module is found by its content,
    like every other node.  Nothing here refers to a view, so a dropped table
    leaves no cycle.
    """

    __slots__ = ("modules", "index", "steps", "succ")

    def __init__(self):
        self.modules: list[Representation] = []
        self.index: dict[tuple, list[int]] = {}
        self.steps: dict[int, CoverStep] = {}
        self.succ: dict[int, int] = {}

    def node(self, module: Representation) -> int:
        """The first node of the module's algebra and dims whose module is
        ``equal_to`` it, or a new node appended there.  A lookup costs one
        comparison per earlier node of its vector, each stopping at the first
        entry that differs."""
        nodes = self.index.setdefault((module.algebra, tuple(module.dims.values())), [])
        for i in nodes:
            if self.modules[i].equal_to(module):
                return i
        nodes.append(len(self.modules))
        self.modules.append(module)
        return nodes[-1]

    def chain(self, module: Representation) -> SyzygyChain:
        return SyzygyChain(self, self.node(module))

    def step(self, i: int) -> CoverStep:
        if i not in self.steps:
            step = self.steps[i] = projective_cover_and_syzygy(self.modules[i])
            self.succ[i] = self.node(step.syzygy)
        return self.steps[i]

    def walk(self, i: int) -> Iterator[int]:
        """Node i, then the node of each syzygy in turn, Omega^0 first; a node
        is stepped only when the walk moves past it."""
        while True:
            yield i
            self.step(i)
            i = self.succ[i]


class SyzygyChain(NamedTuple):
    """A view of one node of a table: module, step (its cover step), dual (the
    chain of its dual, found by content) and drop(k) (the chain of its k-th
    syzygy), each read through the table, which makes it on first use."""

    table: SyzygyTable
    node: int

    @property
    def module(self) -> Representation:
        return self.table.modules[self.node]

    @property
    def step(self) -> CoverStep:
        return self.table.step(self.node)

    @property
    def dual(self) -> SyzygyChain:
        return SyzygyChain(self.table, self.table.node(dual_module(self.module)))

    def drop(self, k: int) -> SyzygyChain:
        """The chain of the k-th syzygy."""
        return SyzygyChain(self.table, next(islice(self.table.walk(self.node), k, None)))


ModuleOrChain = Representation | SyzygyChain


def _chain(m: ModuleOrChain) -> SyzygyChain:
    return m if isinstance(m, SyzygyChain) else SyzygyTable().chain(m)


def is_projective_module(m: Representation) -> bool:
    """Projective iff the cover P(M) -> M, a surjection, is an isomorphism:
    iff dim P(M) = dim M, read off the top with no cover step, at any width."""
    return cover_width(m) == m.total_dim


# ---------------------------------------------------------------------------
# resolution prefixes


@dataclass(frozen=True)
class ResolutionPrefix:
    """A finite prefix of a minimal projective resolution.

    The maps run P_k -> ... -> P_0 -> module, with diffs[0] the augmentation
    and diffs[i] : reps[i] -> reps[i-1]; syzygies[i] is the (i+1)-st syzygy.
    minimal comes from the cover steps; exact is recomputed from ranks of the
    held complex on every read.
    """

    module: Representation
    terms: tuple[dict[str, int], ...]
    reps: tuple[Representation, ...]
    diffs: tuple[ModuleMap, ...]
    syzygies: tuple[Representation, ...]
    minimal: bool

    @property
    def exact(self) -> bool:
        return _certify_exact(self.module, self.reps, self.diffs)

    def syzygy(self, i: int) -> Representation:
        """The i-th syzygy for i in 0..k+1; index 0 returns the module itself."""
        if not 0 <= i <= len(self.syzygies):
            raise InputError(f"syzygy index {i} outside 0..{len(self.syzygies)}")
        return self.syzygies[i - 1] if i else self.module

    def term_labels(self) -> tuple[str, ...]:
        alg = self.module.algebra
        return tuple(term_label(alg, t) for t in self.terms)


def _certify_exact(module: Representation, reps, diffs) -> bool:
    """Recompute exactness from ranks of an augmented complex whose maps run
    into the module: diffs[0] : reps[0] -> module, diffs[i] : reps[i] -> reps[i-1]."""
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


def resolution(m: ModuleOrChain, k: int) -> ResolutionPrefix:
    """Minimal projective resolution prefix with terms indexed 0..k.

    Terms beyond the projective dimension come out zero; the prefix always
    has k+1 terms so tables over a fixed cutoff line up.
    """
    check_cutoff(k, "resolution length")
    m = _chain(m)
    table = m.table
    path = list(islice(table.walk(m.node), k + 2))
    steps = [table.step(i) for i in path[:-1]]
    diffs = [steps[0].cover]
    for prev, step in zip(steps, steps[1:]):
        diffs.append(step.cover.compose(prev.syzygy_inclusion))
    return ResolutionPrefix(
        m.module,
        tuple(step.mults for step in steps),
        tuple(step.term for step in steps),
        tuple(diffs),
        tuple(table.modules[i] for i in path[1:]),
        all(step.minimal for step in steps),
    )


def check_term_reachability(q: Quiver, terms: Sequence[dict[str, int]]) -> bool:
    """Every vertex in term k must be fed by term 0 through a path of length >= k.

    terms holds the multiplicities of P_0..P_depth by vertex.  The ends of
    the paths of length >= 0 from term 0 are one walk from it, and those of
    length >= k+1 are the targets of arrows out of those of length >= k, so
    depth passes over the arrows decide the property.  Each term must map
    vertex ids of q to ints >= 0.
    """
    if not isinstance(terms, Sequence):
        raise InputError(f"terms must be a sequence, not {type(terms).__name__}")
    for term in terms:
        _check_multiplicities(term)
        q.check_vertices(term)
    if not terms:
        return True
    reach = q.reachable_from(v for v, mult in terms[0].items() if mult > 0)
    for term in terms[1:]:
        reach = {a.target for a in q.arrows if a.source in reach}
        if any(mult > 0 and v not in reach for v, mult in term.items()):
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


def ext_dims(m: ModuleOrChain, n: ModuleOrChain, k: int, side: str = "projective") -> ExtTable:
    """Dimensions of Ext^i(m, n) for i = 0..k.

    The projective side resolves m and takes cohomology of the evaluated Hom
    complex; the injective side coresolves n, which is the same computation
    over the opposite algebra applied to the dual modules in reversed order.
    """
    m, n = _chain(m), _chain(n)
    if m.module.algebra is not n.module.algebra:
        raise InputError("ext endpoints live over different algebras")
    check_cutoff(k, "ext cutoff")
    if side == "projective":
        return ExtTable(_ext_dims_projective(m, n.module, k), k, side)
    if side == "injective":
        return ExtTable(_ext_dims_projective(n.dual, dual_module(m.module), k), k, side)
    raise InputError(f"unknown ext side {side!r}")


def _ext_dims_projective(m: SyzygyChain, n: Representation, k: int) -> tuple[int, ...]:
    """Ext^0..Ext^k from the chain's cover steps on Omega^0..Omega^k.

    The generators of P_i are the top lifts of Omega^i, so P_(k+1) is read
    off the top of Omega^(k+1) and that module takes no cover step.  The
    generator at lift j of Omega^i_u maps in P_(i-1) to row j of the
    inclusion of Omega^i at u, read as that kernel row's pairs.  Entries
    of the complex are summed as plain numbers: only ``linalg.rank`` reads
    them, and over GF(p) it reduces an entry out of range first.

    When every arrow of N acts by zero (N.J = 0), the complex is not built:
    the resolution is minimal, so each differential maps P_i into the
    radical P_(i-1)J, which every map P_(i-1) -> N kills.  Every map of the
    Hom complex is then zero, and dim Ext^i = dim Hom(P_i, N) = sum_v
    dim top_v(Omega^i) * dim N_v, read off the tops of Omega^0..Omega^k, so
    only Omega^0..Omega^(k-1) take cover steps.
    """
    table, vertices = m.table, n.algebra.vertices
    if not any(map(any, chain.from_iterable(n.mats.values()))):
        path = list(islice(table.walk(m.node), k + 1))
        _refuse_wide_cover(table.modules[path[-1]])  # as its cover step would
        support = [(v, d) for v, d in n.dims.items() if d]
        tops = (table.modules[i].top_lifts() for i in path)
        return tuple(sum(len(lifts[v]) * d for v, d in support) for lifts in tops)
    path = list(islice(table.walk(m.node), k + 2))
    steps = [table.step(i) for i in path[:-1]]
    # the generators of P_i in vertex order, as (vertex, top lift of Omega^i)
    gens = []
    for lifts in (table.modules[i].top_lifts() for i in path):
        gens.append([(v, j) for v in vertices for j in lifts[v]])
    F = n.field
    # Hom(P_i, N) is a sum of components of N, one per generator: their offsets, then the total
    offsets = [list(accumulate((n.dims[v] for v, _ in gen), initial=0)) for gen in gens]
    hom_dims = [offs[-1] for offs in offsets]
    ranks = [0]
    for i in range(1, k + 2):
        basis_s = steps[i - 1].info.basis
        kernel = steps[i - 1].kernel_entries
        nrows, ncols = hom_dims[i - 1], hom_dims[i]
        if not nrows or not ncols:
            ranks.append(0)
            continue
        # only generators whose component of N is nonzero give rows or columns
        delta = linalg.zeros(nrows, ncols, F)
        rows0 = offsets[i - 1]
        for g, (u, j) in enumerate(gens[i]):
            col0 = offsets[i][g]
            if col0 == offsets[i][g + 1]:
                continue
            for c, coeff in kernel[u][j]:
                gsrc, elt = basis_s[u][c]
                row0 = rows0[gsrc]
                if row0 == rows0[gsrc + 1]:
                    continue
                for a, mrow in enumerate(n.element_matrix(elt)):
                    row = delta[row0 + a]
                    for b, x in enumerate(mrow):
                        if x:
                            row[col0 + b] += coeff * x
        ranks.append(linalg.rank(delta, ncols, F))
    dims = [hom_dims[0] - ranks[1]]
    for i in range(1, k + 1):
        dims.append(hom_dims[i] - ranks[i] - ranks[i + 1])
    return tuple(dims)


# ---------------------------------------------------------------------------
# homological dimensions


def proj_dim(m: ModuleOrChain, cutoff: int) -> DimBound:
    """Projective dimension, resolved up to the cutoff.

    Returns Finite(d) when the (d+1)-st syzygy vanishes with d <= cutoff,
    Infinite when Omega^i m and Omega^j m are equal in content and nonzero for
    some i < j <= cutoff (equal modules have isomorphic syzygies, so the
    resolution never ends), and AtLeast(cutoff) otherwise.  The zero module
    reports Finite(-1).
    """
    check_cutoff(cutoff, "cutoff")
    m = _chain(m)
    if m.module.is_zero:
        return DimBound.finite(-1)
    seen = set()
    for depth, i in enumerate(m.table.walk(m.node)):
        if depth > cutoff:
            return DimBound.at_least(cutoff)
        if i in seen:
            return DimBound.infinite()
        if m.table.step(i).syzygy.is_zero:
            return DimBound.finite(depth)
        seen.add(i)


def inj_dim(m: ModuleOrChain, cutoff: int) -> DimBound:
    """Injective dimension, by resolving the dual over the opposite algebra."""
    return proj_dim(_chain(m).dual, cutoff)


def gl_dim(alg: FiniteDimAlgebra, cutoff: int) -> DimBound:
    """Global dimension bound: the largest proj_dim over the simples.

    Infinite ranks above AtLeast(cutoff), and AtLeast above every Finite, so
    a simple that only reaches the cutoff does not hide a later simple's
    lasso: the first Infinite decides, and otherwise any AtLeast does.
    """
    check_cutoff(cutoff, "cutoff")
    return _gl_dim(SyzygyTable(), alg, cutoff)


def _gl_dim(table: SyzygyTable, alg: FiniteDimAlgebra, cutoff: int) -> DimBound:
    """gl_dim, reading the simples' chains from the table."""
    best = DimBound.finite(0)
    for v in alg.vertices:
        bound = proj_dim(table.chain(standard_module(alg, "simple", v)), cutoff)
        if bound.kind == "infinite":
            return bound
        # an AtLeast outranks every Finite, and only Infinite outranks it
        if best.is_finite and (not bound.is_finite or bound.value > best.value):
            best = bound
    return best


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


def transport_resolution(a: ModuleOrChain, k: int, heart: FullSubquiver) -> TransportedResolution:
    """Transport a projective resolution of a to the heart's restricted algebra.

    The heart must be convex, and the restricted algebra is
    ``restricted_algebra(a's algebra, heart)``, the one that algebra keeps.
    The input must be supported on the heart and its plus vertices.  Those are
    closed under successors, so dividing each term, and the module, by its
    largest submodule supported on them leaves its components off them, which
    restrict to the heart's; each differential keeps its blocks there.
    """
    a_chain = _chain(a)
    a = a_chain.module
    off_plus = frozenset(a.algebra.vertices) - _convex_split(a.algebra, heart, "a transported resolution").plus
    gamma = restricted_algebra(a.algebra, heart)
    outside = sorted(a.support & off_plus - heart.vertex_set)
    if outside:
        raise InputError(f"module has support outside the heart closure: {outside}")
    res = resolution(a_chain, k)
    r_quots = [restrict(_components(rep, off_plus), gamma) for rep in (a, *res.reps)]
    F = a.field
    g_vertices = gamma.quiver.vertices
    r_blocks = [{v: res.diffs[i].blocks[v] for v in g_vertices} for i in range(k + 1)]
    r_diffs = [ModuleMap(r_quots[i + 1], r_quots[i], r_blocks[i]) for i in range(k + 1)]
    exact = _certify_exact(r_quots[0], r_quots[1:], r_diffs)
    minimal = True
    for i in range(1, k + 1):
        target = r_quots[i]
        rad_rows = radical_rows(target)
        for v in g_vertices:
            echelon, pivots = linalg.rref(rad_rows[v], target.dims[v], F)
            for row in r_diffs[i].blocks[v]:
                if any(linalg.reduce_mod_rowspace(row, echelon, pivots, F)):
                    minimal = False
    terms = tuple({v: mults[v] for v in g_vertices if mults.get(v, 0) > 0} for mults in res.terms)
    terms_projective = all(materialize_term(gamma, gm).equal_to(got) for gm, got in zip(terms, r_quots[1:]))
    return TransportedResolution(
        gamma,
        r_quots[0],
        terms,
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
    the minus part of the (t+1)-st cosyzygy of n; both restricted.  The heart
    parts of that syzygy and that cosyzygy are kept over the ambient algebra.
    """

    a_part: Representation
    b_part: Representation
    syzygy_parts: HeartParts
    cosyzygy_parts: HeartParts


def heart_shift_pair(m: ModuleOrChain, n: ModuleOrChain, heart: FullSubquiver, t: int) -> HeartShiftPair:
    """Build the pair (A_m, B_n) driving the Ext dimension shift.

    Takes the heart, a convex full subquiver of the ambient quiver, and the
    bound t on paths through its complement; both parts are restricted to
    ``restricted_algebra(ambient, heart)``, the one the ambient keeps.
    """
    m, n = _chain(m), _chain(n)
    if m.module.algebra is not n.module.algebra:
        raise InputError("shift pair endpoints live over different algebras")
    check_cutoff(t, "the complement bound")
    _convex_split(m.module.algebra, heart, "a heart shift pair")
    gamma = restricted_algebra(m.module.algebra, heart)
    hp = heart_parts(m.drop(t + 1).module, heart)
    hn = heart_parts(dual_module(n.dual.drop(t + 1).module), heart)
    return HeartShiftPair(
        restrict(hp.quot_by_plus, gamma), restrict(hn.minus_part, gamma), hp, hn
    )
