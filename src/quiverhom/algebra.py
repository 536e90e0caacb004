"""Bound quiver algebras and their derived constructions.

An algebra here is always finite dimensional over an exact field, presented
as a path algebra modulo an ideal generated by relations plus all paths of
length >= n (the truncation).  The basis is the set of paths of length < n
that survive echelon reduction of the relation span; products are computed
by concatenation followed by reduction to normal form.

Building a presented algebra only counts paths: the work budgets and a
lower bound on the dimension come from per-bucket path and relation-row
counts, and the relation span, the basis and the table are built when first
read.  An algebra keeps its span, and every derived algebra is built from
the algebra, never from its presentation again.  The first three are fixed
by one full subquiver of the algebra's quiver, e its vertices and e' the
rest, and refuse a subquiver of another quiver:

* corner algebra eAe;
* quotient A/<e'> by the two-sided ideal generated by e', computed by
  linear closure, not path inspection, and eliminated only in the corner's
  coordinates: the basis elements with an end in e' lie in the ideal
  outright.  The corner and the quotient each keep some of the algebra's
  basis elements and come from one builder, which maps every stored
  product of two kept elements into the kept numbering: the corner's by
  renumbering, the quotient's by projecting;
* restricted algebra: the path algebra of the subquiver modulo the
  intersection of the ideal with it, read off the kept span one bucket at
  a time as a left kernel, and presented by the rows whose leading path
  holds no other's;
* opposite algebra: the same basis with paths reversed and the product
  table transposed; a presented algebra's opposite also carries the
  reversed quiver and relations, so module machinery works on it unchanged.
  The algebra keeps its opposite, whose opposite is the algebra itself.

Elements of an algebra are sparse dicts mapping basis index to coefficient.
They hold only nonzero canonical coefficients, so two elements are equal iff
their dicts are ``==``.  Vectors handed to the linear algebra layer are dense
lists in basis order.  The product table stores only nonzero products (a
missing entry is zero), so every construction walks only the products that
exist.

Relations are uniformized on input: a relation whose terms do not all share
source and target is split into its (source, target) components, which is
lossless because vertex idempotents pick out each component.  A consequence
used throughout: the relation span is block diagonal over (source, target)
buckets of paths, so echelon work happens per bucket.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from . import linalg
from .errors import CompositionError, DanglingIdError, InputError, InvariantViolation, require_int
from .quiver import Arrow, FullSubquiver, Path, Quiver, _check_parent, _collection, _id_set

# work budget of one presentation's span and table, decided from path counts
# before any path is listed: suites stay under 40 000, the budget edge takes 0.3 s
MAX_WORK = 1_000_000
_PATH = "a relation path is a sequence of arrow names"


@dataclass(frozen=True)
class IdealSpec:
    """Relations plus a truncation exponent n; the ideal is <relations> + J^n.

    Each relation is a tuple of terms (coefficient, arrow name sequence), and
    any other shape is an InputError; coefficients are exact numeric
    literals (int or Fraction, read from text by ``fields.parse_exact``
    within ``fields.MAX_DIGITS`` digits) coerced into the base field when an
    algebra is built.  Every term path must be composable and have length >= 2.
    """

    relations: tuple[tuple[tuple[object, tuple[str, ...]], ...], ...]
    truncation: int

    def __post_init__(self):
        require_int(self.truncation, "truncation")
        if self.truncation < 2:
            raise InputError(f"truncation must be >= 2, got {self.truncation}")
        # kept as tuples however given, so equal specs compare equal and hash
        rels = tuple(
            tuple(map(_term, _listed(rel, "a relation is a collection of terms")))
            for rel in _listed(self.relations, "the relations are a collection of relations")
        )
        object.__setattr__(self, "relations", rels)

    @staticmethod
    def monomial(paths, truncation: int) -> "IdealSpec":
        return IdealSpec(tuple(((1, p),) for p in paths), truncation)

    @staticmethod
    def zero(truncation: int) -> "IdealSpec":
        return IdealSpec((), truncation)

    def uniform_relations(self, q: Quiver) -> list[tuple[str, str, list[tuple[object, tuple[str, ...]]]]]:
        """Validate against q and split into (source, target, terms) groups."""
        out = []
        for rel in self.relations:
            groups: dict[tuple[str, str], list] = {}
            for coeff, arrows in rel:
                if len(arrows) < 2:
                    raise InputError(f"relation path {arrows!r} has length < 2")
                for name in arrows:
                    if name not in q.arrow_by_name:
                        raise DanglingIdError(f"relation references unknown arrow {name!r}")
                for x, y in zip(arrows, arrows[1:]):
                    ax, ay = q.arrow_by_name[x], q.arrow_by_name[y]
                    if ax.target != ay.source:
                        raise CompositionError(f"arrows {x!r} and {y!r} do not compose")
                src = q.arrow_by_name[arrows[0]].source
                tgt = q.arrow_by_name[arrows[-1]].target
                groups.setdefault((src, tgt), []).append((coeff, arrows))
            for (src, tgt), terms in groups.items():
                out.append((src, tgt, terms))
        return out

    def opposite(self) -> "IdealSpec":
        rels = tuple(
            tuple((coeff, tuple(reversed(arrows))) for coeff, arrows in rel) for rel in self.relations
        )
        return IdealSpec(rels, self.truncation)


def _listed(items, what: str) -> tuple:
    """items as a tuple; what is not iterable, or is a string (``_collection``), is refused."""
    if not hasattr(items, "__iter__"):
        raise InputError(f"{what}, not {items!r}")
    return tuple(_collection(items, what))


def _term(term) -> tuple[object, tuple[str, ...]]:
    if not (isinstance(term, (tuple, list)) and len(term) == 2):
        raise InputError(f"a relation term is a (coefficient, path) pair, not {term!r}")
    return term[0], _listed(term[1], _PATH)


def _counted_budgets(q: Quiver, ideal: IdealSpec, field) -> int:
    """Refuse a presentation past MAX_WORK from path counts; return a floor on dim.

    One walk by length counts the paths below the truncation per (source,
    target) bucket and their work, the sum of (len(p) + 1)**2: the span (per
    relation) and the table build each path at most once per split point.  A
    relation has one row per (prefix, suffix) pair fitting below the
    truncation, as wide as its bucket, all-zero rows included, and a row
    lowers its bucket's rank by at most one: so dim >= sum of max(0, paths - rows).
    """
    n = ideal.truncation
    counts, upto, work = [], [], 0  # counts[k][s][t]: paths s -> t of length k; upto: <= k
    for k, level in zip(range(n), q.path_counts()):
        work += (k + 1) ** 2 * sum(sum(r.values()) for r in level.values())
        if work > MAX_WORK:
            raise InputError(f"the paths below truncation {n} exceed {MAX_WORK} units of work")
        counts.append(level)
        upto.append(level if not k else {
            s: ends | {t: ends.get(t, 0) + c for t, c in level.get(s, {}).items()}
            for s, ends in upto[-1].items()
        })
    size, rows, cells = upto[-1], {}, 0
    for src, tgt, terms in ideal.uniform_relations(q):
        for coeff, _ in terms:
            field.of(coeff)  # a coefficient outside the field is refused at build, used or not
        room = n - 1 - min(len(arrows) for _, arrows in terms)
        for i, level in enumerate(counts[: max(room + 1, 0)]):
            # prefixes of length i into src, suffixes out of tgt that still fit
            before = [(s, ends[src]) for s, ends in level.items() if src in ends]
            after = upto[min(room - i, len(upto) - 1)][tgt]
            for s, c in before:
                for t, d in after.items():
                    rows[(s, t)] = rows.get((s, t), 0) + c * d
                    cells += c * d * size[s][t]
                    if cells > MAX_WORK:
                        raise InputError(f"the relation rows exceed {MAX_WORK} entries")
    return sum(max(0, c - rows.get((s, t), 0)) for s, ends in size.items() for t, c in ends.items())


class _RelationSpan:
    """Echelon data for the ideal intersected with the span of short paths.

    Holds all paths of length < n, their (source, target) buckets, and one
    reduced echelon basis per bucket for the span of all products
    (prefix * relation * suffix) truncated below length n.
    """

    def __init__(self, q: Quiver, ideal: IdealSpec, field):
        self.q = q
        self.ideal = ideal
        self.field = field
        n = ideal.truncation
        self.paths: list[Path] = q.paths_up_to(n - 1)
        # each nonempty path's index, by its arrows, which name it
        self.by_arrows = {p.arrows: i for i, p in enumerate(self.paths) if p.arrows}
        self.buckets: dict[tuple[str, str], list[int]] = {}
        for i, p in enumerate(self.paths):
            self.buckets.setdefault((p.source, p.target), []).append(i)
        self.local_pos: dict[int, int] = {}
        for idxs in self.buckets.values():
            for pos, g in enumerate(idxs):
                self.local_pos[g] = pos

        by_target: dict[str, list[Path]] = {v: [] for v in q.vertices}
        by_source: dict[str, list[Path]] = {v: [] for v in q.vertices}
        for p in self.paths:
            by_target[p.target].append(p)
            by_source[p.source].append(p)

        rows_by_bucket: dict[tuple[str, str], list[list]] = {}
        for src, tgt, terms in ideal.uniform_relations(q):
            min_len = min(len(arrows) for _, arrows in terms)
            # paths are in length order: the first too-long one ends each loop
            for pre in by_target[src]:
                if pre.length + min_len > n - 1:
                    break
                for suf in by_source[tgt]:
                    if pre.length + min_len + suf.length > n - 1:
                        break
                    key = (pre.source, suf.target)
                    row = [field.zero] * len(self.buckets[key])
                    for coeff, arrows in terms:
                        if pre.length + len(arrows) + suf.length > n - 1:
                            continue
                        j = self.local_pos[self.by_arrows[pre.arrows + arrows + suf.arrows]]
                        row[j] = field.add(row[j], field.of(coeff))
                    if any(row):
                        rows_by_bucket.setdefault(key, []).append(row)

        self.bucket_rref: dict[tuple[str, str], tuple[list[list], list[int]]] = {}
        # each pivot path's echelon row, in its bucket's local coordinates
        self.pivot_rows: dict[int, list] = {}
        for key, rows in rows_by_bucket.items():
            echelon, pivots = linalg.rref(rows, len(self.buckets[key]), field)
            self.bucket_rref[key] = (echelon, pivots)
            for row, c in zip(echelon, pivots):
                self.pivot_rows[self.buckets[key][c]] = row

    def relations_inside(self, sub: FullSubquiver) -> tuple:
        """The ideal's span on the paths lying inside sub, as IdealSpec relations.

        In a bucket with both ends inside, a path lies inside iff every arrow
        on it ends inside.  The span's vectors there are y * E, E the bucket's
        echelon basis, for y in the left kernel of E cut to its outside
        columns.  A row of their echelon basis is a relation only if no other
        row's pivot path is a proper subpath of its own: ``paths_up_to`` order
        is multiplicative in a bucket, so subtracting u * h * v cancels a
        dropped row's pivot and leaves later paths, and the kept rows generate
        the same truncated ideal, as a reduced Groebner basis does.
        """
        inside, F = sub.vertex_set, self.field
        ends_outside = {a.name for a in self.q.arrows if a.target not in inside}
        rows = []  # (pivot path, echelon row, the bucket's path indices)
        for (s, t), (echelon, _) in sorted(self.bucket_rref.items()):
            if s not in inside or t not in inside:
                continue
            local = self.buckets[(s, t)]
            out = [pos for pos, g in enumerate(local) if ends_outside.intersection(self.paths[g].arrows)]
            kernel = linalg.RowSpace([[row[j] for j in out] for row in echelon], len(out), F).kernel
            vecs = [linalg.vec_mat(y, echelon, len(local), F) for y in kernel]
            for row, c in zip(*linalg.rref(vecs, len(local), F)):
                rows.append((self.paths[local[c]].arrows, row, local))
        leads, rels = {lead for lead, _, _ in rows}, []
        for lead, row, local in rows:
            n = len(lead)
            if not any(lead[i:j] in leads for i in range(n) for j in range(i + 2, n + 1) if j - i < n):
                rels.append(tuple((c, self.paths[local[pos]].arrows) for pos, c in enumerate(row) if c))
        return tuple(rels)


class ProjectiveLayout(NamedTuple):
    """Per vertex v, the basis elements from v, which span P_v: blocks[v][w]
    lists those ending at w in index order (only the w that some reach),
    local[i] is the position of element i in its block, and dims[v] is dim P_v.
    walks[v] lists the elements from v in index order, and prefix[i] is
    (target, pre, arrow): element i's path is element pre's and one arrow,
    the arrow alone (pre < 0), or trivial (arrow None).  Prefixes of basis
    paths are basis paths, and so are suffixes (an opposite's prefixes): a
    relation span's leading path times an arrow is one too, or too long.
    terms[v] is P_v's own TermInfo, kept by ``modules.term_info`` when first
    built, so a one-generator term is never built twice."""

    blocks: dict[str, dict[str, tuple[int, ...]]]
    local: tuple[int, ...]
    dims: dict[str, int]
    walks: dict[str, tuple[int, ...]]
    prefix: tuple[tuple[str, int, str | None], ...]
    terms: dict[str, object]  # vertex -> modules.TermInfo


class FiniteDimAlgebra:
    """A finite-dimensional algebra with a tagged basis and a sparse product table.

    `table[i]` maps j to the nonzero product x_i * x_j as ((k, c), ...), keys
    ascending; an absent key means the product is zero, and none is empty.

    Every basis element carries a representative path (in the algebra's own
    quiver when one is attached, otherwise in the parent algebra's quiver),
    so source, target, and length tags are always available.  Algebras built
    from a quiver presentation keep `quiver` and `ideal` and support module
    theory; table-backed derived algebras (corners, quotients) have
    quiver=None and support only element arithmetic.

    `build_algebra` passes neither elements nor table: the relation span
    (`_span`), the basis with its indexes, and the table are built on first
    read.  `dim_floor` bounds dim from below without them, so `dim_exceeds`
    can refuse an algebra over a cap unbuilt.  Each restricted algebra is read
    off the span once and kept in `_restrictions`.  An opposite algebra, whose
    elements and table are given, builds its span when one is first needed,
    and `_opposite_cache` keeps it (on the opposite, a weakref back).

    Instances are immutable after construction; the caches only fill in.
    """

    def __init__(self, field, vertices, elements, table, quiver=None, ideal=None, dim_floor=0):
        self.field = field
        self.vertices: tuple[str, ...] = tuple(vertices)
        if elements is not None:
            self.elements = tuple(elements)
        if table is not None:
            self.table = table
        self.quiver: Quiver | None = quiver
        self.ideal: IdealSpec | None = ideal
        self.dim_floor = dim_floor  # a lower bound on dim known without the basis
        # provenance hooks filled in by derived-algebra builders
        self.parent: FiniteDimAlgebra | None = None
        self.parent_indices: tuple[int, ...] | None = None
        self.parent_projection = None
        self._restrictions: dict[frozenset[str], FiniteDimAlgebra] = {}  # keyed by vertex set
        self._opposite_cache: FiniteDimAlgebra | weakref.ref | None = None

    @cached_property
    def _span(self) -> _RelationSpan:
        return _RelationSpan(self.quiver, self.ideal, self.field)

    @cached_property
    def elements(self) -> tuple[Path, ...]:
        span = self._span
        return tuple(p for g, p in enumerate(span.paths) if g not in span.pivot_rows)

    @cached_property
    def table(self) -> tuple[dict, ...]:
        return _product_table(self._span, self.elements)

    @cached_property
    def idempotent_index(self) -> dict[str, int]:
        out = {el.source: i for i, el in enumerate(self.elements) if el.length == 0}
        if set(out) != set(self.vertices):
            raise InvariantViolation("vertex idempotents do not survive to the basis")
        return out

    @cached_property
    def arrow_index(self) -> dict[str, int]:
        return {el.arrows[0]: i for i, el in enumerate(self.elements) if el.length == 1}

    @property
    def dim(self) -> int:
        return len(self.elements)

    def dim_exceeds(self, cap: int) -> bool:
        """dim > cap, answered from dim_floor, without the basis, when it can be."""
        return self.dim_floor > cap or self.dim > cap

    @cached_property
    def projective_layout(self) -> ProjectiveLayout:
        _require_presented(self, "a projective layout")
        blocks: dict[str, dict[str, list[int]]] = {v: {} for v in self.vertices}
        walks: dict[str, list[int]] = {v: [] for v in self.vertices}
        at: dict[tuple[str, ...], int] = {}  # each path's element index, read at nonempty ones
        local, prefix = [], []
        for i, el in enumerate(self.elements):
            block = blocks[el.source].setdefault(el.target, [])
            local.append(len(block))
            block.append(i)
            walks[el.source].append(i)
            path = el.arrows
            at[path] = i
            prefix.append((el.target, at[path[:-1]] if len(path) > 1 else -1, path[-1] if path else None))
        dims = {v: sum(map(len, row.values())) for v, row in blocks.items()}
        blocks = {v: {w: tuple(b) for w, b in row.items()} for v, row in blocks.items()}
        walks = {v: tuple(walk) for v, walk in walks.items()}
        return ProjectiveLayout(blocks, tuple(local), dims, walks, tuple(prefix), {})

    @property
    def is_presented(self) -> bool:
        return self.quiver is not None

    def unit(self) -> dict[int, object]:
        return {i: self.field.one for i in self.idempotent_index.values()}

    def vertex_idempotent(self, vs) -> dict[int, object]:
        ids = _id_set(vs, frozenset)
        if unknown := ids.difference(self.idempotent_index):
            raise DanglingIdError(f"unknown vertex id {min(unknown, key=repr)!r}")
        return {self.idempotent_index[v]: self.field.one for v in ids}

    def mul(self, x: dict[int, object], y: dict[int, object]) -> dict[int, object]:
        F, table = self.field, self.table
        out: dict[int, object] = {}
        for i, ci in x.items():
            row = table[i]
            for j, cj in y.items():
                if j in row:
                    _add_scaled(out, F.mul(ci, cj), row[j], F)
        return out


def _require_presented(alg: FiniteDimAlgebra, what: str = "module theory") -> None:
    if not alg.is_presented:
        raise InputError(f"{what} needs a presented algebra (quiver attached)")


def _require_subquiver(alg: FiniteDimAlgebra, sub: FullSubquiver, what: str) -> None:
    """Refuse a subquiver that is not a full subquiver of alg's own quiver."""
    _require_presented(alg, what)
    _check_parent(alg.quiver, sub, "the subquiver is not a full subquiver of the algebra's quiver")


def build_algebra(q: Quiver, ideal: IdealSpec, field) -> FiniteDimAlgebra:
    """The bound quiver algebra of (q, ideal) over the given field.

    The work budgets are decided here from path counts, which also give
    dim_floor; the relation span and the basis are built when first read.
    """
    floor = _counted_budgets(q, ideal, field)
    return FiniteDimAlgebra(field, q.vertices, None, None, q, ideal, floor)


def _product_table(span: _RelationSpan, elements: tuple[Path, ...]) -> tuple[dict, ...]:
    """Row i maps j to the normal form of x_i * x_j where it is nonzero.  A product
    with a vertex idempotent is the other factor; any other is looked up by its
    arrows in the span.  The table is the one store of normal forms: a basis
    path's is its unit, and a pivot path's, minus its reduced echelon row off
    the pivot (whose other entries all sit at basis paths), is built each
    time a product reaches it."""
    field, n = span.field, span.ideal.truncation
    basis = (g for g in range(len(span.paths)) if g not in span.pivot_rows)
    basis_pos = {g: pos for pos, g in enumerate(basis)}
    units = tuple(((pos, field.one),) for pos in range(len(elements)))

    def nf(g: int) -> tuple[tuple[int, object], ...]:
        if g in basis_pos:
            return units[basis_pos[g]]
        p = span.paths[g]
        local, row = span.buckets[(p.source, p.target)], span.pivot_rows[g]
        return tuple((basis_pos[local[h]], field.neg(c)) for h, c in enumerate(row) if c and local[h] != g)

    by_source: dict[str, list[int]] = {v: [] for v in span.q.vertices}
    for j, pj in enumerate(elements):
        by_source[pj.source].append(j)
    table = []
    for i, pi in enumerate(elements):
        after = by_source[pi.target]
        if not pi.arrows:
            table.append({j: units[j] for j in after})
            continue
        # the first element from pi.target is its idempotent, and the basis
        # is in path-length order: the first too-long product ends the row
        row = {after[0]: units[i]}
        room = n - len(pi.arrows)
        for j in after[1:]:
            arrows = elements[j].arrows
            if len(arrows) >= room:
                break
            entry = nf(span.by_arrows[pi.arrows + arrows])
            if entry:
                row[j] = entry
        table.append(row)
    return tuple(table)


def _kept_basis_algebra(alg: FiniteDimAlgebra, pos: dict[int, int], e, entry) -> FiniteDimAlgebra:
    """The table-backed algebra on the vertices in e and the basis elements of
    alg that pos numbers, in pos's order, with alg as its parent.  A stored
    product of two kept elements, as a dict, is stored as entry(product): an
    element in the kept numbering, left out when it is zero."""
    table = []
    for gi in pos:
        row = {}
        for gj, product in alg.table[gi].items():
            if gj in pos and (image := entry(dict(product))):
                row[pos[gj]] = tuple(image.items())
        table.append(row)
    vertices = tuple(v for v in alg.vertices if v in e)
    out = FiniteDimAlgebra(alg.field, vertices, tuple(alg.elements[g] for g in pos), tuple(table))
    out.parent = alg
    out.parent_indices = tuple(pos)
    return out


def corner_algebra(alg: FiniteDimAlgebra, sub: FullSubquiver) -> FiniteDimAlgebra:
    """The corner eAe, e the sum of sub's vertex idempotents, spanned by the
    basis elements with both endpoints in sub."""
    _require_subquiver(alg, sub, "a corner algebra")
    e = sub.vertex_set
    if len(e) == len(alg.vertices):
        return alg
    keep = [i for i, el in enumerate(alg.elements) if el.source in e and el.target in e]
    pos = {g: i for i, g in enumerate(keep)}

    def inside(x: dict[int, object]) -> dict[int, object]:
        if not x.keys() <= pos.keys():
            raise InvariantViolation("corner product escaped the corner")
        return {pos[k]: c for k, c in x.items()}

    return _kept_basis_algebra(alg, pos, e, inside)


def quotient_by_idempotent(alg: FiniteDimAlgebra, sub: FullSubquiver) -> FiniteDimAlgebra:
    """The quotient A/<e'> by the ideal generated by the idempotent e' of the
    vertices outside sub, computed by linear closure, not path inspection.

    A basis element with an end in e' lies in the ideal, so only the corner's
    can survive; the rest of the ideal is spanned by the products x_i * x_j
    through e' (x_i from e to e', x_j back to e), which lie in the corner.
    One echelon pass over them in the corner's coordinates gives the kept
    elements, and the projection reduces only an element's corner coordinates.
    """
    _require_subquiver(alg, sub, "a quotient algebra")
    eprime = sub.complement()
    if not eprime:
        return alg
    F, e = alg.field, sub.vertex_set
    corner = [i for i, el in enumerate(alg.elements) if el.source in e and el.target in e]
    at, d = {g: k for k, g in enumerate(corner)}, len(corner)
    # a stored product x_i * x_j already runs through x_i's target
    through = [i for i, el in enumerate(alg.elements) if el.source in e and el.target in eprime]
    rows = [
        [(at[g], c) for g, c in entry]
        for i in through for j, entry in alg.table[i].items() if alg.elements[j].target in e
    ]
    echelon, pivots = linalg.rref(linalg.from_entries(rows, d, F), d, F)
    free = {k: i for i, k in enumerate(sorted(set(range(d)).difference(pivots)))}

    def project(x: dict[int, object]) -> dict[int, object]:
        vec = linalg.from_entries([[(at[g], c) for g, c in x.items() if g in at]], d, F)[0]
        vec = linalg.reduce_mod_rowspace(vec, echelon, pivots, F)
        return {free[k]: c for k, c in enumerate(vec) if c and k in free}

    out = _kept_basis_algebra(alg, {corner[k]: i for k, i in free.items()}, e, project)
    out.parent_projection = project
    return out


def restricted_algebra(alg: FiniteDimAlgebra, sub: FullSubquiver) -> FiniteDimAlgebra:
    """The algebra of a full subquiver of alg's quiver, bound by the intersected ideal.

    The intersection of the ideal with the subquiver's path space is read
    off alg's relation span bucket by bucket, and the rows that generate it
    are fed back in as relations (see ``_RelationSpan.relations_inside``),
    so the result is a presented algebra and carries modules.  alg keeps
    each restriction, and its restriction to the whole quiver is alg itself.
    """
    _require_subquiver(alg, sub, "a restricted algebra")
    if len(sub.vertex_set) == len(alg.vertices):
        return alg
    got = alg._restrictions.get(sub.vertex_set)
    if got is None:
        ideal = IdealSpec(alg._span.relations_inside(sub), alg.ideal.truncation)
        got = alg._restrictions[sub.vertex_set] = build_algebra(sub.as_quiver(), ideal, alg.field)
    return got


def opposite_algebra(alg: FiniteDimAlgebra) -> FiniteDimAlgebra:
    """The opposite algebra: basis paths reversed, product table transposed.

    Basis element i of the opposite is basis element i of alg, so x_i * x_j
    in the opposite is x_j * x_i in alg.  A presented algebra's opposite is
    presented over the reversed quiver (same vertex and arrow names) by the
    reversed relations, so modules work on both.  alg keeps its opposite,
    which names alg weakly: its opposite is alg, and the pair has no cycle.
    """
    kept = alg._opposite_cache
    kept = kept() if isinstance(kept, weakref.ref) else kept  # None once the algebra it names is dropped
    if kept is not None:
        return kept
    elements = tuple(
        Path(el.target, tuple(reversed(el.arrows)), el.source) for el in alg.elements
    )
    table = tuple({} for _ in alg.table)
    for i, row in enumerate(alg.table):
        for j, entry in row.items():
            table[j][i] = entry
    op_q = op_ideal = None
    if alg.is_presented:
        q = alg.quiver
        op_q = Quiver(q.vertices, tuple(Arrow(a.name, a.target, a.source) for a in q.arrows))
        op_ideal = alg.ideal.opposite()
    op = alg._opposite_cache = FiniteDimAlgebra(alg.field, alg.vertices, elements, table, op_q, op_ideal)
    op._opposite_cache = weakref.ref(alg)
    return op


@dataclass(frozen=True)
class TriangularBlocks:
    """Dimensions of the four idempotent corners of an algebra."""

    dim_ee: int
    dim_e_eprime: int
    dim_eprime_e: int
    dim_eprime_eprime: int
    lower_triangular: bool
    upper_triangular: bool


def triangular_blocks(alg: FiniteDimAlgebra, sub: FullSubquiver) -> TriangularBlocks:
    """Count the basis elements in each corner, e from sub and e' from the rest."""
    _require_subquiver(alg, sub, "triangular blocks")
    e = sub.vertex_set
    dims = {(True, True): 0, (True, False): 0, (False, True): 0, (False, False): 0}
    for el in alg.elements:
        dims[(el.source in e, el.target in e)] += 1
    return TriangularBlocks(
        dim_ee=dims[(True, True)],
        dim_e_eprime=dims[(True, False)],
        dim_eprime_e=dims[(False, True)],
        dim_eprime_eprime=dims[(False, False)],
        lower_triangular=dims[(True, False)] == 0,
        upper_triangular=dims[(False, True)] == 0,
    )


@dataclass(frozen=True)
class AlgebraHom:
    """A linear map between algebras, with recomputed structural flags."""

    source: FiniteDimAlgebra
    target: FiniteDimAlgebra
    images: tuple[dict[int, object], ...]
    multiplicative: bool
    unital: bool
    unit_image_idempotent: bool
    surjective: bool
    injective: bool

    @staticmethod
    def from_images(source: FiniteDimAlgebra, target: FiniteDimAlgebra, images) -> "AlgebraHom":
        """The map sending basis element i of source to images[i], with its flags.
        Multiplicativity is checked on every pair (i, j) with a stored product
        x_i * x_j or two nonzero images; any other is zero on both sides."""
        F = target.field
        # canonical and without zeros, like every element, so == compares elements
        images = tuple({k: c for k, c in zip(im, map(F.of, im.values())) if c} for im in images)
        nonzero = [j for j, im in enumerate(images) if im]
        multiplicative = all(
            _apply_images(images, F, dict(row.get(j, ()))) == target.mul(images[i], images[j])
            for i, row in enumerate(source.table)
            for j in (row.keys() | nonzero if images[i] else row)
        )
        u = _apply_images(images, F, source.unit())
        unital = u == target.unit()
        unit_image_idempotent = target.mul(u, u) == u
        mat = linalg.from_entries([im.items() for im in images], target.dim, F)
        r = linalg.rank(mat, target.dim, F)
        surjective = r == target.dim
        injective = r == source.dim
        return AlgebraHom(
            source, target, images, multiplicative, unital, unit_image_idempotent, surjective, injective
        )


def _apply_images(images, F, x: dict[int, object]) -> dict[int, object]:
    """Image of x under the linear map sending basis element i to images[i]."""
    out: dict[int, object] = {}
    for i, c in x.items():
        _add_scaled(out, c, images[i].items(), F)
    return out


def _add_scaled(out: dict[int, object], c, pairs, F) -> None:
    """Add c times the (index, coefficient) pairs into the element out, dropping zeros."""
    for k, ck in pairs:
        v = F.add(out.get(k, F.zero), F.mul(c, ck))
        if v:
            out[k] = v
        else:
            out.pop(k, None)


@dataclass(frozen=True)
class CheckEntry:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ConvexIsoReport:
    """Outcome of the corner / quotient / restricted comparison for one subquiver."""

    convex: bool
    corner_dim: int
    quotient_dim: int
    restricted_dim: int
    entries: tuple[CheckEntry, ...]

    @property
    def dims_agree(self) -> bool:
        return self.corner_dim == self.quotient_dim == self.restricted_dim

    @property
    def ok(self) -> bool:
        """True when the outcome is consistent: convexity forces every check."""
        if not self.convex:
            return True
        return all(e.passed for e in self.entries)


def _tables_match(a: FiniteDimAlgebra, b: FiniteDimAlgebra) -> tuple[bool, str]:
    """Compare two algebras under the correspondence matching basis paths."""
    if a.dim != b.dim:
        return False, f"dimension {a.dim} != {b.dim}"
    amap = {el: i for i, el in enumerate(a.elements)}
    bmap = {el: i for i, el in enumerate(b.elements)}
    if set(amap) != set(bmap):
        missing = sorted(set(amap) ^ set(bmap), key=lambda p: (p.length, p.arrows))
        return False, f"basis paths differ, e.g. {missing[0].label()}"
    to_b = [bmap[el] for el in a.elements]
    from_b = {g: i for i, g in enumerate(to_b)}
    for i, row in enumerate(a.table):
        row_b = b.table[to_b[i]]
        # a pair that neither table stores is zero in both
        for j in sorted(row.keys() | {from_b[g] for g in row_b}):
            got = {to_b[k]: c for k, c in row.get(j, ())}
            if got != dict(row_b.get(to_b[j], ())):
                return False, (
                    f"product {a.elements[i].label()} * {a.elements[j].label()} disagrees"
                )
    return True, ""


def verify_convex_isos(alg: FiniteDimAlgebra, sub: FullSubquiver) -> ConvexIsoReport:
    """Compare the corner, idempotent quotient, and restricted algebra of alg at sub.

    For a convex subquiver the three must agree under the canonical basis
    correspondences and the corner map and quotient splitting must be
    multiplicative; a non-convex subquiver may break any of these, and the
    report records exactly which.  There the table entries pair basis paths,
    which follow the arrow order, so a relabelling can flip them; ``ok`` holds
    either way.  It takes dense rows as long as dim and pairs of basis
    elements, so dim**2 past MAX_WORK is refused before them.
    """
    if alg.dim**2 > MAX_WORK:
        raise InputError(f"comparing algebras of dim {alg.dim} exceeds {MAX_WORK} units of work")
    restricted = restricted_algebra(alg, sub)
    corner = corner_algebra(alg, sub)
    quotient = quotient_by_idempotent(alg, sub)
    convex = alg.quiver.is_convex(sub)
    F = alg.field
    entries = []

    e_id = alg.vertex_idempotent(sub.vertex_set)
    sandwich_ok = True
    witness = ""
    # e x_i e is x_i or 0, so only a stored product x_i * x_j can break this
    units = [{j: F.one} for j in range(alg.dim)]
    right = [alg.mul(yj, e_id) for yj in units]  # y_j e
    for i, row in enumerate(alg.table):
        exe = alg.mul(e_id, right[i])
        for j in row:
            lhs = alg.mul(exe, right[j])
            rhs = alg.mul(e_id, alg.mul(alg.mul(units[i], units[j]), e_id))
            if lhs != rhs:
                sandwich_ok = False
                witness = f"{alg.elements[i].label()}, {alg.elements[j].label()}"
                break
        if not sandwich_ok:
            break
    entries.append(CheckEntry("sandwich_identity", sandwich_ok, witness))

    if corner is alg:
        corner_pos = {i: i for i in range(alg.dim)}
    else:
        corner_pos = {g: i for i, g in enumerate(corner.parent_indices)}
    phi_images = []
    for i, el in enumerate(alg.elements):
        if el.source in sub.vertex_set and el.target in sub.vertex_set:
            phi_images.append({corner_pos[i]: F.one})
        else:
            phi_images.append({})
    phi = AlgebraHom.from_images(alg, corner, phi_images)
    entries.append(CheckEntry("corner_map_multiplicative", phi.multiplicative))
    entries.append(CheckEntry("corner_map_surjective", phi.surjective))
    entries.append(
        CheckEntry("corner_unit_is_idempotent_image", phi.unit_image_idempotent)
    )

    entries.append(
        CheckEntry(
            "corner_quotient_dims",
            corner.dim == quotient.dim,
            f"{corner.dim} vs {quotient.dim}",
        )
    )
    entries.append(
        CheckEntry(
            "corner_restricted_dims",
            corner.dim == restricted.dim,
            f"{corner.dim} vs {restricted.dim}",
        )
    )
    ok, why = _tables_match(corner, restricted)
    entries.append(CheckEntry("corner_restricted_tables", ok, why))
    ok, why = _tables_match(corner, quotient)
    entries.append(CheckEntry("corner_quotient_tables", ok, why))

    if quotient is alg:
        proj = lambda x: dict(x)
        survivors = list(range(alg.dim))
    else:
        proj = quotient.parent_projection
        survivors = list(quotient.parent_indices)
    psi_images = []
    for g in survivors:
        el = {g: F.one}
        psi_images.append(alg.mul(e_id, alg.mul(el, e_id)))
    psi = AlgebraHom.from_images(quotient, alg, psi_images)
    section_ok = all(proj(psi_images[i]) == {i: F.one} for i in range(quotient.dim))
    entries.append(CheckEntry("splitting_section", section_ok))
    entries.append(CheckEntry("splitting_multiplicative", psi.multiplicative))
    entries.append(CheckEntry("splitting_unit_to_idempotent", psi.unit_image_idempotent))

    return ConvexIsoReport(
        convex=convex,
        corner_dim=corner.dim,
        quotient_dim=quotient.dim,
        restricted_dim=restricted.dim,
        entries=tuple(entries),
    )
