"""Bound quiver algebras and their derived constructions.

An algebra here is always finite dimensional over an exact field, presented
as a path algebra modulo an ideal generated by relations plus all paths of
length >= n (the truncation).  The basis is the set of paths of length < n
that survive echelon reduction of the relation span; products are computed
by concatenation followed by reduction to normal form.

Derived constructions:

* corner algebra eAe for an idempotent built from a vertex subset;
* quotient A/<e'> by the two-sided ideal generated by the complementary
  idempotent, computed by linear closure, not path inspection;
* restricted algebra: the path algebra of a full subquiver modulo the
  intersection of the ideal with it (echelon intersection);
* opposite algebra, re-presented over the reversed quiver so that module
  machinery works on it unchanged.

Elements of an algebra are sparse dicts mapping basis index to coefficient.
Vectors handed to the linear algebra layer are dense lists in basis order.

Relations are uniformized on input: a relation whose terms do not all share
source and target is split into its (source, target) components, which is
lossless because vertex idempotents pick out each component.  A consequence
used throughout: the relation span is block diagonal over (source, target)
buckets of paths, so echelon work happens per bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .errors import CompositionError, DanglingIdError, InputError, InvariantViolation
from .quiver import Arrow, FullSubquiver, Path, Quiver


@dataclass(frozen=True)
class IdealSpec:
    """Relations plus a truncation exponent n; the ideal is <relations> + J^n.

    Each relation is a tuple of terms (coefficient, arrow name sequence);
    coefficients are exact numeric literals (int or Fraction) coerced into
    the base field when an algebra is built.  Every term path must be
    composable and have length >= 2.
    """

    relations: tuple[tuple[tuple[object, tuple[str, ...]], ...], ...]
    truncation: int

    def __post_init__(self):
        if self.truncation < 2:
            raise InputError(f"truncation must be >= 2, got {self.truncation}")

    @staticmethod
    def monomial(paths, truncation: int) -> "IdealSpec":
        rels = tuple(((1, tuple(p)),) for p in paths)
        return IdealSpec(rels, truncation)

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
                groups.setdefault((src, tgt), []).append((coeff, tuple(arrows)))
            for (src, tgt), terms in groups.items():
                out.append((src, tgt, terms))
        return out

    def opposite(self) -> "IdealSpec":
        rels = tuple(
            tuple((coeff, tuple(reversed(arrows))) for coeff, arrows in rel) for rel in self.relations
        )
        return IdealSpec(rels, self.truncation)


@dataclass(frozen=True)
class IdempotentSplit:
    """A decomposition 1 = e + e' given by complementary vertex subsets."""

    e: frozenset[str]
    eprime: frozenset[str]
    plus: frozenset[str] | None = None
    minus: frozenset[str] | None = None
    zero: frozenset[str] | None = None

    @staticmethod
    def from_subquiver(sub: FullSubquiver) -> "IdempotentSplit":
        return IdempotentSplit(sub.vertex_set, sub.complement())

    @staticmethod
    def from_heart(q: Quiver, heart: FullSubquiver) -> "IdempotentSplit":
        split = q.boundary_split(heart)
        return IdempotentSplit(
            heart.vertex_set, heart.complement(), split.plus, split.minus, split.zero
        )


def _path_vertices(q: Quiver, path: Path) -> list[str]:
    vs = [path.source]
    for name in path.arrows:
        vs.append(q.arrow_by_name[name].target)
    return vs


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
        self.path_index: dict[Path, int] = {p: i for i, p in enumerate(self.paths)}
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
            for pre in by_target[src]:
                if pre.length + min_len > n - 1:
                    continue
                for suf in by_source[tgt]:
                    if pre.length + min_len + suf.length > n - 1:
                        continue
                    key = (pre.source, suf.target)
                    local = self.buckets[key]
                    row = [field.zero] * len(local)
                    for coeff, arrows in terms:
                        if pre.length + len(arrows) + suf.length > n - 1:
                            continue
                        whole = Path(pre.source, pre.arrows + arrows + suf.arrows, suf.target)
                        j = self.local_pos[self.path_index[whole]]
                        row[j] = field.add(row[j], field.of(coeff))
                    if any(not field.is_zero(x) for x in row):
                        rows_by_bucket.setdefault(key, []).append(row)

        self.bucket_rref: dict[tuple[str, str], tuple[list[list], list[int]]] = {}
        self.pivot_global: set[int] = set()
        for key, rows in rows_by_bucket.items():
            echelon, pivots = linalg.rref(rows, len(self.buckets[key]), field)
            self.bucket_rref[key] = (echelon, pivots)
            for c in pivots:
                self.pivot_global.add(self.buckets[key][c])

    def rank(self) -> int:
        return len(self.pivot_global)

    def normal_form_local(self, g: int) -> list:
        """Reduce the unit vector of path g inside its bucket; dense local coords."""
        p = self.paths[g]
        key = (p.source, p.target)
        local = self.buckets[key]
        vec = [self.field.zero] * len(local)
        vec[self.local_pos[g]] = self.field.one
        if key in self.bucket_rref:
            echelon, pivots = self.bucket_rref[key]
            vec = linalg.reduce_mod_rowspace(vec, echelon, pivots, self.field)
        return vec

    def intersection_with_subquiver(self, sub: FullSubquiver) -> list[tuple[list, list[Path]]]:
        """Rows of the ideal span supported on paths lying inside sub.

        Returns (coefficient row, bucket path list) pairs per bucket, where
        the row is indexed by the bucket's inside paths only.
        """
        inside = sub.vertex_set
        out = []
        for key, (echelon, _) in sorted(self.bucket_rref.items()):
            s, t = key
            if s not in inside or t not in inside:
                continue
            local = self.buckets[key]
            keep = {
                pos
                for pos, g in enumerate(local)
                if all(v in inside for v in _path_vertices(self.q, self.paths[g]))
            }
            if not keep:
                continue
            rows, _ = linalg.rowspace_intersect_coords(echelon, len(local), keep, self.field)
            keep_sorted = sorted(keep)
            paths = [self.paths[local[pos]] for pos in keep_sorted]
            for row in rows:
                out.append(([row[pos] for pos in keep_sorted], paths))
        return out


class FiniteDimAlgebra:
    """A finite-dimensional algebra with a tagged basis and a full product table.

    Every basis element carries a representative path (in the algebra's own
    quiver when one is attached, otherwise in the parent algebra's quiver),
    so source, target, and length tags are always available.  Algebras built
    from a quiver presentation keep `quiver` and `ideal` and support module
    theory; table-backed derived algebras (corners, quotients) have
    quiver=None and support only element arithmetic.

    Instances are immutable after construction.
    """

    def __init__(self, field, vertices, elements, table, quiver=None, ideal=None):
        self.field = field
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.elements: tuple[Path, ...] = tuple(elements)
        self.table = table
        self.quiver: Quiver | None = quiver
        self.ideal: IdealSpec | None = ideal
        self.idempotent_index: dict[str, int] = {
            el.source: i for i, el in enumerate(self.elements) if el.length == 0
        }
        if set(self.idempotent_index) != set(self.vertices):
            raise InvariantViolation("vertex idempotents do not survive to the basis")
        # provenance hooks filled in by derived-algebra builders
        self.parent: FiniteDimAlgebra | None = None
        self.parent_indices: tuple[int, ...] | None = None
        self.parent_projection = None

    @property
    def dim(self) -> int:
        return len(self.elements)

    @cached_property
    def radical_indices(self) -> tuple[int, ...]:
        return tuple(i for i, el in enumerate(self.elements) if el.length >= 1)

    @property
    def is_presented(self) -> bool:
        return self.quiver is not None

    def unit(self) -> dict[int, object]:
        return {i: self.field.one for i in self.idempotent_index.values()}

    def vertex_idempotent(self, vs) -> dict[int, object]:
        return {self.idempotent_index[v]: self.field.one for v in vs if v in self.idempotent_index}

    def mul(self, x: dict[int, object], y: dict[int, object]) -> dict[int, object]:
        F = self.field
        out: dict[int, object] = {}
        for i, ci in x.items():
            if F.is_zero(ci):
                continue
            row = self.table[i]
            for j, cj in y.items():
                if F.is_zero(cj):
                    continue
                c = F.mul(ci, cj)
                for k, ck in row[j]:
                    v = F.add(out.get(k, F.zero), F.mul(c, ck))
                    if F.is_zero(v):
                        out.pop(k, None)
                    else:
                        out[k] = v
        return out

    def elements_with(self, source=None, target=None) -> list[int]:
        out = []
        for i, el in enumerate(self.elements):
            if source is not None and el.source != source:
                continue
            if target is not None and el.target != target:
                continue
            out.append(i)
        return out

    def dense(self, x: dict[int, object]) -> list:
        vec = [self.field.zero] * self.dim
        for i, c in x.items():
            vec[i] = c
        return vec

    def sparse(self, vec) -> dict[int, object]:
        return {i: c for i, c in enumerate(vec) if not self.field.is_zero(c)}

    def eq(self, x: dict[int, object], y: dict[int, object]) -> bool:
        F = self.field
        keys = set(x) | set(y)
        return all(F.is_zero(F.sub(x.get(k, F.zero), y.get(k, F.zero))) for k in keys)

    def describe(self) -> str:
        kind = "presented" if self.is_presented else "table-backed"
        return f"{kind} algebra over {self.field.name}, dim {self.dim}, vertices {list(self.vertices)}"


def build_algebra(q: Quiver, ideal: IdealSpec, field) -> FiniteDimAlgebra:
    """The bound quiver algebra of (q, ideal) over the given field."""
    span = _RelationSpan(q, ideal, field)
    n = ideal.truncation
    basis_global = [g for g in range(len(span.paths)) if g not in span.pivot_global]
    basis_pos = {g: pos for pos, g in enumerate(basis_global)}

    nf_cache: dict[int, tuple[tuple[int, object], ...]] = {}

    def nf(g: int) -> tuple[tuple[int, object], ...]:
        got = nf_cache.get(g)
        if got is not None:
            return got
        if g in basis_pos:
            out = ((basis_pos[g], field.one),)
        else:
            p = span.paths[g]
            vec = span.normal_form_local(g)
            local = span.buckets[(p.source, p.target)]
            out = tuple(
                (basis_pos[local[pos]], c)
                for pos, c in enumerate(vec)
                if not field.is_zero(c)
            )
        nf_cache[g] = out
        return out

    elements = tuple(span.paths[g] for g in basis_global)
    table = []
    for i, pi in enumerate(elements):
        row = []
        for j, pj in enumerate(elements):
            if pi.target != pj.source or pi.length + pj.length > n - 1:
                row.append(())
                continue
            whole = Path(pi.source, pi.arrows + pj.arrows, pj.target)
            row.append(nf(span.path_index[whole]))
        table.append(tuple(row))
    return FiniteDimAlgebra(field, q.vertices, elements, tuple(table), quiver=q, ideal=ideal)


def corner_algebra(alg: FiniteDimAlgebra, split: IdempotentSplit) -> FiniteDimAlgebra:
    """The corner eAe spanned by basis elements with both endpoints in e."""
    e = split.e
    if set(alg.vertices) <= e:
        return alg
    keep = [i for i, el in enumerate(alg.elements) if el.source in e and el.target in e]
    pos = {g: i for i, g in enumerate(keep)}
    elements = tuple(alg.elements[g] for g in keep)
    table = []
    for gi in keep:
        row = []
        for gj in keep:
            entry = []
            for k, c in alg.table[gi][gj]:
                if k not in pos:
                    raise InvariantViolation("corner product escaped the corner")
                entry.append((pos[k], c))
            row.append(tuple(entry))
        table.append(tuple(row))
    vertices = tuple(v for v in alg.vertices if v in e)
    out = FiniteDimAlgebra(alg.field, vertices, elements, tuple(table))
    out.parent = alg
    out.parent_indices = tuple(keep)
    return out


def quotient_by_idempotent(alg: FiniteDimAlgebra, split: IdempotentSplit) -> FiniteDimAlgebra:
    """The quotient A/<e'> by the ideal generated by the idempotent e'.

    The ideal is computed by linear closure: every basis element with an
    endpoint in the e' block lies in it outright, and products x*y running
    through an e' vertex (target of x in e', equal to source of y) fill in
    the rest.  One echelon pass gives the span; no path inspection is used.
    """
    eprime = split.eprime
    if not eprime:
        return alg
    F = alg.field
    d = alg.dim
    rows = []
    for i, el in enumerate(alg.elements):
        if el.source in eprime or el.target in eprime:
            vec = [F.zero] * d
            vec[i] = F.one
            rows.append(vec)
    e = set(alg.vertices) - set(eprime)
    left = [i for i, el in enumerate(alg.elements) if el.source in e and el.target in eprime]
    right = [j for j, el in enumerate(alg.elements) if el.source in eprime and el.target in e]
    for i in left:
        for j in right:
            if alg.elements[i].target != alg.elements[j].source:
                continue
            entry = alg.table[i][j]
            if entry:
                vec = [F.zero] * d
                for k, c in entry:
                    vec[k] = F.add(vec[k], c)
                rows.append(vec)
    echelon, pivots = linalg.rref(rows, d, F)
    pivot_set = set(pivots)
    keep = [i for i in range(d) if i not in pivot_set]
    pos = {g: i for i, g in enumerate(keep)}

    def project(x: dict[int, object]) -> dict[int, object]:
        vec = linalg.reduce_mod_rowspace(alg.dense(x), echelon, pivots, F)
        return {pos[i]: c for i, c in enumerate(vec) if not F.is_zero(c) and i in pos}

    elements = tuple(alg.elements[g] for g in keep)
    table = []
    for gi in keep:
        row = []
        for gj in keep:
            entry = alg.table[gi][gj]
            if not entry:
                row.append(())
                continue
            vec = [F.zero] * d
            for k, c in entry:
                vec[k] = F.add(vec[k], c)
            vec = linalg.reduce_mod_rowspace(vec, echelon, pivots, F)
            row.append(tuple((pos[k], c) for k, c in enumerate(vec) if not F.is_zero(c)))
        table.append(tuple(row))
    vertices = tuple(v for v in alg.vertices if v not in eprime)
    out = FiniteDimAlgebra(F, vertices, elements, tuple(table))
    out.parent = alg
    out.parent_indices = tuple(keep)
    out.parent_projection = project
    return out


def restricted_algebra(q: Quiver, ideal: IdealSpec, sub: FullSubquiver, field) -> FiniteDimAlgebra:
    """The algebra of the full subquiver bound by the intersected ideal.

    The intersection of the ideal with the subquiver's path space is read
    off the echelon form bucket by bucket, then fed back in as relations, so
    the result is a presented algebra and carries modules.
    """
    span = _RelationSpan(q, ideal, field)
    rels = []
    for row, paths in span.intersection_with_subquiver(sub):
        terms = tuple(
            (c, p.arrows) for c, p in zip(row, paths) if not field.is_zero(c)
        )
        if terms:
            rels.append(terms)
    sub_q = sub.as_quiver()
    return build_algebra(sub_q, IdealSpec(tuple(rels), ideal.truncation), field)


def opposite_algebra(alg: FiniteDimAlgebra) -> FiniteDimAlgebra:
    """The opposite algebra; presented inputs are re-presented over the
    reversed quiver (same vertex and arrow names) so modules work on both.
    """
    if alg.is_presented:
        q = alg.quiver
        op_q = Quiver(q.vertices, tuple(Arrow(a.name, a.target, a.source) for a in q.arrows))
        return build_algebra(op_q, alg.ideal.opposite(), alg.field)
    elements = tuple(
        Path(el.target, tuple(reversed(el.arrows)), el.source) for el in alg.elements
    )
    d = alg.dim
    table = tuple(tuple(alg.table[j][i] for j in range(d)) for i in range(d))
    out = FiniteDimAlgebra(alg.field, alg.vertices, elements, table)
    out.parent = alg.parent
    out.parent_indices = alg.parent_indices
    return out


@dataclass(frozen=True)
class TriangularBlocks:
    """Dimensions of the four idempotent corners of an algebra."""

    dim_ee: int
    dim_e_eprime: int
    dim_eprime_e: int
    dim_eprime_eprime: int
    lower_triangular: bool
    upper_triangular: bool

    @property
    def total(self) -> int:
        return self.dim_ee + self.dim_e_eprime + self.dim_eprime_e + self.dim_eprime_eprime


def triangular_blocks(alg: FiniteDimAlgebra, split: IdempotentSplit) -> TriangularBlocks:
    e = split.e
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
        images = tuple(dict(im) for im in images)
        F = target.field
        multiplicative = True
        for i in range(source.dim):
            for j in range(source.dim):
                lhs = _apply_images(images, F, {k: c for k, c in source.table[i][j]})
                rhs = target.mul(images[i], images[j])
                if not target.eq(lhs, rhs):
                    multiplicative = False
                    break
            if not multiplicative:
                break
        u = _apply_images(images, F, source.unit())
        unital = target.eq(u, target.unit())
        unit_image_idempotent = target.eq(target.mul(u, u), u)
        mat = [target.dense(im) for im in images]
        r = linalg.rank(mat, target.dim, F)
        surjective = r == target.dim
        injective = r == source.dim
        return AlgebraHom(
            source, target, images, multiplicative, unital, unit_image_idempotent, surjective, injective
        )

    def apply(self, x: dict[int, object]) -> dict[int, object]:
        return _apply_images(self.images, self.target.field, x)


def _apply_images(images, F, x: dict[int, object]) -> dict[int, object]:
    """Image of x under the linear map sending basis element i to images[i]."""
    out: dict[int, object] = {}
    for i, c in x.items():
        for k, ck in images[i].items():
            v = F.add(out.get(k, F.zero), F.mul(c, ck))
            if F.is_zero(v):
                out.pop(k, None)
            else:
                out[k] = v
    return out


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

    def failed_entries(self) -> list[CheckEntry]:
        return [e for e in self.entries if not e.passed]


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
    F = a.field
    for i in range(a.dim):
        for j in range(a.dim):
            got = {to_b[k]: c for k, c in a.table[i][j]}
            want = {k: c for k, c in b.table[to_b[i]][to_b[j]]}
            keys = set(got) | set(want)
            for k in keys:
                if not F.is_zero(F.sub(got.get(k, F.zero), want.get(k, F.zero))):
                    return False, (
                        f"product {a.elements[i].label()} * {a.elements[j].label()} disagrees"
                    )
    return True, ""


def verify_convex_isos(q: Quiver, ideal: IdealSpec, sub: FullSubquiver, field) -> ConvexIsoReport:
    """Compare the corner, idempotent quotient, and restricted algebra at sub.

    For a convex subquiver the three must agree under the canonical basis
    correspondences and the corner map and quotient splitting must be
    multiplicative; a non-convex subquiver may break any of these, and the
    report records exactly which.
    """
    alg = build_algebra(q, ideal, field)
    split = IdempotentSplit.from_subquiver(sub)
    corner = corner_algebra(alg, split)
    quotient = quotient_by_idempotent(alg, split)
    restricted = restricted_algebra(q, ideal, sub, field)
    convex = q.is_convex(sub)
    F = field
    entries = []

    e_id = alg.vertex_idempotent(split.e)
    sandwich_ok = True
    witness = ""
    for i in range(alg.dim):
        xi = {i: F.one}
        exe = alg.mul(e_id, alg.mul(xi, e_id))
        for j in range(alg.dim):
            yj = {j: F.one}
            lhs = alg.mul(exe, alg.mul(yj, e_id))
            rhs = alg.mul(e_id, alg.mul(alg.mul(xi, yj), e_id))
            if not alg.eq(lhs, rhs):
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
        if el.source in split.e and el.target in split.e:
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
    section_ok = all(
        quotient.eq(proj(psi_images[i]), {i: F.one}) for i in range(quotient.dim)
    )
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
