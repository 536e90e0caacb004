"""Right modules over a presented algebra, as quiver representations.

A representation assigns each vertex an exact vector space (stored only as a
dimension) and each arrow a matrix from its source component to its target
component.  Row vectors act on the right, so the matrix for a path is the
product of its arrow matrices read left to right; a basis element's is its
prefix's times its last arrow's, kept per element.

Validity means the defining ideal acts as zero: every relation's matrix
vanishes and the radical chain M, MJ, MJ^2, ... dies by the truncation
exponent.  The public constructors always check their input (names, ints
>= 0 as dimensions, shapes, canonical entries, then validity or commutation)
and copy it.  Results built inside the package (terms, submodules, quotients,
dual modules, kernels, Hom bases) are valid by construction and go through one
unchecked builder per type, ``_unchecked``, which keeps the lists it is given.

Submodules are handed around as per-vertex canonical row bases inside the
ambient components; ``embed_submodule``, the one embed (``kernel_of_map``
goes through it), and ``quotient_by_submodule`` turn those into honest
representations with inclusion or projection maps.  The submodule
generated by seed rows has a closed form over the algebra's basis, one
elimination per vertex: it is spanned at w by seed_v · x over the basis
elements x : v -> w.  A quotient reads its arrow matrices off the free rows.
Both check their rows and call an unchecked core, ``_closure_rows`` or
``_quotient_by_rows``, which the lab's module draws call on their terms.
The heart parts take no elimination.  Around a convex subquiver the plus
vertices, and the vertices off minus, are closed under successors: no arrow
leaves them, so a module's components there are a submodule holding every
submodule supported there, and its components on the rest are the quotient
by it.  ``_components`` reads each part off.  Every kernel here, Hom spaces
included, is a ``RowSpace``'s.  Duals live over
``algebra.opposite_algebra``, which the algebra keeps; nothing is cached here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from . import linalg
from .algebra import MAX_WORK, FiniteDimAlgebra, _require_presented, _require_subquiver, opposite_algebra
from .errors import DanglingIdError, InputError, ModuleValidationError, require_mapping
from .quiver import BoundarySplit, FullSubquiver, Quiver


def _checked_copy(rows: list[list], F, where: str) -> list[list]:
    """A copy of caller-supplied rows, once every entry is canonical in F."""
    for row in rows:
        for x in row:
            y = F.of(x)
            if y != x or type(x) not in (int, type(y)):
                raise ModuleValidationError(
                    f"entry {x!r} at {where} is not canonical in {F.name}"
                )
    return [list(r) for r in rows]


def _has_shape(rows, nrows: int | None, ncols: int) -> bool:
    """Whether rows is a list or tuple of nrows rows (any number for None), each one of ncols entries."""
    counted = isinstance(rows, (list, tuple)) and nrows in (None, len(rows))
    return counted and all(isinstance(r, (list, tuple)) and len(r) == ncols for r in rows)


def _module_work(q, dims: dict[str, int]) -> int:
    """Cells of the identity and arrow matrices a module over q of these dims builds and validates."""
    return sum(d * d for d in dims.values()) + sum(dims[a.source] * dims[a.target] for a in q.arrows)


def _checked_rows(rep: Representation, rows_by_vertex) -> dict[str, list[list]]:
    """A copy of caller-supplied rows per vertex of rep, once every vertex is
    rep's, every row has dim rep_v entries and every entry is canonical."""
    checked = {}
    for v, rows in rows_by_vertex.items():
        if v not in rep.dims:
            raise DanglingIdError(f"rows name unknown vertex {v!r}")
        if not _has_shape(rows, None, rep.dims[v]):
            raise ModuleValidationError(f"rows at vertex {v!r} have wrong length, want {rep.dims[v]}")
        checked[v] = _checked_copy(rows, rep.field, f"vertex {v!r}")
    return checked


class Representation:
    """A right module: per-vertex dimensions plus per-arrow matrices.

    Not mutated after construction, so each basis element's matrix and the
    top lifts are memoized on it (nothing per path); callers must not mutate
    what is handed out.  The constructor checks and copies its input (only
    a missing matrix is zero, and a None one is refused); results built
    inside the package come from ``_unchecked``.
    """

    def __init__(self, algebra: FiniteDimAlgebra, dims, mats):
        _require_presented(algebra)
        require_mapping(dims, "module dims")
        require_mapping(mats, "module matrices")
        self.algebra = algebra
        q, F = algebra.quiver, algebra.field
        for v, d in dims.items():
            if v not in q.vertex_index:
                raise DanglingIdError(f"module names unknown vertex {v!r}")
            if not (type(d) is int and d >= 0):
                raise ModuleValidationError(f"dimension {d!r} at vertex {v!r} is not an int >= 0")
        self.dims: dict[str, int] = dict.fromkeys(q.vertices, 0)
        self.dims.update(dims)
        if _module_work(q, self.dims) > MAX_WORK:
            raise InputError(f"module matrices exceed {MAX_WORK} units of work")
        self.mats: dict[str, list[list]] = {}
        for a in q.arrows:
            nrows, ncols = self.dims[a.source], self.dims[a.target]
            m = mats[a.name] if a.name in mats else linalg.zeros(nrows, ncols, F)
            if not _has_shape(m, nrows, ncols):
                raise ModuleValidationError(
                    f"matrix for arrow {a.name!r} has wrong shape, want {nrows}x{ncols}"
                )
            self.mats[a.name] = _checked_copy(m, F, f"arrow {a.name!r}")
        if not mats.keys() <= self.mats.keys():
            name = next(name for name in mats if name not in self.mats)
            raise DanglingIdError(f"module names unknown arrow {name!r}")
        self._element_mats: dict[int, list[list]] = {}
        self._top_lifts: dict[str, list[int]] | None = None
        self.validate()

    @classmethod
    def _unchecked(cls, algebra: FiniteDimAlgebra, dims, mats) -> "Representation":
        """A module kept as given: dims and mats at every vertex and arrow, in the quiver's order."""
        rep = cls.__new__(cls)
        rep.algebra, rep.dims, rep.mats, rep._element_mats, rep._top_lifts = algebra, dims, mats, {}, None
        return rep

    @property
    def field(self):
        return self.algebra.field

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    @property
    def support(self) -> frozenset[str]:
        return frozenset(v for v, d in self.dims.items() if d > 0)

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    def element_matrix(self, idx: int) -> list[list]:
        """Matrix of a basis element's action, along the layout's prefix
        record: the identity, an arrow's own matrix, or its prefix's matrix
        times its last arrow's.  Prefixes not yet built are built first, each
        once, and all are kept."""
        built = self._element_mats
        if idx not in built:
            prefix = self.algebra.projective_layout.prefix
            todo, i = [], idx
            while i >= 0 and i not in built:
                todo.append(i)
                i = prefix[i][1]
            for i in reversed(todo):
                w, pre, arrow = prefix[i]
                if arrow is None:
                    built[i] = linalg.identity(self.dims[w], self.field)
                elif pre < 0:
                    built[i] = self.mats[arrow]
                else:
                    built[i] = linalg.mat_mul(built[pre], self.mats[arrow], self.dims[w], self.field)
        return built[idx]

    def top_lifts(self) -> dict[str, list[int]]:
        """Per vertex v, the dim top_v free coordinates of the radical's echelon form."""
        if self._top_lifts is None:
            rad_rows = radical_rows(self)
            self._top_lifts = {}
            for v, d in self.dims.items():
                rows = rad_rows[v] if d else ()
                if len(rows) > 1:
                    pivots = set(linalg.rref(rows, d, self.field)[1])
                    self._top_lifts[v] = [j for j in range(d) if j not in pivots]
                elif rows and any(rows[0]):
                    # one radical row pivots at its first nonzero entry (zero is the only falsy one)
                    c = rows[0].index(next(filter(None, rows[0])))
                    self._top_lifts[v] = [*range(c), *range(c + 1, d)]
                else:
                    # no radical rows (or no dimension) at v: the whole component is top
                    self._top_lifts[v] = list(range(d))
        return self._top_lifts

    def validate(self) -> None:
        """Check that the defining ideal annihilates this representation."""
        alg = self.algebra
        q = alg.quiver
        F = self.field
        for src, tgt, terms in alg.ideal.uniform_relations(q):
            acc = linalg.zeros(self.dims[src], self.dims[tgt], F)
            for coeff, arrows in terms:
                c, mat = F.of(coeff), self.mats[arrows[0]]
                for name in arrows[1:]:
                    mat = linalg.mat_mul(mat, self.mats[name], self.dims[q.arrow_by_name[name].target], F)
                for row, path_row in zip(acc, mat):
                    for j, x in enumerate(path_row):
                        if x:
                            row[j] = F.add(row[j], F.mul(c, x))
            if any(map(any, acc)):
                label = " + ".join(f"{c}*{'*'.join(p)}" for c, p in terms)
                raise ModuleValidationError(f"relation {label} does not annihilate the module")
        # truncation: the radical chain must vanish by step n.  J^(k+1) M lies in
        # J^k M, so a step that keeps the total rank leaves the chain stationary
        chain = {v: linalg.identity(self.dims[v], F) for v in q.vertices}
        rank, last = self.total_dim, None
        for _ in range(alg.ideal.truncation):
            if not rank or rank == last:
                break
            nxt: dict[str, list[list]] = {v: [] for v in q.vertices}
            for a in q.arrows:
                if chain[a.source]:
                    nxt[a.target].extend(
                        linalg.mat_mul(chain[a.source], self.mats[a.name], self.dims[a.target], F)
                    )
            chain = {v: linalg.rref(rows, self.dims[v], F)[0] for v, rows in nxt.items()}
            rank, last = sum(map(len, chain.values())), rank
        if rank:
            raise ModuleValidationError(
                f"paths of truncation length {alg.ideal.truncation} act nonzero"
            )

    def equal_to(self, other: "Representation") -> bool:
        """Equal content: the same algebra object, dims and arrow matrices, the
        package's one test of it; the matrices compare row by row and stop
        at the first entry that differs."""
        return self.algebra is other.algebra and self.dims == other.dims and self.mats == other.mats


class ModuleMap:
    """A homomorphism of representations, stored as per-vertex blocks, which
    the constructor checks and copies; a missing block is zero, and a None
    block or one at a vertex outside the quiver is refused."""

    def __init__(self, source: Representation, target: Representation, blocks):
        if source.algebra is not target.algebra:
            raise InputError("module map endpoints live over different algebras")
        require_mapping(blocks, "map blocks")
        self.source = source
        self.target = target
        q = source.algebra.quiver
        if not blocks.keys() <= q.vertex_index.keys():
            v = next(v for v in blocks if v not in q.vertex_index)
            raise DanglingIdError(f"map names unknown vertex {v!r}")
        self.blocks: dict[str, list[list]] = {}
        for v in q.vertices:
            b = blocks[v] if v in blocks else linalg.zeros(source.dims[v], target.dims[v], source.field)
            if not _has_shape(b, source.dims[v], target.dims[v]):
                raise ModuleValidationError(f"block at vertex {v!r} has wrong shape")
            self.blocks[v] = _checked_copy(b, source.field, f"vertex {v!r}")
        self.validate()

    @classmethod
    def _unchecked(cls, source: Representation, target: Representation, blocks) -> "ModuleMap":
        """A map kept as given: a block at every vertex, in the quiver's order."""
        f = cls.__new__(cls)
        f.source, f.target, f.blocks = source, target, blocks
        return f

    @property
    def field(self):
        return self.source.field

    def validate(self) -> None:
        q = self.source.algebra.quiver
        F = self.field
        for a in q.arrows:
            lhs = linalg.mat_mul(
                self.source.mats[a.name], self.blocks[a.target], self.target.dims[a.target], F
            )
            rhs = linalg.mat_mul(
                self.blocks[a.source], self.target.mats[a.name], self.target.dims[a.target], F
            )
            if lhs != rhs:
                raise ModuleValidationError(f"map does not intertwine arrow {a.name!r}")

    def compose(self, then: "ModuleMap") -> "ModuleMap":
        """self followed by then (left-to-right composition)."""
        if then.source is not self.target and then.source.dims != self.target.dims:
            raise InputError("composition shapes do not match")
        F = self.field
        blocks = {
            v: linalg.mat_mul(self.blocks[v], then.blocks[v], then.target.dims[v], F)
            for v in self.source.algebra.quiver.vertices
        }
        return ModuleMap._unchecked(self.source, then.target, blocks)

    @property
    def is_zero(self) -> bool:
        return not any(any(map(any, b)) for b in self.blocks.values())


def standard_module(alg: FiniteDimAlgebra, kind: str, v: str) -> Representation:
    """The simple, indecomposable projective, or indecomposable injective at v."""
    _require_presented(alg)
    alg.quiver.check_vertices((v,))
    if kind == "simple":
        dims = {w: int(w == v) for w in alg.vertices}
        mats = {a.name: linalg.zeros(dims[a.source], dims[a.target], alg.field) for a in alg.quiver.arrows}
        return Representation._unchecked(alg, dims, mats)
    if kind == "projective":
        return materialize_term(alg, {v: 1})
    if kind == "injective":
        return dual_module(materialize_term(opposite_algebra(alg), {v: 1}))
    raise InputError(f"unknown module kind {kind!r}")


# ---------------------------------------------------------------------------
# sums of indecomposable projectives, with generator bookkeeping


@dataclass(frozen=True, slots=True)
class TermInfo:
    """Basis bookkeeping for a finite sum of indecomposable projectives.

    generators lists (vertex, copy) pairs in vertex order; basis maps each
    vertex w to the (generator index, algebra element index) pairs that make
    up the component there; offsets[w][g] is where generator g's block of
    that component starts.  Generator g at v has its unit at offsets[v][g],
    since each block of P_v at v starts with the idempotent.
    """

    generators: tuple[tuple[str, int], ...]
    basis: dict[str, tuple[tuple[int, int], ...]]
    offsets: dict[str, dict[int, int]]


def term_info(alg: FiniteDimAlgebra, mults: dict[str, int]) -> TermInfo:
    """Bookkeeping of P_v^{mults[v]}, put together from the algebra's
    projective layout.  A one-generator term is kept in the layout's terms
    and looked up there before anything is built."""
    layout = alg.projective_layout
    counts = mults.values()
    one = next(v for v, c in mults.items() if c) if sum(counts) == 1 and min(counts) >= 0 else None
    if one in layout.terms:
        return layout.terms[one]
    generators = tuple((v, c) for v in alg.vertices for c in range(mults.get(v, 0)))
    basis: dict[str, list[tuple[int, int]]] = {}
    offsets: dict[str, dict[int, int]] = {}
    for g, (v, _) in enumerate(generators):
        for w, block in layout.blocks[v].items():
            b = basis.setdefault(w, [])
            offsets.setdefault(w, {})[g] = len(b)
            b.extend(zip(repeat(g), block))
    full = dict.fromkeys(alg.vertices, ())
    full.update((w, tuple(b)) for w, b in basis.items())
    info = TermInfo(generators, full, offsets)
    if one is not None:
        layout.terms[one] = info
    return info


def _check_multiplicities(mults) -> None:
    """Refuse projective term multiplicities that are not a mapping to ints >= 0."""
    require_mapping(mults, "a projective term")
    for v, c in mults.items():
        if type(c) is not int or c < 0:
            raise InputError(f"multiplicity {c!r} of vertex {v!r} in projective term is not an int >= 0")


def materialize_term(alg: FiniteDimAlgebra, mults: dict[str, int]) -> Representation:
    """Build the sum of projectives P_v^{mults[v]}, laid out as term_info says.

    The component of P_v at w is spanned by the basis elements from v to w,
    and an arrow acts by right multiplication, read off the product table:
    the element (g, i) at its source goes to x_i * x_arrow in g's block at
    its target.  The module draws build their sums of projectives here too.
    """
    _check_multiplicities(mults)
    for v in mults:
        if v not in alg.idempotent_index:
            raise InputError(f"unknown vertex id {v!r} in projective term")
    info = term_info(alg, mults)
    table, local = alg.table, alg.projective_layout.local
    dims = {w: len(b) for w, b in info.basis.items()}
    mats = {}
    for a in alg.quiver.arrows:
        j, starts = alg.arrow_index[a.name], info.offsets.get(a.target)
        mat = mats[a.name] = linalg.zeros(dims[a.source], dims[a.target], alg.field)
        # a product lands in a block that the term has, so its offsets exist then
        for row, (g, i) in zip(mat, info.basis[a.source]):
            for k, c in table[i].get(j, ()):
                row[starts[g] + local[k]] = c
    return Representation._unchecked(alg, dims, mats)


def dual_module(m: Representation) -> Representation:
    """The dual of a right module, as a right module over the opposite algebra."""
    op = opposite_algebra(m.algebra)
    dims = dict(m.dims)
    mats = {}
    for a in m.algebra.quiver.arrows:
        mats[a.name] = linalg.transpose(m.mats[a.name], m.dims[a.target])
    return Representation._unchecked(op, dims, mats)


def dual_map(f: ModuleMap) -> ModuleMap:
    """Dual of a map; direction reverses, blocks transpose."""
    ds, dt = dual_module(f.source), dual_module(f.target)
    blocks = {
        v: linalg.transpose(f.blocks[v], f.target.dims[v])
        for v in f.source.algebra.quiver.vertices
    }
    return ModuleMap._unchecked(dt, ds, blocks)


# ---------------------------------------------------------------------------
# submodule machinery: submodules travel as per-vertex canonical row bases


def _canonical(rep: Representation, rows_by_vertex) -> dict[str, list[list]]:
    F = rep.field
    return {
        v: linalg.rref(rows_by_vertex.get(v, []), rep.dims[v], F)[0]
        for v in rep.algebra.quiver.vertices
    }


def _closure_rows(rep: Representation, seed_rows: dict) -> dict[str, list[list]]:
    """Unchecked, unreduced rows of the submodule the seeds generate: at w,
    seed_v · x over the basis elements x : v -> w, the idempotent at w
    contributing the seeds at w themselves."""
    F = rep.field
    rows: dict[str, list[list]] = {v: [] for v in rep.algebra.quiver.vertices}
    for i, el in enumerate(rep.algebra.elements):
        seed = seed_rows.get(el.source)
        if seed and rep.dims[el.target]:
            w = el.target
            rows[w].extend(linalg.mat_mul(seed, rep.element_matrix(i), rep.dims[w], F) if el.arrows else seed)
    return rows


def submodule_closure(rep: Representation, seed_rows) -> dict[str, list[list]]:
    """Smallest submodule containing the seed rows, as canonical bases: the
    checked rows' ``_closure_rows``, reduced."""
    return _canonical(rep, _closure_rows(rep, _checked_rows(rep, seed_rows)))


def embed_submodule(rep: Representation, rows_by_vertex) -> tuple[Representation, ModuleMap]:
    """Representation structure on a submodule, with its inclusion map; the
    package's one embed, kernels included.

    The rows must already span a submodule (closed under the arrow actions);
    an arrow image that leaves a nonzero remainder modulo the target's
    echelon basis raises ModuleValidationError.  Echelon basis rows have unit
    pivots and zeros in the other pivot columns, so the coordinates of a
    member are its entries at the pivot columns.
    """
    F, rows_by_vertex = rep.field, _checked_rows(rep, rows_by_vertex)
    echelons = {
        v: linalg.rref(rows_by_vertex.get(v, []), rep.dims[v], F)
        for v in rep.algebra.quiver.vertices
    }
    mats = {}
    for a in rep.algebra.quiver.arrows:
        basis, pivots = echelons[a.target]
        images = linalg.mat_mul(echelons[a.source][0], rep.mats[a.name], rep.dims[a.target], F)
        if any(any(linalg.reduce_mod_rowspace(img, basis, pivots, F)) for img in images):
            raise ModuleValidationError(f"rows are not arrow-stable at {a.name!r}; not a submodule")
        mats[a.name] = [[img[c] for c in pivots] for img in images]
    bases = {v: basis for v, (basis, _) in echelons.items()}
    sub = Representation._unchecked(rep.algebra, {v: len(b) for v, b in bases.items()}, mats)
    return sub, ModuleMap._unchecked(sub, rep, bases)


def _quotient_by_rows(rep: Representation, rows_by_vertex: dict) -> tuple[Representation, dict[str, list[list]]]:
    """Unchecked quotient of rep by the span of its rows, with the projection
    at each vertex that has rows, read off one rref there with the free
    columns.  An arrow acts by its free rows, then the projection where its
    target has one: into a vertex with no rows they are kept as they are."""
    F, proj, free = rep.field, {}, {}
    for v in rep.algebra.quiver.vertices:
        d = rep.dims[v]
        free[v] = range(d)
        if rows := rows_by_vertex.get(v):
            echelon, pivots = linalg.rref(rows, d, F)
            proj[v] = linalg.quotient_projection(echelon, pivots, d, F)
            free[v] = [j for j in free[v] if j not in pivots]
    mats = {}
    for a in rep.algebra.quiver.arrows:
        w, lifted = a.target, [rep.mats[a.name][j] for j in free[a.source]]
        mats[a.name] = linalg.mat_mul(lifted, proj[w], len(free[w]), F) if w in proj else lifted
    quot = Representation._unchecked(rep.algebra, {v: len(cols) for v, cols in free.items()}, mats)
    return quot, proj


def quotient_by_submodule(rep: Representation, rows_by_vertex) -> tuple[Representation, ModuleMap]:
    """Quotient representation by a submodule, with its projection map: the
    checked rows' ``_quotient_by_rows``, its projection the identity at a
    vertex with no rows."""
    quot, proj = _quotient_by_rows(rep, _checked_rows(rep, rows_by_vertex))
    blocks = {v: proj[v] if v in proj else linalg.identity(d, rep.field) for v, d in rep.dims.items()}
    return quot, ModuleMap._unchecked(rep, quot, blocks)


def kernel_of_map(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """Kernel of a module map as a submodule of the source: each vertex's
    RowSpace kernel, embedded (and checked arrow-stable) by embed_submodule."""
    return embed_submodule(f.source, {
        v: linalg.RowSpace(f.blocks[v], f.target.dims[v], f.field).kernel
        for v in f.source.algebra.quiver.vertices
    })


def radical_rows(m: Representation) -> dict[str, list[list]]:
    """Rows spanning the radical MJ at each vertex: all arrow images there."""
    rows: dict[str, list[list]] = {v: [] for v in m.algebra.quiver.vertices}
    for a in m.algebra.quiver.arrows:
        rows[a.target].extend(m.mats[a.name])
    return rows


def hom_basis(m: Representation, n: Representation) -> list[ModuleMap]:
    """A basis of the homomorphism space, by exact intertwiner solving; a
    system past MAX_WORK cells is refused from the dims, before it is built."""
    if m.algebra is not n.algebra:
        raise InputError("hom endpoints live over different algebras")
    q = m.algebra.quiver
    F = m.field
    offsets = {}
    nvars = 0
    for v in q.vertices:
        offsets[v] = nvars
        nvars += m.dims[v] * n.dims[v]
    if nvars == 0:
        return []
    cells = nvars * sum(m.dims[a.source] * n.dims[a.target] for a in q.arrows)
    if cells > MAX_WORK:
        raise InputError(f"a Hom system of {cells} cells exceeds {MAX_WORK} units of work")
    # the equations at (arrow, row i of M_v, column k of N_w) with a nonzero
    # coefficient are the columns of a system whose rows are the variables,
    # so the maps are its left kernel
    eqs = [
        (a, i, k)
        for a in q.arrows
        for i, mrow in enumerate(m.mats[a.name])
        for k in range(n.dims[a.target])
        if any(mrow) or any(nrow[k] for nrow in n.mats[a.name])
    ]
    system = linalg.zeros(nvars, len(eqs), F)
    for e, (a, i, k) in enumerate(eqs):
        v, w = a.source, a.target
        for j in range(m.dims[w]):
            system[offsets[w] + j * n.dims[w] + k][e] = m.mats[a.name][i][j]
        for l in range(n.dims[v]):
            row = system[offsets[v] + i * n.dims[v] + l]  # written above too when a is a loop
            row[e] = F.sub(row[e], n.mats[a.name][l][k])
    basis = linalg.RowSpace(system, len(eqs), F).kernel
    maps = []
    for vec in basis:
        blocks = {}
        for v in q.vertices:
            # row i of the block at v is the i-th run of dim N_v variables from its offset
            o, d = offsets[v], n.dims[v]
            blocks[v] = [vec[o + i * d : o + (i + 1) * d] for i in range(m.dims[v])]
        maps.append(ModuleMap._unchecked(m, n, blocks))
    return maps


def trace_submodule(c: Representation, generators) -> dict[str, list[list]]:
    """Sum of images of all maps from the generator modules into c."""
    rows: dict[str, list[list]] = {v: [] for v in c.algebra.quiver.vertices}
    for u in generators:
        for f in hom_basis(u, c):
            for v, block in f.blocks.items():
                rows[v].extend(block)
    return _canonical(c, rows)


# ---------------------------------------------------------------------------
# heart submodules


@dataclass(frozen=True)
class HeartParts:
    """The plus part C+, the quotient C/C+ and the minus part C- of a module
    around a convex heart: its components on the plus vertices, off them and
    off the minus vertices, exact since no arrow leaves plus or enters minus."""

    plus_part: Representation
    quot_by_plus: Representation
    minus_part: Representation


def _convex_split(alg: FiniteDimAlgebra, heart: FullSubquiver, what: str) -> BoundarySplit:
    """The boundary split of a convex full subquiver of alg's quiver.  A subquiver of
    another quiver is refused first, then one with a vertex both plus and minus."""
    _require_subquiver(alg, heart, what)
    split = alg.quiver.boundary_split(heart)
    if between := alg.quiver.sort_vertices(split.plus & split.minus):
        raise InputError(f"the subquiver is not convex: {list(between)} lie on paths between its vertices")
    return split


def _components(c: Representation, keep) -> Representation:
    """c's components on keep.  When no arrow leaves keep this is a submodule,
    and when none enters it, the quotient by the components off keep; either
    way the arrow matrices are c's, cut to keep."""
    q, d = c.algebra.quiver, c.dims
    return Representation._unchecked(
        c.algebra,
        {v: d[v] if v in keep else 0 for v in q.vertices},
        # an arrow from keep to the rest keeps its rows, with no columns left
        {a.name: [r if a.target in keep else [] for r in c.mats[a.name]] if a.source in keep else []
         for a in q.arrows},
    )


def heart_parts(c: Representation, heart: FullSubquiver) -> HeartParts:
    """C plus-part, C/C+ and minus-part for a convex full subquiver of c's quiver.

    The plus part is the largest submodule supported on the heart's plus
    vertices, and the minus part is the submodule generated by all components
    away from its minus vertices.  Both vertex sets are closed under
    successors, so each part is c's components there, and C/C+ is c's
    components off the plus vertices.  A subquiver that is not convex is
    refused.
    """
    split = _convex_split(c.algebra, heart, "heart parts")
    off_plus = frozenset(c.algebra.vertices) - split.plus
    off_minus = frozenset(c.algebra.vertices) - split.minus
    return HeartParts(_components(c, split.plus), _components(c, off_plus), _components(c, off_minus))


# ---------------------------------------------------------------------------
# change of algebra: inflation along a quotient, restriction to a subquiver


def inflate(m: Representation, big: FiniteDimAlgebra) -> Representation:
    """View a module over a restricted algebra as a module over the ambient one.

    The restricted algebra's quiver must be a full subquiver of the ambient
    quiver (same vertex and arrow names); components off it are zero.  For a
    convex subquiver this is the pullback along the canonical surjection.
    """
    _require_presented(big)
    _require_full_subquiver(m.algebra.quiver, big.quiver)
    dims = {v: m.dims.get(v, 0) for v in big.quiver.vertices}
    return Representation(big, dims, {a.name: m.mats[a.name] for a in m.algebra.quiver.arrows})


def restrict(m: Representation, small: FiniteDimAlgebra) -> Representation:
    """View a module supported on a full subquiver as a module over its algebra.

    Components off the subquiver must vanish; then the action of the ambient
    ideal's intersection is inherited, so the result is valid by construction
    (still validated here as a cross-check).
    """
    _require_presented(small)
    small_q = small.quiver
    _require_full_subquiver(small_q, m.algebra.quiver)
    for v in m.support:
        if v not in small_q.vertex_index:
            raise InputError(f"module has support at {v!r} outside the subquiver")
    dims = {v: m.dims[v] for v in small_q.vertices}
    return Representation(small, dims, {a.name: m.mats[a.name] for a in small_q.arrows})


def _require_full_subquiver(small: Quiver, big: Quiver) -> None:
    """Refuse unless small is the full subquiver of big on its vertices, under the same names."""
    for v in small.vertices:
        if v not in big.vertex_index:
            raise DanglingIdError(f"vertex {v!r} missing from the ambient quiver")
    inside = small.vertex_index
    for a in small.arrows + big.arrows:
        if a.source in inside and a.target in inside:
            if not small.arrow_by_name.get(a.name) == a == big.arrow_by_name.get(a.name):
                raise InputError(f"arrow {a.name!r} is not the same arrow in the subquiver and the ambient quiver")


def left_module_over_opposite(quotient: FiniteDimAlgebra) -> Representation:
    """A quotient algebra A/<e'>, seen as a left module over A.

    Returned as a right module over the opposite of the parent: the component
    at v is the span of quotient basis elements with source v, and an arrow
    acts by left multiplication through the quotient projection.
    """
    parent = quotient.parent
    if parent is None or quotient.parent_projection is None:
        raise InputError("need a quotient algebra with parent projection data")
    _require_presented(parent)
    op = opposite_algebra(parent)
    F = parent.field
    comp: dict[str, list[int]] = {v: [] for v in parent.vertices}
    for i, el in enumerate(quotient.elements):
        comp[el.source].append(i)
    pos = {v: {g: p for p, g in enumerate(comp[v])} for v in parent.vertices}
    dims = {v: len(comp[v]) for v in parent.vertices}
    mats = {}
    for a in parent.quiver.arrows:
        # in the opposite quiver the arrow runs target -> source
        arrow_idx = parent.arrow_index[a.name]
        pa = quotient.parent_projection({arrow_idx: F.one})
        mat = linalg.zeros(dims[a.target], dims[a.source], F)
        for p, g in enumerate(comp[a.target]):
            for k, c in quotient.mul(pa, {g: F.one}).items():
                mat[p][pos[a.source][k]] = c
        mats[a.name] = mat
    return Representation(op, dims, mats)
