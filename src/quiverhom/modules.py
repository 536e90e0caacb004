"""Right modules over a presented algebra, as quiver representations.

A representation assigns each vertex an exact vector space (stored only as a
dimension) and each arrow a matrix from its source component to its target
component.  Row vectors act on the right, so the matrix for a path is the
product of its arrow matrices read left to right.

Validity means the defining ideal acts as zero: every relation's matrix
vanishes and the radical chain M, MJ, MJ^2, ... dies by the truncation
exponent.  Construction validates by default; internal constructions that
are valid by construction (submodules, quotients, duals, kernels) skip the
check but remain spot-checked in the test suite.

Submodules are handed around as per-vertex row bases inside the ambient
components; the embed/quotient helpers turn those into honest
representations with inclusion or projection maps.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import FiniteDimAlgebra, IdempotentSplit, opposite_algebra
from .errors import DanglingIdError, InputError, ModuleValidationError


def _require_presented(alg: FiniteDimAlgebra) -> None:
    if not alg.is_presented:
        raise InputError("module theory needs a presented algebra (quiver attached)")


def get_opposite(alg: FiniteDimAlgebra) -> FiniteDimAlgebra:
    """Opposite algebra, cached so double opposite returns the original object."""
    cached = getattr(alg, "_opposite_cache", None)
    if cached is None:
        cached = opposite_algebra(alg)
        cached._opposite_cache = alg
        alg._opposite_cache = cached
    return cached


class Representation:
    """A right module: per-vertex dimensions plus per-arrow matrices.

    A representation is not mutated after construction, so `element_matrix`
    memoizes on it; callers must not mutate the matrices it hands out.
    """

    def __init__(self, algebra: FiniteDimAlgebra, dims, mats, validate: bool = True):
        _require_presented(algebra)
        self.algebra = algebra
        q = algebra.quiver
        self.dims: dict[str, int] = {v: int(dims.get(v, 0)) for v in q.vertices}
        for v in dims:
            if v not in self.dims:
                raise DanglingIdError(f"module names unknown vertex {v!r}")
        self.mats: dict[str, list[list]] = {}
        for a in q.arrows:
            m = mats.get(a.name)
            if m is None:
                m = linalg.zeros(self.dims[a.source], self.dims[a.target], algebra.field)
            if len(m) != self.dims[a.source] or any(len(r) != self.dims[a.target] for r in m):
                raise ModuleValidationError(
                    f"matrix for arrow {a.name!r} has wrong shape, want "
                    f"{self.dims[a.source]}x{self.dims[a.target]}"
                )
            self.mats[a.name] = [list(r) for r in m]
        for name in mats:
            if name not in self.mats:
                raise DanglingIdError(f"module names unknown arrow {name!r}")
        self._element_mats: dict[int, list[list]] = {}
        if validate:
            self.validate()

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

    def path_matrix(self, arrows) -> list[list]:
        """Matrix of the path action, a product of arrow matrices."""
        q = self.algebra.quiver
        if not arrows:
            raise InputError("path_matrix needs at least one arrow")
        out = self.mats[arrows[0]]
        for name in arrows[1:]:
            a = q.arrow_by_name[name]
            out = linalg.mat_mul(out, self.mats[name], self.dims[a.target], self.field)
        return out

    def element_matrix(self, idx: int) -> list[list]:
        """Matrix of a basis element's action, from its representative path."""
        if idx not in self._element_mats:
            el = self.algebra.elements[idx]
            self._element_mats[idx] = (
                self.path_matrix(el.arrows) if el.arrows
                else linalg.identity(self.dims[el.source], self.field)
            )
        return self._element_mats[idx]

    def validate(self) -> None:
        """Check that the defining ideal annihilates this representation."""
        alg = self.algebra
        q = alg.quiver
        F = self.field
        for src, tgt, terms in alg.ideal.uniform_relations(q):
            nrows, ncols = self.dims[src], self.dims[tgt]
            acc = linalg.zeros(nrows, ncols, F)
            for coeff, arrows in terms:
                term = linalg.mat_scale(F.of(coeff), self.path_matrix(arrows), F)
                acc = linalg.mat_add(acc, term, F)
            if not linalg.is_zero_matrix(acc, F):
                label = " + ".join(f"{c}*{'*'.join(p)}" for c, p in terms)
                raise ModuleValidationError(f"relation {label} does not annihilate the module")
        # truncation: the radical chain must vanish by step n
        chain = {v: linalg.identity(self.dims[v], F) for v in q.vertices}
        for _ in range(alg.ideal.truncation):
            if all(not rows for rows in chain.values()):
                return
            nxt: dict[str, list[list]] = {v: [] for v in q.vertices}
            for a in q.arrows:
                if chain[a.source]:
                    nxt[a.target].extend(
                        linalg.mat_mul(chain[a.source], self.mats[a.name], self.dims[a.target], F)
                    )
            chain = {v: linalg.rref(rows, self.dims[v], F)[0] for v, rows in nxt.items()}
        if any(rows for rows in chain.values()):
            raise ModuleValidationError(
                f"paths of truncation length {alg.ideal.truncation} act nonzero"
            )

    def equal_to(self, other: "Representation") -> bool:
        return (
            self.algebra is other.algebra
            and self.dims == other.dims
            and self.mats == other.mats
        )

    def describe(self) -> str:
        dims = ", ".join(f"{v}:{self.dims[v]}" for v in self.algebra.quiver.vertices)
        return f"module dims ({dims})"


class ModuleMap:
    """A homomorphism of representations, stored as per-vertex blocks."""

    def __init__(self, source: Representation, target: Representation, blocks, validate: bool = True):
        if source.algebra is not target.algebra:
            raise InputError("module map endpoints live over different algebras")
        self.source = source
        self.target = target
        q = source.algebra.quiver
        self.blocks: dict[str, list[list]] = {}
        for v in q.vertices:
            b = blocks.get(v)
            if b is None:
                b = linalg.zeros(source.dims[v], target.dims[v], source.field)
            if len(b) != source.dims[v] or any(len(r) != target.dims[v] for r in b):
                raise ModuleValidationError(f"block at vertex {v!r} has wrong shape")
            self.blocks[v] = [list(r) for r in b]
        if validate:
            self.validate()

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
        return ModuleMap(self.source, then.target, blocks, validate=False)

    @property
    def is_zero(self) -> bool:
        F = self.field
        return all(linalg.is_zero_matrix(b, F) for b in self.blocks.values())

    def image_rows(self) -> dict[str, list[list]]:
        return {v: [list(r) for r in b] for v, b in self.blocks.items()}


def zero_module(alg: FiniteDimAlgebra) -> Representation:
    _require_presented(alg)
    return Representation(alg, {}, {}, validate=False)


def standard_module(alg: FiniteDimAlgebra, kind: str, v: str) -> Representation:
    """The simple, indecomposable projective, or indecomposable injective at v."""
    _require_presented(alg)
    if v not in alg.idempotent_index:
        raise DanglingIdError(f"unknown vertex id {v!r}")
    if kind == "simple":
        return Representation(alg, {v: 1}, {}, validate=False)
    if kind == "projective":
        return materialize_term(alg, {v: 1})[0]
    if kind == "injective":
        return dual_module(materialize_term(get_opposite(alg), {v: 1})[0])
    raise InputError(f"unknown module kind {kind!r}")


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


def materialize_term(
    alg: FiniteDimAlgebra, mults: dict[str, int]
) -> tuple[Representation, TermInfo]:
    """Build the sum of projectives P_v^{mults[v]} with explicit bookkeeping.

    The component of P_v at w is spanned by the basis elements from v to w,
    and an arrow acts by right multiplication through the product table.
    """
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
    table = alg.table
    for a in q.arrows:
        j = alg.arrow_index[a.name]
        mat = linalg.zeros(dims[a.source], dims[a.target], F)
        for p, (g, i) in enumerate(basis[a.source]):
            for k, c in table[i].get(j, ()):
                mat[p][pos[a.target][(g, k)]] = c
        mats[a.name] = mat
    rep = Representation(alg, dims, mats, validate=False)
    info = TermInfo(
        tuple(generators),
        {w: tuple(rows) for w, rows in basis.items()},
        tuple(gen_pos),
    )
    return rep, info


def dual_module(m: Representation) -> Representation:
    """The dual of a right module, as a right module over the opposite algebra."""
    op = get_opposite(m.algebra)
    dims = dict(m.dims)
    mats = {}
    for a in m.algebra.quiver.arrows:
        mats[a.name] = linalg.transpose(m.mats[a.name], m.dims[a.target])
    return Representation(op, dims, mats, validate=False)


def dual_map(f: ModuleMap) -> ModuleMap:
    """Dual of a map; direction reverses, blocks transpose."""
    ds, dt = dual_module(f.source), dual_module(f.target)
    blocks = {
        v: linalg.transpose(f.blocks[v], f.target.dims[v])
        for v in f.source.algebra.quiver.vertices
    }
    return ModuleMap(dt, ds, blocks, validate=False)


# ---------------------------------------------------------------------------
# submodule machinery: submodules travel as per-vertex canonical row bases


def _canonical(rep: Representation, rows_by_vertex) -> dict[str, list[list]]:
    F = rep.field
    return {
        v: linalg.rref(rows_by_vertex.get(v, []), rep.dims[v], F)[0]
        for v in rep.algebra.quiver.vertices
    }


def submodule_closure(rep: Representation, seed_rows) -> dict[str, list[list]]:
    """Smallest submodule containing the seed rows, as canonical bases."""
    q = rep.algebra.quiver
    F = rep.field
    spaces = _canonical(rep, seed_rows)
    changed = True
    while changed:
        changed = False
        for a in q.arrows:
            src = spaces[a.source]
            if not src:
                continue
            pushed = linalg.mat_mul(src, rep.mats[a.name], rep.dims[a.target], F)
            merged, _ = linalg.rref(spaces[a.target] + pushed, rep.dims[a.target], F)
            if len(merged) != len(spaces[a.target]):
                spaces[a.target] = merged
                changed = True
    return spaces


def embed_submodule(rep: Representation, rows_by_vertex) -> tuple[Representation, ModuleMap]:
    """Representation structure on a submodule, with its inclusion map.

    The rows must already span a submodule (closed under the arrow actions);
    an arrow image that leaves a nonzero remainder modulo the target's
    echelon basis raises ModuleValidationError.
    """
    F = rep.field
    echelons = {
        v: linalg.rref(rows_by_vertex.get(v, []), rep.dims[v], F)
        for v in rep.algebra.quiver.vertices
    }
    return _embed_echelon(rep, echelons)


def _embed_echelon(rep: Representation, echelons) -> tuple[Representation, ModuleMap]:
    """embed_submodule for per-vertex (rref basis, pivots) pairs.

    Basis rows have unit pivots and zeros in the other pivot columns, so the
    coordinates of a member are its entries at the pivot columns.
    """
    F = rep.field
    mats = {}
    for a in rep.algebra.quiver.arrows:
        basis, pivots = echelons[a.target]
        mat = []
        for row in echelons[a.source][0]:
            img = linalg.vec_mat(row, rep.mats[a.name], rep.dims[a.target], F)
            rest = linalg.reduce_mod_rowspace(img, basis, pivots, F)
            if any(not F.is_zero(x) for x in rest):
                raise ModuleValidationError(
                    f"rows are not arrow-stable at {a.name!r}; not a submodule"
                )
            mat.append([img[c] for c in pivots])
        mats[a.name] = mat
    bases = {v: basis for v, (basis, _) in echelons.items()}
    sub = Representation(rep.algebra, {v: len(b) for v, b in bases.items()}, mats, validate=False)
    incl = ModuleMap(sub, rep, bases, validate=False)
    return sub, incl


def quotient_with_section(
    rep: Representation, rows_by_vertex
) -> tuple[Representation, ModuleMap, dict[str, list[list]]]:
    """Quotient representation, its projection, and a coordinate section.

    The section picks the free-column standard vectors as coset
    representatives; section followed by projection is the identity on the
    quotient, which is what induced-map computations need.
    """
    q = rep.algebra.quiver
    F = rep.field
    proj = {}
    section = {}
    dims = {}
    for v in q.vertices:
        echelon, pivots = linalg.rref(rows_by_vertex.get(v, []), rep.dims[v], F)
        proj[v] = linalg.quotient_projection(echelon, pivots, rep.dims[v], F)
        free = [j for j in range(rep.dims[v]) if j not in set(pivots)]
        dims[v] = len(free)
        sec = linalg.zeros(len(free), rep.dims[v], F)
        for i, j in enumerate(free):
            sec[i][j] = F.one
        section[v] = sec
    mats = {}
    for a in q.arrows:
        lifted = linalg.mat_mul(section[a.source], rep.mats[a.name], rep.dims[a.target], F)
        mats[a.name] = linalg.mat_mul(lifted, proj[a.target], dims[a.target], F)
    quot = Representation(rep.algebra, dims, mats, validate=False)
    pmap = ModuleMap(rep, quot, proj, validate=False)
    return quot, pmap, section


def quotient_by_submodule(rep: Representation, rows_by_vertex) -> tuple[Representation, ModuleMap]:
    """Quotient representation by a submodule, with its projection map."""
    quot, pmap, _ = quotient_with_section(rep, rows_by_vertex)
    return quot, pmap


def kernel_of_map(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """Kernel of a module map as an embedded submodule of the source.

    One elimination of [block | I] per vertex yields the kernel's canonical
    echelon basis together with its pivots.
    """
    F = f.field
    echelons = {}
    for v in f.source.algebra.quiver.vertices:
        space = linalg.RowSpace(f.blocks[v], f.target.dims[v], F)
        echelons[v] = (space.kernel, space.kernel_pivots)
    return _embed_echelon(f.source, echelons)


def image_of_map(f: ModuleMap) -> dict[str, list[list]]:
    """Image of a module map, as canonical row bases inside the target."""
    return _canonical(f.target, f.image_rows())


def largest_submodule_supported(rep: Representation, allowed) -> dict[str, list[list]]:
    """Largest submodule whose support lies inside the allowed vertex set.

    Starts from the full components on allowed vertices and repeatedly cuts
    by the condition that every arrow image stays inside the current spaces.
    """
    q = rep.algebra.quiver
    F = rep.field
    allowed = set(allowed)
    spaces = {
        v: linalg.identity(rep.dims[v], F) if v in allowed else []
        for v in q.vertices
    }
    changed = True
    while changed:
        changed = False
        for a in q.arrows:
            src = spaces[a.source]
            if not src:
                continue
            echelon, pivots = linalg.rref(spaces[a.target], rep.dims[a.target], F)
            qproj = linalg.quotient_projection(echelon, pivots, rep.dims[a.target], F)
            ncols = rep.dims[a.target] - len(pivots)
            if ncols == 0:
                continue
            cond = linalg.mat_mul(
                linalg.mat_mul(src, rep.mats[a.name], rep.dims[a.target], F), qproj, ncols, F
            )
            kern = linalg.left_kernel(cond, ncols, F)
            if len(kern) == len(src):
                continue
            spaces[a.source] = linalg.rref(
                linalg.mat_mul(kern, src, rep.dims[a.source], F), rep.dims[a.source], F
            )[0]
            changed = True
    return spaces


def radical_rows(m: Representation) -> dict[str, list[list]]:
    """Rows spanning the radical MJ at each vertex: all arrow images there."""
    rows: dict[str, list[list]] = {v: [] for v in m.algebra.quiver.vertices}
    for a in m.algebra.quiver.arrows:
        rows[a.target].extend(m.mats[a.name])
    return rows


def structure_parts(m: Representation) -> "StructureParts":
    """Radical, top, and socle of a representation."""
    q = m.algebra.quiver
    F = m.field
    rad_rows = radical_rows(m)
    rad_rep, rad_incl = embed_submodule(m, rad_rows)
    top_rep, top_proj = quotient_by_submodule(m, rad_rows)
    soc_rows = {}
    for v in q.vertices:
        outs = [a for a in q.arrows if a.source == v]
        if not outs:
            soc_rows[v] = linalg.identity(m.dims[v], F)
            continue
        stacked = [sum((list(m.mats[a.name][i]) for a in outs), []) for i in range(m.dims[v])]
        width = sum(m.dims[a.target] for a in outs)
        soc_rows[v] = linalg.left_kernel(stacked, width, F)
    soc_rep, soc_incl = embed_submodule(m, soc_rows)
    return StructureParts(rad_rep, rad_incl, top_rep, top_proj, soc_rep, soc_incl)


@dataclass(frozen=True)
class StructureParts:
    radical: Representation
    radical_inclusion: ModuleMap
    top: Representation
    top_projection: ModuleMap
    socle: Representation
    socle_inclusion: ModuleMap


def hom_basis(m: Representation, n: Representation) -> list[ModuleMap]:
    """A basis of the homomorphism space, by exact intertwiner solving."""
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
    eqs: list[list] = []
    for a in q.arrows:
        v, w = a.source, a.target
        for i in range(m.dims[v]):
            for k in range(n.dims[w]):
                row = [F.zero] * nvars
                for j in range(m.dims[w]):
                    row[offsets[w] + j * n.dims[w] + k] = F.add(
                        row[offsets[w] + j * n.dims[w] + k], m.mats[a.name][i][j]
                    )
                for l in range(n.dims[v]):
                    row[offsets[v] + i * n.dims[v] + l] = F.sub(
                        row[offsets[v] + i * n.dims[v] + l], n.mats[a.name][l][k]
                    )
                if any(not F.is_zero(x) for x in row):
                    eqs.append(row)
    basis = linalg.right_kernel(eqs, nvars, F) if eqs else linalg.identity(nvars, F)
    maps = []
    for vec in basis:
        blocks = {}
        for v in q.vertices:
            block = linalg.zeros(m.dims[v], n.dims[v], F)
            for i in range(m.dims[v]):
                for l in range(n.dims[v]):
                    block[i][l] = vec[offsets[v] + i * n.dims[v] + l]
            blocks[v] = block
        maps.append(ModuleMap(m, n, blocks, validate=False))
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
    """The canonical pieces of a module relative to a heart split."""

    plus_part: Representation
    plus_inclusion: ModuleMap
    quot_by_plus: Representation
    quot_by_plus_map: ModuleMap
    minus_part: Representation
    minus_inclusion: ModuleMap
    quot_by_minus: Representation
    quot_by_minus_map: ModuleMap


def heart_parts(c: Representation, split: IdempotentSplit) -> HeartParts:
    """C plus-part and minus-part for a heart idempotent split.

    The plus part is the largest submodule supported on the plus vertices;
    the minus part is the submodule generated by all components away from
    the minus vertices.
    """
    if split.plus is None or split.minus is None:
        raise InputError("heart split needs plus/minus/zero refinement")
    F = c.field
    plus_rows = largest_submodule_supported(c, split.plus)
    plus_rep, plus_incl = embed_submodule(c, plus_rows)
    qp_rep, qp_map = quotient_by_submodule(c, plus_rows)
    seed = {
        v: linalg.identity(c.dims[v], F)
        for v in c.algebra.quiver.vertices
        if v not in split.minus
    }
    minus_rows = submodule_closure(c, seed)
    minus_rep, minus_incl = embed_submodule(c, minus_rows)
    qm_rep, qm_map = quotient_by_submodule(c, minus_rows)
    return HeartParts(
        plus_rep, plus_incl, qp_rep, qp_map, minus_rep, minus_incl, qm_rep, qm_map
    )


# ---------------------------------------------------------------------------
# change of algebra: inflation along a quotient, restriction to a subquiver


def inflate(m: Representation, big: FiniteDimAlgebra) -> Representation:
    """View a module over a restricted algebra as a module over the ambient one.

    The restricted algebra's quiver must be a full subquiver of the ambient
    quiver (same vertex and arrow names); components off it are zero.  For a
    convex subquiver this is the pullback along the canonical surjection.
    """
    _require_presented(big)
    small_q = m.algebra.quiver
    big_q = big.quiver
    for v in small_q.vertices:
        if v not in big_q.vertex_index:
            raise DanglingIdError(f"vertex {v!r} missing from the ambient quiver")
    dims = {v: m.dims.get(v, 0) for v in big_q.vertices}
    mats = {}
    for a in big_q.arrows:
        if a.name in small_q.arrow_by_name:
            mats[a.name] = m.mats[a.name]
    return Representation(big, dims, mats)


def restrict(m: Representation, small: FiniteDimAlgebra) -> Representation:
    """View a module supported on a full subquiver as a module over its algebra.

    Components off the subquiver must vanish; then the action of the ambient
    ideal's intersection is inherited, so the result is valid by construction
    (still validated here as a cross-check).
    """
    _require_presented(small)
    small_q = small.quiver
    for v in m.support:
        if v not in small_q.vertex_index:
            raise InputError(f"module has support at {v!r} outside the subquiver")
    dims = {v: m.dims[v] for v in small_q.vertices}
    mats = {a.name: m.mats[a.name] for a in small_q.arrows}
    return Representation(small, dims, mats)


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
    op = get_opposite(parent)
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
