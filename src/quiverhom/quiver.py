"""Directed multigraph calculus for quivers.

A quiver is a finite directed multigraph; loops and parallel arrows are
allowed.  Everything downstream keys off vertex subsets: full subquivers,
the plus/minus/zero boundary split, convexity, strongly connected
components with their condensation, and the homological heart.
Reachability is one walk over the arrows from the given set, and one cached
component pass (Kosaraju's search, whose topological order is not the
first-declared one, then Kahn's sort keyed by first-declared vertex) feeds
the components, acyclicity and the heart's cycles, so every query is linear
in the size of the quiver, in time and in memory.

Conventions fixed here and relied on everywhere else:

* path length counts arrows, so trivial paths have length 0;
* reachability is inclusive (a vertex reaches itself), but membership in
  the plus/minus boundary parts requires an actual path into or out of the
  subquiver, which is automatic because those parts live outside it;
* deterministic order is declaration order, for vertices and arrows alike.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import DanglingIdError, InputError


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        seen = set()
        for v in self.vertices:
            if not isinstance(v, str):
                raise InputError(f"a vertex id is a string, not {v!r}")
            if v in seen:
                raise InputError(f"duplicate vertex id {v!r}")
            seen.add(v)
        names = set()
        for a in self.arrows:
            if not (isinstance(a, Arrow) and isinstance(a.name, str)):
                raise InputError(f"an arrow is an Arrow with a string name, not {a!r}")
            if a.name in names:
                raise InputError(f"duplicate arrow id {a.name!r}")
            names.add(a.name)
            for end in (a.source, a.target):
                if not isinstance(end, str) or end not in seen:
                    raise DanglingIdError(f"arrow {a.name!r} references unknown vertex {end!r}")

    @staticmethod
    def build(vertices, arrows) -> "Quiver":
        """Arrows may be Arrow objects or (name, source, target) tuples or lists."""
        arr = []
        for a in arrows:
            if not isinstance(a, Arrow):
                if not (isinstance(a, (tuple, list)) and len(a) == 3):
                    raise InputError(f"an arrow is an Arrow or a (name, source, target) triple, not {a!r}")
                a = Arrow(*a)
            arr.append(a)
        return Quiver(tuple(_collection(vertices, "the vertices are a collection of vertex ids")), tuple(arr))

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def arrow_by_name(self) -> dict[str, Arrow]:
        return {a.name: a for a in self.arrows}

    @cached_property
    def out_arrows(self) -> dict[str, tuple[Arrow, ...]]:
        out: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            out[a.source].append(a)
        return {v: tuple(lst) for v, lst in out.items()}

    @cached_property
    def in_arrows(self) -> dict[str, tuple[Arrow, ...]]:
        inc: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            inc[a.target].append(a)
        return {v: tuple(lst) for v, lst in inc.items()}

    def sort_vertices(self, vs) -> tuple[str, ...]:
        return tuple(sorted(vs, key=self.vertex_index.__getitem__))

    def check_vertices(self, vs) -> frozenset[str]:
        out = frozenset(_collection(vs))
        unknown = out.difference(self.vertex_index)
        if unknown:
            raise DanglingIdError(f"unknown vertex id {min(unknown, key=repr)!r}")
        return out

    # -- reachability ------------------------------------------------------

    def reachable_from(self, starts) -> set[str]:
        """Vertices reachable from the start set, inclusively."""
        return self._walk(starts, True)

    def reaching(self, targets) -> set[str]:
        """Vertices from which the target set is reachable, inclusively."""
        return self._walk(targets, False)

    def _walk(self, starts, forward: bool) -> set[str]:
        # one walk along the arrows (or against them), each vertex visited once
        arrows_at = self.out_arrows if forward else self.in_arrows
        seen = set(_collection(starts))
        todo = list(seen)
        try:
            while todo:
                for a in arrows_at[todo.pop()]:
                    w = a.target if forward else a.source
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
        except KeyError:
            # only starts can be unknown; the least by repr is named under every hash seed
            raise DanglingIdError(f"unknown vertex id {min(seen.difference(arrows_at), key=repr)!r}") from None
        return seen

    # -- subquiver calculus ------------------------------------------------

    def full_subquiver(self, vertex_set) -> "FullSubquiver":
        return FullSubquiver(self, frozenset(_collection(vertex_set)))

    def boundary_split(self, sub: "FullSubquiver") -> "BoundarySplit":
        _check_parent(self, sub)
        inside = sub.vertex_set
        plus = frozenset(self.reachable_from(inside) - inside)
        minus = frozenset(self.reaching(inside) - inside)
        zero = frozenset(v for v in self.vertices if v not in inside and v not in plus and v not in minus)
        return BoundarySplit(plus, minus, zero)

    def is_convex(self, sub: "FullSubquiver") -> bool:
        _check_parent(self, sub)
        inside = sub.vertex_set
        return self.reachable_from(inside) & self.reaching(inside) == inside

    def convex_closure(self, vertex_set) -> "FullSubquiver":
        s = frozenset(_collection(vertex_set))
        return FullSubquiver(self, frozenset(self.reachable_from(s) & self.reaching(s)))

    # -- components and condensation ----------------------------------------

    @cached_property
    def _scc(self) -> tuple[tuple[frozenset[str], ...], dict[str, int], tuple[int, ...]]:
        """The components in `scc_list` order, each vertex's position in it,
        and the number of arrows inside each component.

        Kosaraju's search finds the components: a forward walk records the
        post-order, and backward walks from its end collect them in a
        topological order, but not the first-declared one.  So one pass over
        the arrows counts the inner arrows and the condensation in-degrees,
        and Kahn's sort then always takes the ready component whose
        first-declared vertex comes first.
        """
        out_arrows, in_arrows = self.out_arrows, self.in_arrows
        post: list[str] = []
        seen: set[str] = set()
        for root in self.vertices:
            if root not in seen:
                seen.add(root)
                work = [(root, iter(out_arrows[root]))]
                while work:
                    v, it = work[-1]
                    for a in it:
                        if a.target not in seen:
                            seen.add(a.target)
                            work.append((a.target, iter(out_arrows[a.target])))
                            break
                    else:
                        work.pop()
                        post.append(v)
        comps: list[list[str]] = []
        comp_of: dict[str, int] = {}
        for root in reversed(post):
            if root not in comp_of:
                comp_of[root] = len(comps)
                comp, todo = [root], [root]
                while todo:
                    for a in in_arrows[todo.pop()]:
                        if a.source not in comp_of:
                            comp_of[a.source] = len(comps)
                            comp.append(a.source)
                            todo.append(a.source)
                comps.append(comp)
        inner = [0] * len(comps)
        indeg = [0] * len(comps)
        succ: list[list[int]] = [[] for _ in comps]
        for a in self.arrows:
            s, t = comp_of[a.source], comp_of[a.target]
            if s == t:
                inner[s] += 1
            else:
                succ[s].append(t)
                indeg[t] += 1
        first = [min(map(self.vertex_index.__getitem__, comp)) for comp in comps]
        ready = [(first[i], i) for i in range(len(comps)) if not indeg[i]]
        heapq.heapify(ready)
        order = []
        while ready:
            i = heapq.heappop(ready)[1]
            order.append(i)
            for j in succ[i]:
                indeg[j] -= 1
                if not indeg[j]:
                    heapq.heappush(ready, (first[j], j))
        ordered = tuple(frozenset(comps[i]) for i in order)
        position = {v: k for k, comp in enumerate(ordered) for v in comp}
        return ordered, position, tuple(inner[i] for i in order)

    @property
    def scc_list(self) -> tuple[frozenset[str], ...]:
        """Strongly connected components in topological order of the condensation.

        Ties are broken by the smallest member's declaration index, so the
        order is deterministic.
        """
        return self._scc[0]

    def components(self) -> "ComponentsReport":
        comps, comp_of, inner = self._scc
        escaped = [[v.replace("\\", "\\\\").replace("+", "\\+") for v in self.sort_vertices(c)] for c in comps]
        names = list(map("+".join, escaped))
        cond_arrows = []
        for a in self.arrows:
            s, t = comp_of[a.source], comp_of[a.target]
            if s != t:
                cond_arrows.append(Arrow(a.name, names[s], names[t]))
        condensation = Quiver(tuple(names), tuple(cond_arrows))
        # a component with an arrow is a simple cycle when it holds as many
        # arrows as vertices, since each vertex has an inner arrow in and out
        simple = all(n == len(c) for c, n in zip(comps, inner) if n)
        return ComponentsReport(comps, tuple(n > 0 for n in inner), condensation, simple)

    @property
    def is_acyclic(self) -> bool:
        return not any(self._scc[2])

    # -- homological heart ---------------------------------------------------

    def homological_heart(self) -> "HeartProfile":
        comps, _, inner = self._scc
        cycles = frozenset().union(*[c for c, n in zip(comps, inner) if n])
        heart = self.convex_closure(cycles)
        # t: the complement's vertices are trivial components, in topological order
        longest = {v: 0 for comp in comps for v in comp if v not in heart.vertex_set}
        for v in longest:
            for a in self.out_arrows[v]:
                if a.target in longest:
                    longest[a.target] = max(longest[a.target], longest[v] + 1)
        return HeartProfile(cycles, heart, max(longest.values(), default=0))

    # -- path enumeration ----------------------------------------------------

    def paths_up_to(self, max_len: int) -> list["Path"]:
        """All paths of length <= max_len, ordered by length, source, then arrows.

        Within each length, paths go by source in vertex declaration order,
        and those from one source lexicographically in arrow declaration
        indices; trivial paths come first.  `path_at` inverts this order.
        """
        out = [Path(v, (), v) for v in self.vertices]
        layer = out[:]
        for _ in range(max_len):
            nxt = []
            for p in layer:
                for a in self.out_arrows[p.target]:
                    nxt.append(Path(p.source, p.arrows + (a.name,), a.target))
            out.extend(nxt)
            layer = nxt
            if not layer:
                break
        return out

    def path_counts(self):
        """Yield {s: {t: number of paths s -> t of length k}} for k = 0, 1, ...

        Lazily, one level per request, sources in declaration order; the walk
        ends after the first empty level, so it is endless only on a cycle.
        """
        out, level = self.out_arrows, {v: {v: 1} for v in self.vertices}
        yield level
        while level:
            longer: dict[str, dict[str, int]] = {}
            for s, ends in level.items():
                row: dict[str, int] = {}
                for t, c in ends.items():
                    for a in out[t]:
                        row[a.target] = row.get(a.target, 0) + c
                if row:
                    longer[s] = row
            level = longer
            yield level

    def path_at(self, levels, source: str, rank: int, target: str | None = None) -> "Path":
        """The path at `rank`, in `paths_up_to` order, of those of length
        len(levels) - 1 from source (and to target, when one is given);
        levels are the first levels of `path_counts`."""
        arrows, v = [], source
        for ends in reversed(levels[:-1]):
            for a in self.out_arrows[v]:
                after = ends.get(a.target, {})
                c = sum(after.values()) if target is None else after.get(target, 0)
                if rank < c:
                    arrows.append(a.name)
                    v = a.target
                    break
                rank -= c
        if len(arrows) < len(levels) - 1 or rank or target not in (None, v):
            raise IndexError(f"rank past the paths of length {len(levels) - 1} from {source!r}")
        return Path(source, tuple(arrows), v)


class Path(NamedTuple):
    """A directed path: source vertex, arrow name sequence, target vertex.
    A named tuple, so Paths hash and compare in C; none is iterated, measured
    with len or mixed with plain tuples as a key."""

    source: str
    arrows: tuple[str, ...]
    target: str

    @property
    def length(self) -> int:
        return len(self.arrows)

    def label(self) -> str:
        if not self.arrows:
            return f"e_{self.source}"
        return "*".join(self.arrows)


@dataclass(frozen=True)
class FullSubquiver:
    """Vertex-subset view of a quiver; the arrow set is always recomputed."""

    parent: Quiver
    vertex_set: frozenset[str]

    def __post_init__(self):
        self.parent.check_vertices(self.vertex_set)

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.parent.sort_vertices(self.vertex_set)

    @property
    def arrows(self) -> tuple[Arrow, ...]:
        return tuple(
            a for a in self.parent.arrows if a.source in self.vertex_set and a.target in self.vertex_set
        )

    @property
    def is_empty(self) -> bool:
        return not self.vertex_set

    def as_quiver(self) -> Quiver:
        return Quiver(self.vertices, self.arrows)

    def complement(self) -> frozenset[str]:
        return frozenset(v for v in self.parent.vertices if v not in self.vertex_set)


@dataclass(frozen=True)
class BoundarySplit:
    """The plus/minus/zero vertex classes outside a full subquiver."""

    plus: frozenset[str]
    minus: frozenset[str]
    zero: frozenset[str]


@dataclass(frozen=True)
class HeartProfile:
    """Cycle vertices X, the heart subquiver on Y, and the complement bound t.

    t is the arrow-length of the longest path avoiding Y, 0 if none.  The
    complement holds no cycle, so `Quiver.scc_list` orders it topologically
    and one pass over that order finds t.
    """

    cycle_vertices: frozenset[str]
    heart: FullSubquiver
    t: int


@dataclass(frozen=True)
class ComponentsReport:
    """Strongly connected components plus their condensation quiver.

    Components are listed in topological order of the condensation; a
    component is nontrivial when it contains at least one arrow (so single
    vertices with a loop count).  The condensation quiver keeps one arrow
    per original arrow joining distinct components and names its vertices
    by joining the member ids, '+' and backslash escaped, with '+'.
    """

    components: tuple[frozenset[str], ...]
    nontrivial_flags: tuple[bool, ...]
    condensation: Quiver
    simple_cycle_type: bool

    @property
    def nontrivial_count(self) -> int:
        return sum(1 for f in self.nontrivial_flags if f)


def _collection(vs, what: str = "a vertex set is a collection of vertex ids"):
    """vs, once it is not a string, which names one id, not a collection of its characters."""
    if isinstance(vs, str):
        raise InputError(f"{what}, not the string {vs!r}")
    return vs


def _check_parent(q: Quiver, sub, refusal: str = "subquiver belongs to a different quiver") -> None:
    """Refuse sub unless it is a FullSubquiver of q, one of another quiver
    with the message `refusal`."""
    if not isinstance(sub, FullSubquiver):
        raise InputError(f"a subquiver is a FullSubquiver from Quiver.full_subquiver, not {type(sub).__name__}")
    if sub.parent is not q and sub.parent != q:
        raise InputError(refusal)
