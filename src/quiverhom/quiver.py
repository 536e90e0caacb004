"""Directed multigraph calculus for quivers.

A quiver is a finite directed multigraph; loops and parallel arrows are
allowed.  Everything downstream keys off vertex subsets: full subquivers,
the plus/minus/zero boundary split, convexity, strongly connected
components with their condensation, and the homological heart.
The split, convexity, the convex closure and the heart all read one reach
table per quiver, filled from `scc_list` and cached on first use (`_reach`).

Conventions fixed here and relied on everywhere else:

* path length counts arrows, so trivial paths have length 0;
* reachability is inclusive (a vertex reaches itself), but membership in
  the plus/minus boundary parts requires an actual path into or out of the
  subquiver, which is automatic because those parts live outside it;
* deterministic order is declaration order, for vertices and arrows alike.
"""

from __future__ import annotations

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
            if v in seen:
                raise InputError(f"duplicate vertex id {v!r}")
            seen.add(v)
        names = set()
        for a in self.arrows:
            if a.name in names:
                raise InputError(f"duplicate arrow id {a.name!r}")
            names.add(a.name)
            for end in (a.source, a.target):
                if end not in seen:
                    raise DanglingIdError(f"arrow {a.name!r} references unknown vertex {end!r}")

    @staticmethod
    def build(vertices, arrows) -> "Quiver":
        """Arrows may be Arrow objects or (name, source, target) triples."""
        arr = tuple(a if isinstance(a, Arrow) else Arrow(*a) for a in arrows)
        return Quiver(tuple(vertices), arr)

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
        out = frozenset(vs)
        for v in out:
            if v not in self.vertex_index:
                raise DanglingIdError(f"unknown vertex id {v!r}")
        return out

    # -- reachability ------------------------------------------------------

    @cached_property
    def _reach(self) -> tuple[dict[str, frozenset[str]], dict[str, frozenset[str]]]:
        """Per vertex, the vertices it reaches and those reaching it, inclusively.

        Arrows between components run forward in `scc_list` order, so a
        component's row is itself plus the rows past its arrows, and one pass
        each way fills the table (Purdom, "A transitive closure algorithm", 1970).
        """
        down, up = {}, {}
        for comp in reversed(self.scc_list):
            past = [down[a.target] for v in comp for a in self.out_arrows[v] if a.target not in comp]
            down.update(dict.fromkeys(comp, comp.union(*past)))
        for comp in self.scc_list:
            past = [up[a.source] for v in comp for a in self.in_arrows[v] if a.source not in comp]
            up.update(dict.fromkeys(comp, comp.union(*past)))
        return down, up

    def reachable_from(self, starts) -> set[str]:
        """Vertices reachable from the start set, inclusively."""
        return _union_of_rows(self._reach[0], starts)

    def reaching(self, targets) -> set[str]:
        """Vertices from which the target set is reachable, inclusively."""
        return _union_of_rows(self._reach[1], targets)

    # -- subquiver calculus ------------------------------------------------

    def full_subquiver(self, vertex_set) -> "FullSubquiver":
        return FullSubquiver(self, frozenset(vertex_set))

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
        s = frozenset(vertex_set)
        return FullSubquiver(self, frozenset(self.reachable_from(s) & self.reaching(s)))

    # -- components and condensation ----------------------------------------

    @cached_property
    def scc_list(self) -> tuple[frozenset[str], ...]:
        """Strongly connected components in topological order of the condensation.

        Ties are broken by the smallest member's declaration index, so the
        order is deterministic.
        """
        comps = _tarjan(self.vertices, {v: [a.target for a in self.out_arrows[v]] for v in self.vertices})
        comp_of = {}
        for i, comp in enumerate(comps):
            for v in comp:
                comp_of[v] = i
        succ: dict[int, set[int]] = {i: set() for i in range(len(comps))}
        indeg = {i: 0 for i in range(len(comps))}
        for a in self.arrows:
            s, t = comp_of[a.source], comp_of[a.target]
            if s != t and t not in succ[s]:
                succ[s].add(t)
                indeg[t] += 1
        keyfun = lambda i: min(self.vertex_index[v] for v in comps[i])
        ready = sorted((i for i in indeg if indeg[i] == 0), key=keyfun)
        order = []
        while ready:
            i = ready.pop(0)
            order.append(i)
            opened = []
            for j in succ[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    opened.append(j)
            if opened:
                ready = sorted(ready + opened, key=keyfun)
        return tuple(frozenset(comps[i]) for i in order)

    def component_has_arrow(self, comp: frozenset[str]) -> bool:
        return any(a.source in comp and a.target in comp for a in self.arrows)

    def components(self) -> "ComponentsReport":
        comps = self.scc_list
        comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
        flags = tuple(self.component_has_arrow(c) for c in comps)
        names = ["+".join(self.sort_vertices(c)) for c in comps]
        cond_arrows = []
        for a in self.arrows:
            s, t = comp_of[a.source], comp_of[a.target]
            if s != t:
                cond_arrows.append(Arrow(a.name, names[s], names[t]))
        condensation = Quiver(tuple(names), tuple(cond_arrows))
        simple = all(self._is_simple_cycle(c) for c, f in zip(comps, flags) if f)
        return ComponentsReport(comps, flags, condensation, simple)

    def _is_simple_cycle(self, comp: frozenset[str]) -> bool:
        inner = [a for a in self.arrows if a.source in comp and a.target in comp]
        if len(inner) != len(comp):
            return False
        outdeg = {v: 0 for v in comp}
        indeg = {v: 0 for v in comp}
        for a in inner:
            outdeg[a.source] += 1
            indeg[a.target] += 1
        return all(outdeg[v] == 1 and indeg[v] == 1 for v in comp)

    @property
    def is_acyclic(self) -> bool:
        return not any(self.component_has_arrow(c) for c in self.scc_list)

    # -- homological heart ---------------------------------------------------

    def homological_heart(self) -> "HeartProfile":
        cycles = frozenset().union(*[c for c in self.scc_list if self.component_has_arrow(c)])
        heart = self.convex_closure(cycles)
        # t: the complement's vertices are trivial components, in topological order
        longest = {v: 0 for comp in self.scc_list for v in comp if v not in heart.vertex_set}
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
    by joining the member ids with '+'.
    """

    components: tuple[frozenset[str], ...]
    nontrivial_flags: tuple[bool, ...]
    condensation: Quiver
    simple_cycle_type: bool

    @property
    def nontrivial_count(self) -> int:
        return sum(1 for f in self.nontrivial_flags if f)


def _union_of_rows(table: dict[str, frozenset[str]], vs) -> set[str]:
    try:
        return set().union(*[table[v] for v in vs])
    except KeyError as err:
        raise DanglingIdError(f"unknown vertex id {err.args[0]!r}") from None


def _check_parent(q: Quiver, sub: "FullSubquiver") -> None:
    if sub.parent is not q and sub.parent != q:
        raise InputError("subquiver belongs to a different quiver")


def _tarjan(vertices, succ) -> list[list[str]]:
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    onstack: set[str] = set()
    stack: list[str] = []
    out: list[list[str]] = []
    counter = 0
    for root in vertices:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if w in onstack and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    out.reverse()
    return out
