"""Subquiver calculus against brute-force oracles.

Convexity, boundary classes, closures, components, their order, and the
heart are all recomputed here by edge fixpoints and exhaustive enumeration
on random quivers, so the walks and the component pass in `quiver.py` are
checked against logic that shares no code with them.  Chains and cycles of
20 000 vertices hold every query to linear memory.
"""

import collections
import itertools
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

import quiverhom
from quiverhom import Arrow, DanglingIdError, FullSubquiver, InputError, Quiver
from quiverhom.lab import MAX_ARROWS, MAX_VERTICES
from test_cli import LINE


def random_quiver(rng, max_v=6, max_a=10):
    nv = rng.randint(1, max_v)
    vs = [str(i) for i in range(1, nv + 1)]
    arrows = [
        (f"a{i}", vs[rng.randrange(nv)], vs[rng.randrange(nv)])
        for i in range(rng.randint(0, max_a))
    ]
    return Quiver.build(vs, arrows)


def all_walks(q, max_len):
    """Every directed walk up to max_len as a vertex sequence.

    Exponential in the worst case; callers keep the graphs tiny or acyclic.
    """
    walks = [[v] for v in q.vertices]
    frontier = walks[:]
    for _ in range(max_len):
        nxt = []
        for walk in frontier:
            for a in q.out_arrows[walk[-1]]:
                nxt.append(walk + [a.target])
        walks.extend(nxt)
        frontier = nxt
    return walks


def oracle_reachable(q, start):
    """Vertices hit by a walk of length >= 1 from start, by edge fixpoint."""
    out = set()
    changed = True
    while changed:
        changed = False
        for a in q.arrows:
            if (a.source in start or a.source in out) and a.target not in out:
                out.add(a.target)
                changed = True
    return out


def oracle_convex(q, subset):
    # convex unless some outside vertex sits on a walk joining two insiders
    forward = oracle_reachable(q, subset)
    for x in q.vertices:
        if x in subset:
            continue
        if x in forward and subset & oracle_reachable(q, {x}):
            return False
    return True


def oracle_closure(q, subset):
    """subset plus every vertex on a walk that leaves it and comes back."""
    forward = oracle_reachable(q, subset)
    return frozenset(subset) | {x for x in forward if subset & oracle_reachable(q, {x})}


def oracle_heart(q):
    """The vertices on a cycle, and their closure."""
    cycles = frozenset(v for v in q.vertices if v in oracle_reachable(q, {v}))
    return cycles, oracle_closure(q, cycles)


def lab_scale_cases(seed, count=1000):
    """count random quivers at the suites' scale, each with a random subset.

    Loops, parallel arrows and isolated vertices must each turn up in at
    least a tenth of the quivers, so the oracle comparisons meet all three.
    """
    rng = random.Random(seed)
    cases, seen = [], {"loop": 0, "parallel": 0, "isolated": 0}
    for _ in range(count):
        q = random_quiver(rng, MAX_VERTICES, MAX_ARROWS)
        cases.append((q, frozenset(v for v in q.vertices if rng.random() < 0.5)))
        ends = [(a.source, a.target) for a in q.arrows]
        seen["loop"] += any(s == t for s, t in ends)
        seen["parallel"] += len(set(ends)) < len(ends)
        seen["isolated"] += any(not q.out_arrows[v] and not q.in_arrows[v] for v in q.vertices)
    assert min(seen.values()) >= count // 10, seen
    return cases


def subsets(vs):
    return [frozenset(vs[i] for i in range(len(vs)) if mask >> i & 1) for mask in range(1 << len(vs))]


def test_build_rejects_bad_input():
    with pytest.raises(InputError):
        Quiver.build(["v", "v"], [])
    with pytest.raises(InputError):
        Quiver.build(["v"], [("a", "v", "nope")])
    with pytest.raises(InputError):
        Quiver.build(["v", "w"], [("a", "v", "w"), ("a", "w", "v")])


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Quiver.build(["1"], [("a", "1")]), r"triple, not \('a', '1'\)$"),
        (lambda: Quiver(("1",), (("a", "1", "1"),)), r"string name, not \('a', '1', '1'\)$"),
        (lambda: Quiver.build([1, 2], [("a", 1, 2)]), "^a vertex id is a string, not 1$"),
        (lambda: Quiver.build("12", []), "^the vertices are a collection of vertex ids, not the string '12'$"),
        (lambda: Quiver.build(["1"], ["ab1"]), "triple, not 'ab1'$"),
        (lambda: Quiver.build(["1"], [("a", ["1"], "1")]), r"^arrow 'a' references unknown vertex \['1'\]$"),
        (lambda: Quiver.build(["1"], [Arrow(1, "1", "1")]), "string name, not Arrow"),
    ],
    ids=["short-triple", "tuple-arrow", "int-ids", "string-vertices", "string-arrow", "list-end", "int-name"],
)
def test_a_malformed_quiver_is_an_input_error(make, message):
    with pytest.raises(InputError, match=message):
        make()


UNKNOWN_IDS = """\
import sys
from quiverhom import DanglingIdError, Quiver, cli
q = Quiver.build(["v", "w", "x"], [("alpha", "v", "w"), ("beta", "w", "x")])
for call in (q.reachable_from, q.reaching, q.full_subquiver, q.convex_closure, q.check_vertices):
    try:
        call(["p", "q"])
    except DanglingIdError as err:
        print(err)
cli.main(["convex", sys.argv[1], "--subquiver", "1,2"])
"""


def test_unknown_id_refusals_do_not_hang_on_the_hash_seed(tmp_path):
    # a set yields its members in an order that the hash seed decides
    ws = tmp_path / "line.qh"
    ws.write_text(LINE)
    src = os.path.dirname(os.path.dirname(quiverhom.__file__))
    outputs = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", UNKNOWN_IDS, str(ws)], env=env, capture_output=True, text=True, check=True
        )
        outputs.add((run.stdout, run.stderr))
    assert outputs == {("unknown vertex id 'p'\n" * 5, "error: unknown vertex id '1'\n")}


def test_unknown_vertex_ids_are_refused_and_known_sets_checked_once(cycle_tail_quiver, monkeypatch):
    q = cycle_tail_quiver
    for call in (q.reachable_from, q.reaching, q.full_subquiver, q.convex_closure):
        with pytest.raises(DanglingIdError, match="unknown vertex id 'nope'"):
            call(["1", "nope"])
    # a full subquiver checks its set when made; walking from it does not
    # check it again
    calls = []
    real = Quiver.check_vertices
    monkeypatch.setattr(Quiver, "check_vertices", lambda self, vs: calls.append(vs) or real(self, vs))
    sub = q.full_subquiver({"1", "3"})
    q.boundary_split(sub)
    q.is_convex(sub)
    assert q.reachable_from(sub.vertex_set) == {"1", "2", "3", "4"}
    assert q.reaching(sub.vertex_set) == {"1", "2", "3"}
    assert calls == [{"1", "3"}]
    assert q.convex_closure(sub.vertex_set).vertex_set == {"1", "2", "3"}
    assert q.homological_heart().heart.vertex_set == {"1", "2"}
    assert calls == [{"1", "3"}, {"1", "2", "3"}, {"1", "2"}]


def test_a_string_is_refused_where_a_vertex_set_is_expected(cycle_tail_quiver):
    # "12" names one vertex; read as its characters it would be {"1", "2"}
    q = cycle_tail_quiver
    for call in (q.reachable_from, q.reaching, q.full_subquiver, q.convex_closure, q.check_vertices):
        with pytest.raises(InputError, match="^a vertex set is a collection of vertex ids, not the string '12'$"):
            call("12")
    with pytest.raises(InputError, match="not the string '12'"):
        FullSubquiver(q, "12")


def test_an_unhashable_or_unknown_vertex_id_is_an_input_error(cycle_tail_quiver):
    # the set is built before the walk, so a list inside it is refused as an id
    q = cycle_tail_quiver
    for call in (q.reachable_from, q.reaching, q.full_subquiver, q.convex_closure, q.check_vertices):
        with pytest.raises(InputError, match=r"^a vertex id is a string, not \['1'\]$"):
            call([["1"]])
        with pytest.raises(InputError, match="^a vertex set is a collection of vertex ids, not 5$"):
            call(5)
    with pytest.raises(DanglingIdError, match="^unknown vertex id 'x'$"):
        q.sort_vertices(["x"])
    with pytest.raises(InputError, match=r"^a vertex id is a string, not \['1'\]$"):
        q.sort_vertices([["1"]])
    assert q.sort_vertices({"4", "1", "3"}) == ("1", "3", "4")


def test_a_subquiver_of_another_quiver_is_refused(cycle_tail_quiver, line_quiver):
    other = line_quiver.full_subquiver({"v"})
    # an equal quiver built apart is the same quiver
    twin = Quiver.build(["v", "w", "x"], [("alpha", "v", "w"), ("beta", "w", "x")])
    assert twin.is_convex(other) and twin.boundary_split(other).plus == {"w", "x"}
    for call in (cycle_tail_quiver.boundary_split, cycle_tail_quiver.is_convex):
        with pytest.raises(InputError, match="^subquiver belongs to a different quiver$"):
            call(other)


def test_full_subquiver_collects_inner_arrows(cycle_tail_quiver):
    sub = cycle_tail_quiver.full_subquiver({"1", "2"})
    assert sub.vertices == ("1", "2")
    assert sorted(a.name for a in sub.arrows) == ["a", "b"]
    empty = cycle_tail_quiver.full_subquiver(frozenset())
    assert empty.is_empty and empty.arrows == ()


def test_line_middle_vertex_blocks_convexity(line_quiver):
    sub = line_quiver.full_subquiver({"v", "x"})
    assert not line_quiver.is_convex(sub)
    split = line_quiver.boundary_split(line_quiver.full_subquiver({"w"}))
    assert split.plus == {"x"} and split.minus == {"v"} and not split.zero


def test_boundary_split_on_cycle_tail(cycle_tail_quiver):
    split = cycle_tail_quiver.boundary_split(cycle_tail_quiver.full_subquiver({"1", "2"}))
    assert split.plus == {"3", "4"}
    assert split.minus == frozenset()
    assert split.zero == frozenset()


def test_convexity_matches_walk_oracle():
    for q, subset in lab_scale_cases(100):
        closure = q.convex_closure(subset).vertex_set
        assert closure == oracle_closure(q, subset)
        assert q.is_convex(q.full_subquiver(subset)) == oracle_convex(q, subset)
        assert q.is_convex(q.full_subquiver(closure)) and oracle_convex(q, closure)


def test_boundary_split_matches_reachability_oracle():
    for q, subset in lab_scale_cases(101):
        split = q.boundary_split(q.full_subquiver(subset))
        reach_out = oracle_reachable(q, subset)
        reach_in = {
            v
            for v in q.vertices
            if v not in subset and subset & oracle_reachable(q, {v})
        }
        outside = set(q.vertices) - subset
        assert split.plus == frozenset((reach_out - subset) & outside)
        assert split.minus == frozenset(reach_in)
        assert split.zero == outside - split.plus - split.minus


def test_convex_closure_is_minimal_by_enumeration():
    rng = random.Random(102)
    for _ in range(200):
        q = random_quiver(rng, max_v=MAX_VERTICES, max_a=MAX_ARROWS)
        subset = frozenset(v for v in q.vertices if rng.random() < 0.4)
        closure = q.convex_closure(subset).vertex_set
        assert subset <= closure
        assert oracle_convex(q, closure)
        for cand in subsets(q.vertices):
            if subset <= cand and oracle_convex(q, cand):
                assert closure <= cand


def test_components_against_mutual_reachability_oracle():
    rng = random.Random(103)
    for _ in range(120):
        q = random_quiver(rng)
        rep = q.components()
        comp_of = {}
        for i, comp in enumerate(rep.components):
            for v in comp:
                comp_of[v] = i
        for u in q.vertices:
            for v in q.vertices:
                mutual = (
                    u == v
                    or (v in oracle_reachable(q, {u}) and u in oracle_reachable(q, {v}))
                )
                assert (comp_of[u] == comp_of[v]) == mutual
        # condensation must have no cycles and respect component order
        assert rep.condensation.is_acyclic
        flat = [v for comp in rep.components for v in comp]
        assert sorted(flat) == sorted(q.vertices)
        # a component with an arrow is a simple cycle when each member has
        # exactly one arrow in and one arrow out inside it
        inner = [[a for a in q.arrows if a.source in c and a.target in c] for c in rep.components]
        assert rep.nontrivial_flags == tuple(bool(arrows) for arrows in inner)
        assert q.is_acyclic == (not any(inner))
        degrees = [sorted(a.source for a in arrows) + sorted(a.target for a in arrows) for arrows in inner]
        simple = all(d == sorted(c) * 2 for c, d in zip(rep.components, degrees) if d)
        assert rep.simple_cycle_type == simple


def oracle_scc_list(q):
    """Components by mutual reach, each time taking the ready component (no
    arrow into it from those left) whose first-declared vertex comes first."""
    left = []
    for v in q.vertices:
        if not any(v in comp for comp in left):
            left.append({v} | {u for u in oracle_reachable(q, {v}) if v in oracle_reachable(q, {u})})
    order = []
    while left:
        remaining = set().union(*left)
        ready = [c for c in left if not any(a.target in c and a.source in remaining - c for a in q.arrows)]
        first = min(ready, key=lambda c: min(q.vertices.index(v) for v in c))
        order.append(frozenset(first))
        left.remove(first)
    return order


def test_scc_list_order_matches_oracle():
    # Kosaraju's search alone lists {3}, {2}, {1} here
    q = Quiver.build(["1", "2", "3"], [("a", "3", "2")])
    assert list(q.scc_list) == [{"1"}, {"3"}, {"2"}] == oracle_scc_list(q)
    for q, _ in lab_scale_cases(107):
        assert list(q.scc_list) == oracle_scc_list(q)


def component_outputs(q):
    """What the component pass feeds: scc_list, components() and the heart."""
    rep, hp = q.components(), q.homological_heart()
    cond = rep.condensation
    return (
        q.scc_list,
        (rep.components, rep.nontrivial_flags, rep.simple_cycle_type, cond.vertices),
        collections.Counter(cond.arrows),
        (hp.cycle_vertices, hp.heart.vertex_set, hp.t),
    )


def test_arrow_order_cannot_reach_the_component_order():
    # the search's post-order follows the arrow order; nothing it feeds may
    rng = random.Random(108)
    quivers = [q for q, _ in lab_scale_cases(108, 300)]
    quivers += [random_quiver(rng, max_v=5, max_a=12) for _ in range(300)]
    ends = [[(a.source, a.target) for a in q.arrows] for q in quivers]
    assert sum(any(s == t for s, t in e) for e in ends) >= 100
    assert sum(len(set(e)) < len(e) for e in ends) >= 100
    for q in quivers:
        want = component_outputs(q)
        for _ in range(3):
            arrows = list(q.arrows)
            rng.shuffle(arrows)
            assert component_outputs(Quiver(q.vertices, tuple(arrows))) == want


def test_heart_is_smallest_convex_superset_of_cycles():
    for q, _ in lab_scale_cases(104):
        hp = q.homological_heart()
        assert (hp.cycle_vertices, hp.heart.vertex_set) == oracle_heart(q)
    rng = random.Random(104)
    for _ in range(200):
        q = random_quiver(rng, max_v=MAX_VERTICES, max_a=MAX_ARROWS)
        hp = q.homological_heart()
        rep = q.components()
        cycles = set()
        for comp, flag in zip(rep.components, rep.nontrivial_flags):
            if flag:
                cycles |= comp
        assert cycles <= hp.heart.vertex_set
        assert oracle_convex(q, hp.heart.vertex_set)
        for cand in subsets(q.vertices):
            if cycles <= cand and oracle_convex(q, cand):
                assert hp.heart.vertex_set <= cand


def scale_quiver(n, closed):
    """A chain of n vertices, closed into one cycle when asked."""
    vs = [str(i) for i in range(n)]
    arrows = [(f"a{i}", vs[i], vs[i + 1]) for i in range(n - 1)]
    return Quiver.build(vs, arrows + [("back", vs[-1], vs[0])] * closed)


def peak_mb(call, *args):
    """call(*args) and the peak memory it held, in MB, by tracemalloc."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("closed", [False, True], ids=["chain", "cycle"])
def test_queries_stay_linear_at_scale(closed):
    # a table per vertex would need n^2 entries: gigabytes here
    n = 20_000
    mid = str(n // 2)
    queries = {
        "homological_heart": lambda q: q.homological_heart(),
        "components": lambda q: q.components(),
        "boundary_split": lambda q: q.boundary_split(q.full_subquiver({mid})),
        "convex_closure": lambda q: q.convex_closure({"0", str(n - 1)}),
        "is_acyclic": lambda q: q.is_acyclic,
    }
    got = {}
    for name, query in queries.items():
        got[name], peak = peak_mb(query, scale_quiver(n, closed))
        assert peak < 64, (name, peak)
    hp, rep, split = got["homological_heart"], got["components"], got["boundary_split"]
    assert got["convex_closure"].vertex_set == set(scale_quiver(n, closed).vertices)
    assert got["is_acyclic"] is not closed
    if closed:
        assert len(hp.heart.vertex_set) == len(hp.cycle_vertices) == n and hp.t == 0
        assert rep.nontrivial_flags == (True,) and rep.simple_cycle_type
        assert len(split.plus) == len(split.minus) == n - 1 and not split.zero
    else:
        assert hp.heart.is_empty and hp.t == n - 1
        assert [min(c) for c in rep.components] == [str(i) for i in range(n)]
        assert rep.nontrivial_count == 0 and len(rep.condensation.arrows) == n - 1
        assert split.plus == {str(i) for i in range(n // 2 + 1, n)}
        assert split.minus == {str(i) for i in range(n // 2)} and not split.zero


def test_heart_profiles_of_fixed_quivers(line_quiver, cycle_tail_quiver, two_cycles_quiver):
    assert line_quiver.homological_heart().heart.is_empty
    hp2 = cycle_tail_quiver.homological_heart()
    assert hp2.heart.vertices == ("1", "2")
    assert hp2.t == 1
    hp3 = two_cycles_quiver.homological_heart()
    assert hp3.heart.vertices == ("1", "2", "3", "4")
    assert hp3.t == 0


def test_complement_path_bound_by_enumeration():
    rng = random.Random(105)
    for _ in range(80):
        q = random_quiver(rng, max_v=5, max_a=7)
        hp = q.homological_heart()
        # an empty heart leaves the whole quiver, which is then acyclic
        comp = q.full_subquiver(hp.heart.complement()).as_quiver()
        longest = 0
        for walk in all_walks(comp, len(comp.vertices)):
            longest = max(longest, len(walk) - 1)
        assert hp.t == longest


def test_component_reports_on_fixtures(cycle_tail_quiver, two_cycles_quiver, line_quiver):
    rep2 = cycle_tail_quiver.components()
    assert rep2.components[0] == frozenset({"1", "2"})
    assert rep2.nontrivial_flags[0] and rep2.nontrivial_count == 1
    assert rep2.simple_cycle_type
    rep3 = two_cycles_quiver.components()
    assert [sorted(c) for c in rep3.components] == [["1", "2"], ["3", "4"]]
    assert rep3.nontrivial_count == 2
    assert len(rep3.condensation.arrows) == 1
    rep1 = line_quiver.components()
    assert rep1.nontrivial_count == 0
    assert len(rep1.condensation.arrows) == len(line_quiver.arrows)


def test_paths_up_to_enumerates_walk_counts():
    rng = random.Random(106)
    for _ in range(60):
        q = random_quiver(rng, max_v=4, max_a=6)
        for k in range(4):
            npaths = sum(1 for p in q.paths_up_to(k))
            nwalks = len(all_walks(q, k))
            assert npaths == nwalks


def test_paths_up_to_orders_by_source_before_arrows():
    # a1 is declared first, but a2 leaves the first-declared vertex
    q = Quiver.build(["1", "2"], [("a1", "2", "1"), ("a2", "1", "2")])
    assert [p.arrows for p in q.paths_up_to(1) if p.length == 1] == [("a2",), ("a1",)]
    assert [p.arrows for p in q.paths_up_to(2) if p.length == 2] == [("a2", "a1"), ("a1", "a2")]


def test_path_at_inverts_paths_up_to_order():
    rng = random.Random(118)
    for _ in range(40):
        q = random_quiver(rng, max_v=MAX_VERTICES, max_a=MAX_ARROWS)
        listed = q.paths_up_to(4)
        levels = list(itertools.islice(q.path_counts(), 5))
        for k, level in enumerate(levels):
            for s in q.vertices:
                from_s = [p for p in listed if p.length == k and p.source == s]
                assert sum(level.get(s, {}).values()) == len(from_s)
                assert [q.path_at(levels[: k + 1], s, r) for r in range(len(from_s))] == from_s
                with pytest.raises(IndexError):
                    q.path_at(levels[: k + 1], s, len(from_s))
                for t in q.vertices:
                    to_t = [p for p in from_s if p.target == t]
                    assert level.get(s, {}).get(t, 0) == len(to_t)
                    assert [q.path_at(levels[: k + 1], s, r, t) for r in range(len(to_t))] == to_t
                    with pytest.raises(IndexError):
                        q.path_at(levels[: k + 1], s, len(to_t), t)


def test_path_counts_end_after_the_first_empty_level():
    line = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    assert list(line.path_counts()) == [
        {"1": {"1": 1}, "2": {"2": 1}, "3": {"3": 1}},
        {"1": {"2": 1}, "2": {"3": 1}},
        {"1": {"3": 1}},
        {},
    ]
    assert list(Quiver.build([], []).path_counts()) == [{}]
    # on a cycle the walk is endless, and lazy
    loop = Quiver.build(["1"], [("a", "1", "1"), ("b", "1", "1")])
    assert [level["1"]["1"] for level in itertools.islice(loop.path_counts(), 40)][-1] == 2**39
