"""Randomized verification suites and the block decomposition pipeline.

The suites must be deterministic in their master seed: the same seed gives a
byte-identical report, and generated instances respect the documented size
caps.  Decomposition is pinned against the three fixtures.
"""

import inspect
import json
import random
import re
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quiverhom.algebra as algebra
import quiverhom.homology as homology
import quiverhom.lab as lab
import quiverhom.modules as modules
from quiverhom import (
    build_algebra,
    DecompositionNode,
    DecompositionTree,
    IdealSpec,
    InputError,
    InstanceSpec,
    PrimeField,
    QQ,
    Quiver,
    SuiteReport,
    Witness,
    cli,
    corner_algebra,
    decompose,
    ext_dims,
    gen_instance,
    resolution,
    standard_module,
    verify_convex_epi,
    verify_ext_cross,
    verify_heart_theorem,
    verify_subquiver_calculus,
)
from quiverhom.homology import SyzygyTable, projective_cover_and_syzygy
from quiverhom.lab import ALGEBRA_DIM_CAP, Block, _gen_ideal, _gen_module, _gen_quiver, _widths_ok

from test_cli import CYCLE_TAIL


def test_gen_instance_is_deterministic_and_bounded():
    spec = InstanceSpec(seed=77)
    q1, i1, mods1 = gen_instance(spec)
    q2, i2, mods2 = gen_instance(spec)
    assert q1 == q2 and i1 == i2
    assert [m.dims for m in mods1] == [m.dims for m in mods2]
    # the dimension cap is an admission rule, enforced per suite case
    assert ALGEBRA_DIM_CAP == 40
    for s in range(20):
        q, ideal, mods = gen_instance(InstanceSpec(seed=s))
        assert len(q.vertices) <= 8
        assert len(q.arrows) <= 12
        for m in mods:
            m.validate()
            assert m.total_dim <= 12


def test_distinct_seeds_vary():
    dims = {
        build_algebra(*gen_instance(InstanceSpec(seed=s))[:2], QQ).dim
        for s in range(12)
    }
    assert len(dims) > 1


def test_subquiver_suite_small_run():
    report = verify_subquiver_calculus(InstanceSpec(seed=3), cases=40)
    assert report.all_passed
    assert report.attempted == 40 and report.passed == 40
    assert report.suite == "subquiver-calculus"


def test_heart_closure_check_catches_a_fault_in_the_component_pass(monkeypatch):
    # loops counted as no inner arrow: the heart, the flags and acyclicity all
    # read the same pass, so only the closure of the cycles that walks find
    # tells the heart is wrong
    real = Quiver.__dict__["_scc"].func

    def loops_uncounted(q):
        comps, comp_of, inner = real(q)
        return comps, comp_of, tuple(0 if len(c) == 1 else n for c, n in zip(comps, inner))

    monkeypatch.setattr(Quiver, "_scc", property(loops_uncounted))
    report = verify_subquiver_calculus(InstanceSpec(seed=1), cases=20)
    assert report.witnesses
    assert {w.check_id for w in report.witnesses} == {"heart_is_cycle_closure"}


def test_convex_epi_suite_small_run():
    report = verify_convex_epi(InstanceSpec(seed=4), cases=12, cutoff=3)
    assert report.all_passed
    assert report.attempted == 12


def test_heart_suite_small_run():
    report = verify_heart_theorem(InstanceSpec(seed=5), cases=8)
    assert report.all_passed


def test_ext_cross_suite_small_run():
    report = verify_ext_cross(InstanceSpec(seed=6), cases=8, cutoff=2)
    assert report.all_passed


def test_small_subquiver_and_epi_runs_pass():
    report = verify_subquiver_calculus(
        InstanceSpec(seed=9), cases=15
    )
    assert report.all_passed
    epi = verify_convex_epi(InstanceSpec(seed=9), cases=6, cutoff=2)
    assert epi.all_passed


@pytest.mark.parametrize(
    "suite, kwargs, what",
    [
        (verify_ext_cross, {"cases": 2.5}, "case count"),
        (verify_subquiver_calculus, {"cases": True}, "case count"),
        (verify_convex_epi, {"cases": "1"}, "case count"),
        (verify_convex_epi, {"cases": 1, "cutoff": "3"}, "epi suite cutoff"),
        (verify_heart_theorem, {"cases": 1, "cutoff": 7.0}, "heart suite cutoff"),
        (verify_ext_cross, {"cases": 1, "cutoff": True}, "ext-cross suite cutoff"),
    ],
)
def test_a_case_count_or_cutoff_that_is_not_an_int_is_refused_before_any_case(
    suite, kwargs, what
):
    # cases=2.5 and cutoff="3" used to raise TypeError, cases=True ran one case
    bad = kwargs.get("cutoff", kwargs["cases"])
    with mock.patch.object(lab, "_admit", side_effect=AssertionError("a case was drawn")):
        with pytest.raises(InputError, match=f"^{what} must be an int, got {bad!r}$"):
            suite(InstanceSpec(seed=1), **kwargs)


@pytest.mark.parametrize("seed", ["1", None, 2.5, True])
def test_a_seed_that_is_not_an_int_is_refused(seed):
    # "1" and None used to raise TypeError deep in the seed derivation, while
    # 2.5 and True ran and were reported as the master seed
    message = f"^seed must be an int, got {re.escape(repr(seed))}$"
    with pytest.raises(InputError, match=message):
        verify_ext_cross(InstanceSpec(seed), cases=1)
    with pytest.raises(InputError, match=message):
        gen_instance(InstanceSpec(seed=seed))


def test_reports_render_identically_for_same_seed():
    a = verify_subquiver_calculus(InstanceSpec(seed=11), cases=30).render()
    b = verify_subquiver_calculus(InstanceSpec(seed=11), cases=30).render()
    assert a == b
    c = verify_heart_theorem(InstanceSpec(seed=11), cases=5).render()
    d = verify_heart_theorem(InstanceSpec(seed=11), cases=5).render()
    assert c == d


def test_render_layout_and_failure_lines():
    report = SuiteReport(
        suite="demo",
        master_seed=42,
        attempted=2,
        passed=1,
        witnesses=(
            Witness(seed=9, check_id="beta", observed="1", expected="2"),
            Witness(seed=9, check_id="alpha", observed="0", expected="3"),
        ),
    )
    text = report.render()
    lines = text.splitlines()
    assert lines[0] == "suite demo"
    assert lines[1] == "seed 42"
    assert lines[2] == "cases 2"
    assert lines[3] == "passed 1"
    assert lines[4] == "failures 2"
    assert "check=beta" in lines[5] and "check=alpha" in lines[6]
    assert not report.all_passed
    ok = SuiteReport("demo", 42, 2, 2, ())
    assert ok.all_passed and "failures 0" in ok.render()


def test_decompose_line_is_acyclic_leaf(line_quiver, line_ideal):
    tree = decompose(build_algebra(line_quiver, line_ideal, QQ))
    assert isinstance(tree, DecompositionTree)
    assert tree.splits == 0
    assert tree.blocks == ()
    assert [node.kind for node in tree.nodes] == ["acyclic"]
    text = tree.render()
    assert "acyclic" in text and "split" not in text


def test_decompose_cycle_tail(cycle_tail_quiver, cycle_tail_ideal):
    tree = decompose(build_algebra(cycle_tail_quiver, cycle_tail_ideal, QQ))
    assert tree.splits == 1
    assert len(tree.blocks) == 1
    block = tree.blocks[0]
    assert block.vertices == ("1", "2")
    assert block.dim == 4
    assert block.simple_cycle
    assert [node.kind for node in tree.nodes] == ["split", "acyclic"]
    assert tree.nodes[0].eprime_e_dim == 0
    text = tree.render()
    assert "simple_cycle=yes" in text and "eprime_e=0" in text


def test_decompose_two_cycles(two_cycles_quiver, two_cycles_ideal):
    tree = decompose(build_algebra(two_cycles_quiver, two_cycles_ideal, QQ))
    assert tree.splits == 2
    assert [b.vertices for b in tree.blocks] == [("1", "2"), ("3", "4")]
    assert all(b.dim == 4 and b.simple_cycle for b in tree.blocks)
    # final stage is an acyclic leaf on whatever remains
    assert [node.kind for node in tree.nodes] == ["split", "split", "acyclic"]


def test_decompose_tells_simple_cycle_blocks_from_others():
    # parallel arrows in the 2-cycle make it no simple cycle; one loop is one
    q = Quiver.build(
        ["1", "2", "3"],
        [("a", "1", "2"), ("c", "1", "2"), ("b", "2", "1"), ("d", "2", "3"), ("l", "3", "3")],
    )
    tree = decompose(build_algebra(q, IdealSpec.zero(2), QQ))
    assert tree.blocks == (Block(("1", "2"), 5, False), Block(("3",), 2, True))


def test_decompose_where_a_vertex_id_holds_a_plus():
    # the 2-cycle on 1 and 2 is one component, the vertex 1+2 another
    q = Quiver.build(["1", "2", "1+2"], [("a", "1", "2"), ("b", "2", "1"), ("c", "2", "1+2")])
    tree = decompose(build_algebra(q, IdealSpec.zero(3), QQ))
    assert tree.blocks == (Block(("1", "2"), 6, True),)
    assert tree.nodes[0].heart_vertices == ("1", "2") and tree.nodes[1].kind == "acyclic"


def test_decompose_over_prime_field(two_cycles_quiver, two_cycles_ideal):
    tree = decompose(build_algebra(two_cycles_quiver, two_cycles_ideal, PrimeField(7)))
    assert tree.splits == 2
    assert [b.dim for b in tree.blocks] == [4, 4]


def test_decompose_renders_block_dims(cycle_tail_quiver, cycle_tail_ideal):
    text = decompose(build_algebra(cycle_tail_quiver, cycle_tail_ideal, QQ)).render()
    assert "block_dim=4" in text
    assert "heart=1,2" in text


def test_decompose_of_a_table_backed_algebra_is_input_error(cycle_tail_algebra):
    # even one without cycles: its leaf would need a quiver
    sub = cycle_tail_algebra.quiver.full_subquiver({"3", "4"})
    corner = corner_algebra(cycle_tail_algebra, sub)
    with pytest.raises(InputError, match="needs a presented algebra"):
        decompose(corner)


def test_decompose_a_long_chain_of_blocks_takes_no_stack_per_block():
    """400 loops along a line are 400 blocks; the decomposition, and the repr,
    == and hash of its tree and of its root, run with the recursion limit 60
    frames above the caller's depth."""
    vs = [str(i) for i in range(1, 401)]
    arrows = [(f"l{v}", v, v) for v in vs] + [(f"a{v}", v, w) for v, w in zip(vs, vs[1:])]
    alg = build_algebra(Quiver.build(vs, arrows), IdealSpec.zero(2), QQ)
    twin = decompose(alg)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        tree = decompose(alg)
        for x, y in ((tree, twin), (tree.nodes[0], twin.nodes[0])):
            assert x is not y and x == y and hash(x) == hash(y) and repr(x) == repr(y)
    finally:
        sys.setrecursionlimit(limit)
    assert tree.splits == 400 and tree.blocks == tuple(Block((v,), 2, True) for v in vs)
    assert tree.render().splitlines()[-1] == "  " * 400 + "acyclic vertices=-"


def test_decompose_refuses_a_chain_past_the_work_budget_at_once():
    """1 001 loops along a line are 1 001 blocks, and each of their nodes
    lists up to 1 001 vertices: one past MAX_WORK, so no stage is taken."""
    vs = [str(i) for i in range(1, 1002)]
    arrows = [(f"l{v}", v, v) for v in vs] + [(f"a{v}", v, w) for v, w in zip(vs, vs[1:])]
    alg = build_algebra(Quiver.build(vs, arrows), IdealSpec.zero(2), QQ)
    heart = mock.Mock(side_effect=AssertionError("a stage was taken"))
    t0 = time.perf_counter()
    with mock.patch.object(Quiver, "homological_heart", heart), pytest.raises(InputError) as exc:
        decompose(alg)
    assert time.perf_counter() - t0 < 1.0
    assert str(exc.value) == "decompose: 1001 blocks x 1001 vertices exceed 1000000 units of work"


def test_decompose_budget_counts_nontrivial_components_times_vertices(monkeypatch):
    # three loops and a tail vertex: 3 blocks x 4 vertices = 12 units
    q = Quiver.build(["1", "2", "3", "4"], [(f"l{v}", v, v) for v in "123"] + [("a", "3", "4")])
    alg = build_algebra(q, IdealSpec.zero(2), QQ)
    monkeypatch.setattr(lab, "MAX_WORK", 12)
    assert decompose(alg).splits == 3
    monkeypatch.setattr(lab, "MAX_WORK", 11)
    with pytest.raises(InputError, match="3 blocks x 4 vertices exceed 11 units"):
        decompose(alg)


def _decompose_stage_by_stage(alg):
    """The nodes and rendered text of the decomposition built one algebra per
    stage: the restricted heart algebra, its triangular blocks at the first
    component, and the restricted algebra of the rest."""
    nodes, lines = [], []
    while not (q := alg.quiver).is_acyclic:
        hp = q.homological_heart()
        heart_alg = algebra.restricted_algebra(alg, hp.heart)
        hq = heart_alg.quiver
        source = hq.components().components[0]
        sub = hq.full_subquiver(source)
        tb = algebra.triangular_blocks(heart_alg, sub)
        b = Block(hq.sort_vertices(source), tb.dim_ee, len(sub.arrows) == len(source))
        nodes.append(DecompositionNode("split", q.vertices, hp.heart.vertices, hp.t, b, tb.dim_eprime_e))
        lines.append(
            f"{'  ' * len(lines)}split vertices={','.join(q.vertices)} heart={','.join(hp.heart.vertices)} "
            f"t={hp.t} block={','.join(b.vertices)} block_dim={b.dim} "
            f"simple_cycle={'yes' if b.simple_cycle else 'no'} eprime_e={tb.dim_eprime_e}"
        )
        alg = algebra.restricted_algebra(heart_alg, hq.full_subquiver(hp.heart.vertex_set - source))
    nodes.append(DecompositionNode("acyclic", q.vertices))
    lines.append(f"{'  ' * len(lines)}acyclic vertices={','.join(q.vertices) or '-'}")
    return nodes, "\n".join(lines) + "\n"


@pytest.mark.parametrize("F", [QQ, PrimeField(2), PrimeField(5)], ids=["QQ", "GF2", "GF5"])
def test_decompose_matches_an_algebra_per_stage(F):
    """Drawn quivers with loops added at half or more of their vertices, so
    that most cases peel 3 or more blocks; every node and the rendered text
    agree with the stage-by-stage construction."""
    rng = random.Random(40)
    deep = 0
    for _ in range(150):
        q = _gen_quiver(rng, 10, 10)
        looped = rng.sample(q.vertices, rng.randint(len(q.vertices) // 2, len(q.vertices)))
        q = Quiver.build(q.vertices, q.arrows + tuple((f"l{v}", v, v) for v in looped))
        alg = build_algebra(q, _gen_ideal(rng, q, "mixed"), F)
        tree = decompose(alg)
        assert (list(tree.nodes), tree.render()) == _decompose_stage_by_stage(alg)
        deep += tree.splits >= 3
    assert deep > 75


def test_no_relation_span_is_built_twice(monkeypatch, tmp_path):
    # every derived algebra reads the span of the algebra it is derived from
    built = []
    init = algebra._RelationSpan.__init__

    def recording_init(self, q, ideal, field):
        built.append((q, ideal, field))
        init(self, q, ideal, field)

    monkeypatch.setattr(algebra._RelationSpan, "__init__", recording_init)
    isos = mock.Mock(wraps=lab.verify_convex_isos)
    pair = mock.Mock(wraps=lab.heart_shift_pair)
    monkeypatch.setattr(lab, "verify_convex_isos", isos)
    monkeypatch.setattr(lab, "heart_shift_pair", pair)
    per_stage = {name: mock.Mock(wraps=getattr(lab, name)) for name in ("restricted_algebra", "triangular_blocks")}
    for name, wrapped in per_stage.items():
        monkeypatch.setattr(lab, name, wrapped)
    per_stage["components"] = mock.Mock(wraps=Quiver.components)
    monkeypatch.setattr(Quiver, "components", lambda q: per_stage["components"](q))
    ws = tmp_path / "cycle_tail.qh"
    ws.write_text(CYCLE_TAIL)
    spec = InstanceSpec(seed=1)
    runs = {
        # seed 1 epi case 1 has an empty minus class, heart case 0 a nonempty
        # heart, case 33 one that is the whole quiver, and case 2 an empty one
        "epi": lambda: lab._epi_case(spec, 1, 6),
        "heart": lambda: lab._heart_case(spec, 0, None),
        "whole heart": lambda: lab._heart_case(spec, 33, None),
        "acyclic heart": lambda: lab._heart_case(spec, 2, None),
        "cli decompose": lambda: cli.main(["decompose", str(ws)]),
        "cli algebra": lambda: cli.main(["algebra", str(ws), "--subquiver", "1,2"]),
    }
    empty = {}
    for name, run in runs.items():
        built.clear()
        for wrapped in per_stage.values():
            wrapped.reset_mock()
        assert not run(), name
        assert len(set(built)) == len(built) > 0, name
        empty[name] = any(not q.vertices for q, _, _ in built)
        if name == "cli decompose":
            # decompose counts the workspace algebra's basis and builds no algebra per stage;
            # it counts the components of the whole quiver once, for its work bound, and no stage's
            assert len(built) == 1 and built[0][0].vertices == ("1", "2", "3", "4")
            assert [c.args[0].vertices for c in per_stage["components"].call_args_list] == [("1", "2", "3", "4")]
            assert not per_stage["restricted_algebra"].called and not per_stage["triangular_blocks"].called
    assert isos.call_count == 1 and pair.call_count == 2
    # the acyclic case reads the algebra of its empty heart
    assert empty == {name: name == "acyclic heart" for name in runs}


# ---------------------------------------------------------------------------
# admission pins

GOLDEN = Path(__file__).parent / "golden" / "admitted_seed1.json"
PINNED_SUITES = (("epi", verify_convex_epi, 40), ("heart", verify_heart_theorem, 20),
                 ("ext-cross", verify_ext_cross, 20))


def admitted_rows(monkeypatch) -> list[list]:
    """[suite, case index, attempts, admitted seed, dim of the algebra] per case.

    Attempts are the calls of lab's build_algebra during the case; the seed
    and the algebra are what the admission loop returned.
    """
    rows, attempts = [], []
    build, admit = lab.build_algebra, lab._admit

    def counting_build(q, ideal, field):
        attempts.append(ideal)
        return build(q, ideal, field)

    def recording_admit(spec, idx, kind, draw):
        attempts.clear()
        seed, lam, drawn = admit(spec, idx, kind, draw)
        rows.append([kind, idx, len(attempts), seed, lam.dim])
        return seed, lam, drawn

    monkeypatch.setattr(lab, "build_algebra", counting_build)
    monkeypatch.setattr(lab, "_admit", recording_admit)
    for _, verify, cases in PINNED_SUITES:
        assert verify(InstanceSpec(seed=1), cases=cases).all_passed
    return rows


def test_admissions_match_golden(monkeypatch):
    # the golden rows were written by admitted_rows before the admission gate
    # decided from dimension counts; any drift in instance selection shows here
    assert admitted_rows(monkeypatch) == json.loads(GOLDEN.read_text())


def test_no_span_is_built_for_an_attempt_the_floor_settles(monkeypatch):
    built, attempts = [], []
    init, build = algebra._RelationSpan.__init__, lab.build_algebra

    def recording_init(self, q, ideal, field):
        built.append((q, ideal))
        init(self, q, ideal, field)

    def recording_build(q, ideal, field):
        attempts.append(build(q, ideal, field))
        return attempts[-1]

    monkeypatch.setattr(algebra._RelationSpan, "__init__", recording_init)
    monkeypatch.setattr(lab, "build_algebra", recording_build)
    for _, verify, cases in PINNED_SUITES:
        assert verify(InstanceSpec(seed=1), cases=cases).all_passed
    settled = [alg for alg in attempts if alg.dim_floor > ALGEBRA_DIM_CAP]
    assert settled and not any((alg.quiver, alg.ideal) in built for alg in settled)
    # at this scale the floor settles every over-cap attempt
    assert len(settled) == sum(alg.dim > ALGEBRA_DIM_CAP for alg in attempts)


def lab_draws(count: int):
    """The (quiver, ideal) of the first count attempts of _admit at seed 1,
    cases in turn: large quivers, then small ones after half the attempts."""
    for k in range(count):
        idx, attempt = divmod(k, lab.MAX_ATTEMPTS)
        rng = random.Random(lab._derive(1, idx, attempt))
        small = attempt >= lab.MAX_ATTEMPTS // 2
        q = _gen_quiver(rng, 3 if small else lab.MAX_VERTICES, 4 if small else lab.MAX_ARROWS)
        yield q, _gen_ideal(rng, q, lab.RELATION_STYLE)


def listing_gen_ideal(rng, q, style, paths_up_to):
    """The relation draw as it was written before it read path counts: the
    pool is listed, and the mates of a two-term relation are scanned for."""
    n = rng.randint(3, lab.TRUNCATION_BOUND)
    pool = [p for p in paths_up_to(q, n - 1) if p.length >= 2]
    rels = []
    if pool:
        for _ in range(rng.randint(0, 3)):
            p = pool[rng.randrange(len(pool))]
            if style == "mixed" and rng.random() < 0.5:
                mates = [c for c in pool if c.source == p.source and c.target == p.target and c != p]
                if mates:
                    mate = mates[rng.randrange(len(mates))]
                    coeff = rng.choice([1, -1, 2])
                    rels.append(((1, p.arrows), (coeff, mate.arrows)))
                    continue
            rels.append(((1, p.arrows),))
    return IdealSpec(tuple(rels), n)


@pytest.mark.parametrize("style", ["monomial", "mixed"])
@pytest.mark.parametrize("small", [False, True], ids=["full", "small"])
def test_unranked_draws_equal_listed_draws(monkeypatch, style, small):
    listing = Quiver.paths_up_to

    def refuse(q, max_len):
        raise AssertionError("the relation draw listed paths")

    monkeypatch.setattr(Quiver, "paths_up_to", refuse)
    for seed in range(5000):
        rng = random.Random(seed)
        q = _gen_quiver(rng, 3 if small else lab.MAX_VERTICES, 4 if small else lab.MAX_ARROWS)
        ref = random.Random()
        ref.setstate(rng.getstate())
        assert _gen_ideal(rng, q, style) == listing_gen_ideal(ref, q, style, listing)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("F", [QQ, PrimeField(3)], ids=["QQ", "GF3"])
def test_dimension_floor_is_sound_on_lab_draws(F):
    over = settled = 0
    for q, ideal in lab_draws(2000):
        alg = build_algebra(q, ideal, F)
        exceeds = alg.dim_exceeds(ALGEBRA_DIM_CAP)
        # the floor settles the cap alone, or the basis is built to answer
        assert ("_span" in vars(alg)) == (alg.dim_floor <= ALGEBRA_DIM_CAP)
        assert alg.dim_floor <= alg.dim
        assert exceeds == (alg.dim > ALGEBRA_DIM_CAP)
        over += exceeds
        settled += alg.dim_floor > ALGEBRA_DIM_CAP
    assert over > settled > 0


# ---------------------------------------------------------------------------
# the width gate against full cover steps


def reference_gate(m, depth: int) -> tuple[bool, str, int]:
    """The gate from full cover steps, where it decided, and how many kernels
    it needs.

    A gate that counts widths needs the kernels of exactly the steps before
    the deciding one, one per module of distinct content among them.  It
    steps in a loop of its own, sharing no code with the syzygy chain that
    the gate walks.
    """
    if m.total_dim > lab.WIDTH_CAP:
        return False, "module", 0
    before = []
    for k in range(depth):
        step = projective_cover_and_syzygy(m)
        if step.term.total_dim > lab.WIDTH_CAP:
            return False, "first term" if k == 0 else "mid-chain", len(before)
        if step.syzygy.is_zero:
            return True, "zero syzygy", len(before)
        key = (m.dims, m.mats)
        if k < depth - 1 and key not in before:
            before.append(key)
        m = step.syzygy
    return True, "depth", len(before)


@pytest.mark.parametrize("F", [QQ, PrimeField(3)], ids=["QQ", "GF3"])
def test_width_gate_matches_full_cover_steps(F):
    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32),
        style=st.sampled_from(["monomial", "mixed"]),
        bound=st.integers(1, 24),
        cap=st.integers(4, lab.WIDTH_CAP),
        depth=st.integers(1, 8),
    )
    def gate_agrees(seed, style, bound, cap, depth):
        rng = random.Random(seed)
        q = _gen_quiver(rng, 4, 6)
        alg = build_algebra(q, _gen_ideal(rng, q, style), F)
        assume(alg.dim <= ALGEBRA_DIM_CAP)
        m = _gen_module(rng, alg, bound)
        with mock.patch.object(lab, "WIDTH_CAP", cap):
            want, where, kernels = reference_gate(m, depth)
            with mock.patch.object(
                homology, "projective_cover_and_syzygy", wraps=projective_cover_and_syzygy
            ) as cover:
                assert _widths_ok(SyzygyTable().chain(m), depth) == want
            assert cover.call_count == kernels
        seen.add(where)
        if kernels < depth - 1 and where == "depth":
            seen.add("lasso")

    gate_agrees()
    assert {"module", "mid-chain", "zero syzygy", "lasso"} <= seen


# ---------------------------------------------------------------------------
# random lab instances over prime fields

CROSS_CUTOFF = 4
BIG = PrimeField(2**31 - 1)


def ext_tables(q, ideal, field, state=None) -> list[tuple[int, ...]]:
    """Ext^0..Ext^4 on both sides: of every ordered pair of simples, or, given
    an rng state, of the pair of modules drawn from it."""
    alg = build_algebra(q, ideal, field)
    if state is None:
        chains = [SyzygyTable().chain(standard_module(alg, "simple", v)) for v in alg.vertices]
        pairs = [(s, t) for s in chains for t in chains]
    else:
        rng = random.Random()
        rng.setstate(state)
        pairs = [tuple(_gen_module(rng, alg, lab.SUITE_MODULE_BOUND) for _ in range(2))]
    sides = ("projective", "injective")
    return [ext_dims(m, n, CROSS_CUTOFF, side).dims for m, n in pairs for side in sides]


@pytest.mark.parametrize(
    "style, fields, binomials",
    [
        ("monomial", (QQ, PrimeField(2), PrimeField(3)), 0),
        # mixed coefficients include 2 and -1, so only a large prime keeps them apart
        ("mixed", (QQ, BIG), 4),
    ],
    ids=["monomial", "mixed"],
)
def test_ext_agrees_across_fields_on_lab_instances(monkeypatch, style, fields, binomials):
    # instances come from lab._admit, gated so every chain below stays in the width cap
    def draw(rng, lam):
        state = rng.getstate()
        drawn = [
            SyzygyTable().chain(_gen_module(rng, lam, lab.SUITE_MODULE_BOUND)) for _ in range(2)
        ]
        simples = [SyzygyTable().chain(standard_module(lam, "simple", v)) for v in lam.vertices]
        depth = CROSS_CUTOFF + 2
        if all(_widths_ok(c, depth) and _widths_ok(c.dual, depth) for c in simples + drawn):
            return state
        return None

    monkeypatch.setattr(lab, "RELATION_STYLE", style)
    compared = binomial = higher = 0  # cases, binomial ideals, nonzero higher Ext of simples
    for idx in range(24):
        _, lam, state = lab._admit(InstanceSpec(seed=12), idx, style, draw)
        q, ideal = lam.quiver, lam.ideal
        assert lam.dim <= ALGEBRA_DIM_CAP
        tables = [ext_tables(q, ideal, F) for F in fields]
        assert all(t == tables[0] for t in tables[1:]), f"simples, case {idx}"
        # the drawn modules' coefficients -1, 0, 1 tell small primes apart
        assert ext_tables(q, ideal, QQ, state) == ext_tables(q, ideal, BIG, state), f"case {idx}"
        compared += 1
        binomial += any(len(rel) > 1 for rel in ideal.relations)
        higher += any(any(dims[1:]) for dims in tables[0])
    assert (compared, binomial, higher) == (24, binomials, 22)


# ---------------------------------------------------------------------------
# one syzygy chain per module


def test_no_module_is_stepped_twice_within_a_case(monkeypatch):
    # every stepped module stays referenced until its case ends, so no id is reused
    stepped: dict[int, object] = {}
    repeats: list[str] = []
    shift_pairs = []
    cover, admit, pair = homology.projective_cover_and_syzygy, lab._admit, lab.heart_shift_pair

    def recording_cover(m):
        if id(m) in stepped:
            repeats.append(f"dims {m.dims}")
        stepped[id(m)] = m
        return cover(m)

    def case_start(spec, idx, kind, draw):
        stepped.clear()
        return admit(spec, idx, kind, draw)

    def counting_pair(*args):
        shift_pairs.append(args)
        return pair(*args)

    monkeypatch.setattr(homology, "projective_cover_and_syzygy", recording_cover)
    monkeypatch.setattr(lab, "_admit", case_start)
    monkeypatch.setattr(lab, "heart_shift_pair", counting_pair)
    for verify in (verify_convex_epi, verify_heart_theorem, verify_ext_cross):
        assert verify(InstanceSpec(seed=1), cases=3).all_passed
        assert repeats == [], verify.__name__
    assert shift_pairs, "no case with a nonempty heart"


def test_no_module_content_is_stepped_twice_within_a_case(monkeypatch):
    stepped: dict[str, object] = {}
    repeats: list[str] = []
    cover, restrict, pair = (
        homology.projective_cover_and_syzygy, lab.restricted_algebra, lab.heart_shift_pair
    )
    gammas, pairs = [], []

    def recording_cover(m):
        # keep m, so no algebra's id is reused while it is keyed
        key = (id(m.algebra), sorted(m.dims.items()), sorted(m.mats.items()))
        if repr(key) in stepped:
            repeats.append(f"dims {m.dims}")
        stepped[repr(key)] = m
        return cover(m)

    def recording_restrict(alg, sub):
        gammas.append((alg, restrict(alg, sub)))
        return gammas[-1][1]

    def recording_pair(*args):
        pairs.append(args)
        return pair(*args)

    monkeypatch.setattr(homology, "projective_cover_and_syzygy", recording_cover)
    monkeypatch.setattr(lab, "restricted_algebra", recording_restrict)
    monkeypatch.setattr(lab, "heart_shift_pair", recording_pair)
    spec = InstanceSpec(seed=1)
    # heart case 0 has a nonempty heart: its gl_dim walks the simples the gate walked
    assert lab._heart_case(spec, 0, None) == []
    assert pairs and repeats == []
    # epi case 41 restricts to the whole quiver, so Gamma is Lambda and m inflates to itself
    stepped.clear()
    assert lab._epi_case(spec, 41, 6) == []
    assert gammas[-1][0] is gammas[-1][1] and repeats == []
    assert stepped


def test_width_gate_and_cover_steps_share_each_modules_top_lifts(
    monkeypatch, cycle_tail_algebra
):
    radicals = mock.Mock(wraps=modules.radical_rows)
    monkeypatch.setattr(modules, "radical_rows", radicals)
    cover = mock.Mock(wraps=homology.projective_cover_and_syzygy)
    monkeypatch.setattr(homology, "projective_cover_and_syzygy", cover)
    chain = SyzygyTable().chain(standard_module(cycle_tail_algebra, "simple", "2"))
    assert _widths_ok(chain, 6)
    resolution(chain, 6)
    # Omega^4 S2 = Omega^2 S2: four modules, each lifted once and stepped once
    assert radicals.call_count == cover.call_count == 4


def test_ext_cross_pass_steps_each_module_once_per_chain(monkeypatch):
    cover = mock.Mock(wraps=homology.projective_cover_and_syzygy)
    monkeypatch.setattr(homology, "projective_cover_and_syzygy", cover)
    assert verify_ext_cross(InstanceSpec(seed=1), cases=100).all_passed
    # chains that stepped every syzygy afresh, with no content keys, would take
    # 897 cover steps here; before Ext read P_(k+1) off the top of Omega^(k+1),
    # that was 1 097 afresh and 597 with keys; and 586 before Ext into a
    # semisimple module read Omega^k's top without stepping it
    assert cover.call_count == 584


def test_heart_case_certifies_only_its_transport(monkeypatch):
    certify = mock.Mock(wraps=homology._certify_exact)
    pair = mock.Mock(wraps=lab.heart_shift_pair)
    monkeypatch.setattr(homology, "_certify_exact", certify)
    monkeypatch.setattr(lab, "heart_shift_pair", pair)
    # every binding of these names, so a call through any module is counted
    wrapped = {}
    for name in ("dual_map", "heart_parts"):
        fn = getattr(modules, name)
        wrapped[name] = mock.Mock(wraps=fn)
        for mod in (modules, homology, lab):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapped[name])
    dual, parts = wrapped["dual_map"], wrapped["heart_parts"]
    counts = []
    for idx in range(20):
        for m in (certify, pair, dual, parts):
            m.reset_mock()
        assert lab._heart_case(InstanceSpec(seed=1), idx, None) == []
        if pair.called:
            # cosyzygies come off the dual chain, and the pair holds both heart parts
            counts.append((certify.call_count, dual.call_count, parts.call_count))
        if len(counts) == 3:
            break
    assert counts == [(1, 0, 2)] * 3


def test_heart_case_resolves_only_for_its_transport(monkeypatch):
    cover = mock.Mock(wraps=homology.projective_cover_and_syzygy)
    monkeypatch.setattr(homology, "projective_cover_and_syzygy", cover)
    real_resolution, real_transport = homology.resolution, lab.transport_resolution
    real_admit, real_reach = lab._admit, lab.check_term_reachability
    resolved, open_transports, admitted, reached = [], [], [], []

    def recording_resolution(m, k):
        resolved.append((bool(open_transports), k))
        return real_resolution(m, k)

    def recording_transport(*args):
        open_transports.append(args)
        try:
            return real_transport(*args)
        finally:
            open_transports.pop()

    def recording_admit(*args):
        admitted.append(real_admit(*args))
        return admitted[-1]

    def recording_reach(q, terms):
        reached.append(list(terms))
        return real_reach(q, terms)

    monkeypatch.setattr(homology, "resolution", recording_resolution)
    monkeypatch.setattr(lab, "transport_resolution", recording_transport)
    monkeypatch.setattr(lab, "_admit", recording_admit)
    monkeypatch.setattr(lab, "check_term_reachability", recording_reach)
    for idx in range(20):
        assert lab._heart_case(InstanceSpec(seed=1), idx, None) == []
    # one resolution per cyclic case, the transport's; the case's own
    # resolution(m, t + 3) made it 18, with the same 259 cover steps
    assert resolved == [(True, 3)] * 9
    assert cover.call_count == 259
    cyclic = [(hp.t, m) for _, _, (hp, _, m, _) in admitted if not hp.heart.is_empty]
    assert len(cyclic) == len(reached) == 9
    # the multiplicities read off the chain are the old dense prefix's, on a fresh table
    for (t, m), terms in zip(cyclic, reached):
        assert terms == list(real_resolution(SyzygyTable().chain(m.module), t + 3).terms)
