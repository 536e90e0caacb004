"""Acceptance gate: one pass/fail line per criterion, exact equality only.

Each criterion test prints its verdict directly to the process stdout so the
line survives pytest capture.  Expensive suite runs are shared through
module-scoped fixtures that also record wall-clock time; the determinism
criterion re-runs every suite once more and compares rendered reports byte
for byte.
"""

import time

import pytest

from quiverhom import (
    DimBound,
    IdealSpec,
    InstanceSpec,
    QQ,
    Quiver,
    build_algebra,
    decompose,
    ext_dims,
    gl_dim,
    heart_shift_pair,
    resolution,
    restricted_algebra,
    standard_module,
    verify_convex_epi,
    verify_convex_isos,
    verify_ext_cross,
    verify_heart_theorem,
    verify_subquiver_calculus,
)

from test_algebra import monomial_dim_oracle


@pytest.fixture
def stamp(capsys):
    """Print a verdict line on the real stdout, past pytest's capture."""

    def _stamp(label: str, ok: bool) -> None:
        with capsys.disabled():
            print(f"acceptance {label}: {'PASS' if ok else 'FAIL'}", flush=True)

    return _stamp


def _check(stamp, label, body) -> None:
    try:
        body()
    except BaseException:
        stamp(label, False)
        raise
    stamp(label, True)


def _line():
    q = Quiver.build(["v", "w", "x"], [("alpha", "v", "w"), ("beta", "w", "x")])
    return q, IdealSpec.zero(3)


def _cycle_tail():
    q = Quiver.build(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "1"), ("c", "2", "3"), ("d", "3", "4")],
    )
    return q, IdealSpec.monomial([("a", "b"), ("b", "a")], 4)


def _two_cycles():
    q = Quiver.build(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "1"), ("f", "2", "3"), ("c", "3", "4"), ("d", "4", "3")],
    )
    return q, IdealSpec.monomial([("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")], 4)


@pytest.fixture(scope="module")
def subquiver_run():
    t0 = time.perf_counter()
    report = verify_subquiver_calculus(InstanceSpec(seed=1), cases=500)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def epi_run():
    t0 = time.perf_counter()
    report = verify_convex_epi(InstanceSpec(seed=1), cases=200, cutoff=6)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def heart_run():
    t0 = time.perf_counter()
    report = verify_heart_theorem(InstanceSpec(seed=1), cases=100)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ext_cross_run():
    t0 = time.perf_counter()
    report = verify_ext_cross(InstanceSpec(seed=1), cases=100, cutoff=3)
    return report, time.perf_counter() - t0


def test_criterion_corner_vs_quotient_mismatch(stamp):
    def body():
        t0 = time.perf_counter()
        q, ideal = _line()
        sub = q.full_subquiver({"v", "x"})
        report = verify_convex_isos(build_algebra(q, ideal, QQ), sub)
        assert not report.convex
        assert report.corner_dim == 3
        assert report.quotient_dim == 2
        assert not report.dims_agree
        failed = [e.name for e in report.entries if not e.passed]
        assert "corner_quotient_dims" in failed
        assert time.perf_counter() - t0 < 1.0

    _check(stamp, "corner-vs-quotient-mismatch", body)


def test_criterion_fixture_dimensions(stamp):
    def body():
        t0 = time.perf_counter()
        for builder, want in ((_line, 6), (_cycle_tail, 11), (_two_cycles, 12)):
            q, ideal = builder()
            alg = build_algebra(q, ideal, QQ)
            rel_paths = [rel[0][1] for rel in ideal.relations]
            oracle = monomial_dim_oracle(q, rel_paths, ideal.truncation)
            assert alg.dim == want == oracle
        q, ideal = _cycle_tail()
        heart = q.homological_heart().heart
        gamma = restricted_algebra(build_algebra(q, ideal, QQ), heart)
        hq = Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
        assert gamma.dim == 4 == monomial_dim_oracle(hq, [("a", "b"), ("b", "a")], 4)
        assert time.perf_counter() - t0 < 1.0

    _check(stamp, "fixture-dimensions", body)


def test_criterion_subquiver_suite(subquiver_run, stamp):
    def body():
        report, elapsed = subquiver_run
        assert report.attempted == 500
        assert report.passed == 500
        assert report.witnesses == ()
        assert elapsed < 60.0

    _check(stamp, "subquiver-suite-500", body)


def test_criterion_convex_epi_suite(epi_run, stamp):
    def body():
        report, elapsed = epi_run
        assert report.attempted == 200
        assert report.passed == 200
        assert report.witnesses == ()
        assert elapsed < 300.0

    _check(stamp, "convex-epi-suite-200", body)


def test_criterion_heart_suite_and_worked_example(heart_run, stamp):
    def body():
        report, elapsed = heart_run
        assert report.attempted == 100
        assert report.passed == 100
        assert report.witnesses == ()
        assert elapsed < 300.0
        q, ideal = _cycle_tail()
        lam = build_algebra(q, ideal, QQ)
        hp = q.homological_heart()
        assert hp.t == 1
        for v in ("1", "2"):
            m = standard_module(lam, "simple", v)
            n = standard_module(lam, "simple", v)
            pair = heart_shift_pair(m, n, hp.heart, hp.t)
            lam_table = ext_dims(m, n, 9)
            gam_table = ext_dims(pair.a_part, pair.b_part, 5)
            for ell in range(5, 10):
                assert lam_table[ell] == gam_table[ell - 4]

    _check(stamp, "heart-suite-100-and-shift-4", body)


def test_criterion_decomposition(stamp):
    def body():
        t0 = time.perf_counter()
        q3, i3 = _two_cycles()
        tree = decompose(build_algebra(q3, i3, QQ))
        assert tree.splits == 2
        assert len(tree.blocks) == 2
        *splits, leaf = tree.nodes
        assert all(node.kind == "split" and node.eprime_e_dim == 0 for node in splits)
        assert leaf.kind == "acyclic"
        nontrivial = q3.components().nontrivial_count
        assert tree.splits == nontrivial
        q1, i1 = _line()
        line_tree = decompose(build_algebra(q1, i1, QQ))
        assert line_tree.nodes[0].kind == "acyclic" and line_tree.splits == 0
        assert time.perf_counter() - t0 < 1.0

    _check(stamp, "decomposition-blocks", body)


def test_criterion_ext_cross(ext_cross_run, stamp):
    def body():
        report, elapsed = ext_cross_run
        assert report.attempted == 100
        assert report.passed == 100
        assert report.witnesses == ()
        assert elapsed < 120.0

    _check(stamp, "ext-cross-100", body)


def test_criterion_global_dimensions(stamp):
    def body():
        t0 = time.perf_counter()
        q1, i1 = _line()
        assert gl_dim(build_algebra(q1, i1, QQ), 10) == DimBound.finite(1)
        q2, i2 = _cycle_tail()
        lam = build_algebra(q2, i2, QQ)
        assert gl_dim(lam, 10) == DimBound.infinite()
        res = resolution(standard_module(lam, "simple", "1"), 6)
        nz = [{v: k for v, k in t.items() if k} for t in res.terms]
        assert nz == [{"1": 1}, {"2": 1}] * 3 + [{"1": 1}]
        assert time.perf_counter() - t0 < 5.0

    _check(stamp, "global-dimensions", body)


def test_criterion_determinism(subquiver_run, epi_run, heart_run, ext_cross_run, stamp):
    def body():
        again = [
            verify_subquiver_calculus(InstanceSpec(seed=1), cases=500),
            verify_convex_epi(InstanceSpec(seed=1), cases=200, cutoff=6),
            verify_heart_theorem(InstanceSpec(seed=1), cases=100),
            verify_ext_cross(InstanceSpec(seed=1), cases=100, cutoff=3),
        ]
        first = [subquiver_run[0], epi_run[0], heart_run[0], ext_cross_run[0]]
        for a, b in zip(first, again):
            assert a.render() == b.render()
            assert a.render().encode() == b.render().encode()

    _check(stamp, "suite-determinism", body)
