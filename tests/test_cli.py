"""Command line behaviour: outputs, exit codes, and error reporting.

Commands are driven through main(argv) so the tests cover argument parsing,
workspace loading, and the printed report formats end to end.
"""

import random
import re
import time
from pathlib import Path
from unittest import mock

import pytest

from quiverhom import (
    InstanceSpec,
    PrimeField,
    SuiteReport,
    cli,
    dual_module,
    gen_instance,
    get_opposite,
    load_bundle,
    serialize_ideal,
    serialize_module,
    serialize_quiver,
)
from quiverhom import lab, linalg
from test_homology import no_chain_walks


CYCLE_TAIL = """\
quiver
  vertices 1 2 3 4
  arrow a 1 2
  arrow b 2 1
  arrow c 2 3
  arrow d 3 4

ideal
  truncation 4
  relation
    term 1 a b
  relation
    term 1 b a

module S1
  dim 1 1
  dim 2 0
  dim 3 0
  dim 4 0

module S1b
  dim 1 1
  dim 2 0
  dim 3 0
  dim 4 0
"""

LINE = """\
quiver
  vertices v w x
  arrow alpha v w
  arrow beta w x

ideal
  truncation 3
"""

PLUS_ID = """\
quiver
  vertices 1 2 1+2
  arrow a 1 2
  arrow b 2 1
  arrow c 2 1+2

ideal
  truncation 3
"""


@pytest.fixture
def ws(tmp_path):
    p = tmp_path / "ws.qh"
    p.write_text(CYCLE_TAIL)
    return str(p)


@pytest.fixture
def line_ws(tmp_path):
    p = tmp_path / "line.qh"
    p.write_text(LINE)
    return str(p)


README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize(
    "command",
    [["heart"], ["components"], ["algebra"], ["resolve", "--cutoff", "3"], ["decompose"], ["convex"]],
)
def test_the_readme_workspace_example_runs(tmp_path, capsys, command):
    """The fenced example under "Workspace file format" loads and runs, so the
    documented format cannot drift away from the parser."""
    section = README.read_text(encoding="utf-8").split("## Workspace file format", 1)[1]
    example = re.search(r"^```\n(.*?)^```$", section, re.S | re.M).group(1)
    p = tmp_path / "readme.qh"
    p.write_text(example)
    bundle = load_bundle([p])
    assert bundle.module_names == ("S1",) and bundle.subquiver == {"1", "2"}
    assert cli.main([command[0], str(p), *command[1:]]) == 0
    assert capsys.readouterr().out


def test_heart_command(ws, capsys):
    assert cli.main(["heart", ws]) == 0
    out = capsys.readouterr().out
    assert "heart 1 2" in out
    assert "t 1" in out
    assert "cycle_vertices 1 2" in out
    assert "complement 3 4" in out


def test_heart_dot_output(ws, capsys):
    assert cli.main(["heart", ws, "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert '"1" [class="inside"' in out


def test_convex_command_reports_failure_without_error(line_ws, capsys):
    assert cli.main(["convex", line_ws, "--subquiver", "v,x"]) == 0
    out = capsys.readouterr().out
    assert "convex no" in out
    assert "closure v w x" in out


def test_convex_command_positive(ws, capsys):
    assert cli.main(["convex", ws, "--subquiver", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "convex yes" in out
    assert "plus 3 4" in out
    assert "minus -" in out


def test_components_command(ws, capsys):
    assert cli.main(["components", ws]) == 0
    out = capsys.readouterr().out
    assert "component 1 2 [nontrivial]" in out
    assert "condensation 1+2 -> 3" in out
    assert "simple_cycle_type yes" in out


def test_components_command_escapes_a_plus_inside_an_id(tmp_path, capsys):
    # unescaped, the component {1, 2} and the vertex 1+2 would both be named 1+2
    p = tmp_path / "plus.qh"
    p.write_text(PLUS_ID)
    assert cli.main(["components", str(p)]) == 0
    out = capsys.readouterr().out
    assert "component 1+2 [trivial]" in out
    assert "condensation 1+2 -> 1\\+2" in out


def test_algebra_command(ws, capsys):
    assert cli.main(["algebra", ws]) == 0
    out = capsys.readouterr().out
    assert "field Q" in out
    assert "dim 11" in out


def test_algebra_command_with_subquiver_checks(ws, capsys):
    assert cli.main(["algebra", ws, "--subquiver", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "corner_dim 4" in out
    assert "quotient_dim 4" in out
    assert "restricted_dim 4" in out
    assert "FAIL" not in out


def test_algebra_command_prime_field(ws, capsys):
    assert cli.main(["algebra", ws, "--field", "p:5"]) == 0
    out = capsys.readouterr().out
    assert "field GF(5)" in out
    assert "dim 11" in out


def test_resolve_command(ws, capsys):
    assert cli.main(["resolve", ws, "--cutoff", "4"]) == 0
    out = capsys.readouterr().out
    assert "module S1" in out
    assert "term 0 P_1" in out
    assert "term 1 P_2" in out
    assert "minimal yes" in out
    assert "exact yes" in out
    assert "proj_dim Infinite" in out


def test_ext_command(ws, capsys):
    assert cli.main(["ext", ws, "--cutoff", "6"]) == 0
    out = capsys.readouterr().out.splitlines()
    dims = [line.split()[-1] for line in out if line.startswith("ext ")]
    assert dims == ["1", "0", "1", "0", "1", "0", "1"]


def test_decompose_command(ws, capsys):
    assert cli.main(["decompose", ws]) == 0
    out = capsys.readouterr().out
    assert "split vertices=1,2,3,4" in out
    assert "splits 1" in out
    assert "block 1 vertices=1,2 dim=4 simple_cycle=yes" in out


def test_decompose_without_an_ideal_exits_2_with_the_shared_message(tmp_path, capsys):
    bare = tmp_path / "bare.qh"
    bare.write_text(CYCLE_TAIL.split("\nideal")[0])
    assert cli.main(["decompose", str(bare)]) == 2
    assert capsys.readouterr().err.strip() == "error: this command needs an ideal section (algebra data)"


def test_decompose_past_the_work_budget_exits_2_at_once(tmp_path, capsys):
    # 1 001 loops along a line: 1 001 blocks x 1 001 vertices, one past MAX_WORK
    vs = range(1, 1002)
    lines = ["quiver", "  vertices " + " ".join(map(str, vs))]
    lines += [f"  arrow l{v} {v} {v}" for v in vs] + [f"  arrow a{v} {v} {v + 1}" for v in vs[:-1]]
    chain = tmp_path / "chain.qh"
    chain.write_text("\n".join(lines + ["", "ideal", "  truncation 2", ""]))
    t0 = time.perf_counter()
    assert cli.main(["decompose", str(chain)]) == 2
    assert time.perf_counter() - t0 < 1.0
    out, err = capsys.readouterr()
    assert out == "" and "1001 blocks x 1001 vertices exceed 1000000 units of work" in err


def test_verify_command_passes(capsys):
    assert cli.main(["verify", "subquiver", "--cases", "10", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "suite subquiver-calculus" in out
    assert "cases 10" in out
    assert "failures 0" in out


def test_verify_command_failure_exit(monkeypatch, capsys):
    def fake(spec, cases=500):
        return SuiteReport("subquiver-calculus", spec.seed, cases, cases - 1, ())

    monkeypatch.setattr(cli, "verify_subquiver_calculus", fake)
    assert cli.main(["verify", "subquiver", "--cases", "5"]) == 1


def test_missing_file_is_input_error(capsys):
    assert cli.main(["heart", "/nonexistent/nowhere.qh"]) == 2
    assert "error:" in capsys.readouterr().err


def test_a_workspace_that_is_not_utf8_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.qh"
    bad.write_bytes(b"quiver\n  vertices 1\xff\n")
    assert cli.main(["heart", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"cannot read {bad}" in err and "utf-8" in err


def test_unknown_subquiver_vertex_is_input_error(ws, capsys):
    assert cli.main(["convex", ws, "--subquiver", "1,99"]) == 2
    assert "99" in capsys.readouterr().err


def test_resolve_without_module_is_input_error(line_ws, capsys):
    assert cli.main(["resolve", line_ws]) == 2
    assert "error:" in capsys.readouterr().err


def test_convex_without_selection_is_input_error(ws, capsys):
    assert cli.main(["convex", ws]) == 2


def test_bad_flag_exits_two(ws):
    with pytest.raises(SystemExit) as exc:
        cli.main(["heart", ws, "--bogus"])
    assert exc.value.code == 2


def test_bad_field_descriptor_is_input_error(ws, capsys):
    assert cli.main(["algebra", ws, "--field", "p:6"]) == 2


def test_verify_zero_cases_is_not_replaced_by_default(capsys):
    assert cli.main(["verify", "subquiver", "--cases", "0"]) == 0
    out = capsys.readouterr().out
    assert "cases 0" in out
    assert "passed 0" in out


def test_verify_negative_cases_is_input_error(capsys):
    assert cli.main(["verify", "epi", "--cases", "-5"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["resolve", "ext", "verify ext", "verify epi", "verify heart"]
)
def test_cutoff_past_the_ceiling_exits_2_at_once(ws, capsys, command):
    # resolve --cutoff 1000000 used to exit 0 after 24 s at 730 MB peak RSS
    argv = command.split() + ([] if command.startswith("verify") else [ws])
    with (
        no_chain_walks(),
        mock.patch.object(lab, "_admit", side_effect=AssertionError("a case was drawn")),
    ):
        t0 = time.perf_counter()
        assert cli.main(argv + ["--cutoff", "1000000000"]) == 2
        assert time.perf_counter() - t0 < 1.0
    assert "1000000000 exceeds MAX_CUTOFF = 1000" in capsys.readouterr().err


@pytest.mark.parametrize("cases", ["0", "1"])
def test_verify_ext_negative_cutoff_exits_2_before_any_case(capsys, cases):
    # --cases 0 used to pass, and --cases 1 to fail only after drawing case 0
    with mock.patch.object(lab, "_admit", side_effect=AssertionError("a case was drawn")):
        assert cli.main(["verify", "ext", "--cases", cases, "--cutoff", "-1"]) == 2
    assert "ext-cross suite cutoff must be nonnegative" in capsys.readouterr().err


def test_verify_epi_cutoff_below_two_is_input_error(capsys):
    # --cutoff 0 used to fall back to the default 6
    for cutoff in ("0", "1"):
        assert cli.main(["verify", "epi", "--cases", "1", "--cutoff", cutoff]) == 2
        assert "cutoff must be at least 2" in capsys.readouterr().err


def test_verify_subquiver_cutoff_is_input_error(capsys):
    assert cli.main(["verify", "subquiver", "--cases", "1", "--cutoff", "5"]) == 2
    assert "subquiver suite takes no cutoff" in capsys.readouterr().err


def test_verify_heart_cutoff_below_window_is_input_error(capsys):
    assert cli.main(["verify", "heart", "--cases", "1", "--cutoff", "2"]) == 2
    assert "cutoff must reach 2t+3" in capsys.readouterr().err


@pytest.mark.parametrize("cutoff, seed", [("6", "1"), ("5", "2")])
def test_verify_heart_cutoff_below_seven_fails_before_any_case(capsys, cutoff, seed):
    # heart cases are admitted up to t = 2, whose window starts at 2t+3 = 7;
    # the check used to run inside the draw, so --cutoff 5 passed at seed 2
    build = mock.Mock(side_effect=AssertionError("an instance was generated"))
    with mock.patch.object(lab, "build_algebra", build):
        argv = ["verify", "heart", "--cases", "3", "--cutoff", cutoff, "--seed", seed]
        assert cli.main(argv) == 2
    assert not build.called
    assert "cutoff must reach 2t+3" in capsys.readouterr().err


def test_verify_heart_cutoff_seven_runs(capsys):
    assert cli.main(["verify", "heart", "--cases", "3", "--cutoff", "7"]) == 0
    assert "passed 3\n" in capsys.readouterr().out


def test_field_order_past_primality_bound_is_input_error(ws, capsys):
    assert cli.main(["algebra", ws, "--field", f"p:{33 * 10**23 + 1}"]) == 2
    assert "too large" in capsys.readouterr().err


LOOPS = "quiver\n  vertices 1\n  arrow a 1 1\n  arrow b 1 1\n\nideal\n  truncation 40\n"
LOOP_SQUARED = "quiver\n  vertices 1\n  arrow a 1 1\n\nideal\n  truncation {}\n  relation\n    term 1 a a\n"


@pytest.mark.parametrize(
    "text, message",
    [
        # two loops span 2^40 - 1 paths below truncation 40: counted, not listed
        (LOOPS, "units of work"),
        # 50 000 paths, each relation row 50 000 wide
        (LOOP_SQUARED.format(50_000), "units of work"),
        # few enough paths; the relation rows run past the budget while built
        (LOOP_SQUARED.format(140), "relation rows exceed"),
    ],
)
def test_presentation_past_work_budget_is_input_error(tmp_path, capsys, text, message):
    p = tmp_path / "big.qh"
    p.write_text(text)
    t0 = time.perf_counter()
    assert cli.main(["algebra", str(p)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert message in capsys.readouterr().err


def test_module_past_work_budget_is_input_error(tmp_path, capsys):
    # identity plus loop matrix: 2 * 10^10 cells, refused before either is built
    p = tmp_path / "big.qh"
    p.write_text(LOOP_SQUARED.format(2) + "\nmodule M\n  dim 1 100000\n")
    t0 = time.perf_counter()
    assert cli.main(["resolve", str(p)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "units of work" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["resolve", "ext"])
def test_cover_past_term_budget_is_input_error(tmp_path, capsys, command):
    # over the opposite algebra, the cover terms of the dual grow 48, 141, 588, ...
    _, _, (m, n) = gen_instance(InstanceSpec(seed=3))
    op = get_opposite(m.algebra)
    p = tmp_path / "dual.qh"
    p.write_text(
        serialize_quiver(op.quiver)
        + serialize_ideal(op.ideal)
        + serialize_module(dual_module(n), "DN")
        + serialize_module(dual_module(m), "DM")
    )
    t0 = time.perf_counter()
    assert cli.main([command, str(p), "--cutoff", "6"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "exceeds budget 500" in capsys.readouterr().err


def dense_loop_workspace(n: int, rotate: bool = False) -> str:
    """One loop at truncation 143 acting by a shift conjugated by a random P mod 101;
    with rotate, the shift wraps around, so the loop is invertible, not nilpotent."""
    F = PrimeField(101)
    rng = random.Random(0)
    while True:
        p = [[rng.randrange(101) for _ in range(n)] for _ in range(n)]
        aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(p)]
        echelon, pivots = linalg.rref(aug, 2 * n, F)
        if pivots == list(range(n)):
            break
    shift = [[int(j == (i + 1) % n if rotate else j == i + 1) for j in range(n)] for i in range(n)]
    a = linalg.mat_mul(linalg.mat_mul(p, shift, n, F), [r[n:] for r in echelon], n, F)
    rows = "".join("    row " + " ".join(map(str, r)) + "\n" for r in a)
    return (
        "quiver\n  vertices 1\n  arrow a 1 1\n\nideal\n  truncation 143\n\n"
        f"module M\n  dim 1 {n}\n  matrix a\n{rows}"
    )


def test_dense_loop_module_resolves_in_bounded_time(tmp_path, capsys):
    # 142 basis paths a^k: each costs one product past a^(k-1), not k - 1 products
    p = tmp_path / "loop.qh"
    p.write_text(dense_loop_workspace(30))
    t0 = time.perf_counter()
    assert cli.main(["resolve", str(p), "--cutoff", "0", "--field", "p:101"]) == 0
    assert time.perf_counter() - t0 < 3.0
    out = capsys.readouterr().out
    assert "term 0 P_1\n" in out and "syzygy_1_dim 113\n" in out


def test_sixty_dimensional_dense_loop_module_resolves_in_bounded_time(tmp_path, capsys):
    # the cover maps the one generator's 143 basis paths by its lift row, one
    # vector times matrix each, not by the paths' full 60 x 60 matrices
    p = tmp_path / "loop.qh"
    p.write_text(dense_loop_workspace(60))
    t0 = time.perf_counter()
    assert cli.main(["resolve", str(p), "--cutoff", "0", "--field", "p:101"]) == 0
    assert time.perf_counter() - t0 < 3.0
    out = capsys.readouterr().out
    assert "term 0 P_1\n" in out and "syzygy_1_dim 83\n" in out


@pytest.mark.parametrize("n", [30, 60])
def test_dense_loop_module_over_qq_is_refused_in_bounded_time(tmp_path, capsys, n):
    # read over QQ, the residues mod 101 no longer conjugate a shift: the loop is not
    # nilpotent, and its radical chain keeps full rank from the first step on
    p = tmp_path / "loop.qh"
    p.write_text(dense_loop_workspace(n))
    t0 = time.perf_counter()
    assert cli.main(["resolve", str(p), "--cutoff", "0", "--field", "q"]) == 2
    assert time.perf_counter() - t0 < 3.0
    assert "paths of truncation length 143 act nonzero" in capsys.readouterr().err


def test_invertible_dense_loop_module_is_refused_in_bounded_time(tmp_path, capsys):
    p = tmp_path / "loop.qh"
    p.write_text(dense_loop_workspace(30, rotate=True))
    t0 = time.perf_counter()
    assert cli.main(["resolve", str(p), "--cutoff", "0", "--field", "p:101"]) == 2
    assert time.perf_counter() - t0 < 3.0
    assert "paths of truncation length 143 act nonzero" in capsys.readouterr().err


BUDGET_EDGE = (
    "quiver\n  vertices 1\n  arrow a 1 1\n  arrow b 1 1\n\n"
    "ideal\n  truncation {}\n"
    "  relation\n    term 1 a b\n    term -2 b a\n"
    "  relation\n    term 1 a a\n    term -3 b b\n"
)


def test_budget_edge_presentation_builds_in_under_a_second(tmp_path, capsys):
    # the largest truncation at which this presentation passes MAX_WORK
    p = tmp_path / "budget.qh"
    p.write_text(BUDGET_EDGE.format(9))
    t0 = time.perf_counter()
    assert cli.main(["algebra", str(p)]) == 0
    assert time.perf_counter() - t0 < 1.0
    assert "dim 5\n" in capsys.readouterr().out


def test_subquiver_comparison_past_the_work_budget_is_refused_in_under_a_second(tmp_path, capsys):
    # A_2000 at truncation 2: dim 3 999, whose comparison would build a dense
    # row of that length for each basis element touching e' and check dim^2 pairs
    n = 2000
    arrows = "".join(f"  arrow a{i} {i} {i + 1}\n" for i in range(1, n))
    p = tmp_path / "line.qh"
    p.write_text(f"quiver\n  vertices {' '.join(map(str, range(1, n + 1)))}\n{arrows}\nideal\n  truncation 2\n")
    t0 = time.perf_counter()
    assert cli.main(["algebra", str(p), "--subquiver", "1,2"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "algebras of dim 3999 exceeds 1000000 units of work" in capsys.readouterr().err


def test_presentation_one_past_the_budget_edge_is_refused_in_under_a_second(tmp_path, capsys):
    # its paths pass the budget, the cells of its relation rows do not
    p = tmp_path / "budget.qh"
    p.write_text(BUDGET_EDGE.format(10))
    t0 = time.perf_counter()
    assert cli.main(["algebra", str(p)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "relation rows exceed" in capsys.readouterr().err
