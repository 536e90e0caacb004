"""Command line behaviour: outputs, exit codes, and error reporting.

Commands are driven through main(argv) so the tests cover argument parsing,
workspace loading, and the printed report formats end to end.
"""

import pytest

from quiverhom import SuiteReport, cli


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
    assert "proj_dim AtLeast(4)" in out


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


def test_verify_epi_cutoff_below_two_is_input_error(capsys):
    # --cutoff 0 used to fall back to the default 6
    for cutoff in ("0", "1"):
        assert cli.main(["verify", "epi", "--cases", "1", "--cutoff", cutoff]) == 2
        assert "cutoff must be at least 2" in capsys.readouterr().err


def test_verify_heart_cutoff_below_window_is_input_error(capsys):
    assert cli.main(["verify", "heart", "--cases", "1", "--cutoff", "2"]) == 2
    assert "cutoff must reach 2t+3" in capsys.readouterr().err


def test_field_order_past_primality_bound_is_input_error(ws, capsys):
    assert cli.main(["algebra", ws, "--field", f"p:{33 * 10**23 + 1}"]) == 2
    assert "too large" in capsys.readouterr().err
