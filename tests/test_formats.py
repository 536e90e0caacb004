"""Text workspace format: parsing, serialization round-trips, DOT export.

Error positions are asserted exactly so editors can jump to the offending
line.  Round-trips reload the serialized text and compare structures.
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhom import (
    QQ,
    CompositionError,
    DanglingIdError,
    IdealSpec,
    InputError,
    ModuleValidationError,
    ParseError,
    PrimeField,
    Quiver,
    Representation,
    build_algebra,
    export_dot,
    load_bundle,
    serialize_ideal,
    serialize_module,
    serialize_quiver,
    serialize_subquiver,
    standard_module,
)
from quiverhom.fields import MAX_DIGITS
from quiverhom.formats import _GRAMMAR
from quiverhom.lab import ALGEBRA_DIM_CAP, _gen_ideal, _gen_module, _gen_quiver

GOOD = """\
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

subquiver
  vertices 1 2
"""


def write(tmp_path, text, name="w.qh"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_full_bundle(tmp_path):
    bundle = load_bundle([write(tmp_path, GOOD)])
    assert bundle.quiver.vertices == ("1", "2", "3", "4")
    assert bundle.algebra is not None and bundle.algebra.dim == 11
    assert bundle.module_names == ("S1",)
    assert bundle.modules[0].dims["1"] == 1
    assert bundle.subquiver == frozenset({"1", "2"})
    assert bundle.field is QQ


def test_load_with_prime_field(tmp_path):
    bundle = load_bundle([write(tmp_path, GOOD)], field=PrimeField(5))
    assert bundle.algebra.field.name == "GF(5)"
    assert bundle.algebra.dim == 11


def test_round_trips(tmp_path, cycle_tail_quiver, cycle_tail_ideal, cycle_tail_algebra):
    q_text = serialize_quiver(cycle_tail_quiver)
    i_text = serialize_ideal(cycle_tail_ideal)
    p1 = standard_module(cycle_tail_algebra, "projective", "1")
    m_text = serialize_module(p1, "P1")
    s_text = serialize_subquiver({"1", "2"}, cycle_tail_quiver)
    bundle = load_bundle([write(tmp_path, q_text + i_text + m_text + s_text)])
    assert bundle.quiver == cycle_tail_quiver
    assert bundle.ideal == cycle_tail_ideal
    assert bundle.module_names == ("P1",)
    m = bundle.modules[0]
    assert m.dims == p1.dims and m.mats == p1.mats
    assert bundle.subquiver == frozenset({"1", "2"})
    # serializing the reloaded objects reproduces the text
    assert serialize_quiver(bundle.quiver) == q_text
    assert serialize_ideal(bundle.ideal) == i_text
    assert serialize_module(bundle.modules[0], "P1") == m_text


@pytest.mark.parametrize("bad", ["a b", "v#1", "p q", "", "x\ty", "x\ny", "x\r", "x\u2028y"])
def test_serializers_refuse_an_id_that_would_not_read_back(bad):
    """Each serializer refuses, naming it, an id that the parser would read as
    no token, as two, or as the start of a comment or of another line."""
    refused = pytest.raises(InputError, match=f"^id {re.escape(repr(bad))} cannot be written")
    # the id as a vertex, as the source of an arrow, with a dimension, in a subquiver
    q = Quiver.build([bad, "c"], [("x", bad, "c")])
    with refused:
        serialize_quiver(q)
    with refused:
        serialize_module(standard_module(build_algebra(q, IdealSpec.zero(2), QQ), "simple", bad))
    with refused:
        serialize_subquiver({bad}, q)
    # the id as an arrow with a nonzero matrix, in a relation, and as a module's name
    q = Quiver.build(["1", "2", "3"], [(bad, "1", "2"), ("b", "2", "3")])
    alg = build_algebra(q, IdealSpec.monomial([(bad, "b")], 3), QQ)
    with refused:
        serialize_quiver(q)
    with refused:
        serialize_ideal(alg.ideal)
    with refused:
        serialize_module(Representation(alg, {"1": 1, "2": 1}, {bad: [[QQ.one]]}))
    with refused:
        serialize_module(standard_module(alg, "simple", "1"), bad)


def test_ideal_coefficients_are_written_so_they_read_back(tmp_path):
    # on 1 -> 2 -> 3: a bool coefficient is the int it equals, and a float is refused
    q = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    for coeff, written in ((True, "1"), (Fraction(-1, 2), "-1/2"), (3, "3")):
        ideal = IdealSpec((((coeff, ("a", "b")),),), 3)
        assert build_algebra(q, ideal, QQ).dim == 5
        text = serialize_ideal(ideal)
        assert f"    term {written} a b\n" in text
        bundle = load_bundle([write(tmp_path, serialize_quiver(q) + text)])
        assert bundle.ideal == IdealSpec((((Fraction(written), ("a", "b")),),), 3)
        assert bundle.algebra.dim == 5
    with pytest.raises(InputError, match="^coefficient 0.5 is not an int or a Fraction$"):
        serialize_ideal(IdealSpec((((0.5, ("a", "b")),),), 3))


def test_lab_ids_round_trip(tmp_path):
    rng = random.Random(39)
    for k in range(20):
        q = _gen_quiver(rng, 5, 7)
        alg = build_algebra(q, _gen_ideal(rng, q, "mixed"), QQ)
        if alg.dim_exceeds(ALGEBRA_DIM_CAP):
            continue
        m = _gen_module(rng, alg, 6)
        sub = {v for v in q.vertices if rng.random() < 0.5}
        text = serialize_quiver(q) + serialize_ideal(alg.ideal) + serialize_module(m, f"M{k}")
        bundle = load_bundle([write(tmp_path, text + serialize_subquiver(sub, q))])
        assert bundle.quiver == q and bundle.ideal == alg.ideal and bundle.module_names == (f"M{k}",)
        assert bundle.modules[0].dims == m.dims and bundle.modules[0].mats == m.mats
        assert bundle.subquiver == sub


def test_module_with_fraction_entries(tmp_path):
    text = """\
quiver
  vertices 1 2
  arrow a 1 2

ideal
  truncation 3

module M
  dim 1 1
  dim 2 1
  matrix a
    row 1/2
"""
    bundle = load_bundle([write(tmp_path, text)])
    m = bundle.modules[0]
    assert m.mats["a"][0][0] == QQ.parse("1/2")
    assert serialize_module(m, "M").count("row 1/2") == 1


def test_tab_rejected_with_position(tmp_path):
    text = "quiver\n\tvertices 1\n"
    with pytest.raises(ParseError) as exc:
        load_bundle([write(tmp_path, text)])
    assert exc.value.line == 2 and exc.value.column == 1


def test_odd_indent_rejected(tmp_path):
    text = "quiver\n   vertices 1\n"
    with pytest.raises(ParseError) as exc:
        load_bundle([write(tmp_path, text)])
    assert exc.value.line == 2


def test_indent_jump_rejected(tmp_path):
    text = "quiver\n    vertices 1\n"
    with pytest.raises(ParseError) as exc:
        load_bundle([write(tmp_path, text)])
    assert exc.value.line == 2


def test_decimal_literals_rejected(tmp_path):
    text = """\
quiver
  vertices 1 2
  arrow a 1 2

ideal
  truncation 3

module M
  dim 1 1
  dim 2 1
  matrix a
    row 0.5
"""
    with pytest.raises(ParseError) as exc:
        load_bundle([write(tmp_path, text)])
    assert exc.value.line == 12


def test_bad_literal_errors_quote_at_most_forty_characters(tmp_path):
    head = "quiver\n  vertices 1\n  arrow a 1 1\n\nideal\n  truncation {}\n\nmodule M\n  dim 1 1\n"
    row = head.format(2) + "  matrix a\n    row {}\n"
    huge = "1" * 5000  # past the int parser's digit limit
    cut = f"{'1' * 40!r}..."
    cases = [
        (row.format("1/x"), "bad numeric literal '1/x' (line 11, column 9)"),
        (
            row.format("0.5"),
            "decimal literal '0.5'; use an integer or fraction (line 11, column 9)",
        ),
        (head.format("x" * 40), f"bad integer literal {'x' * 40!r} (line 6, column 14)"),
        (row.format(huge), f"bad numeric literal {cut} (5000 characters) (line 11, column 9)"),
        (head.format(huge), f"bad integer literal {cut} (5000 characters) (line 6, column 14)"),
        (
            row.format(huge + ".5"),
            f"decimal literal {cut} (5002 characters); use an integer or fraction"
            " (line 11, column 9)",
        ),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as exc:
            load_bundle([write(tmp_path, text)])
        assert str(exc.value) == message


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["QQ", "p101"])
def test_literals_past_the_digit_budget_are_parse_errors(tmp_path, field):
    head = "quiver\n  vertices 1 2\n  arrow a 1 2\n  arrow b 2 1\n\nideal\n  truncation 3\n"
    relation = head + "  relation\n    term {} a b\n"
    module = head + "\nmodule M\n  dim 1 1\n  dim 2 1\n  matrix a\n    row {}\n"
    # the largest and a power of ten, which 101 does not divide, at the budget
    top, ten, past = "9" * MAX_DIGITS, "1" + "0" * (MAX_DIGITS - 1), "1" + "0" * MAX_DIGITS
    for literal in (top, f"-{top}", f"1/{ten}", f"{top}/7"):
        load_bundle([write(tmp_path, relation.format(literal))], field)
        load_bundle([write(tmp_path, module.format(literal))], field)
    for text, literal, where in (
        (relation, past, "(line 9, column 10)"),
        (relation, f"-1/{past}", "(line 9, column 10)"),
        (module, f"{past}/3", "(line 13, column 9)"),
        (module, f"-{past}", "(line 13, column 9)"),
    ):
        with pytest.raises(ParseError) as exc:
            load_bundle([write(tmp_path, text.format(literal))], field)
        quoted = f"{literal[:40]!r}... ({len(literal)} characters)"
        assert str(exc.value) == f"numeric literal {quoted} has over {MAX_DIGITS} digits {where}"
    # an exponent would expand in full before any budget could be checked
    with pytest.raises(ParseError, match="decimal literal '1e999999999'; use an integer"):
        load_bundle([write(tmp_path, module.format("1e999999999"))], field)


def test_duplicate_vertex_rejected(tmp_path):
    text = "quiver\n  vertices 1 1\n"
    with pytest.raises(ParseError):
        load_bundle([write(tmp_path, text)])


def test_unknown_arrow_in_relation(tmp_path):
    text = """\
quiver
  vertices 1 2
  arrow a 1 2

ideal
  truncation 3
  relation
    term 1 zz zz
"""
    with pytest.raises(DanglingIdError):
        load_bundle([write(tmp_path, text)])


def test_unknown_vertex_in_module(tmp_path):
    text = """\
quiver
  vertices 1 2
  arrow a 1 2

ideal
  truncation 3

module M
  dim 9 1
"""
    with pytest.raises(DanglingIdError):
        load_bundle([write(tmp_path, text)])


def test_noncomposable_relation(tmp_path):
    text = """\
quiver
  vertices 1 2 3
  arrow a 1 2
  arrow b 1 3

ideal
  truncation 3
  relation
    term 1 a b
"""
    with pytest.raises(CompositionError):
        load_bundle([write(tmp_path, text)])


def test_module_violating_relation_names_it(tmp_path):
    text = """\
quiver
  vertices 1 2
  arrow a 1 2
  arrow b 2 1

ideal
  truncation 3
  relation
    term 1 a b

module M
  dim 1 1
  dim 2 1
  matrix a
    row 1
  matrix b
    row 1
"""
    with pytest.raises(ModuleValidationError) as exc:
        load_bundle([write(tmp_path, text)])
    assert "a" in str(exc.value) and "b" in str(exc.value)


def test_matrix_shape_mismatch(tmp_path):
    text = """\
quiver
  vertices 1 2
  arrow a 1 2

ideal
  truncation 3

module M
  dim 1 2
  dim 2 1
  matrix a
    row 1
"""
    with pytest.raises(ParseError):
        load_bundle([write(tmp_path, text)])


def test_matrix_for_zero_side_and_omitted_matrices(tmp_path):
    head = "quiver\n  vertices 1 2\n  arrow a 1 2\n  arrow b 2 1\n\nideal\n  truncation 2\n"
    text = head + "\nmodule M\n  dim 1 2\n  matrix b\n"
    m = load_bundle([write(tmp_path, text)]).modules[0]
    assert m.mats == {"a": [[], []], "b": []}
    with pytest.raises(ParseError, match="omitted when a side is zero") as exc:
        load_bundle([write(tmp_path, text + "    row\n")])
    assert exc.value.line == 11


def test_module_work_budget_boundary(tmp_path):
    # one loop at dim 500: 250 000 identity plus 250 000 loop cells, within 10^6
    text = "quiver\n  vertices 1\n  arrow a 1 1\n\nideal\n  truncation 2\n"
    m = load_bundle([write(tmp_path, text + "\nmodule M\n  dim 1 500\n")]).modules[0]
    assert m.dims == {"1": 500}
    with pytest.raises(ParseError, match="units of work"):
        load_bundle([write(tmp_path, text + "\nmodule M\n  dim 1 708\n")])


def test_multi_file_bundle(tmp_path):
    q_part = "quiver\n  vertices 1 2\n  arrow a 1 2\n\nideal\n  truncation 3\n"
    m_part = "module M\n  dim 1 1\n  dim 2 0\n"
    bundle = load_bundle(
        [write(tmp_path, q_part, "a.qh"), write(tmp_path, m_part, "b.qh")]
    )
    assert bundle.module_names == ("M",)


def test_section_count_errors(tmp_path):
    q = "quiver\n  vertices 1\n"
    with pytest.raises(InputError):
        load_bundle([write(tmp_path, q + "\n" + q)])
    with pytest.raises(InputError):
        load_bundle([write(tmp_path, "module M\n  dim 1 1\n")])
    with pytest.raises(InputError):
        load_bundle([write(tmp_path, q + "\nmodule M\n  dim 1 1\n")])
    two_modules = (
        "quiver\n  vertices 1\n\nideal\n  truncation 2\n\n"
        "module M\n  dim 1 1\n\nmodule M\n  dim 1 0\n"
    )
    with pytest.raises(InputError):
        load_bundle([write(tmp_path, two_modules)])


def test_a_second_ideal_section_and_a_second_matrix_are_refused(tmp_path):
    with pytest.raises(InputError, match="^more than one ideal section$"):
        load_bundle([write(tmp_path, GOOD + "\nideal\n  truncation 3\n")])
    text = GOOD.replace("  dim 2 0\n", "  dim 2 1\n  matrix a\n    row 0\n  matrix a\n    row 0\n")
    with pytest.raises(ParseError) as exc:
        load_bundle([write(tmp_path, text)])
    assert str(exc.value) == "duplicate matrix for arrow 'a' (line 20, column 10)"


def test_default_module_names(tmp_path):
    text = (
        "quiver\n  vertices 1\n\nideal\n  truncation 2\n\n"
        "module\n  dim 1 1\n\nmodule\n  dim 1 0\n"
    )
    bundle = load_bundle([write(tmp_path, text)])
    assert bundle.module_names == ("m1", "m2")


def test_comments_and_blank_lines_ignored(tmp_path):
    text = "# leading comment\n\nquiver\n  # inner comment\n  vertices 1\n"
    bundle = load_bundle([write(tmp_path, text)])
    assert bundle.quiver.vertices == ("1",)


GRAMMAR_BASE = """\
quiver
  vertices 1 2
  arrow a 1 2
  arrow b 2 1
ideal
  truncation 3
  relation
    term 1 a b
module M
  dim 1 1
  dim 2 1
  matrix a
    row 1
subquiver
  vertices 1
""".splitlines()

# (keyword, what breaks, line number in GRAMMAR_BASE, its replacement, message, (line, column))
GRAMMAR_CASES = [
    # one argument too few: the keyword's own position
    ("arrow", "few", 3, "  arrow a 1", "expected 'arrow <name> <source> <target>'", (3, 3)),
    ("truncation", "few", 6, "  truncation", "expected 'truncation <n>'", (6, 3)),
    ("term", "few", 8, "    term 1 a", "expected 'term <coeff> <arrow> <arrow> ...'", (8, 5)),
    ("dim", "few", 10, "  dim 1", "expected 'dim <vertex> <n>'", (10, 3)),
    ("matrix", "few", 12, "  matrix", "expected 'matrix <arrow>'", (12, 3)),
    # one argument too many: the first surplus token
    ("quiver", "many", 1, "quiver junk", "expected 'quiver'", (1, 8)),
    ("arrow", "many", 3, "  arrow a 1 2 3", "expected 'arrow <name> <source> <target>'", (3, 15)),
    ("ideal", "many", 5, "ideal 7", "expected 'ideal'", (5, 7)),
    ("truncation", "many", 6, "  truncation 3 4", "expected 'truncation <n>'", (6, 16)),
    ("relation", "many", 7, "  relation x", "expected 'relation'", (7, 12)),
    ("module", "many", 9, "module M N", "expected 'module [name]'", (9, 10)),
    ("dim", "many", 10, "  dim 1 1 1", "expected 'dim <vertex> <n>'", (10, 11)),
    ("matrix", "many", 12, "  matrix a b", "expected 'matrix <arrow>'", (12, 12)),
    ("subquiver", "many", 14, "subquiver extra", "expected 'subquiver'", (14, 11)),
    # a nested line under a keyword that takes none: the nested line
    ("vertices", "nested", 2, "  vertices 1 2\n    zz", "'vertices' takes no nested lines", (3, 5)),
    ("arrow", "nested", 3, "  arrow a 1 2\n    zz", "'arrow' takes no nested lines", (4, 5)),
    ("truncation", "nested", 6, "  truncation 3\n    zz", "'truncation' takes no nested lines", (7, 5)),
    ("term", "nested", 8, "    term 1 a b\n      zz", "'term' takes no nested lines", (9, 7)),
    ("dim", "nested", 10, "  dim 1 1\n    zz", "'dim' takes no nested lines", (11, 5)),
    ("row", "nested", 13, "    row 1\n      zz", "'row' takes no nested lines", (14, 7)),
    ("vertices", "nested", 15, "  vertices 1\n    zz", "'vertices' takes no nested lines", (16, 5)),
    # an unknown keyword, at the top or nested: that keyword
    ("section", "unknown", 14, "zz", "unknown section 'zz'", (14, 1)),
    ("quiver", "unknown", 4, "  zz b 2 1", "unknown quiver entry 'zz'", (4, 3)),
    ("quiver", "unknown", 4, "  row 1", "unknown quiver entry 'row'", (4, 3)),
    ("ideal", "unknown", 6, "  zz 3", "unknown ideal entry 'zz'", (6, 3)),
    ("relation", "unknown", 8, "    zz 1 a b", "unknown relation entry 'zz'", (8, 5)),
    ("module", "unknown", 10, "  zz 1 1", "unknown module entry 'zz'", (10, 3)),
    ("matrix", "unknown", 13, "    zz 1", "unknown matrix entry 'zz'", (13, 5)),
    ("subquiver", "unknown", 15, "  zz 1", "unknown subquiver entry 'zz'", (15, 3)),
]


def grammar_text(number, line):
    lines = list(GRAMMAR_BASE)
    lines[number - 1] = line
    return "\n".join(lines) + "\n"


def test_grammar_base_loads(tmp_path):
    bundle = load_bundle([write(tmp_path, "\n".join(GRAMMAR_BASE) + "\n")])
    assert bundle.module_names == ("M",) and bundle.subquiver == {"1"}


def test_grammar_cases_cover_every_keyword():
    assert {case[0] for case in GRAMMAR_CASES} == set(_GRAMMAR) | {"section"}


@pytest.mark.parametrize(
    "number, line, message, at",
    [pytest.param(*case[2:], id=f"{case[1]}-{case[0]}-{case[2]}") for case in GRAMMAR_CASES],
)
def test_grammar_refusals_name_the_line_and_column(tmp_path, number, line, message, at):
    with pytest.raises(ParseError) as exc:
        load_bundle([write(tmp_path, grammar_text(number, line))])
    assert str(exc.value) == f"{message} (line {at[0]}, column {at[1]})"
    assert (exc.value.line, exc.value.column) == at


def test_grammar_keeps_empty_vertices_and_row_lines(tmp_path):
    assert load_bundle([write(tmp_path, "quiver\n  vertices\n")]).quiver.vertices == ()
    # an empty row is read, and then refused as the wrong shape
    with pytest.raises(ParseError, match=r"^matrix for 'a' must be 1x1 \(line 12, column 3\)$"):
        load_bundle([write(tmp_path, grammar_text(13, "    row"))])


def test_grammar_errors_come_before_dangling_ids(tmp_path):
    # the unknown vertex on line 3 is read only after the whole file's grammar passes
    text = grammar_text(3, "  arrow a 1 9").replace("truncation 3", "truncation 3 3")
    with pytest.raises(ParseError, match=r"^expected 'truncation <n>' \(line 6, column 16\)$"):
        load_bundle([write(tmp_path, text)])


def test_serialize_subquiver_refuses_unknown_ids_and_a_string():
    q = Quiver.build(["1", "2"], [])
    with pytest.raises(DanglingIdError, match="^unknown vertex id 'yy'$"):
        serialize_subquiver({"zz", "yy"}, q)
    with pytest.raises(InputError, match="not the string '12'$"):
        serialize_subquiver("12", q)
    assert serialize_subquiver(["2", "1"], q) == "subquiver\n  vertices 1 2\n"
    assert serialize_subquiver(set(), q) == "subquiver\n"


def test_dot_export_highlights_heart(cycle_tail_quiver):
    hp = cycle_tail_quiver.homological_heart()
    dot = export_dot(cycle_tail_quiver, hp.heart)
    assert dot.startswith("digraph")
    assert dot.rstrip().endswith("}")
    assert '"1" [class="inside"' in dot
    assert '"2" [class="inside"' in dot
    assert '"3" [class="plus"' in dot
    assert '"4" [class="plus"' in dot
    assert '"2" -> "3" [label="c"];' in dot


def test_dot_export_marks_a_vertex_off_every_path_through_the_highlight():
    q = Quiver.build(["v", "w", "x", "z"], [("alpha", "v", "w"), ("beta", "w", "x")])
    dot = export_dot(q, q.full_subquiver({"w"}))
    assert '"v" [class="minus", style="filled", fillcolor="lightsalmon", shape="circle"];' in dot
    assert '"x" [class="plus", style="filled", fillcolor="palegreen", shape="circle"];' in dot
    assert '"z" [class="zero", style="filled,dashed", fillcolor="gray92", shape="circle"];' in dot
    with pytest.raises(InputError, match="^a subquiver is a FullSubquiver from Quiver.full_subquiver, not set$"):
        export_dot(q, {"w"})


def test_dot_export_plain_and_empty(line_quiver):
    dot = export_dot(line_quiver)
    assert "class=" not in dot
    assert '"v" -> "w" [label="alpha"];' in dot
    from quiverhom import Quiver

    empty = export_dot(Quiver.build([], []))
    assert empty.startswith("digraph") and empty.rstrip().endswith("}")


def test_dot_export_escapes_quotes_and_backslashes(tmp_path):
    text = 'quiver\n  vertices a"b c\\ d\n  arrow x"y a"b c\\\n  arrow z\\ c\\ d\n'
    q = load_bundle([write(tmp_path, text)]).quiver
    dot = export_dot(q, q.full_subquiver({"c\\"}))
    assert '"a\\"b" [class="minus"' in dot
    assert '"c\\\\" [class="inside"' in dot
    assert '"a\\"b" -> "c\\\\" [label="x\\"y"];' in dot
    assert '"c\\\\" -> "d" [label="z\\\\"];' in dot
    # every quoted string closes on its own line, so each line reads as DOT
    quoted = re.compile(r'"(?:[^"\\]|\\.)*"')
    for line in dot.splitlines():
        assert '"' not in quoted.sub("", line), line


# ---------------------------------------------------------------------------
# fuzz: any text loads or ends in an InputError

KEYWORDS = ["quiver", "ideal", "module", "subquiver", "vertices", "arrow", "truncation",
            "relation", "term", "dim", "matrix", "row", "#", "S1", "1", "2", "a", "b", "zz"]
NUMBERS = ["0", "1", "2", "3", "4", "-1", "-1/2", "1/2", "2/4", "1/0", "1.5", "x1", "007"]
SECTIONS = ["quiver", "ideal", "module", "module S1", "subquiver"]
# mostly valid nesting levels, so that most inputs get past the line parser
INDENTS = ["  ", "  ", "  ", "  ", "    ", "    ", "      ", "", " ", "   "]
# GOOD plus a matrix, so that row entries are mutated too
FUZZ_BASE = (GOOD + "module M\n  dim 1 1\n  dim 2 1\n  matrix a\n    row 1/2\n").splitlines()
# weighted towards the argument mutations, which reach the section parsers
MUTATIONS = ["drop", "repeat", "swap", "insert", "indent", "tab"] + ["token", "number"] * 3

tokens = st.sampled_from(KEYWORDS + NUMBERS)
soup_line = st.builds(
    lambda indent, words, sep: indent + sep.join(words),
    st.sampled_from(INDENTS),
    st.lists(tokens, max_size=5),
    st.sampled_from([" ", " ", "  "]),
)
soup = st.lists(
    st.tuples(st.sampled_from(SECTIONS) | tokens, st.lists(soup_line, max_size=5)),
    max_size=4,
).map(lambda blocks: "\n".join(head + "\n" + "\n".join(body) for head, body in blocks))

# a two-vertex workspace with every numeric slot drawn from NUMBERS
numbers = st.lists(st.sampled_from(NUMBERS), min_size=1, max_size=2)
valued = st.builds(
    lambda trunc, coeffs, dims, row: "quiver\n  vertices 1 2\n  arrow a 1 2\n  arrow b 2 1\n"
    + f"ideal\n  truncation {trunc[0]}\n  relation\n"
    + "".join(f"    term {c} a b\n" for c in coeffs)
    + f"module\n  dim 1 {dims[0]}\n  dim 2 {dims[-1]}\n  matrix a\n    row {' '.join(row)}\n",
    numbers,
    numbers,
    numbers,
    numbers,
)


@st.composite
def mutated_workspace(draw):
    lines = list(FUZZ_BASE)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(MUTATIONS))
        if kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "insert":
            lines.insert(i, draw(soup_line))
        elif kind in ("token", "number"):
            body = lines[i].lstrip(" ")
            words = body.split(" ")
            pick = tokens if kind == "token" else st.sampled_from(NUMBERS)
            words[draw(st.integers(0, len(words) - 1))] = draw(pick)
            lines[i] = lines[i][: len(lines[i]) - len(body)] + " ".join(words)
        elif kind == "indent":
            lines[i] = draw(st.sampled_from(INDENTS)) + lines[i].lstrip(" ")
        else:
            lines[i] = lines[i].replace(" ", "\t", 1)
        if not lines:
            lines.append("")
    return "\n".join(lines) + "\n"


def test_parser_fuzz_loads_or_raises_input_error(tmp_path):
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        text=mutated_workspace() | soup | valued,
        field=st.sampled_from([QQ, PrimeField(2)]),
    )
    def loads_or_refuses(text, field):
        try:
            load_bundle([write(tmp_path, text)], field)
        except InputError:
            pass

    loads_or_refuses()
