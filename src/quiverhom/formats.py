"""Structured text formats for quivers, ideals, modules, and DOT export.

One line-oriented format covers every input kind.  Rules:

  - ``#`` starts a comment (whole line); blank lines are ignored.
  - Nesting is two spaces per level; tab characters are rejected.
  - A section starts with an unindented keyword line: ``quiver``, ``ideal``,
    ``module`` (optionally followed by a name), or ``subquiver``.
  - Tokens are separated by single or repeated spaces.

Example sections::

    quiver
      vertices v w x
      arrow alpha v w
      arrow beta w x

    ideal
      truncation 4
      relation
        term 1 alpha beta
        term -1/2 alpha beta

    module M
      dim v 1
      dim w 2
      matrix alpha
        row 1 0

    subquiver
      vertices v x

Coefficients and matrix entries are exact integer or fraction literals such
as ``3`` or ``-1/2``, read by ``fields.parse_exact``: decimal literals (exponents
included) and ones with over ``fields.MAX_DIGITS`` digits a side are rejected.
A module matrix is row-major with one ``row`` line per source basis vector;
matrices whose shape has a zero side are omitted.  Serialization writes the
same syntax back, so load/serialize round-trips are identities; it refuses
an id that would not read back as one token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import MAX_WORK, FiniteDimAlgebra, IdealSpec, build_algebra
from .errors import DanglingIdError, InputError, ParseError
from .fields import QQ, _literal, parse_exact
from .modules import Representation, _module_work
from .quiver import FullSubquiver, HeartProfile, Quiver

# ---------------------------------------------------------------------------
# low-level line parsing


@dataclass(frozen=True)
class _Token:
    text: str
    column: int


@dataclass
class _Node:
    line: int
    tokens: list[_Token]
    children: list["_Node"]

    @property
    def keyword(self) -> str:
        return self.tokens[0].text

    def arg_tokens(self) -> list[_Token]:
        return self.tokens[1:]


_WORD = re.compile("[^ ]+")  # a token runs between spaces


def _tokenize(raw: str, number: int) -> tuple[int, list[_Token]]:
    tab = raw.find("\t")
    if tab >= 0:
        raise ParseError("tab character in input; indent with spaces", number, tab + 1)
    tokens = [_Token(w.group(), w.start() + 1) for w in _WORD.finditer(raw.split("#", 1)[0])]
    if not tokens:
        return 0, []
    indent_spaces = tokens[0].column - 1
    if indent_spaces % 2:
        raise ParseError("indentation must be a multiple of two spaces", number, indent_spaces)
    return indent_spaces // 2, tokens


def _parse_tree(text: str) -> list[_Node]:
    """Parse indented lines into a forest of nodes, one root per section."""
    roots: list[_Node] = []
    stack: list[tuple[int, _Node]] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        depth, tokens = _tokenize(raw, number)
        if not tokens:
            continue
        node = _Node(number, tokens, [])
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if depth == 0:
            roots.append(node)
        elif not stack:
            raise ParseError("indented line outside any section", number, tokens[0].column)
        else:
            parent_depth = stack[-1][0]
            if depth != parent_depth + 1:
                raise ParseError("indentation jumps more than one level", number, tokens[0].column)
            stack[-1][1].children.append(node)
        stack.append((depth, node))
    return roots


def _expect_args(node: _Node, count: int, usage: str) -> list[_Token]:
    args = node.arg_tokens()
    if len(args) != count:
        raise ParseError(f"expected '{usage}'", node.line, node.tokens[0].column)
    return args


def _no_children(node: _Node) -> None:
    if node.children:
        child = node.children[0]
        raise ParseError(
            f"'{node.keyword}' takes no nested lines", child.line, child.tokens[0].column
        )


def _parse_exact(tok: _Token, line: int) -> Fraction:
    try:
        return parse_exact(tok.text)
    except InputError as exc:
        raise ParseError(str(exc), line, tok.column) from None


def _parse_int(tok: _Token, line: int) -> int:
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError(f"bad integer literal {_literal(tok.text)}", line, tok.column) from None


# ---------------------------------------------------------------------------
# section interpreters


def parse_quiver_section(node: _Node) -> Quiver:
    vertices: list[str] = []
    seen_v: set[str] = set()
    arrows: list[tuple[str, str, str]] = []
    seen_a: set[str] = set()
    for child in node.children:
        if child.keyword == "vertices":
            _no_children(child)
            for tok in child.arg_tokens():
                if tok.text in seen_v:
                    raise ParseError(f"duplicate vertex id {tok.text!r}", child.line, tok.column)
                seen_v.add(tok.text)
                vertices.append(tok.text)
        elif child.keyword == "arrow":
            _no_children(child)
            name, src, tgt = _expect_args(child, 3, "arrow <name> <source> <target>")
            if name.text in seen_a:
                raise ParseError(f"duplicate arrow id {name.text!r}", child.line, name.column)
            seen_a.add(name.text)
            for tok in (src, tgt):
                if tok.text not in seen_v:
                    raise DanglingIdError(
                        f"arrow {name.text!r} references unknown vertex {tok.text!r} "
                        f"(line {child.line})"
                    )
            arrows.append((name.text, src.text, tgt.text))
        else:
            raise ParseError(
                f"unknown quiver entry {child.keyword!r}", child.line, child.tokens[0].column
            )
    return Quiver.build(vertices, arrows)


def parse_ideal_section(node: _Node, q: Quiver) -> IdealSpec:
    truncation: int | None = None
    relations: list[tuple[tuple[object, tuple[str, ...]], ...]] = []
    for child in node.children:
        if child.keyword == "truncation":
            _no_children(child)
            (tok,) = _expect_args(child, 1, "truncation <n>")
            if truncation is not None:
                raise ParseError("duplicate truncation line", child.line, tok.column)
            truncation = _parse_int(tok, child.line)
        elif child.keyword == "relation":
            if child.arg_tokens():
                extra = child.arg_tokens()[0]
                raise ParseError(
                    "relation takes no inline arguments; nest 'term' lines",
                    child.line,
                    extra.column,
                )
            terms = []
            for term in child.children:
                if term.keyword != "term":
                    raise ParseError(
                        f"expected 'term', got {term.keyword!r}", term.line, term.tokens[0].column
                    )
                _no_children(term)
                args = term.arg_tokens()
                if len(args) < 3:
                    raise ParseError(
                        "expected 'term <coeff> <arrow> <arrow> ...'",
                        term.line,
                        term.tokens[0].column,
                    )
                coeff = _parse_exact(args[0], term.line)
                for tok in args[1:]:
                    if tok.text not in q.arrow_by_name:
                        raise DanglingIdError(
                            f"relation references unknown arrow {tok.text!r} (line {term.line})"
                        )
                terms.append((coeff, tuple(tok.text for tok in args[1:])))
            if not terms:
                raise ParseError("relation with no terms", child.line, child.tokens[0].column)
            relations.append(tuple(terms))
        else:
            raise ParseError(
                f"unknown ideal entry {child.keyword!r}", child.line, child.tokens[0].column
            )
    if truncation is None:
        raise ParseError("ideal section is missing its truncation line", node.line)
    ideal = IdealSpec(tuple(relations), truncation)
    ideal.uniform_relations(q)
    return ideal


def parse_module_section(node: _Node, alg: FiniteDimAlgebra) -> Representation:
    q = alg.quiver
    F = alg.field
    dims: dict[str, int] = {}
    raw_mats: dict[str, tuple[_Node, list[list]]] = {}
    for child in node.children:
        if child.keyword == "dim":
            _no_children(child)
            vtok, ntok = _expect_args(child, 2, "dim <vertex> <n>")
            if vtok.text not in q.vertex_index:
                raise DanglingIdError(
                    f"module references unknown vertex {vtok.text!r} (line {child.line})"
                )
            if vtok.text in dims:
                raise ParseError(f"duplicate dim for vertex {vtok.text!r}", child.line, vtok.column)
            n = _parse_int(ntok, child.line)
            if n < 0:
                raise ParseError("dimension must be nonnegative", child.line, ntok.column)
            dims[vtok.text] = n
        elif child.keyword == "matrix":
            (atok,) = _expect_args(child, 1, "matrix <arrow>")
            if atok.text not in q.arrow_by_name:
                raise DanglingIdError(
                    f"module references unknown arrow {atok.text!r} (line {child.line})"
                )
            if atok.text in raw_mats:
                raise ParseError(f"duplicate matrix for arrow {atok.text!r}", child.line, atok.column)
            rows = []
            for rnode in child.children:
                if rnode.keyword != "row":
                    raise ParseError(
                        f"expected 'row', got {rnode.keyword!r}", rnode.line, rnode.tokens[0].column
                    )
                _no_children(rnode)
                rows.append([F.of(_parse_exact(tok, rnode.line)) for tok in rnode.arg_tokens()])
            raw_mats[atok.text] = (child, rows)
        else:
            raise ParseError(
                f"unknown module entry {child.keyword!r}", child.line, child.tokens[0].column
            )
    full_dims = {v: dims.get(v, 0) for v in q.vertices}
    if _module_work(q, full_dims) > MAX_WORK:
        raise ParseError(f"module matrices exceed {MAX_WORK} units of work", node.line)
    mats = {}
    for a in q.arrows:
        if a.name not in raw_mats:
            continue
        nrows, ncols = full_dims[a.source], full_dims[a.target]
        mnode, rows = raw_mats[a.name]
        if nrows == 0 or ncols == 0:
            if rows:
                raise ParseError(
                    f"matrix for {a.name!r} must be omitted when a side is zero",
                    mnode.line,
                    mnode.tokens[0].column,
                )
            continue
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ParseError(
                f"matrix for {a.name!r} must be {nrows}x{ncols}",
                mnode.line,
                mnode.tokens[0].column,
            )
        mats[a.name] = rows
    return Representation(alg, full_dims, mats)


def parse_subquiver_section(node: _Node, q: Quiver) -> frozenset[str]:
    chosen: set[str] = set()
    for child in node.children:
        if child.keyword != "vertices":
            raise ParseError(
                f"unknown subquiver entry {child.keyword!r}", child.line, child.tokens[0].column
            )
        _no_children(child)
        for tok in child.arg_tokens():
            if tok.text not in q.vertex_index:
                raise DanglingIdError(
                    f"subquiver references unknown vertex {tok.text!r} (line {child.line})"
                )
            chosen.add(tok.text)
    return frozenset(chosen)


# ---------------------------------------------------------------------------
# bundles


@dataclass(frozen=True)
class WorkspaceBundle:
    """Parsed and validated workspace: quiver plus optional ideal and modules.

    Whenever an ideal section is present, the algebra is built on load (its
    basis and table on first read), and every module has passed validation.
    """

    quiver: Quiver
    ideal: IdealSpec | None
    algebra: FiniteDimAlgebra | None
    modules: tuple[Representation, ...]
    module_names: tuple[str, ...]
    subquiver: frozenset[str] | None
    field: object


def load_bundle(paths, field=QQ) -> WorkspaceBundle:
    """Read one or more workspace files and validate all cross-references.

    Sections may be spread over files in any way; exactly one quiver section
    is required, the ideal and subquiver sections may appear at most once,
    and modules require an ideal (their validation needs the algebra).
    """
    sections: list[_Node] = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
        for root in _parse_tree(text):
            if root.keyword not in ("quiver", "ideal", "module", "subquiver"):
                raise ParseError(
                    f"unknown section {root.keyword!r}", root.line, root.tokens[0].column
                )
            sections.append(root)

    quiver_nodes = [n for n in sections if n.keyword == "quiver"]
    if len(quiver_nodes) != 1:
        raise InputError(f"expected exactly one quiver section, found {len(quiver_nodes)}")
    q = parse_quiver_section(quiver_nodes[0])

    ideal_nodes = [n for n in sections if n.keyword == "ideal"]
    if len(ideal_nodes) > 1:
        raise InputError("more than one ideal section")
    ideal = parse_ideal_section(ideal_nodes[0], q) if ideal_nodes else None
    alg = build_algebra(q, ideal, field) if ideal is not None else None

    modules: list[Representation] = []
    names: list[str] = []
    counter = 0
    for node in sections:
        if node.keyword != "module":
            continue
        if alg is None:
            raise InputError("module sections require an ideal section")
        counter += 1
        args = node.arg_tokens()
        if len(args) > 1:
            raise ParseError("expected 'module [name]'", node.line, args[1].column)
        names.append(args[0].text if args else f"m{counter}")
        modules.append(parse_module_section(node, alg))
    if len(set(names)) != len(names):
        raise InputError("duplicate module names in bundle")

    sub_nodes = [n for n in sections if n.keyword == "subquiver"]
    if len(sub_nodes) > 1:
        raise InputError("more than one subquiver section")
    sub = parse_subquiver_section(sub_nodes[0], q) if sub_nodes else None

    return WorkspaceBundle(q, ideal, alg, tuple(modules), tuple(names), sub, field)


# ---------------------------------------------------------------------------
# serialization


def _ids(*ids) -> str:
    """The ids joined by spaces, once each is a str that reads back as one token."""
    for name in ids:
        if not isinstance(name, str) or name.splitlines() != [name] or any(c in name for c in " \t#"):
            raise InputError(f"id {name!r} cannot be written: it is empty or holds a space, tab, # or line break")
    return " ".join(ids)


def serialize_quiver(q: Quiver) -> str:
    lines = ["quiver"]
    if q.vertices:
        lines.append("  vertices " + _ids(*q.vertices))
    for a in q.arrows:
        lines.append("  arrow " + _ids(a.name, a.source, a.target))
    return "\n".join(lines) + "\n"


def _coeff_str(c) -> str:
    return str(Fraction(c)) if not isinstance(c, int) else str(c)


def serialize_ideal(ideal: IdealSpec) -> str:
    lines = ["ideal", f"  truncation {ideal.truncation}"]
    for rel in ideal.relations:
        lines.append("  relation")
        for coeff, arrows in rel:
            lines.append(f"    term {_coeff_str(coeff)} " + _ids(*arrows))
    return "\n".join(lines) + "\n"


def serialize_module(m: Representation, name: str | None = None) -> str:
    q = m.algebra.quiver
    F = m.field
    lines = ["module" if name is None else f"module {_ids(name)}"]
    for v in q.vertices:
        if m.dims[v]:
            lines.append(f"  dim {_ids(v)} {m.dims[v]}")
    for a in q.arrows:
        block = m.mats[a.name]
        if not any(map(any, block)):  # zero, or a side is zero
            continue
        lines.append(f"  matrix {_ids(a.name)}")
        for row in block:
            lines.append("    row " + " ".join(F.to_str(x) for x in row))
    return "\n".join(lines) + "\n"


def serialize_subquiver(vertex_set, q: Quiver) -> str:
    lines = ["subquiver"]
    if vertex_set:
        lines.append("  vertices " + _ids(*q.sort_vertices(vertex_set)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT export


_DOT_STYLE = {
    "inside": ("filled,bold", "lightblue2"),
    "plus": ("filled", "palegreen"),
    "minus": ("filled", "lightsalmon"),
    "zero": ("filled,dashed", "gray92"),
}


def export_dot(q: Quiver, highlight=None) -> str:
    """DOT digraph with the subquiver boundary classes visually separated.

    The highlight may be a heart profile or any full subquiver; its inside
    vertices are filled blue, strict successors green, strict predecessors
    salmon, and path-disconnected vertices gray with a dashed border.
    """
    classes: dict[str, str] = {}
    if highlight is not None:
        sub = highlight.heart if isinstance(highlight, HeartProfile) else highlight
        if not isinstance(sub, FullSubquiver):
            raise InputError("highlight must be a heart profile or a full subquiver")
        split = q.boundary_split(sub)
        for v in sub.vertex_set:
            classes[v] = "inside"
        for v in split.plus:
            classes[v] = "plus"
        for v in split.minus:
            classes[v] = "minus"
        for v in split.zero:
            classes[v] = "zero"
    lines = ["digraph quiver {", "  rankdir=LR;"]
    for v in q.vertices:
        if v in classes:
            style, fill = _DOT_STYLE[classes[v]]
            lines.append(
                f'  {_dot_id(v)} [class="{classes[v]}", style="{style}", fillcolor="{fill}", shape="circle"];'
            )
        else:
            lines.append(f'  {_dot_id(v)} [shape="circle"];')
    for a in q.arrows:
        lines.append(f"  {_dot_id(a.source)} -> {_dot_id(a.target)} [label={_dot_id(a.name)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_id(name: str) -> str:
    """name as a DOT quoted string, its backslashes and quotes escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'
