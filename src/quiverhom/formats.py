"""Structured text formats for quivers, ideals, modules, and DOT export.

One line-oriented format covers every input kind.  Rules:

  - ``#`` starts a comment that runs to the end of the line; blank lines are
    ignored.
  - Nesting is two spaces per level; tab characters are rejected.
  - A section starts with an unindented keyword line: ``quiver``, ``ideal``,
    ``module`` (optionally followed by a name), or ``subquiver``; no other
    section header takes an argument.
  - Tokens are separated by single or repeated spaces.

The table ``_GRAMMAR`` is the whole grammar: each keyword's usage line and
the keywords its nested lines may use.  Every parsed file is checked against
it, so the section readers only read values and cross-references.

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
from .quiver import HeartProfile, Quiver

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
    _check(roots, ("quiver", "ideal", "module", "subquiver"), "section")
    return roots


# keyword -> (usage, the keywords its nested lines may use).  A usage writes
# a required argument <x>, an optional one [x]; a trailing ... repeats the last.
_GRAMMAR = {
    "quiver": ("quiver", ("vertices", "arrow")),
    "vertices": ("vertices [id] ...", ()),
    "arrow": ("arrow <name> <source> <target>", ()),
    "ideal": ("ideal", ("truncation", "relation")),
    "truncation": ("truncation <n>", ()),
    "relation": ("relation", ("term",)),
    "term": ("term <coeff> <arrow> <arrow> ...", ()),
    "module": ("module [name]", ("dim", "matrix")),
    "dim": ("dim <vertex> <n>", ()),
    "matrix": ("matrix <arrow>", ("row",)),
    "row": ("row [entry] ...", ()),
    "subquiver": ("subquiver", ("vertices",)),
}


def _check(nodes: list[_Node], allowed, where: str) -> None:
    """Refuse the first line whose keyword, arguments or nesting break _GRAMMAR."""
    for node in nodes:
        head = node.tokens[0]
        if node.keyword not in allowed:
            raise ParseError(f"unknown {where} {node.keyword!r}", node.line, head.column)
        usage, nested = _GRAMMAR[node.keyword]
        if node.children and not nested:
            child = node.children[0]
            raise ParseError(
                f"'{node.keyword}' takes no nested lines", child.line, child.tokens[0].column
            )
        words, args = usage.split()[1:], node.arg_tokens()
        most = len(args) if words[-1:] == ["..."] else len(words)
        if len(args) < sum(w.startswith("<") for w in words):
            raise ParseError(f"expected '{usage}'", node.line, head.column)
        if len(args) > most:
            raise ParseError(f"expected '{usage}'", node.line, args[most].column)
        _check(node.children, nested, f"{node.keyword} entry")


def _known(tok: _Token, ids, what: str, line: int) -> str:
    """tok's text once it is one of ids; else DanglingIdError "<what> '<tok>' (line <line>)"."""
    if tok.text not in ids:
        raise DanglingIdError(f"{what} {tok.text!r} (line {line})")
    return tok.text


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
# section readers, each on a tree that _check has passed


def parse_quiver_section(node: _Node) -> Quiver:
    vertices: list[str] = []
    seen_v: set[str] = set()
    arrows: list[tuple[str, str, str]] = []
    seen_a: set[str] = set()
    for child in node.children:
        if child.keyword == "vertices":
            for tok in child.arg_tokens():
                if tok.text in seen_v:
                    raise ParseError(f"duplicate vertex id {tok.text!r}", child.line, tok.column)
                seen_v.add(tok.text)
                vertices.append(tok.text)
        else:
            name, src, tgt = child.arg_tokens()
            if name.text in seen_a:
                raise ParseError(f"duplicate arrow id {name.text!r}", child.line, name.column)
            seen_a.add(name.text)
            what = f"arrow {name.text!r} references unknown vertex"
            ends = [_known(tok, seen_v, what, child.line) for tok in (src, tgt)]
            arrows.append((name.text, *ends))
    return Quiver.build(vertices, arrows)


def parse_ideal_section(node: _Node, q: Quiver) -> IdealSpec:
    truncation: int | None = None
    relations: list[tuple[tuple[object, tuple[str, ...]], ...]] = []
    for child in node.children:
        if child.keyword == "truncation":
            (tok,) = child.arg_tokens()
            if truncation is not None:
                raise ParseError("duplicate truncation line", child.line, tok.column)
            truncation = _parse_int(tok, child.line)
            continue
        if not child.children:
            raise ParseError("relation with no terms", child.line, child.tokens[0].column)
        what = "relation references unknown arrow"
        terms = []
        for term in child.children:
            coeff, *path = term.arg_tokens()
            c = _parse_exact(coeff, term.line)
            terms.append((c, tuple(_known(tok, q.arrow_by_name, what, term.line) for tok in path)))
        relations.append(tuple(terms))
    if truncation is None:
        raise ParseError("ideal section is missing its truncation line", node.line)
    ideal = IdealSpec(tuple(relations), truncation)
    ideal.uniform_relations(q)
    return ideal


def parse_module_section(node: _Node, alg: FiniteDimAlgebra) -> Representation:
    q = alg.quiver
    F = alg.field
    dims: dict[str, int] = {}
    raw_mats: dict[str, tuple[tuple[int, int], list[list]]] = {}
    for child in node.children:
        if child.keyword == "dim":
            vtok, ntok = child.arg_tokens()
            v = _known(vtok, q.vertex_index, "module references unknown vertex", child.line)
            if v in dims:
                raise ParseError(f"duplicate dim for vertex {v!r}", child.line, vtok.column)
            n = _parse_int(ntok, child.line)
            if n < 0:
                raise ParseError("dimension must be nonnegative", child.line, ntok.column)
            dims[v] = n
            continue
        (atok,) = child.arg_tokens()
        a = _known(atok, q.arrow_by_name, "module references unknown arrow", child.line)
        if a in raw_mats:
            raise ParseError(f"duplicate matrix for arrow {a!r}", child.line, atok.column)
        rows = [
            [F.of(_parse_exact(tok, row.line)) for tok in row.arg_tokens()]
            for row in child.children
        ]
        raw_mats[a] = ((child.line, child.tokens[0].column), rows)
    full_dims = {v: dims.get(v, 0) for v in q.vertices}
    if _module_work(q, full_dims) > MAX_WORK:
        raise ParseError(f"module matrices exceed {MAX_WORK} units of work", node.line)
    mats = {}
    for a in q.arrows:
        if a.name not in raw_mats:
            continue
        nrows, ncols = full_dims[a.source], full_dims[a.target]
        at, rows = raw_mats[a.name]
        if nrows == 0 or ncols == 0:
            if rows:
                raise ParseError(f"matrix for {a.name!r} must be omitted when a side is zero", *at)
            continue
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ParseError(f"matrix for {a.name!r} must be {nrows}x{ncols}", *at)
        mats[a.name] = rows
    return Representation(alg, full_dims, mats)


def parse_subquiver_section(node: _Node, q: Quiver) -> frozenset[str]:
    what = "subquiver references unknown vertex"
    return frozenset(
        _known(tok, q.vertex_index, what, child.line)
        for child in node.children
        for tok in child.arg_tokens()
    )


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
        sections.extend(_parse_tree(text))

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


def serialize_ideal(ideal: IdealSpec) -> str:
    lines = ["ideal", f"  truncation {ideal.truncation}"]
    for rel in ideal.relations:
        lines.append("  relation")
        for coeff, arrows in rel:
            lines.append(f"    term {QQ.of(coeff)} " + _ids(*arrows))
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
    vertices = q.sort_vertices(q.check_vertices(vertex_set))
    if vertices:
        lines.append("  vertices " + _ids(*vertices))
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
