"""Command-line interface.

Commands take one or more workspace files (sections may be split across
files however is convenient) and print deterministic reports to standard
output.  Exit codes: 0 for success, 1 when a verify run has failing cases,
2 for any input problem.

    quiverhom heart examples.qh
    quiverhom convex examples.qh --subquiver v,x
    quiverhom ext examples.qh --cutoff 6 --field p:5
    quiverhom verify heart --seed 7 --cases 50
"""

from __future__ import annotations

import argparse
import sys

from .algebra import build_algebra, verify_convex_isos
from .errors import InputError, InvariantViolation
from .fields import field_from_descriptor
from .formats import WorkspaceBundle, export_dot, load_bundle
from .homology import ext_dims, proj_dim, resolution
from .lab import (
    InstanceSpec,
    decompose,
    verify_convex_epi,
    verify_ext_cross,
    verify_heart_theorem,
    verify_subquiver_calculus,
)


def _vertex_list(vs) -> str:
    return " ".join(vs) if vs else "-"


def _load(args) -> WorkspaceBundle:
    return load_bundle(args.files, field_from_descriptor(args.field))


def _selection(args, bundle: WorkspaceBundle) -> frozenset[str]:
    if args.subquiver is not None:
        chosen = frozenset(v for v in args.subquiver.split(",") if v)
        bundle.quiver.check_vertices(chosen)
        return chosen
    if bundle.subquiver is not None:
        return bundle.subquiver
    raise InputError("no subquiver given; pass --subquiver or add a subquiver section")


def _require_algebra(bundle: WorkspaceBundle):
    if bundle.algebra is None:
        raise InputError("this command needs an ideal section (algebra data)")
    return bundle.algebra


def _cmd_heart(args) -> int:
    bundle = _load(args)
    q = bundle.quiver
    hp = q.homological_heart()
    if args.dot:
        sys.stdout.write(export_dot(q, hp))
        return 0
    out = [
        "heart " + _vertex_list(hp.heart.vertices),
        f"t {hp.t}",
        "cycle_vertices " + _vertex_list(q.sort_vertices(hp.cycle_vertices)),
        "complement " + _vertex_list(q.sort_vertices(hp.heart.complement())),
    ]
    print("\n".join(out))
    return 0


def _cmd_convex(args) -> int:
    bundle = _load(args)
    q = bundle.quiver
    sub = q.full_subquiver(_selection(args, bundle))
    if args.dot:
        sys.stdout.write(export_dot(q, sub))
        return 0
    split = q.boundary_split(sub)
    out = [
        "subquiver " + _vertex_list(sub.vertices),
        "convex " + ("yes" if q.is_convex(sub) else "no"),
        "plus " + _vertex_list(q.sort_vertices(split.plus)),
        "minus " + _vertex_list(q.sort_vertices(split.minus)),
        "zero " + _vertex_list(q.sort_vertices(split.zero)),
        "closure " + _vertex_list(q.convex_closure(sub.vertex_set).vertices),
    ]
    print("\n".join(out))
    return 0


def _cmd_components(args) -> int:
    bundle = _load(args)
    q = bundle.quiver
    rep = q.components()
    out = []
    for comp, flag in zip(rep.components, rep.nontrivial_flags):
        kind = "nontrivial" if flag else "trivial"
        out.append(f"component {_vertex_list(q.sort_vertices(comp))} [{kind}]")
    for a in rep.condensation.arrows:
        out.append(f"condensation {a.source} -> {a.target}")
    out.append("simple_cycle_type " + ("yes" if rep.simple_cycle_type else "no"))
    print("\n".join(out))
    return 0


def _cmd_algebra(args) -> int:
    bundle = _load(args)
    alg = _require_algebra(bundle)
    by_len: dict[int, int] = {}
    for el in alg.elements:
        by_len[el.length] = by_len.get(el.length, 0) + 1
    out = [
        f"field {alg.field.name}",
        f"dim {alg.dim}",
        f"vertices {len(alg.vertices)}",
        f"arrows {len(alg.quiver.arrows)}",
        f"radical_dim {len(alg.radical_indices)}",
    ]
    for length in sorted(by_len):
        out.append(f"basis_length {length} count {by_len[length]}")
    if args.subquiver is not None or bundle.subquiver is not None:
        sub = bundle.quiver.full_subquiver(_selection(args, bundle))
        report = verify_convex_isos(bundle.quiver, bundle.ideal, sub, bundle.field)
        out.append("corner_dim " + str(report.corner_dim))
        out.append("quotient_dim " + str(report.quotient_dim))
        out.append("restricted_dim " + str(report.restricted_dim))
        for entry in report.entries:
            status = "ok" if entry.passed else "FAIL"
            out.append(f"check {entry.name} {status}" + (f" [{entry.detail}]" if entry.detail else ""))
    print("\n".join(out))
    return 0


def _cmd_resolve(args) -> int:
    bundle = _load(args)
    _require_algebra(bundle)
    if not bundle.modules:
        raise InputError("resolve needs a module section")
    m = bundle.modules[0]
    res = resolution(m, args.cutoff, "projective")
    out = [f"module {bundle.module_names[0]}", f"total_dim {m.total_dim}"]
    for i, label in enumerate(res.term_labels()):
        out.append(f"term {i} {label}")
    out.append("minimal " + ("yes" if res.minimal else "no"))
    out.append("exact " + ("yes" if res.exact else "no"))
    out.append(f"syzygy_{args.cutoff + 1}_dim {res.syzygy(args.cutoff + 1).total_dim}")
    out.append(f"proj_dim {proj_dim(m, args.cutoff)}")
    print("\n".join(out))
    return 0


def _cmd_ext(args) -> int:
    bundle = _load(args)
    _require_algebra(bundle)
    if len(bundle.modules) < 2:
        raise InputError("ext needs two module sections")
    m, n = bundle.modules[0], bundle.modules[1]
    table = ext_dims(m, n, args.cutoff)
    out = [f"modules {bundle.module_names[0]} {bundle.module_names[1]}"]
    for k in range(args.cutoff + 1):
        out.append(f"ext {k} dim {table[k]}")
    print("\n".join(out))
    return 0


def _cmd_decompose(args) -> int:
    bundle = _load(args)
    if bundle.ideal is None:
        raise InputError("decompose needs an ideal section")
    tree = decompose(bundle.quiver, bundle.ideal, bundle.field)
    sys.stdout.write(tree.render())
    out = [f"splits {tree.splits}"]
    for i, b in enumerate(tree.blocks, start=1):
        cyc = "yes" if b.simple_cycle else "no"
        out.append(f"block {i} vertices={','.join(b.vertices)} dim={b.dim} simple_cycle={cyc}")
    print("\n".join(out))
    return 0


def _cmd_verify(args) -> int:
    suite = {
        "subquiver": verify_subquiver_calculus,
        "epi": verify_convex_epi,
        "heart": verify_heart_theorem,
        "ext": verify_ext_cross,
    }[args.suite]
    # unset options fall back to the suite's own defaults
    kwargs = {} if args.cases is None else {"cases": args.cases}
    if args.cutoff is not None and args.suite != "subquiver":
        kwargs["cutoff"] = args.cutoff
    report = suite(InstanceSpec(seed=args.seed), **kwargs)
    sys.stdout.write(report.render())
    return 0 if report.all_passed else 1


def _add_common(sub, files=True) -> None:
    if files:
        sub.add_argument("files", nargs="+", help="workspace files (quiver/ideal/module sections)")
    sub.add_argument("--field", default="q", help="coefficient field: q or p:<prime>")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverhom",
        description="Exact homological calculus for bound quiver algebras.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("heart", help="homological heart, bound t, and boundary classes")
    _add_common(p)
    p.add_argument("--dot", action="store_true", help="emit a DOT digraph with class highlighting")
    p.set_defaults(func=_cmd_heart)

    p = subs.add_parser("convex", help="convexity and boundary split of a vertex selection")
    _add_common(p)
    p.add_argument("--subquiver", help="comma-separated vertex ids")
    p.add_argument("--dot", action="store_true", help="emit a DOT digraph with class highlighting")
    p.set_defaults(func=_cmd_convex)

    p = subs.add_parser("components", help="path-connected components and condensation")
    _add_common(p)
    p.set_defaults(func=_cmd_components)

    p = subs.add_parser("algebra", help="algebra dimensions; corner checks with a subquiver")
    _add_common(p)
    p.add_argument("--subquiver", help="comma-separated vertex ids")
    p.set_defaults(func=_cmd_algebra)

    p = subs.add_parser("resolve", help="minimal projective resolution of the first module")
    _add_common(p)
    p.add_argument("--cutoff", type=int, default=6, help="resolution length (default 6)")
    p.set_defaults(func=_cmd_resolve)

    p = subs.add_parser("ext", help="Ext dimension table for the first two modules")
    _add_common(p)
    p.add_argument("--cutoff", type=int, default=6, help="largest Ext degree (default 6)")
    p.set_defaults(func=_cmd_ext)

    p = subs.add_parser("decompose", help="recursive block decomposition")
    _add_common(p)
    p.set_defaults(func=_cmd_decompose)

    p = subs.add_parser("verify", help="run a randomized verification suite")
    p.add_argument("suite", choices=["subquiver", "epi", "heart", "ext"])
    p.add_argument("--seed", type=int, default=1, help="master seed (default 1)")
    p.add_argument("--cases", type=int, default=None, help="number of cases (suite default)")
    p.add_argument("--cutoff", type=int, default=None, help="Ext cutoff where applicable")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
