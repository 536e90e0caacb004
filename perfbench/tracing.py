"""Spans around calls into quiverhom's public functions, and the per-layer
metrics computed from them.

Nothing inside the package is edited.  `Tracer.install` rebinds each
function listed in LAYERS, in every `quiverhom.*` namespace that holds it
(callers such as `lab` import names directly), and methods on their class.
Callers inside a module look the name up in the module's globals, so they
are caught too.  Spans live in memory and are written out at the end.

A span is [name, start_ns, end_ns, parent, op, note]: parent is the index
of the enclosing span or -1, op is the id the worker set for the current
operation (-1 during set-up), and note is a per-call value (rows * ncols
for rref, dim for build_algebra, [admitted, dim] for a set-up candidate).  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time

# (span name, module, attribute or Class.method, note taken from (args, result))
LAYERS = [
    ("lab.verify_convex_epi", "lab", "verify_convex_epi", None),
    ("lab.verify_heart_theorem", "lab", "verify_heart_theorem", None),
    ("lab.verify_ext_cross", "lab", "verify_ext_cross", None),
    ("algebra.build_algebra", "algebra", "build_algebra", lambda a, r: r.dim),
    ("algebra.restricted_algebra", "algebra", "restricted_algebra", None),
    ("algebra.corner_algebra", "algebra", "corner_algebra", None),
    ("algebra.quotient_by_idempotent", "algebra", "quotient_by_idempotent", None),
    ("algebra.opposite_algebra", "algebra", "opposite_algebra", None),
    ("algebra.verify_convex_isos", "algebra", "verify_convex_isos", None),
    ("quiver.paths_up_to", "quiver", "Quiver.paths_up_to", lambda a, r: len(r)),
    ("quiver.homological_heart", "quiver", "Quiver.homological_heart", None),
    ("quiver.convex_closure", "quiver", "Quiver.convex_closure", None),
    ("quiver.boundary_split", "quiver", "Quiver.boundary_split", None),
    ("quiver.components", "quiver", "Quiver.components", None),
    ("linalg.rref", "linalg", "rref", lambda a, r: len(a[0]) * a[1]),
    ("linalg.RowSpace", "linalg", "RowSpace.__init__", None),
    ("modules.kernel_of_map", "modules", "kernel_of_map", None),
    ("modules.embed_submodule", "modules", "embed_submodule", None),
    ("modules.dual_module", "modules", "dual_module", None),
    ("modules.dual_map", "modules", "dual_map", None),
    ("modules.submodule_closure", "modules", "submodule_closure", None),
    ("modules.quotient_by_submodule", "modules", "quotient_by_submodule", None),
    ("modules.inflate", "modules", "inflate", None),
    ("modules.standard_module", "modules", "standard_module", None),
    ("modules.heart_parts", "modules", "heart_parts", None),
    ("modules.trace_submodule", "modules", "trace_submodule", None),
    (
        "homology.projective_cover_and_syzygy",
        "homology",
        "projective_cover_and_syzygy",
        lambda a, r: r.term.total_dim,
    ),
    ("homology.resolution", "homology", "resolution", None),
    ("homology.ext_dims", "homology", "ext_dims", None),
    ("homology.transport_resolution", "homology", "transport_resolution", None),
    ("homology.heart_shift_pair", "homology", "heart_shift_pair", None),
    ("homology.gl_dim", "homology", "gl_dim", None),
    # a boundary only: keeps its cover call from counting as a width gate
    ("homology.is_projective_module", "homology", "is_projective_module", None),
]

# a case of a suite, or a candidate instance filtered by the benchmark's set-up
CASE_SPANS = {"lab.verify_convex_epi", "lab.verify_heart_theorem", "lab.verify_ext_cross"}
CANDIDATE_SPAN = "bench.candidate"
COVER = "homology.projective_cover_and_syzygy"
BUILD = "algebra.build_algebra"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._bindings: list[tuple[object, str, object, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, 0]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, note=None):
        """Run fn() inside a span of the benchmark's own; note maps its result."""
        return self._wrap(name, fn, note)()

    # -- rebinding -----------------------------------------------------------

    def install(self) -> None:
        namespaces = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "quiverhom"]
        for name, modname, attr, note in LAYERS:
            home = sys.modules[f"quiverhom.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._bind(cls, meth, orig, self._wrap(name, orig, note))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(name, orig, note)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._bind(ns, key, orig, wrapper)

    def _bind(self, owner, key, orig, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._bindings.append((owner, key, orig, wrapper))

    def uninstall(self) -> None:
        """Restore every name still bound to its wrapper; leave names that
        someone rebound since (such as the admission recorder) alone."""
        for owner, key, orig, wrapper in reversed(self._bindings):
            if getattr(owner, key) is wrapper:
                setattr(owner, key, orig)
        self._bindings.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# aggregation


def _index(spans):
    n = len(spans)
    children: list[list[int]] = [[] for _ in range(n)]
    child_ns = [0] * n
    for i, s in enumerate(spans):
        p = s[3]
        if p >= 0:
            children[p].append(i)
            child_ns[p] += s[2] - s[1]
    self_ns = [s[2] - s[1] - child_ns[i] for i, s in enumerate(spans)]
    return children, self_ns


def per_op_counts(spans, ops) -> dict[int, tuple]:
    """Exact counts per op id: build calls, table cells, rref calls and cells,
    cover calls.  These must repeat exactly when an op is run again."""
    out = {op: [0, 0, 0, 0, 0] for op in ops}
    for s in spans:
        row = out.get(s[4])
        if row is None:
            continue
        if s[0] == BUILD:
            row[0] += 1
            row[1] += s[5] * s[5]
        elif s[0] == "linalg.rref":
            row[2] += 1
            row[3] += s[5]
        elif s[0] == COVER:
            row[4] += 1
    return {op: tuple(v) for op, v in out.items()}


def layer_metrics(spans, dim_cap: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over every span with op id >= -1 (set-up included)."""
    keep = [i for i, s in enumerate(spans) if s[4] >= -1]
    children, self_ns = _index(spans)
    by_name: dict[str, list[int]] = {}
    for i in keep:
        by_name.setdefault(spans[i][0], []).append(i)

    def ids(*names):
        return [i for n in names for i in by_name.get(n, ())]

    def self_s(*names):
        return sum(self_ns[i] for i in ids(*names)) / 1e9

    def notes(*names):
        return [spans[i][5] for i in ids(*names)]

    attempts = admitted = dimcap = gate = 0
    reject_ns = admitted_ns = 0
    for c in ids(*CASE_SPANS):
        builds = [k for k in children[c] if spans[k][0] == BUILD]  # in start order
        attempts += len(builds)
        admitted += 1
        dimcap += sum(1 for k in builds if spans[k][5] > dim_cap)
        for a, b in zip(builds, builds[1:]):
            reject_ns += spans[b][1] - spans[a][1]
        if builds:
            admitted_ns += spans[c][2] - spans[builds[-1]][1]
        gate += sum(1 for k in children[c] if spans[k][0] == COVER)
    for c in ids(CANDIDATE_SPAN):
        ok, dim = spans[c][5]
        attempts += 1
        admitted += ok
        dimcap += dim > dim_cap
        if ok:
            admitted_ns += spans[c][2] - spans[c][1]
        else:
            reject_ns += spans[c][2] - spans[c][1]
        gate += sum(1 for k in children[c] if spans[k][0] == COVER)

    dims = notes(BUILD)
    build_ids = ids(BUILD)
    term_dims = notes(COVER)
    m = {
        "lab.attempts": (attempts, "count"),
        "lab.admit_ratio": (admitted / attempts if attempts else 0.0, "1"),
        "lab.reject_dimcap": (dimcap, "count"),
        "lab.reject_s": (reject_ns / 1e9, "s"),
        "lab.admitted_s": (admitted_ns / 1e9, "s"),
        "lab.gate_cover_calls": (gate, "count"),
        "algebra.build_calls": (len(dims), "count"),
        "algebra.build_s": (self_s(BUILD), "s"),
        "algebra.build_dim_max": (max(dims, default=0), "count"),
        "algebra.table_cells": (sum(d * d for d in dims), "count"),
        "algebra.overcap_s": (
            sum(self_ns[i] for i in build_ids if spans[i][5] > dim_cap) / 1e9,
            "s",
        ),
        "algebra.derived_s": (
            self_s(
                "algebra.restricted_algebra",
                "algebra.corner_algebra",
                "algebra.quotient_by_idempotent",
                "algebra.opposite_algebra",
                "algebra.verify_convex_isos",
            ),
            "s",
        ),
        "quiver.paths": (sum(notes("quiver.paths_up_to")), "count"),
        "quiver.s": (
            self_s(
                "quiver.paths_up_to",
                "quiver.homological_heart",
                "quiver.convex_closure",
                "quiver.boundary_split",
                "quiver.components",
            ),
            "s",
        ),
        "linalg.rref_calls": (len(ids("linalg.rref")), "count"),
        "linalg.rref_cells": (sum(notes("linalg.rref")), "count"),
        "linalg.rref_s": (self_s("linalg.rref"), "s"),
        "linalg.rowspace_s": (
            sum(spans[i][2] - spans[i][1] for i in ids("linalg.RowSpace")) / 1e9,
            "s",
        ),
        "modules.kernel_calls": (len(ids("modules.kernel_of_map")), "count"),
        "modules.kernel_s": (self_s("modules.kernel_of_map"), "s"),
        "modules.embed_s": (self_s("modules.embed_submodule"), "s"),
        "modules.dual_s": (self_s("modules.dual_module", "modules.dual_map"), "s"),
        "modules.other_s": (
            self_s(
                "modules.submodule_closure",
                "modules.quotient_by_submodule",
                "modules.inflate",
                "modules.standard_module",
                "modules.heart_parts",
                "modules.trace_submodule",
            ),
            "s",
        ),
        "homology.cover_calls": (len(term_dims), "count"),
        "homology.cover_s": (self_s(COVER), "s"),
        "homology.term_dim_sum": (sum(term_dims), "count"),
        "homology.term_dim_max": (max(term_dims, default=0), "count"),
        "homology.resolution_calls": (len(ids("homology.resolution")), "count"),
        "homology.resolution_s": (self_s("homology.resolution"), "s"),
        "homology.ext_s": (self_s("homology.ext_dims"), "s"),
        "homology.heart_s": (
            self_s("homology.transport_resolution", "homology.heart_shift_pair", "homology.gl_dim"),
            "s",
        ),
    }
    return m
