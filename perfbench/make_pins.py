"""Take the pins the benchmark checks against; writes perfbench/pins.json.

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/make_pins.py

Pins are a reference: they are taken once, at the commit that defines the
benchmark, and a later change must reproduce them.  Re-pinning at a later
commit replaces that reference, so do it only with a written reason.

suites   For each master seed of the pool, the case's attempt count, a
         digest of its last direct build_algebra arguments, and its cost in
         ms at the box's nominal speed, the median of COST_RUNS runs (used
         only to stratify decks).
ext_lab  Lab candidates for the ext workloads: every admitted instance with
         nonzero Ext^k for some k >= 1 among the first SCAN seeds (up to
         LAB_KEEP), with its Ext table, plus two rejections at the dim cap
         (the smallest dims) and the first two at the width cap, so set-up
         runs the filter both ways and stays cheap.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import quiverhom as qh  # noqa: E402
import quiverhom.lab  # noqa: E402

import workloads as wl  # noqa: E402
from speed import Speed  # noqa: E402

SCAN = 400
LAB_KEEP = 16
COST_RUNS = 3


def suite_pins() -> dict:
    recorder = wl.AdmissionRecorder()
    recorder.install()
    speed = Speed()
    out = {}
    for suite, size in (("epi", 2 * wl.POOL), ("heart", wl.POOL), ("ext", wl.POOL)):
        verify = getattr(qh, wl.VERIFY[suite])
        rows = {}
        for master in range(1, size + 1):
            costs = []
            for _ in range(COST_RUNS):
                speed.due()
                t0 = time.perf_counter()
                report = verify(qh.InstanceSpec(seed=master), cases=1)
                t1 = time.perf_counter()
                speed.sample()
                costs.append((t1 - t0) * speed.scale(t0, t1))
                if not report.all_passed:
                    raise SystemExit(f"{suite} case {master} fails:\n{report.render()}")
                admission = recorder.take()
            rows[str(master)] = [*admission, round(statistics.median(costs) * 1e3, 1)]
        out[suite] = rows
    return out


def lab_pins() -> list[dict]:
    gf = qh.PrimeField(wl.GF_PRIME)
    kept, rejected = [], {"dim": [], "width": []}
    for seed in range(1, SCAN + 1):
        ok, dim, (q, ideal, m, n) = wl.admit_candidate(seed, wl.LAB_CUTOFF)
        if not ok:
            kind = "dim" if dim > quiverhom.lab.ALGEBRA_DIM_CAP else "width"
            rejected[kind].append((dim if kind == "dim" else 0, seed))
            continue
        if len(kept) == LAB_KEEP:
            continue
        table = qh.ext_dims(m, n, wl.LAB_CUTOFF).dims
        if not any(table[1:]):
            continue
        alg = qh.build_algebra(q, ideal, gf)
        mg, ng = wl._over(alg, m), wl._over(alg, n)
        others = (
            qh.ext_dims(m, n, wl.LAB_CUTOFF, side="injective").dims,
            qh.ext_dims(mg, ng, wl.LAB_CUTOFF).dims,
            qh.ext_dims(mg, ng, wl.LAB_CUTOFF, side="injective").dims,
        )
        if any(t != table for t in others):
            raise SystemExit(f"lab seed {seed}: Ext tables disagree: {table} {others}")
        kept.append({"seed": seed, "admitted": True, "table": list(table)})
    for kind in ("dim", "width"):
        for _, seed in sorted(rejected[kind])[:2]:
            kept.append({"seed": seed, "admitted": False, "table": None})
    return sorted(kept, key=lambda c: c["seed"])


def main() -> None:
    if os.environ.get("PYTHONHASHSEED") != "0":
        raise SystemExit("run with PYTHONHASHSEED=0, as the benchmark does")
    pins = {"suites": suite_pins(), "ext_lab": lab_pins()}
    with open(os.path.join(HERE, "pins.json"), "w") as fh:
        json.dump(pins, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
