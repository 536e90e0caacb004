"""One workload run in a fresh interpreter; started by run.py.

Prints one JSON line.  `ready` is time.monotonic() (a system-wide clock) at
the end of set-up, so the parent can time set-up from the moment it started
this interpreter; `kernel_s` is the speed kernel's time just after set-up.

Modes: "setup" stops there.  "timed" runs the deck's passes untraced and
reports each op's wall and CPU time per pass: the median of its op.reps
executions, scaled to the box's nominal speed (speed.py).  "trace" traces
set-up, runs up to TRACE_PASSES of the deck's passes untraced twice, then
the same passes traced, then repeats the first ops traced to check that
their exact counts repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPEAT_OPS = 3
TRACE_PASSES = 4  # bounds the spans a traced run keeps and writes


def _log(msg: str) -> None:
    sys.stderr.write(f"perfbench: {msg}\n")


def run_ops(ops, tracer=None, op_ids=None, before_op=None):
    """Run each op op.reps times, in order.

    Returns (per op, a list of (start, wall s, CPU s) per execution; failed
    executions).  With a tracer, spans of op k carry op id op_ids[k]
    (default k).
    """
    timings = []
    failed = 0
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = op_ids[k] if op_ids else k
        runs = []
        for _ in range(op.reps):
            if before_op is not None:
                before_op()
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = op.call()
                ok = None
            except Exception:
                ok = False
                _log(f"op {op.label} raised:\n{traceback.format_exc()}")
            runs.append((t0, time.perf_counter() - t0, time.process_time() - c0))
            if ok is None and not op.check(result):
                ok = False
                _log(f"op {op.label} gave a wrong result")
            failed += ok is False
        timings.append(runs)
    return timings, failed


def op_times(runs, speed) -> tuple[float, float, float]:
    """(scaled wall, scaled CPU, unscaled total wall) of one op's executions;
    the scaled ones are medians over the executions."""
    scales = [speed.scale(t0, t0 + w) for t0, w, _ in runs]
    return (
        statistics.median(w * k for (_, w, _), k in zip(runs, scales)),
        statistics.median(c * k for (_, _, c), k in zip(runs, scales)),
        sum(w for _, w, _ in runs),
    )


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True, help="seconds a timed worker takes here")
    ap.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    ap.add_argument("--spans", help="where a traced run writes its spans")
    args = ap.parse_args()

    import quiverhom

    src = os.path.join(ROOT, "src", "quiverhom")
    if os.path.dirname(os.path.abspath(quiverhom.__file__)) != src:
        _log(f"imported quiverhom from {quiverhom.__file__}, not from {src}")
        return 2
    sys.path.insert(0, HERE)
    import tracing
    import workloads
    from speed import Speed

    with open(os.path.join(HERE, "pins.json")) as fh:
        pins = json.load(fh)

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
    wl = workloads.build(args.workload, args.seed, args.budget, pins, tracer)
    ready = time.monotonic()
    speed = Speed()
    out = {
        "ready": ready,
        "kernel_s": speed.sample(),
        "seeds": wl.seeds,
        "python": sys.version.split()[0],
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if args.mode == "timed":
        passes, failed = [], 0
        for _ in range(wl.passes):
            timings, f = run_ops(wl.ops, before_op=speed.due)
            passes.append(timings)
            failed += f
        speed.sample()
        per_op = [[op_times(runs, speed) for runs in timings] for timings in passes]
        walls = [[w for w, _, _ in p] for p in per_op]
        cpus = [[c for _, c, _ in p] for p in per_op]
        raw = [[r for _, _, r in p] for p in per_op]
        kernels = [s for _, s in speed.samples]
        out.update(
            labels=[op.label for op in wl.ops],
            executions=sum(op.reps for op in wl.ops) * wl.passes,
            walls=walls,
            cpus=cpus,
            raw_walls=raw,
            kernel_s_range=[min(kernels), max(kernels)],
            failed=failed,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        print(json.dumps(out))
        return 0

    # traced run: up to TRACE_PASSES passes untraced twice (the first warms
    # the allocator up), the same traced, repeats; the overhead compares the
    # second untraced run with the traced one, times scaled as when timed
    tracer.uninstall()
    deck = wl.ops * min(wl.passes, TRACE_PASSES)
    _, failed_w = run_ops(deck)
    timings, failed_u = run_ops(deck, before_op=speed.due)
    tracer.install()
    timings_t, failed_t = run_ops(deck, tracer, before_op=speed.due)
    speed.sample()
    wall_u = sum(op_times(runs, speed)[0] for runs in timings)
    wall_t = sum(op_times(runs, speed)[0] for runs in timings_t)
    repeat = list(range(min(REPEAT_OPS, len(deck))))
    again_ids = [-2 - k for k in repeat]
    _, failed_r = run_ops(deck[: len(repeat)], tracer, again_ids)
    tracer.uninstall()
    first = tracing.per_op_counts(tracer.spans, repeat)
    again = tracing.per_op_counts(tracer.spans, again_ids)
    mismatched = [k for k in repeat if first[k] != again[-2 - k]]
    for k in mismatched:
        _log(f"exact counts of op {deck[k].label} differ on a repeat: "
             f"{first[k]} vs {again[-2 - k]}")
    metrics = tracing.layer_metrics(tracer.spans, quiverhom.lab.ALGEBRA_DIM_CAP)
    metrics["trace.untraced_ops_per_s"] = (len(deck) / wall_u, "1/s")
    metrics["trace.traced_ops_per_s"] = (len(deck) / wall_t, "1/s")
    metrics["trace.overhead"] = (wall_t / wall_u, "x")
    if args.spans:
        tracer.write(args.spans)
    out.update(
        ops=sum(op.reps for op in deck) * 3 + sum(op.reps for op in deck[: len(repeat)]),
        failed=failed_w + failed_u + failed_t + failed_r + len(mismatched),
        spans=len(tracer.spans),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
