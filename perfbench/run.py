#!/usr/bin/env python3
"""The quiverhom benchmark: one checked run of one workload.

    python3 perfbench/run.py --workload suites|ext-qq|ext-gf \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports quiverhom from ./src.  Every
run starts fresh interpreters (PYTHONHASHSEED pinned, PYTHONPATH=src), so
the opposite-algebra caches and the peak RSS belong to one workload.  With
--trace 0 it starts WORKERS timed interpreters and, between them, more that
only set up (setup_s is the median set-up, timed from the start of the
interpreter to the first op).  With --trace 1 it runs worker.py's traced
mode and reports the per-layer metrics.  Each line before the last names a metric with its unit;
the last line is one JSON object {correct, attempted, failed, metrics}.
A record of the run (environment, seeds, tail percentile) goes to
perfbench/results/, and a traced run's spans beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("suites", "ext-qq", "ext-gf")
WORKERS = 3
SETUPS_BETWEEN = 2  # set-up-only interpreters between two timed ones
HASH_SEED = "0"
DEADLINE_S = 170


def _log(msg: str) -> None:
    sys.stderr.write(f"perfbench: {msg}\n")


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "quiverhom")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0))
    try:
        with open("/proc/loadavg") as fh:
            load = float(fh.read().split()[0])
    except OSError:
        load = None
    if load is not None and load >= nproc:
        _log(f"warning: load average {load} >= nproc {nproc}; timings will be noisy")
    return {
        "python": sys.version.split()[0],
        "nproc": nproc,
        "pythonhashseed": HASH_SEED,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "loadavg_1m_at_start": load,
    }


def child(args, mode: str, deadline: float, spans: str | None = None) -> tuple[dict, float]:
    """Run worker.py in a fresh interpreter; returns (its JSON, start time)."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=SRC)
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--budget", str(args.seconds / WORKERS),
        "--mode", mode,
    ]
    if spans:
        cmd += ["--spans", spans]
    start = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - start),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), start


def tail(times):
    """(value, percentile, ops beyond): the op time at the highest percentile
    that has at least 10 ops beyond it, or the maximum below 11 ops."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def timed_run(args, deadline: float):
    """WORKERS timed interpreters, with SETUPS_BETWEEN set-up-only ones
    between each two.

    Op times come scaled to the box's nominal speed (speed.py).  Each op's
    time is the median over its passes in all workers (a pass reports the
    median of the op's repeats), and the metrics are computed from those
    per-op medians.  A set-up time is scaled by the kernel time measured
    right after it.
    """
    setups, workers = [], []
    for mode in ["timed"] + (["setup"] * SETUPS_BETWEEN + ["timed"]) * (WORKERS - 1):
        out, start = child(args, mode, deadline)
        if mode == "timed":
            workers.append(out)
        setups.append((out["ready"] - start) * speed.NOMINAL_S / out["kernel_s"])
    labels = workers[0]["labels"]
    passes = [p for w in workers for p in w["walls"]]
    cpu_passes = [p for w in workers for p in w["cpus"]]
    if any(w["labels"] != labels for w in workers):
        raise RuntimeError("workers built different decks from one seed")
    per_op = [statistics.median(p[k] for p in passes) for k in range(len(labels))]
    per_op_cpu = [statistics.median(p[k] for p in cpu_passes) for k in range(len(labels))]
    attempted = sum(w["executions"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    value, pct, beyond = tail(per_op)
    raw = [p for w in workers for p in w["raw_walls"]]
    wall = sum(sum(p) for p in raw)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "ops/s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_tail_ms": (value * 1e3, "ms"),
        "cpu_ms_per_op": (sum(per_op_cpu) * 1e3 / len(per_op_cpu), "ms"),
        "peak_rss_mb": (max(w["peak_rss_mb"] for w in workers), "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "1"),
    }
    notes = {
        "setup_s": f"median of {len(setups)}: " + " ".join(f"{s:.4f}" for s in setups),
        "ops_per_s": f"{len(per_op)} ops, median of {len(passes)} passes each; "
        f"unscaled {attempted / wall:.4g} executions/s over {wall:.2f} s",
        "op_tail_ms": f"p{pct:.2f}, {beyond} of {len(per_op)} ops beyond",
    }
    record = {
        "setup_runs_s": setups,
        "seeds": workers[0]["seeds"],
        "python": workers[0]["python"],
        "ops": labels,
        "op_median_s": per_op,
        "pass_wall_s": [sum(p) for p in raw],
        "kernel_s_ranges": [w["kernel_s_range"] for w in workers],
    }
    return attempted, failed, metrics, notes, record


def traced_run(args, deadline: float):
    spans = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}.spans.jsonl")
    out, _ = child(args, "trace", deadline, spans)
    metrics = {k: (v["value"], v["unit"]) for k, v in out["metrics"].items()}
    notes = {"trace.overhead": "traced pass time / untraced pass time, same ops"}
    record = {"worker": {k: v for k, v in out.items() if k != "metrics"}, "spans_file": spans}
    return out["ops"], out["failed"], metrics, notes, record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "quiverhom", "__init__.py")):
        _log(f"no quiverhom sources under {SRC}; run from the root of a checkout")
        return 2
    env = environment()
    os.makedirs(RESULTS, exist_ok=True)
    run = traced_run if args.trace else timed_run
    try:
        attempted, failed, metrics, notes, record = run(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        _log(f"run failed: {exc}")
        return 1

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{extra}")
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        env=env, attempted=attempted, failed=failed, notes=notes,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
