#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and summarize.

    python3 scripts/bench_pairs.py BASE HEAD --workload ext-qq --seed 7 \\
        [--seconds 20] [--pairs 10] [--out bench]

BASE and HEAD are the roots of two checkouts.  Each pair runs
``perfbench/run.py`` once in each, BASE first in even pairs and HEAD first
in odd ones, so a drift of the machine's speed falls on both sides alike.
Every run compiles its sources afresh: it gets ``PYTHONDONTWRITEBYTECODE=1``
and a new ``PYTHONPYCACHEPREFIX``, so a ``__pycache__`` left in one checkout
cannot move that side's set-up time or memory.  A prefix hides the
interpreter's own cached bytecode too, so each run's prefix starts as a copy
of the standard library's bytecode, compiled once, untimed, before the first
run: only the checkout's ``src/`` and ``perfbench/`` compile in a timed run.
For every end-to-end metric of BENCHMARK.json it prints, per side, the
median and the quartiles of the runs and the number of pairs that side won
(strictly better, by the metric's direction), then the change's median gain
(positive when better) in % of the parent's median and in units of the
parent's interquartile range, and a verdict: "gain" when the change won at
least 9 of 10 pairs and its median gain exceeds the parent's interquartile
range, "worse past bound" when its median is worse than the parent's by
more than the metric's bound in BENCHMARK.json (a fraction of the parent's
median), and "level/unresolved" otherwise.  The runs and that summary
go to ``<out>/BENCH_<workload>_<side>.json``, one file per side, the sides
being ``parent`` (BASE) and ``change`` (HEAD).  Exit
status is 0, or 1 if a run failed or reported a failed op.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LABELS = ("parent", "change")
# the standard library less its third-party packages and its own test suites,
# which no run imports
WARM = """
import compileall, os, re, sysconfig
sep = re.escape(os.sep)
skip = re.compile(f"{sep}(site-packages|test|idlelib|tkinter|turtledemo|lib2to3){sep}")
compileall.compile_dir(sysconfig.get_paths()["stdlib"], quiet=2, rx=skip)
"""


def warm_stdlib(prefix: str) -> None:
    """Compile the standard library's bytecode into a cache prefix."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=prefix)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run([sys.executable, "-c", WARM], env=env, check=True)


def run_once(checkout: str, workload: str, seed: int, seconds: float, stdlib: str) -> dict:
    """One benchmark run in a checkout: its metric values and its environment.

    Its cache prefix is a fresh copy of stdlib, a prefix made by warm_stdlib.
    """
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    with tempfile.TemporaryDirectory() as cache:
        shutil.copytree(stdlib, cache, dirs_exist_ok=True)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=cache)
        proc = subprocess.run(
            cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True, check=True
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = os.path.join(checkout, "perfbench", "results", f"{workload}-seed{seed}-trace0.json")
    with open(record) as fh:
        env = json.load(fh)["env"]
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "failed": result["failed"],
        "attempted": result["attempted"],
        "git_commit": env["git_commit"],
        "src_sha256": env["src_sha256"],
        "loadavg_1m_at_start": env["loadavg_1m_at_start"],
    }


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """Per side and metric: median, quartiles and pairs won."""
    out = {label: {} for label in LABELS}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {label: [r["metrics"][name] for r in runs[label]] for label in LABELS}
        for label, other in (LABELS, LABELS[::-1]):
            q1, _, q3 = statistics.quantiles(values[label], n=4, method="inclusive")
            wins = sum(sign * (a - b) > 0 for a, b in zip(values[label], values[other]))
            out[label][name] = {
                "median": statistics.median(values[label]), "q1": q1, "q3": q3, "wins": wins,
            }
    return out


def _median_gain(summary: dict, metric: dict) -> tuple[float, float, float]:
    """The change's median gain (positive when better), the parent's median
    and the parent's interquartile range."""
    sign = 1 if metric["better"] == "higher" else -1
    parent, change = summary["parent"][metric["name"]], summary["change"][metric["name"]]
    delta = sign * (change["median"] - parent["median"])
    return delta, parent["median"], parent["q3"] - parent["q1"]


def gain(summary: dict, metric: dict) -> str:
    """The change's median gain over the parent's, positive when better: in %
    of the parent's median and in units of the parent's interquartile range."""
    delta, median, iqr = _median_gain(summary, metric)
    pct = f"{100 * delta / median:+.1f} %" if median else "n/a"
    units = f"{delta / iqr:+.1f} parent IQR" if iqr else "parent IQR 0"
    return f"gain {pct}, {units}"


def verdict(summary: dict, metric: dict, pairs: int) -> str:
    """The metric's verdict: "gain" when the change won at least 9/10 of the
    pairs and its median gain exceeds the parent's IQR, "worse past bound"
    when its median is worse by more than the metric's bound (a fraction of
    the parent's median), and "level/unresolved" otherwise."""
    delta, median, iqr = _median_gain(summary, metric)
    if 10 * summary["change"][metric["name"]]["wins"] >= 9 * pairs and delta > iqr:
        return "gain"
    if median and -delta > metric["bound"] * abs(median):
        return "worse past bound"
    return "level/unresolved"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="root of the checkout to compare against")
    ap.add_argument("head", help="root of the checkout with the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", default=os.path.join(ROOT, "bench"), help="directory for the JSON")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs needs at least 2 for quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    sides = dict(zip(LABELS, (args.base, args.head)))
    runs = {label: [] for label in LABELS}
    with tempfile.TemporaryDirectory() as stdlib:
        warm_stdlib(stdlib)
        for i in range(args.pairs):
            order = LABELS if i % 2 == 0 else LABELS[::-1]
            for label in order:
                try:
                    run = run_once(sides[label], args.workload, args.seed, args.seconds, stdlib)
                except subprocess.CalledProcessError as exc:
                    print(f"{label}: perfbench exited with code {exc.returncode}", file=sys.stderr)
                    return 1
                run["first_in_pair"] = label == order[0]
                runs[label].append(run)
            print(f"pair {i + 1}/{args.pairs} done, {order[0]} first", file=sys.stderr)
    summary = summarize(runs, metrics)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} pairs={args.pairs}")
    for metric in metrics:
        name = metric["name"]
        cells = []
        for label in LABELS:
            s = summary[label][name]
            cells.append(
                f"{label} {s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] wins {s['wins']}"
            )
        cells.append(gain(summary, metric))
        cells.append(f"verdict {verdict(summary, metric, args.pairs)}")
        print(f"{name} ({metric['better']} is better): " + "; ".join(cells))
    os.makedirs(args.out, exist_ok=True)
    for label in LABELS:
        path = os.path.join(args.out, f"BENCH_{args.workload}_{label}.json")
        with open(path, "w") as fh:
            json.dump(
                {
                    "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "pairs": args.pairs, "label": label,
                    "versus": LABELS[1] if label == LABELS[0] else LABELS[0],
                    "summary": summary[label], "runs": runs[label],
                },
                fh, indent=1,
            )
            fh.write("\n")
    failed = any(r["failed"] for side in runs.values() for r in side)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
