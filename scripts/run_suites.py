#!/usr/bin/env python3
"""Run every randomized verification suite and print the rendered reports.

Exit status is 0 when all suites pass and 1 otherwise, so the script can sit
in a cron job or CI step.  Case counts default to the acceptance scale.  Each
suite's wall and CPU seconds (`time.process_time`) go to stderr, so stdout
holds the reports alone.  It runs from a checkout without installing: the
checkout's src/ comes first on the path.
"""

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from quiverhom import (  # noqa: E402
    InstanceSpec,
    verify_convex_epi,
    verify_ext_cross,
    verify_heart_theorem,
    verify_subquiver_calculus,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1, help="master seed for every suite")
    ap.add_argument("--subquiver-cases", type=int, default=500)
    ap.add_argument("--epi-cases", type=int, default=200)
    ap.add_argument("--epi-cutoff", type=int, default=6)
    ap.add_argument("--heart-cases", type=int, default=100)
    ap.add_argument("--ext-cases", type=int, default=100)
    ap.add_argument("--ext-cutoff", type=int, default=3)
    args = ap.parse_args()

    spec = InstanceSpec(seed=args.seed)
    runs = [
        lambda: verify_subquiver_calculus(spec, cases=args.subquiver_cases),
        lambda: verify_convex_epi(spec, cases=args.epi_cases, cutoff=args.epi_cutoff),
        lambda: verify_heart_theorem(spec, cases=args.heart_cases),
        lambda: verify_ext_cross(spec, cases=args.ext_cases, cutoff=args.ext_cutoff),
    ]
    reports = []
    for run in runs:
        t0, c0 = time.perf_counter(), time.process_time()
        reports.append(run())
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        sys.stderr.write(f"{reports[-1].suite} {wall:.2f} s wall {cpu:.2f} s cpu\n")
    for report in reports:
        sys.stdout.write(report.render())
        sys.stdout.write("\n")
    return 0 if all(r.all_passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
