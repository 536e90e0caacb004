"""The summary of ``scripts/bench_pairs.py``: the change's median gain.

The script is loaded from its file, as it is not part of the package.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def summary(better, parent, change):
    runs = {
        "parent": [{"metrics": {"m": v}} for v in parent],
        "change": [{"metrics": {"m": v}} for v in change],
    }
    metric = {"name": "m", "better": better}
    return bench_pairs.summarize(runs, [metric]), metric


def test_gain_is_signed_by_the_metric_direction_and_scaled_by_the_parent_iqr():
    # parent median 100, quartiles 98 and 102; change median 110
    parent, change = [100, 102, 98, 104, 96], [110, 112, 108, 114, 106]
    got = bench_pairs.gain(*summary("higher", parent, change))
    assert got == "gain +10.0 %, +2.5 parent IQR"
    assert bench_pairs.gain(*summary("lower", parent, change)) == "gain -10.0 %, -2.5 parent IQR"


def test_gain_with_no_parent_spread_or_zero_median_names_what_is_missing():
    assert bench_pairs.gain(*summary("higher", [1, 1, 1], [1, 1, 1])) == "gain +0.0 %, parent IQR 0"
    assert bench_pairs.gain(*summary("lower", [0, 0, 1], [0, 0, 0])) == "gain n/a, +0.0 parent IQR"
