"""The summary of ``scripts/bench_pairs.py``: the change's median gain and
the verdict per metric.

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


def verdict(better, parent, change, bound=0.2):
    s, metric = summary(better, parent, change)
    return bench_pairs.verdict(s, {**metric, "bound": bound}, len(parent))


def test_verdict_needs_nine_tenths_of_the_pairs_and_a_gain_past_the_parent_iqr():
    # parent median 100, quartiles 98 and 102 (IQR 4), over 10 pairs
    parent = [100, 102, 98, 104, 96, 100, 102, 98, 104, 96]
    won_all = [v + 10 for v in parent]
    assert verdict("higher", parent, won_all) == "gain"
    # nine wins of ten still count; eight do not
    nine = won_all[:9] + [parent[9] - 1]
    assert verdict("higher", parent, nine) == "gain"
    eight = won_all[:8] + [parent[8] - 1, parent[9] - 1]
    assert verdict("higher", parent, eight) == "level/unresolved"
    # every pair won, but the median gain (+3) is inside the parent's IQR (4)
    assert verdict("higher", parent, [v + 3 for v in parent]) == "level/unresolved"


def test_verdict_is_worse_past_bound_only_beyond_the_metric_bound():
    parent = [100, 102, 98, 104, 96]
    # a lower-is-better metric whose median rose 30 %: past a 20 % bound, inside a 40 % one
    assert verdict("lower", parent, [v + 30 for v in parent]) == "worse past bound"
    assert verdict("lower", parent, [v + 30 for v in parent], 0.4) == "level/unresolved"
    assert verdict("higher", parent, [v - 30 for v in parent]) == "worse past bound"
    # better by any amount is never worse past a bound
    assert verdict("lower", parent, [v - 30 for v in parent], 0.0) == "gain"
    assert verdict("lower", parent, [v - 1 for v in parent], 0.0) == "level/unresolved"
