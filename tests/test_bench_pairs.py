"""The summary of ``scripts/bench_pairs.py``: the change's median gain and
the verdict per metric, and the environment each run gets.

The script is loaded from its file, as it is not part of the package.
"""

import importlib.util
import json
import os
import subprocess
import sysconfig
from pathlib import Path
from unittest import mock

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


def test_each_run_compiles_afresh_in_a_fresh_copy_of_the_warm_stdlib_prefix(tmp_path, monkeypatch):
    """Every run gets PYTHONDONTWRITEBYTECODE=1, a PYTHONPYCACHEPREFIX of its
    own that starts as a copy of the warm stdlib prefix, and the rest of the
    caller's environment."""
    checkout, stdlib = tmp_path / "checkout", tmp_path / "stdlib"
    results = checkout / "perfbench" / "results"
    results.mkdir(parents=True)
    (stdlib / "lib").mkdir(parents=True)
    (stdlib / "lib" / "json.cpython-311.pyc").write_bytes(b"warm")
    env = {"git_commit": "c", "src_sha256": "s", "loadavg_1m_at_start": 0.5}
    (results / "ext-qq-seed7-trace0.json").write_text(json.dumps({"env": env}))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "")
    monkeypatch.setenv("BENCH_PAIRS_MARKER", "kept")
    before = dict(os.environ)
    seen = []

    def fake_run(cmd, cwd, env, **kwargs):
        prefix = env["PYTHONPYCACHEPREFIX"]
        flag, marker = env["PYTHONDONTWRITEBYTECODE"], env["BENCH_PAIRS_MARKER"]
        listing = sorted(str(p.relative_to(prefix)) for p in Path(prefix).rglob("*"))
        seen.append((flag, prefix, listing, marker))
        assert (Path(prefix) / "lib" / "json.cpython-311.pyc").read_bytes() == b"warm"
        assert cwd == str(checkout) and cmd[1] == "perfbench/run.py"
        line = json.dumps({"metrics": {"ops_per_s": {"value": 1.0}}, "failed": 0, "attempted": 3})
        return subprocess.CompletedProcess(cmd, 0, stdout="log\n" + line + "\n")

    with mock.patch.object(bench_pairs.subprocess, "run", side_effect=fake_run):
        runs = [bench_pairs.run_once(str(checkout), "ext-qq", 7, 1.0, str(stdlib)) for _ in range(2)]
    assert runs[0] == {
        "metrics": {"ops_per_s": 1.0}, "failed": 0, "attempted": 3,
        "git_commit": "c", "src_sha256": "s", "loadavg_1m_at_start": 0.5,
    }
    warm = ["lib", "lib/json.cpython-311.pyc"]
    assert [(flag, listing, marker) for flag, _, listing, marker in seen] == [("1", warm, "kept")] * 2
    # one prefix per run, each removed once its run is done; the warm one is kept
    prefixes = [prefix for _, prefix, _, _ in seen]
    assert prefixes[0] != prefixes[1] and str(stdlib) not in prefixes
    assert not any(os.path.exists(prefix) for prefix in prefixes)
    assert sorted(str(p.relative_to(stdlib)) for p in stdlib.rglob("*")) == warm
    assert dict(os.environ) == before


def test_the_warm_prefix_holds_the_stdlib_bytecode_and_none_of_a_checkout(tmp_path, monkeypatch):
    # written even when the caller's environment forbids writing bytecode
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    bench_pairs.warm_stdlib(str(tmp_path))
    cached = [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.pyc")]
    stdlib = sysconfig.get_paths()["stdlib"].lstrip("/")
    assert any(p.startswith(f"{stdlib}/json/decoder.") for p in cached)
    assert any(p.startswith(f"{stdlib}/fractions.") for p in cached)
    # the interpreter's own files only (what its start-up imports from
    # site-packages included), and not the standard library's test suite
    assert all(p.startswith(stdlib + "/") for p in cached)
    assert not any(p.startswith(f"{stdlib}/test/") for p in cached)
