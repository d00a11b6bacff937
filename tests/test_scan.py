import json
import os
import subprocess
import sys
from multiprocessing import Pool

import pytest

import pstlab
from pstlab import gapcert, polys, pst, spectra, trees
from pstlab.scan import (
    ScanInvariantError,
    ScanReport,
    analyze_tree,
    check_invariants,
    scan_trees,
)


def test_scan_small_counts():
    report = scan_trees(6)
    by_n = {e["n"]: e for e in report.per_order}
    assert [by_n[n]["tree_count"] for n in range(2, 7)] == [1, 1, 2, 3, 6]
    # exactly one PST pair each at n=2 (P2) and n=3 (P3), none beyond
    assert len(by_n[2]["pst_pairs"]) == 1
    assert by_n[2]["pst_pairs"][0]["pair"] == [0, 1]
    assert len(by_n[3]["pst_pairs"]) == 1
    for n in (4, 5, 6):
        assert by_n[n]["pst_pairs"] == []
        assert by_n[n]["gap_violations"] == []


def test_scan_invariants_pass():
    check_invariants(scan_trees(7))


def test_scan_invariants_catch_violations():
    report = scan_trees(4)
    report.per_order[2]["pst_pairs"] = [{"pair": [0, 3]}]  # n=4 entry
    with pytest.raises(ScanInvariantError):
        check_invariants(report)
    broken = ScanReport(max_n=2, per_order=[
        {"n": 2, "tree_count": 1, "cospectral_pairs": 1,
         "strongly_cospectral_pairs": 1, "pst_pairs": [], "gap_violations": []}
    ])
    with pytest.raises(ScanInvariantError):
        check_invariants(broken)


def test_scan_rejects_bad_range():
    with pytest.raises(ValueError):
        scan_trees(1)
    with pytest.raises(ValueError):
        scan_trees(17)


def test_scan_deterministic_across_jobs():
    a = scan_trees(7, jobs=1).to_json()
    b = scan_trees(7, jobs=2).to_json()
    a.pop("wall_time_seconds")
    b.pop("wall_time_seconds")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_scan_starts_one_pool(monkeypatch):
    import pstlab.scan as scan

    started = []

    def counting_pool(jobs):
        started.append(jobs)
        return Pool(jobs)

    monkeypatch.setattr(scan, "Pool", counting_pool)
    monkeypatch.setattr("os.cpu_count", lambda: 2)  # the pool size is capped
    scan_trees(3, jobs=2)
    assert started == []  # P2 and P3 need no workers
    scan_trees(6, jobs=2)
    assert started == [2]


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    src = os.path.dirname(os.path.dirname(pstlab.__file__))
    code = "import sys, pstlab.cli; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_scan_starts_at_most_cpu_count_workers(monkeypatch):
    import pstlab.scan as scan

    started = []

    class SerialPool:
        """Records the requested size and starts no process."""

        def __init__(self, jobs):
            started.append(jobs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(scan, "Pool", SerialPool)
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    serial = scan_trees(5).to_json()
    capped = scan_trees(5, jobs=64).to_json()
    assert started == [3]
    serial.pop("wall_time_seconds")
    capped.pop("wall_time_seconds")
    assert capped == serial


def _memo_sizes() -> dict[str, int]:
    """The entry count of every memo in polys, spectra, pst and gapcert."""
    return {
        f"{module.__name__}.{name}": value.cache_info().currsize
        for module in (polys, spectra, pst, gapcert)
        for name, value in vars(module).items()
        if hasattr(value, "cache_info")
    }


def test_scan_leaves_the_memos_of_each_tree_empty():
    scan_trees(11)
    sizes = _memo_sizes()
    assert sizes.keys() >= {
        "pstlab.polys._tables",
        "pstlab.polys.real_roots",
        "pstlab.spectra._support_poly",
        "pstlab.spectra._pair_records",
        "pstlab.pst.ratio_witness",
        "pstlab.gapcert.merged_alphas",
    }
    assert sizes == dict.fromkeys(sizes, 0)


def test_scan_analyzes_each_tree_before_it_builds_the_next(monkeypatch):
    import pstlab.scan as scan

    events = []

    def enumerate_trees(n):
        for T in trees.enumerate_trees(n):
            events.append("built")
            yield T

    def analyzed(args):
        events.append("analyzed")
        return analyze_tree(args)

    monkeypatch.setattr(scan, "enumerate_trees", enumerate_trees)
    monkeypatch.setattr(scan, "analyze_tree", analyzed)
    scan_trees(7)
    assert events == ["built", "analyzed"] * sum(map(trees.tree_count, range(2, 8)))


def test_a_pool_worker_empties_the_memos_after_each_tree():
    tasks = [(8, k, T) for k, T in enumerate(trees.enumerate_trees(8))]
    with Pool(1) as pool:
        pool.map(analyze_tree, tasks)
        sizes = pool.apply(_memo_sizes)
    assert sizes == dict.fromkeys(_memo_sizes(), 0)


def test_scan_rejects_jobs_below_one():
    for jobs in (0, -1):
        with pytest.raises(ValueError):
            scan_trees(4, jobs=jobs)


def test_scan_report_schema():
    report = scan_trees(3).to_json()
    assert report["schema"] == 1
    assert report["max_n"] == 3
    assert {"n", "tree_count", "cospectral_pairs", "strongly_cospectral_pairs",
            "pst_pairs", "gap_violations"} <= set(report["per_order"][0])


def test_scan_to_10_takes_at_most_10000_exact_evaluations(monkeypatch):
    # the roots are isolated only where a decision reads them: 5110 exact
    # evaluations, against 22954 when every support was isolated in full
    # (4246 when open sqrt(D) gaps were refined instead of read off signs)
    calls = 0
    value_at = polys._int_value_at

    def counting(*args):
        nonlocal calls
        calls += 1
        return value_at(*args)

    monkeypatch.setattr(polys, "_int_value_at", counting)
    report = scan_trees(10)
    assert [e["tree_count"] for e in report.per_order][-1] == 106
    assert 0 < calls <= 10_000
