"""Stage split of the tree scan: where ``scan_trees`` spends its time, stage
by stage, for each max_n given, each in a fresh interpreter so that its peak
RSS is its own.

The scan runs as it is.  The names that ``scan.analyze_tree`` calls are
wrapped, and each call's time goes to the outermost stage that is running:

- enumerate: building each tree (``scan.enumerate_trees``, per tree);
- deleted_cospectral: the tree's table and its class keys
  (``scan.cospectral_pairs``);
- strong: the table's strong verdict per cospectral pair
  (``polys._Table.strong``);
- decide_pst: the PST decision of a strong pair (``pst._decide_strong``);
- certify_gap: its gap certificate (``gapcert._certify``);
- other: the rest of the total, the wall time of ``scan_trees``: the pair
  records' keys, the cut pairs, the emptied memos and the scan's loop.

Pin it to one core for numbers that compare:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 taskset -c 0 python tests/stage_split.py 12 13 14 16

It prints one JSON entry: the machine, the Python version, the commit and
one row per max_n.  ``--append FILE --label NAME`` also appends the entry,
under that label, to the ``entries`` of the JSON file FILE (created when
missing), such as ``BENCH_scan.json``.
"""
import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

from pstlab import gapcert, polys, pst, scan

STAGES = (
    ("deleted_cospectral", scan, "cospectral_pairs"),
    ("strong", polys._Table, "strong"),
    ("decide_pst", pst, "_decide_strong"),
    ("certify_gap", gapcert, "_certify"),
)


def split(max_n: int) -> dict:
    """One row: the scan to max_n with its time split into stages."""
    seconds = dict.fromkeys(["enumerate"] + [name for name, _, _ in STAGES], 0.0)
    running = []

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            if running:
                return fn(*args, **kwargs)
            running.append(stage)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[stage] += time.perf_counter() - start
                running.pop()
        return wrapper

    enumerate_trees = scan.enumerate_trees

    def enumerate_timed(n):
        trees = iter(enumerate_trees(n))
        while True:
            start = time.perf_counter()
            T = next(trees, None)
            seconds["enumerate"] += time.perf_counter() - start
            if T is None:
                return
            yield T

    scan.enumerate_trees = enumerate_timed
    for name, owner, attr in STAGES:
        setattr(owner, attr, timed(name, getattr(owner, attr)))
    start = time.perf_counter()
    report = scan.scan_trees(max_n, jobs=1)
    total = time.perf_counter() - start
    scan.check_invariants(report)
    trees = sum(entry["tree_count"] for entry in report.per_order)
    row = {
        "max_n": max_n,
        "trees": trees,
        "strong_pairs": sum(entry["strongly_cospectral_pairs"] for entry in report.per_order),
        "total_s": round(total, 3),
        "trees_per_s": round(trees / total, 1),
    }
    row.update({f"{name}_s": round(value, 3) for name, value in seconds.items()})
    row["other_s"] = round(total - sum(seconds.values()), 3)
    row["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return row


def _machine() -> str:
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} logical CPUs, run on {len(os.sched_getaffinity(0))}"


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out + (" with uncommitted changes under src/" if dirty else "")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("max_n", type=int, nargs="+")
    parser.add_argument("--one", action="store_true", help="measure one max_n in this process")
    parser.add_argument("--append", type=Path)
    parser.add_argument("--label", default="")
    args = parser.parse_args()
    if args.one:
        print(json.dumps(split(args.max_n[0])))
        return 0
    rows = []
    for max_n in args.max_n:
        out = subprocess.run([sys.executable, __file__, "--one", str(max_n)],
                             capture_output=True, text=True, check=True).stdout
        rows.append(json.loads(out))
    entry = {
        "label": args.label,
        "commit": _commit(),
        "machine": _machine(),
        "python": platform.python_version(),
        "rows": rows,
    }
    print(json.dumps(entry, indent=1))
    if args.append:
        data = json.loads(args.append.read_text()) if args.append.exists() else {"entries": []}
        data["entries"].append(entry)
        args.append.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
