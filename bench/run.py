"""The pstlab benchmark.

    python3 bench/run.py --workload tree-scan --seed 1 --seconds 36 --trace 0

Run from the repository root.  Each repetition of a workload runs in a fresh
interpreter (bench/worker.py), one at a time, and checks every result
against its reference.  Repetitions go on until ``--seconds`` have passed and
the workload has enough items for its tail percentile.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced repetitions and prints the per-layer metrics
of the traced ones.  ``--workload all`` runs every workload both ways.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when every
check passed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Workload -> the tail percentile it reports.  A run collects at least
# min_items(p) items, so that ten items lie beyond that percentile.
TAILS = {"tree-scan": 99, "pair-decide": 95, "all-pairs": 90}
LADDER = (50, 75, 90, 95, 99, 99.9)
BEYOND = 10
SETUP_SAMPLES = 9
HARD_STOP_S = 150
WORKER_TIMEOUT_S = 120


class WorkerError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# statistics


def percentile(values, p) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it."""
    ordered = sorted(values)
    rank = math.ceil(Fraction(str(p)) * len(ordered) / 100)
    return ordered[max(rank, 1) - 1]


def beyond(n: int, p) -> int:
    """How many of n values lie above the nearest-rank p-th percentile."""
    return n - max(math.ceil(Fraction(str(p)) * n / 100), 1)


def tail_percentile(n: int):
    """The highest percentile of LADDER with at least BEYOND of n values
    above it, or None when even the median has fewer."""
    fitting = [p for p in LADDER if beyond(n, p) >= BEYOND]
    return fitting[-1] if fitting else None


def min_items(p) -> int:
    n = 1
    while beyond(n, p) < BEYOND:
        n += 1
    return n


# ---------------------------------------------------------------------------
# repetitions


def spawn(workload: str, seed: int, rep: int, work: Path, *flags: str) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--rep", str(rep), "--work", str(work),
           "--t0", repr(t0), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def repeat(run_once, seconds: float, enough) -> list:
    """Call run_once(rep) for rep = 0, 1, ... until `seconds` have passed
    and enough(results) holds, without starting a call that would likely
    end after HARD_STOP_S."""
    results = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        results.append(run_once(len(results)))
        now = time.monotonic()
        if now - start >= seconds and enough(results):
            return results
        if now - start + (now - t) > HARD_STOP_S:
            return results


def timed_run(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    tail = TAILS[workload]
    need = min_items(tail)
    reps = repeat(lambda rep: spawn(workload, seed, rep, work), seconds,
                  lambda rs: sum(len(r["items_ms"]) for r in rs) >= need)
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, len(setups), work, "--setup-only")["setup_s"])
    items = [x for r in reps for x in r["items_ms"]]
    tail = min(tail, tail_percentile(len(items)) or 50)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "item_p50_ms": percentile(items, 50),
        "item_tail_ms": percentile(items, tail),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    notes = {
        "wall_s": f"median of {len(reps)} repetitions",
        "item_p50_ms": f"{len(items)} items",
        "item_tail_ms": f"p{tail} of {len(items)} items, {beyond(len(items), tail)} beyond it",
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "peak_rss_mb": f"median of {len(reps)} repetitions",
    }
    return metrics, {"reps": reps, "notes": notes}


def traced_run(workload: str, seed: int, seconds: float, work: Path, names) -> tuple[dict, dict]:
    pairs = repeat(
        lambda rep: (spawn(workload, seed, rep, work),
                     spawn(workload, seed, rep, work, "--trace")),
        seconds, lambda _: True,
    )
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    metrics = {
        name: statistics.median(t["layers"].get(name, 0) for t in traced)
        for name in names if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = (
        statistics.median(t["wall_s"] for t in traced)
        - statistics.median(u["wall_s"] for u in untraced)
    )
    notes = {name: f"median of {len(traced)} traced repetitions" for name in metrics}
    return metrics, {"reps": untraced + traced, "notes": notes}


# ---------------------------------------------------------------------------
# reporting


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": _commit(),
        "seed": seed,
    }


def run_workload(workload, seed, seconds, trace, spec, work) -> dict:
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if trace:
        metrics, info = traced_run(workload, seed, seconds, work, units)
    else:
        metrics, info = timed_run(workload, seed, seconds, work)
    attempted = sum(r["attempted"] for r in info["reps"])
    failures = [f for r in info["reps"] for f in r["failures"]]
    print(f"# {workload}: {why[workload]}")
    for name, unit in units.items():
        print(f"{workload} {name} = {metrics[name]!r} {unit}  ({info['notes'][name]})")
    print(f"{workload} fail_ratio = {len(failures)}/{attempted}")
    for failure in failures[:20]:
        print(f"{workload} FAILED {failure}")
    return {
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*TAILS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills the running worker and
    # the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "pstlab" / "__init__.py").is_file():
        print(f"error: no pstlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("# provenance " + json.dumps(provenance(args.seed)))
    if args.workload == "all":
        plan = [(w, t) for w in TAILS for t in (0, 1)]
    else:
        plan = [(args.workload, args.trace)]
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    results = {}
    try:
        for workload, trace in plan:
            try:
                results[(workload, trace)] = run_workload(
                    workload, args.seed, args.seconds, trace, spec, work
                )
            except WorkerError as exc:
                print(f"{workload} FAILED {exc}", file=sys.stderr)
                results[(workload, trace)] = {"attempted": 1, "failed": 1, "metrics": {}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(plan) == 1:
        summary = results[plan[0]]
    else:
        summary = {
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for (w, _), r in results.items()
                        for name, m in r["metrics"].items()},
        }
    correct = summary["failed"] == 0
    print(json.dumps({"correct": correct, **summary}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
