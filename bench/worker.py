"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py --workload W --seed S --rep R --work DIR --t0 T [--trace] [--setup-only]

``--t0`` is the ``time.monotonic()`` reading taken by the parent just before
it started this process, so ``setup_s`` covers interpreter start, importing
pstlab and building the inputs of repetition ``R`` (the seeded workloads
draw fresh graphs for each repetition).  The timed part runs every item of the
workload once and checks each result against its reference.  Prints one
JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import tracer as tracing  # noqa: E402

SQRT2 = math.sqrt(2)
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def fidelity(graph, model: str, i: int, j: int, t: float) -> float:
    """|<j| exp(itM) |i>| for M the adjacency or Laplacian matrix, computed
    here with numpy alone."""
    n, edges = graph
    m = np.zeros((n, n))
    for u, v, w in edges:
        m[u, v] = m[v, u] = float(w)
    if model == "laplacian":
        m = np.diag(m.sum(axis=1)) - m
    evals, evecs = np.linalg.eigh(m)
    return abs(complex(np.sum(np.exp(1j * t * evals) * evecs[i] * evecs[j])))


def clear_caches(modules) -> None:
    """Clear every lru_cache that any pstlab module binds, found by the
    ``cache_clear`` attribute so that caches added later are cleared too."""
    for module in modules:
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


# ---------------------------------------------------------------------------
# tree-scan: the complete tree set, cold, through the CLI


def setup_tree_scan(seed: int, rep: int, work: Path) -> dict:
    out = work / "scan.json"
    out.unlink(missing_ok=True)
    return {"out": str(out)}


def run_tree_scan(ctx: dict, pstlab, items: list, tracer) -> tuple[int, list]:
    scan = pstlab["scan"]
    analyze_tree = scan.analyze_tree

    def timed(args):
        t = time.perf_counter()
        try:
            return analyze_tree(args)
        finally:
            items.append((time.perf_counter() - t) * 1e3)

    scan.analyze_tree = timed
    n_max = inputs.TREE_SCAN_MAX_N
    argv = ["scan-trees", "--max-n", str(n_max), "--jobs", "1", "--out", ctx["out"]]
    orders = range(2, n_max + 1)
    try:
        code = pstlab["cli"].main(argv)
        if code != 0:
            return len(orders), [f"order {n}: scan-trees exit code {code}" for n in orders]
        report = json.loads(Path(ctx["out"]).read_text())
    except Exception as exc:  # a crash fails every order
        return len(orders), [f"order {n}: {type(exc).__name__}: {exc}" for n in orders]
    finally:
        scan.analyze_tree = analyze_tree
        if tracer:
            tracer.end_item()
    failures = []
    counts = REFERENCE["free_tree_counts_A000055"]
    pairs = REFERENCE["scan_pairs_recorded_with_pstlab_0.1.0"]
    by_n = {e["n"]: e for e in report["per_order"]}
    for n in orders:
        e = by_n.get(n)
        want_pst = 1 if n in (2, 3) else 0
        if e is None:
            failures.append(f"order {n} missing")
        elif (
            e["tree_count"] != counts[str(n)]
            or e["cospectral_pairs"] != pairs[str(n)]["cospectral_pairs"]
            or e["strongly_cospectral_pairs"] != pairs[str(n)]["strongly_cospectral_pairs"]
            or len(e["pst_pairs"]) != want_pst
            or e["gap_violations"]
        ):
            failures.append(f"order {n} disagrees with the reference")
    return len(orders), failures


# ---------------------------------------------------------------------------
# pair-decide: single-pair CLI queries, caches cleared before each


def setup_pair_decide(seed: int, rep: int, work: Path) -> dict:
    queries = inputs.pair_decide_queries(seed, rep)
    for k, q in enumerate(queries):
        path = work / f"q{k}.txt"
        path.write_text(inputs.graph_text(q["graph"]))
        i, j = q["pair"]
        q["argv"] = [q["command"], str(path), str(i), str(j)]
        if q["command"] == "decide-pst":
            q["argv"] += ["--matrix", q["model"]]
    return {"queries": queries}


def check_decide(q: dict, code: int, out: dict) -> str | None:
    result = out["result"]
    if code != (0 if result == "PST" else 1):
        return f"exit code {code} for {result}"
    if q["result"] is not None and result != q["result"]:
        return f"verdict {result}, planted {q['result']}"
    if result == "PST":
        t = out["t_min"]
        if "t_min" in q and abs(t - q["t_min"]) > 1e-9 * q["t_min"]:
            return f"t_min {t}, planted {q['t_min']}"
        if fidelity(q["graph"], q["model"], *q["pair"], t) < 1 - 1e-9:
            return "fidelity below 1 at t_min"
    elif "failing" in q and out["failing_condition"] != q["failing"]:
        return f"failing condition {out['failing_condition']}, planted {q['failing']}"
    elif q["result"] is None and out["failing_condition"] == "not_strongly_cospectral":
        return "mirror pair reported not strongly cospectral"
    return None


def check_analyze(q: dict, code: int, out: dict) -> str | None:
    cert = out["gap_certificate"]
    if code != 0:
        return f"exit code {code}"
    if not out["strongly_cospectral"]:
        return "pair not strongly cospectral"
    if cert["hypotheses_ok"] != q["hypotheses_ok"]:
        return f"hypotheses_ok {cert['hypotheses_ok']}"
    if cert["equality_detected"] != q["equality"]:
        return f"equality_detected {cert['equality_detected']}"
    if cert["hypotheses_ok"] and not cert["achieved_gap"] <= SQRT2:
        return f"gap {cert['achieved_gap']} above sqrt(2)"
    return None


def run_pair_decide(ctx: dict, pstlab, items: list, tracer) -> tuple[int, list]:
    main = pstlab["cli"].main
    failures = []
    for q in ctx["queries"]:
        clear_caches(pstlab.values())
        buf = io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = main(q["argv"])
            items.append((time.perf_counter() - t) * 1e3)
            check = check_decide if q["command"] == "decide-pst" else check_analyze
            problem = check(q, code, json.loads(buf.getvalue()))
        except Exception as exc:  # a crash is a failed query, reported below
            problem = f"{type(exc).__name__}: {exc}"
        if tracer:
            tracer.end_item()
        if problem:
            failures.append(f"{q['name']} {q['command']} {q['pair']}: {problem}")
    return len(ctx["queries"]), failures


# ---------------------------------------------------------------------------
# all-pairs: pst_pairs on mid-size graphs, caches warm within a graph


def setup_all_pairs(seed: int, rep: int, work: Path) -> dict:
    from pstlab.graphs import Graph

    cases = inputs.all_pairs_cases(seed, rep)
    for case in cases:
        case["G"] = Graph.from_edges(*case["graph"])
    return {"cases": cases}


def run_all_pairs(ctx: dict, pstlab, items: list, tracer) -> tuple[int, list]:
    pst_pairs = pstlab["pst"].pst_pairs
    is_strongly_cospectral = pstlab["spectra"].is_strongly_cospectral
    failures = []
    for case in ctx["cases"]:
        t = time.perf_counter()
        try:
            found = pst_pairs(case["G"])
            items.append((time.perf_counter() - t) * 1e3)
            problem = None
            pairs = sorted((i, j) for i, j, _ in found)
            if case["pst"] is not None and pairs != case["pst"]:
                problem = f"PST pairs {pairs}, expected {case['pst']}"
            for i, j, cert in found:
                if fidelity(case["graph"], "adjacency", i, j, cert.t_min) < 1 - 1e-9:
                    problem = f"fidelity below 1 at t_min for {(i, j)}"
            if "strong" in case and not is_strongly_cospectral(case["G"], *case["strong"]):
                problem = "mirror pair not strongly cospectral"
        except Exception as exc:  # a crash is a failed graph, reported below
            problem = f"{type(exc).__name__}: {exc}"
        if tracer:
            tracer.end_item()
        if problem:
            failures.append(f"{case['name']}: {problem}")
    return len(ctx["cases"]), failures


WORKLOADS = {
    "tree-scan": (setup_tree_scan, run_tree_scan),
    "pair-decide": (setup_pair_decide, run_pair_decide),
    "all-pairs": (setup_all_pairs, run_all_pairs),
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    pstlab = {name: importlib.import_module(f"pstlab.{name}") for name in tracing.MODULES}
    setup, run = WORKLOADS[args.workload]
    ctx = setup(args.seed, args.rep, args.work)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    items: list[float] = []
    start = time.perf_counter()
    attempted, failures = run(ctx, pstlab, items, tracer)
    wall_s = time.perf_counter() - start
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "items_ms": items,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failures": failures,
    }
    if tracer:
        out["layers"] = tracing.layer_metrics(tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
