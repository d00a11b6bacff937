"""Tree-scan harness: machine-checks, at desk scale, that no tree on more
than three vertices admits perfect state transfer, and that the support-gap
bound holds with equality only on P3.

Each tree is read once per strong pair: the table's strong verdict picks
the pairs, and each pair's record (``spectra._PairRecord``) and cut-edge
pair (``_ForestTables.cut_pair``) go to the cores of ``pst.decide_pst`` and
``gapcert.certify_gap``, which skip the checks that the public functions
make on their arguments.
"""
from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from . import __version__, gapcert, polys, pst, spectra
from .gapcert import GapError
from .spectra import cospectral_pairs
from .trees import MAX_TREE_ORDER, enumerate_trees

SCHEMA_VERSION = 1

#: trees per task that a pool worker takes at a time
CHUNK_SIZE = 64


class ScanInvariantError(RuntimeError):
    pass


def Pool(processes: int):
    """A multiprocessing pool.  multiprocessing is imported here, when a pool
    starts, so that importing pstlab does not pay for it."""
    from multiprocessing import Pool

    return Pool(processes)


@dataclass
class TreeResult:
    cospectral_pairs: int
    strongly_cospectral_pairs: int
    pst_pairs: list[dict]
    gap_violations: list[dict]


# the memos that hold one tree's data
_TREE_MEMOS = tuple(dict.fromkeys(
    value for module in (polys, spectra, pst, gapcert)
    for value in vars(module).values() if hasattr(value, "cache_clear")
))


def analyze_tree(args: tuple[int, int, object]) -> TreeResult:
    """One tree's pair counts, PST pairs and gap violations; args is (order,
    index, tree), and the index names the tree in each PST pair and
    violation.  Its memos are emptied afterwards, in a pool worker too, so
    memory stays bounded by one tree."""
    _, index, T = args
    cosp = cospectral_pairs(T)
    # the pairs are cospectral already: only the table's strong test is left
    tables = polys._tables(T)
    strong = [(i, j) for i, j in cosp if tables.strong(i, j)]
    pst_pairs, violations = [], []
    for i, j in strong:
        # one record per pair, read by the cores of decide_pst and certify_gap
        record = spectra._pair_record(T, i, j)
        cert = pst._decide_strong(T, i, j, "adjacency", record)
        if cert.result == "PST":
            pst_pairs.append({"tree_index": index, "pair": [i, j],
                              "certificate": cert.to_json()})
        # the certificate raises on a gap above sqrt(2) and on equality off P3
        try:
            gapcert._certify(T, i, j, record, tables.cut_pair(i, j))
        except GapError as exc:
            violations.append({"tree_index": index, "pair": [i, j], "error": str(exc)})
    for memo in _TREE_MEMOS:
        memo.cache_clear()
    return TreeResult(len(cosp), len(strong), pst_pairs, violations)


@dataclass
class ScanReport:
    max_n: int
    per_order: list[dict] = field(default_factory=list)
    wall_time: float = 0.0

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "toolkit_version": __version__,
            "max_n": self.max_n,
            "per_order": self.per_order,
            "wall_time_seconds": self.wall_time,
        }


def check_invariants(report: ScanReport) -> None:
    """Raise ScanInvariantError if the scan finds state transfer on a tree with
    more than three vertices, or a gap-bound violation."""
    for entry in report.per_order:
        n = entry["n"]
        if entry["gap_violations"]:
            raise ScanInvariantError(f"gap-bound violation at n={n}")
        pst_pairs = entry["pst_pairs"]
        if n >= 4 and pst_pairs:
            raise ScanInvariantError(f"unexpected PST pair on a tree with n={n}")
        if n == 2 and len(pst_pairs) != 1:
            raise ScanInvariantError("P2 must admit exactly one PST pair")
        if n == 3 and len(pst_pairs) != 1:
            raise ScanInvariantError("P3 must admit exactly one PST pair")


def scan_trees(max_n: int, jobs: int = 1) -> ScanReport:
    """Enumerate all free trees up to max_n and aggregate cospectrality, PST,
    and gap-certificate results; deterministic output independent of jobs."""
    if not (2 <= max_n <= MAX_TREE_ORDER):
        raise ValueError(f"max_n must be in 2..{MAX_TREE_ORDER}")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    start = time.monotonic()
    report = ScanReport(max_n=max_n)
    # one pool for every order, so the workers start once; below order 4
    # each order has a single tree and needs no pool
    workers = min(jobs, os.cpu_count() or 1)
    with Pool(workers) if workers > 1 and max_n > 3 else nullcontext() as pool:
        for n in range(2, max_n + 1):
            tasks = ((n, idx, T) for idx, T in enumerate(enumerate_trees(n)))
            results = (map(analyze_tree, tasks) if pool is None
                       else pool.imap(analyze_tree, tasks, CHUNK_SIZE))
            entry = {"n": n, "tree_count": 0, "cospectral_pairs": 0,
                     "strongly_cospectral_pairs": 0, "pst_pairs": [], "gap_violations": []}
            for r in results:
                entry["tree_count"] += 1
                entry["cospectral_pairs"] += r.cospectral_pairs
                entry["strongly_cospectral_pairs"] += r.strongly_cospectral_pairs
                entry["pst_pairs"] += r.pst_pairs
                entry["gap_violations"] += r.gap_violations
            report.per_order.append(entry)
    report.wall_time = time.monotonic() - start
    return report
