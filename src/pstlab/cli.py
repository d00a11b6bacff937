"""Command-line surface.

Exit codes: 0 success (or PST found), 1 no PST, 2 parse error, 3 invalid
vertices, 4 Laplacian with non-integer weights or a loop, 5 scan invariant
violation (or a gap-certificate violation in analyze, or a failed exact
check in decide-pst), 6 unwritable output path or closed standard output.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile

from .gapcert import (
    GapError,
    bridge_gap_check,
    certify_gap,
    general_bound,
    merged_alphas,
    residue_mass,
)
from .graphs import GraphError, GraphParseError, load_graph_text
from .pst import PstError, decide_pst
from .scan import ScanInvariantError, check_invariants, scan_trees
from .spectra import (
    SpectraError,
    is_cospectral,
    is_strongly_cospectral,
    support_partition,
    support_poly,
)
from .walk import fidelity_scan

EXIT_PARSE = 2
EXIT_VERTICES = 3
EXIT_LAPLACIAN = 4
EXIT_INVARIANT = 5
EXIT_OUTPUT = 6


def _round12(x):
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _round12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round12(v) for v in x]
    return x


def _emit(payload: dict, fmt: str) -> None:
    payload = _round12(payload)
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _atomic_write(path: str, content: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(EXIT_OUTPUT) from exc


def _load(path: str):
    try:
        with open(path) as fh:
            return load_graph_text(fh.read())
    except (OSError, GraphParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE) from exc


def _check_vertices(G, *vertices):
    for v in vertices:
        if not (0 <= v < G.n):
            print(f"error: vertex {v} out of range", file=sys.stderr)
            raise SystemExit(EXIT_VERTICES)


def _check_pair(G, i, j):
    _check_vertices(G, i, j)
    if i == j:
        print(f"error: vertices {i} and {j} must be distinct", file=sys.stderr)
        raise SystemExit(EXIT_VERTICES)


def cmd_analyze(args) -> int:
    G = _load(args.file)
    _check_pair(G, args.i, args.j)
    i, j = args.i, args.j
    out: dict = {
        "pair": [i, j],
        "cospectral": is_cospectral(G, i, j),
        "strongly_cospectral": is_strongly_cospectral(G, i, j),
        "support_poly_i": support_poly(G, i).to_json(),
        "support_poly_j": support_poly(G, j).to_json(),
    }
    try:
        if out["strongly_cospectral"]:
            out["partition"] = support_partition(G, i, j).to_json()
            pf_plus, pf_minus = merged_alphas(G, i, j)
            out["alpha_plus"] = pf_plus.to_json()
            out["alpha_minus"] = pf_minus.to_json()
        out["gap_certificate"] = certify_gap(G, i, j).to_json()
    except GapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    try:
        mass, bound = residue_mass(G, i, j)
        out["residue_mass"] = {"mass": mass, "bound": bound}
    except GapError as exc:
        out["residue_mass"] = {"unavailable": str(exc)}
    _emit(out, args.format)
    return 0


def cmd_decide_pst(args) -> int:
    G = _load(args.file)
    _check_pair(G, args.i, args.j)
    try:
        cert = decide_pst(G, args.i, args.j, model=args.matrix)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LAPLACIAN
    except (PstError, SpectraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    _emit(cert.to_json(), args.format)
    return 0 if cert.result == "PST" else 1


def cmd_scan_trees(args) -> int:
    try:
        report = scan_trees(args.max_n, jobs=args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    payload = _round12(report.to_json())
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        print(text, end="")
    try:
        check_invariants(report)
    except ScanInvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    return 0


def cmd_simulate(args) -> int:
    G = _load(args.file)
    _check_vertices(G, args.i, args.j)
    try:
        series = fidelity_scan(G, args.i, args.j, args.t_max, args.steps)
    except (ValueError, MemoryError) as exc:
        # numpy refuses a time grid that does not fit in memory
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_PARSE
    if args.out:
        _atomic_write(args.out, series.to_csv())
    else:
        print(series.to_csv(), end="")
    print(
        f"peak t={series.peak_time:.12g} fidelity={series.peak_value:.12g}",
        file=sys.stderr,
    )
    return 0


def cmd_bound(args) -> int:
    G = _load(args.file)
    _check_pair(G, args.i, args.j)
    try:
        value = general_bound(G, args.i, args.j)
    except GapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    _emit({"pair": [args.i, args.j], "bound": value}, args.format)
    return 0


def cmd_bridge_check(args) -> int:
    G = _load(args.file)
    _check_pair(G, args.i, args.j)
    try:
        report = bridge_gap_check(G, args.i, args.j)
    except GapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    _emit(report.to_json(), args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pstlab",
        description="Exact deciders for cospectrality, perfect state "
        "transfer, and eigenvalue-gap certificates on weighted graphs.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="pair report: cospectrality, partition, gap")
    p.add_argument("file")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("decide-pst", help="perfect-state-transfer certificate")
    p.add_argument("file")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.add_argument("--matrix", choices=("adjacency", "laplacian"), default="adjacency")
    p.set_defaults(func=cmd_decide_pst)

    p = sub.add_parser("scan-trees", help="check absence of state transfer over all trees")
    p.add_argument("--max-n", type=int, default=10, dest="max_n")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_scan_trees)

    p = sub.add_parser("simulate", help="fidelity time series as CSV")
    p.add_argument("file")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.add_argument("--t-max", type=float, default=4 * math.pi, dest="t_max")
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bound", help="general weighted support-gap bound")
    p.add_argument("file")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("bridge-check", help="bridge-separated cospectral pair gap")
    p.add_argument("file")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.set_defaults(func=cmd_bridge_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except SystemExit as exc:
        # helpers signal parse/vertex/output failures via SystemExit
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    except BrokenPipeError:
        # the reader closed standard output; what is left in its buffer goes
        # to the null device, so the flush at exit cannot raise again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
