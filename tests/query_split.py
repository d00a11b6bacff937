"""Query split of the pair-decide workload: where one in-process
``pstlab.cli.main`` query spends its time, stage by stage.

Every query of ``bench.inputs.pair_decide_queries(seed, rep)`` runs through
``cli.main`` in one process, with every pstlab ``lru_cache`` cleared before
it, as the benchmark's ``pair-decide`` workload runs it.  The names ``main``
calls are wrapped, and each stage keeps its own time, its callees' stages
taken out:

- parser: building the argparse parser (``cli.build_parser``);
- argv: parsing the argument list (``ArgumentParser.parse_args``);
- load: reading and parsing the graph file (``cli._load``);
- table: the graph's packed polynomial tables (``polys._tables``, bound in
  every module that imports it) and the adjugate columns they read
  (``polys._AdjugateTable._column``);
- decision: the subcommand itself (``cli.cmd_decide_pst``,
  ``cli.cmd_analyze``), the stages above and ``emit`` taken out;
- emit: rounding and printing the payload (``cli._emit``);
- other: the rest of the total, the wall time of ``main``.

Pin it to one core for numbers that compare:

    PYTHONPATH=src:. OPENBLAS_NUM_THREADS=1 taskset -c 0 python tests/query_split.py 1 2 3

It prints one JSON entry: the machine, the Python version, the commit and
one row per command (``decide-pst``, ``analyze`` and ``all``) with the
median of each stage and of the total over every query of every seed and
repetition.  ``--append FILE --label NAME`` also appends the entry, under
that label, to the ``entries`` of the JSON file FILE (created when missing),
such as ``BENCH_cli.json``.
"""
import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

from bench import inputs
from pstlab import cli, gapcert, graphs, polys, pst, scan, spectra, trees, walk

from stage_split import _commit, _machine

MODULES = (cli, gapcert, graphs, polys, pst, scan, spectra, trees, walk)
STAGES = ("parser", "argv", "load", "table", "decision", "emit")


def clear_caches() -> None:
    for module in MODULES:
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def install(seconds: dict) -> None:
    """Wrap each stage's function; a call's time goes to its stage, less
    the time of the stages it calls."""
    running = []

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            running.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                seconds[stage] += spent - running.pop()
                if running:
                    running[-1] += spent

        if hasattr(fn, "cache_clear"):
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    # the parser binds each subcommand when it is built, so these go first
    cli.cmd_decide_pst = timed("decision", cli.cmd_decide_pst)
    cli.cmd_analyze = timed("decision", cli.cmd_analyze)
    cli.build_parser = timed("parser", cli.build_parser)
    cli._load = timed("load", cli._load)
    cli._emit = timed("emit", cli._emit)
    tables = polys._tables
    wrapped = timed("table", tables)
    for module in MODULES:
        for key, value in list(vars(module).items()):
            if value is tables:
                setattr(module, key, wrapped)
    polys._AdjugateTable._column = timed("table", polys._AdjugateTable._column)
    argparse.ArgumentParser.parse_args = timed("argv", argparse.ArgumentParser.parse_args)


def _row(command: str, rows: list[dict]) -> dict:
    out = {"command": command, "queries": len(rows)}
    for key in (*STAGES, "other", "total"):
        out[f"{key}_ms"] = round(statistics.median(r[key] for r in rows), 3)
    return out


def split(seeds: list[int], reps: int) -> list[dict]:
    seconds = dict.fromkeys(STAGES, 0.0)
    install(seconds)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for rep in range(reps):
                for k, q in enumerate(inputs.pair_decide_queries(seed, rep)):
                    path = os.path.join(tmp, f"q{k}.txt")
                    Path(path).write_text(inputs.graph_text(q["graph"]))
                    argv = [q["command"], path, *map(str, q["pair"])]
                    if q["command"] == "decide-pst":
                        argv += ["--matrix", q["model"]]
                    clear_caches()
                    for stage in STAGES:
                        seconds[stage] = 0.0
                    start = time.perf_counter()
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main(argv)
                    total = time.perf_counter() - start
                    if code not in (0, 1):
                        raise SystemExit(f"{q['name']} {argv}: exit {code}")
                    row = {stage: seconds[stage] * 1e3 for stage in STAGES}
                    row["other"] = (total - sum(seconds.values())) * 1e3
                    row["total"] = total * 1e3
                    row["command"] = q["command"]
                    rows.append(row)
    commands = ("decide-pst", "analyze")
    return [_row(c, [r for r in rows if r["command"] == c]) for c in commands] + [
        _row("all", rows)
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--reps", type=int, default=3, help="repetitions per seed")
    parser.add_argument("--append", type=Path)
    parser.add_argument("--label", default="")
    args = parser.parse_args()
    entry = {
        "label": args.label,
        "commit": _commit(),
        "machine": _machine(),
        "python": platform.python_version(),
        "seeds": args.seeds,
        "reps": args.reps,
        "rows": split(args.seeds, args.reps),
    }
    print(json.dumps(entry, indent=1))
    if args.append:
        data = json.loads(args.append.read_text()) if args.append.exists() else {"entries": []}
        data["entries"].append(entry)
        args.append.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
