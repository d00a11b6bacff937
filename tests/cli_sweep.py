"""CLI robustness sweep: bad input gives a documented exit code, never a
traceback.

Runs ``pstlab.cli.main`` on seeded random graphs (2 to 7 vertices, loops
included, weights +-{1, 2, 3}/{1, 2, 3}) for every ordered pair of distinct
vertices, through ``analyze``, ``decide-pst`` (adjacency and Laplacian),
``bound`` and ``bridge-check``.  It fails when an exception escapes ``main``
or an exit code is not one that the README lists for the subcommand.

One usage error per graph (an unknown subcommand, a missing positional, a
non-integer vertex, a bad ``--matrix`` or a bad ``--format``) runs among the
valid calls, so they all share the one parser that ``main`` keeps for the
process.  It must return 2 with a usage line and no traceback, and the valid
call after it must give the same exit code and output as with a freshly
built parser.

    PYTHONPATH=src python tests/cli_sweep.py [SEED] [GRAPHS]
"""
import contextlib
import io
import os
import random
import sys
import tempfile
import traceback
from fractions import Fraction

from pstlab import cli
from pstlab.cli import main

# the exit codes the README documents for each subcommand
DOCUMENTED = {
    "analyze": {0, 2, 3, 5},
    "decide-pst": {0, 1, 2, 3, 4, 5},
    "bound": {0, 2, 3},
    "bridge-check": {0, 2, 3},
}
COMMANDS = (
    ["analyze"],
    ["decide-pst"],
    ["decide-pst", "--matrix", "laplacian"],
    ["bound"],
    ["bridge-check"],
)
# usage errors for the pair (i, j), each of which argparse rejects
USAGE_ERRORS = (
    lambda path, i, j: ["bogus", path, i, j],
    lambda path, i, j: ["decide-pst", path, i],
    lambda path, i, j: ["analyze", path, "v" + i, j],
    lambda path, i, j: ["decide-pst", path, i, j, "--matrix", "incidence"],
    lambda path, i, j: ["--format", "yaml", "bound", path, i, j],
)


def random_graph_text(rng: random.Random) -> str:
    n = rng.randint(2, 7)
    lines = [str(n)]
    for u in range(n):
        for v in range(u, n):
            if rng.random() < (0.15 if u == v else 0.5):
                w = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
                lines.append(f"{u} {v} {w}")
    return "\n".join(lines) + "\n"


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def sweep(seed: int, graphs: int) -> list[str]:
    rng = random.Random(seed)
    failures = []
    calls = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        for g in range(graphs):
            text = random_graph_text(rng)
            with open(path, "w") as fh:
                fh.write(text)
            n = int(text.split("\n", 1)[0])
            pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
            # the usage error goes before this pair's call of this command
            misuse = (pairs[g % len(pairs)], COMMANDS[g % len(COMMANDS)])
            for i, j in pairs:
                for command in COMMANDS:
                    after_misuse = misuse == ((i, j), command)
                    if after_misuse:
                        bad = USAGE_ERRORS[g % len(USAGE_ERRORS)](path, str(i), str(j))
                        calls += 1
                        try:
                            code, out, err = run(bad)
                        except (Exception, SystemExit):  # a usage error must not exit
                            failures.append(f"{bad} on\n{text}" + traceback.format_exc())
                        else:
                            usage = err.startswith("usage: pstlab") and "Traceback" not in err
                            if code != 2 or out or not usage:
                                failures.append(f"{bad} exit {code} on\n{text}{err}")
                    argv = [command[0], path, str(i), str(j), *command[1:]]
                    calls += 1
                    try:
                        result = run(argv)
                    except Exception:
                        failures.append(f"{argv[0]} {i} {j} {command[1:]} on\n{text}"
                                        + traceback.format_exc())
                        continue
                    if result[0] not in DOCUMENTED[command[0]]:
                        failures.append(f"{argv[0]} {i} {j} {command[1:]} exit {result[0]} on\n"
                                        + text + result[2])
                    if after_misuse:
                        cli._parser = None  # the next call builds a fresh parser
                        if run(argv) != result:
                            failures.append(f"{argv[0]} {i} {j} {command[1:]} after a usage error"
                                            f" differs from a fresh parser's on\n{text}")
    print(f"cli sweep: seed {seed}, {graphs} graphs, {calls} calls, {len(failures)} failures")
    return failures


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    graphs = int(sys.argv[2]) if len(sys.argv) > 2 else 40
    failures = sweep(seed, graphs)
    for failure in failures[:5]:
        print(failure, file=sys.stderr)
    sys.exit(1 if failures else 0)
