"""CLI robustness sweep: bad input gives a documented exit code, never a
traceback.

Runs ``pstlab.cli.main`` on seeded random graphs (2 to 7 vertices, loops
included, weights +-{1, 2, 3}/{1, 2, 3}) for every ordered pair of distinct
vertices, through ``analyze``, ``decide-pst`` (adjacency and Laplacian),
``bound`` and ``bridge-check``.  It fails when an exception escapes ``main``
or an exit code is not one that the README lists for the subcommand.

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


def random_graph_text(rng: random.Random) -> str:
    n = rng.randint(2, 7)
    lines = [str(n)]
    for u in range(n):
        for v in range(u, n):
            if rng.random() < (0.15 if u == v else 0.5):
                w = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
                lines.append(f"{u} {v} {w}")
    return "\n".join(lines) + "\n"


def sweep(seed: int, graphs: int) -> list[str]:
    rng = random.Random(seed)
    failures = []
    calls = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        for _ in range(graphs):
            text = random_graph_text(rng)
            with open(path, "w") as fh:
                fh.write(text)
            n = int(text.split("\n", 1)[0])
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    for command in COMMANDS:
                        argv = [command[0], path, str(i), str(j), *command[1:]]
                        calls += 1
                        out, err = io.StringIO(), io.StringIO()
                        try:
                            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                                code = main(argv)
                        except Exception:
                            failures.append(f"{argv[0]} {i} {j} {command[1:]} on\n{text}"
                                            + traceback.format_exc())
                            continue
                        if code not in DOCUMENTED[command[0]]:
                            failures.append(f"{argv[0]} {i} {j} {command[1:]} exit {code} on\n"
                                            + text + err.getvalue())
    print(f"cli sweep: seed {seed}, {graphs} graphs, {calls} calls, {len(failures)} failures")
    return failures


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    graphs = int(sys.argv[2]) if len(sys.argv) > 2 else 40
    failures = sweep(seed, graphs)
    for failure in failures[:5]:
        print(failure, file=sys.stderr)
    sys.exit(1 if failures else 0)
