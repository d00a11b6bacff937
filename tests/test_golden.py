"""Golden outputs: the scan, CLI ``analyze``, the alpha partial fractions,
the projector tables and the support partitions, compared with the values
committed in ``data/golden_outputs.json``.

A change that is meant to keep every output must leave this test passing.
A change that alters an output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says in its description which outputs changed and why.
"""
import contextlib
import io
import json
import os
import tempfile

from conftest import seeded_mirror_graphs, trees_up_to
from pstlab.cli import main
from pstlab.gapcert import alpha_pair, merged_alphas, partial_fraction
from pstlab.graphs import hypercube, path
from pstlab.scan import scan_trees
from pstlab.spectra import is_strongly_cospectral, projector_entries, support_partition

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_outputs.json")


def _graph_text(G) -> str:
    return f"{G.n}\n" + "".join(f"{u} {v} {w}\n" for u, v, w in G.edges)


def _cli(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _analyze_cases():
    cases = [("P3", path(3), 0, 2), ("P4", path(4), 0, 3), ("Q3", hypercube(3), 0, 7)]
    for k, G in enumerate(seeded_mirror_graphs(7, 2)):
        cases.append((f"mirror{k}", G, G.n - 2, G.n - 1))
    return cases


def _partial_fraction_json(pf) -> dict:
    return {**pf.to_json(), "s0_exact": str(pf.s0_exact), "numerator_eigen": list(pf.numerator_eigen)}


def golden_outputs() -> dict:
    scan = scan_trees(9).to_json()
    scan.pop("wall_time_seconds")
    analyze = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, G, i, j in _analyze_cases():
            f = os.path.join(tmp, f"{name}.txt")
            with open(f, "w") as fh:
                fh.write(_graph_text(G))
            analyze[f"{name} {i} {j}"] = _cli(["analyze", f, str(i), str(j)])
    alphas = {}
    for n, T in trees_up_to(8):
        for i in range(n):
            for j in range(i + 1, n):
                if is_strongly_cospectral(T, i, j):
                    key = " ".join(f"{u}-{v}" for u, v, _ in T.edges) + f" | {i} {j}"
                    alphas[key] = {
                        "merged": [_partial_fraction_json(pf) for pf in merged_alphas(T, i, j)],
                        "partial": [partial_fraction(f).to_json() for f in alpha_pair(T, i, j)],
                    }
    projector, partition = {}, {}
    graphs = [T for _, T in trees_up_to(6)] + seeded_mirror_graphs(7, 2)
    for G in graphs:
        for i in range(G.n):
            for j in range(G.n):
                key = " ".join(f"{u}-{v}:{w}" for u, v, w in G.edges) + f" | {i} {j}"
                projector[key] = projector_entries(G, i, j).to_json()
                if i != j and is_strongly_cospectral(G, i, j):
                    partition[key] = support_partition(G, i, j).to_json()
    return json.loads(json.dumps({
        "scan_trees_9": scan,
        "analyze": analyze,
        "alphas": alphas,
        "projector": projector,
        "partition": partition,
    }))


def test_outputs_match_the_golden_file():
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = golden_outputs()
    assert got.keys() == want.keys()
    for section in want:
        assert got[section] == want[section], section
    assert len(want["alphas"]) > 50
    assert len(want["partition"]) > 20


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(golden_outputs(), fh, indent=1, sort_keys=True)
        fh.write("\n")
