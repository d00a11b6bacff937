"""Seeded inputs for the benchmark workloads.

A graph is ``(n, edges)`` with ``edges`` a list of ``(u, v, w)``, ``u < v``
and ``w`` a nonzero ``Fraction``; ``graph_text`` writes it in the edge-list
format the ``pstlab`` CLI reads.  Every generator draws only from the
``random.Random`` it is given, so one seed gives byte-identical inputs.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

PI_HALF = math.pi / 2
PI_ROOT2 = math.pi / math.sqrt(2)


def graph_text(graph) -> str:
    n, edges = graph
    return f"{n}\n" + "".join(f"{u} {v} {w}\n" for u, v, w in sorted(edges))


def path(n: int):
    return n, [(k, k + 1, Fraction(1)) for k in range(n - 1)]


def hypercube(d: int):
    n = 1 << d
    edges = [
        (v, v ^ (1 << b), Fraction(1))
        for v in range(n)
        for b in range(d)
        if v < v ^ (1 << b)
    ]
    return n, edges


def cartesian(g, h):
    """G □ H; vertex (a, b) is a * |H| + b."""
    (ng, eg), (nh, eh) = g, h
    edges = [(a * nh + u, a * nh + v, w) for a in range(ng) for u, v, w in eh]
    edges += [(u * nh + b, v * nh + b, w) for u, v, w in eg for b in range(nh)]
    return ng * nh, edges


def relabel(graph, rng: random.Random):
    """The same graph under a random vertex permutation, and the permutation."""
    n, edges = graph
    perm = list(range(n))
    rng.shuffle(perm)
    moved = [(min(perm[u], perm[v]), max(perm[u], perm[v]), w) for u, v, w in edges]
    return (n, moved), perm


# The weights of a mirror graph's base and join edges, used in turn.
WEIGHTS = tuple(Fraction(p, q) for p, q in ((1, 2), (2, 3), (3, 2), (1, 3), (2, 1), (3, 1), (1, 1)))


def prufer_tree(rng: random.Random, n: int):
    """Uniform random labelled tree on n >= 2 vertices, unit weights."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((min(leaf, v), max(leaf, v), Fraction(1)))
        degree[leaf] -= 1
        degree[v] -= 1
    u, v = [x for x in range(n) if degree[x] == 1]
    edges.append((u, v, Fraction(1)))
    return n, edges


def _quotients_disjoint(k: int, base: dict, join: int, w_join, anchor: int) -> bool:
    """Whether the symmetric and antisymmetric quotients of a mirror graph
    have no eigenvalue in common, with a margin far above rounding error.

    The quotients are the base graph plus the pendant, with +w or -w added
    at the join vertex.  When their spectra are disjoint every eigenspace of
    the mirror graph is either symmetric or antisymmetric under the swap, so
    the two pendant vertices are strongly cospectral.
    """
    m = np.zeros((k + 1, k + 1))
    for (u, v), w in base.items():
        m[u, v] = m[v, u] = float(w)
    m[anchor, k] = m[k, anchor] = 1.0
    plus, minus = m.copy(), m.copy()
    plus[join, join] += float(w_join)
    minus[join, join] -= float(w_join)
    ev_plus, ev_minus = np.linalg.eigvalsh(plus), np.linalg.eigvalsh(minus)
    return float(np.min(np.abs(ev_plus[:, None] - ev_minus[None, :]))) > 1e-6


def mirror(rng: random.Random, k: int):
    """Two copies of a random connected rational-weighted graph on k vertices,
    joined by one edge between a vertex and its copy, with a unit-weight
    pendant vertex on a vertex of each copy.

    The base graph has a random spanning tree and k - 2 more random edges.
    Its weights and the join weight run through WEIGHTS in random order, so
    mirror graphs of one size cost about the same to decide.

    Returns the graph and the pair of pendant vertices.  Swapping the copies
    is an automorphism that exchanges the pair, each pendant edge is a bridge
    separating the pair, and drafts whose swap quotients share an eigenvalue
    are redrawn, so the pair is strongly cospectral.
    """
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    while True:
        chosen = {(rng.randrange(v), v) for v in range(1, k)}
        spare = [p for p in pairs if p not in chosen]
        chosen.update(rng.sample(spare, min(k - 2, len(spare))))
        weights = [WEIGHTS[m % len(WEIGHTS)] for m in range(len(chosen) + 1)]
        rng.shuffle(weights)
        base = dict(zip(sorted(chosen), weights))
        w_join = weights[-1]
        join, anchor = rng.randrange(k), rng.randrange(k)
        if _quotients_disjoint(k, base, join, w_join, anchor):
            break
    edges = [(u, v, w) for (u, v), w in base.items()]
    edges += [(u + k, v + k, w) for (u, v), w in base.items()]
    edges.append((join, join + k, w_join))
    i, j = 2 * k, 2 * k + 1
    edges += [(anchor, i, Fraction(1)), (anchor + k, j, Fraction(1))]
    return (2 * k + 2, edges), (i, j)


# ---------------------------------------------------------------------------
# workload plans

TREE_SCAN_MAX_N = 10
MIRROR_SIZES = (3, 3, 4, 4, 5, 5, 6, 6)
PRUFER_SIZES = tuple(range(17, 25)) * 2
ALL_PAIRS_MIRROR_SIZES = (4, 5, 6)


def _mapped(pairs, perm):
    return sorted(tuple(sorted((perm[a], perm[b]))) for a, b in pairs)


def _antipodal(d: int):
    top = (1 << d) - 1
    return [(v, v ^ top) for v in range(1 << d) if v < v ^ top]


def _pst_families():
    """(name, graph, pair, model, result, t_min or failing condition).

    Q_d antipodal pairs have PST at pi/2 (for the Laplacian too, as Q_d is
    regular), P3 ends and the opposite corners of P3 x P3 at pi/sqrt(2).
    P3 x Q3 has no PST between corners because the two factors' PST times
    differ, and no tree other than P2 has Laplacian PST.  The failing
    conditions of the two negative controls were recorded with pstlab 0.1.0.
    """
    p3, q3 = path(3), hypercube(3)
    out = []
    for d in (2, 3, 4, 5):
        out.append((f"Q{d}", hypercube(d), (0, (1 << d) - 1), "adjacency", "PST", PI_HALF))
    for d in (3, 4, 5):
        out.append((f"Q{d}", hypercube(d), (0, (1 << d) - 1), "laplacian", "PST", PI_HALF))
    out.append(("P3", p3, (0, 2), "adjacency", "PST", PI_ROOT2))
    out.append(("P3xP3", cartesian(p3, p3), (0, 8), "adjacency", "PST", PI_ROOT2))
    out.append(("P3xQ3", cartesian(p3, q3), (0, 23), "adjacency", "NO_PST", "ratio_condition_b"))
    out.append(("P3", p3, (0, 2), "laplacian", "NO_PST", "parity_condition_c"))
    return out


def pair_decide_queries(seed: int, rep: int = 0) -> list[dict]:
    """The query stream of repetition ``rep`` of the pair-decide workload.

    Every family graph is relabelled at random.  A ``decide-pst`` query
    carries its planted ``result`` and either ``t_min`` or the ``failing``
    condition; on a mirror graph the result is not planted, but the pair is
    strongly cospectral, so ``not_strongly_cospectral`` is wrong.  An
    ``analyze`` query carries the expected ``hypotheses_ok`` and
    ``equality`` of its gap certificate.
    """
    rng = random.Random(f"pair-decide:{seed}:{rep}")
    queries = []
    for name, graph, pair, model, result, detail in _pst_families():
        graph, perm = relabel(graph, rng)
        q = {"name": f"{name}-{model}", "command": "decide-pst", "graph": graph,
             "pair": (perm[pair[0]], perm[pair[1]]), "model": model, "result": result}
        q["t_min" if result == "PST" else "failing"] = detail
        queries.append(q)
    for name, graph, pair, hyp, eq in (
        ("P3", path(3), (0, 2), True, True),
        ("Q3", hypercube(3), (0, 7), False, False),
    ):
        graph, perm = relabel(graph, rng)
        queries.append({"name": name, "command": "analyze", "graph": graph,
                        "pair": (perm[pair[0]], perm[pair[1]]),
                        "hypotheses_ok": hyp, "equality": eq})
    for k in MIRROR_SIZES:
        graph, pair = mirror(rng, k)
        queries.append({"name": f"mirror{k}", "command": "decide-pst", "graph": graph,
                        "pair": pair, "model": "adjacency", "result": None})
        queries.append({"name": f"mirror{k}", "command": "analyze", "graph": graph,
                        "pair": pair, "hypotheses_ok": True, "equality": False})
    rng.shuffle(queries)
    return queries


def all_pairs_cases(seed: int, rep: int = 0) -> list[dict]:
    """The graphs of repetition ``rep`` of the all-pairs workload with what
    their PST pairs must be: none on a tree with more than three vertices,
    exactly the antipodal pairs on Q_d and the four mirror-image pairs on
    P3 x P3.  On a mirror graph the PST pairs are not planted, but its
    pendant pair must be strongly cospectral."""
    rng = random.Random(f"all-pairs:{seed}:{rep}")
    cases = [{"name": f"tree{n}", "graph": prufer_tree(rng, n), "pst": []} for n in PRUFER_SIZES]
    for k in ALL_PAIRS_MIRROR_SIZES:
        graph, pair = mirror(rng, k)
        cases.append({"name": f"mirror{k}", "graph": graph, "pst": None, "strong": pair})
    for name, graph, pairs in (
        ("Q3", hypercube(3), _antipodal(3)),
        ("Q4", hypercube(4), _antipodal(4)),
        ("P3xP3", cartesian(path(3), path(3)), [(v, 8 - v) for v in range(4)]),
    ):
        graph, perm = relabel(graph, rng)
        cases.append({"name": name, "graph": graph, "pst": _mapped(pairs, perm)})
    rng.shuffle(cases)
    return cases
