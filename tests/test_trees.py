"""Tree enumeration, cross-validated against a Prüfer-sequence oracle.

The oracle generates every labeled tree from its Prüfer sequence and dedups
isomorphism classes with its own canonical form (sorted-degree refinement +
brute-force permutation minimization for ties), sharing no code with the
enumerator under test, which builds each tree directly from its centroid-rooted
code.  A leaf-growth generator on ``Graph`` objects checks the codes and the
stream order.
"""
import itertools

import pytest

from pstlab.graphs import Graph, GraphError, bridges, is_connected, path, star
from pstlab.trees import (
    MAX_TREE_ORDER,
    _codes,
    _edges,
    canonical_code,
    enumerate_trees,
    tree_count,
)

#: number of free trees on n vertices, n = 1..16 (OEIS A000055)
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320]


def prufer_to_edges(seq, n):
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def oracle_canonical(edges, n):
    """Minimum adjacency bitmask over all vertex permutations, with a degree
    pre-sort to prune.  Exponential; only for small n."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    best = None
    degs = [len(a) for a in adj]
    order = sorted(range(n), key=lambda v: degs[v])
    # permutations respecting the degree sort (canonical form must be
    # invariant, so restricting to degree-sorted images is safe)
    groups = []
    for _, grp in itertools.groupby(order, key=lambda v: degs[v]):
        groups.append(list(grp))
    for parts in itertools.product(*[itertools.permutations(g) for g in groups]):
        perm_order = [v for part in parts for v in part]
        relabel = {v: k for k, v in enumerate(perm_order)}
        mask = 0
        for u, v in edges:
            a, b = relabel[u], relabel[v]
            if a > b:
                a, b = b, a
            mask |= 1 << (a * n + b)
        if best is None or mask < best:
            best = mask
    return best


def prufer_class_count(n):
    if n == 1:
        return 1
    if n == 2:
        return 1
    seen = set()
    for seq in itertools.product(range(n), repeat=n - 2):
        seen.add(oracle_canonical(prufer_to_edges(seq, n), n))
    return len(seen)


@pytest.mark.parametrize("n", range(1, 8))
def test_counts_match_prufer_oracle(n):
    assert tree_count(n) == prufer_class_count(n)


def test_counts_match_known_sequence():
    assert len(FREE_TREE_COUNTS) == MAX_TREE_ORDER
    for n, expected in enumerate(FREE_TREE_COUNTS, start=1):
        assert tree_count(n) == expected


def test_enumerated_trees_are_trees():
    for n in range(2, 9):
        for T in enumerate_trees(n):
            assert T.n == n
            assert len(T.edges) == n - 1
            assert is_connected(T)
            assert len(bridges(T)) == n - 1  # every tree edge is a bridge
            assert all(w == 1 for _, _, w in T.edges)


def test_enumeration_has_no_isomorphic_duplicates():
    for n in range(2, 9):
        codes = [canonical_code(T) for T in enumerate_trees(n)]
        assert len(codes) == len(set(codes))


def test_enumeration_deterministic():
    first = [T.edges for T in enumerate_trees(8)]
    second = [T.edges for T in enumerate_trees(8)]
    assert first == second


def test_canonical_code_isomorphism_invariant():
    # P4 relabeled two ways
    a = Graph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    b = Graph.from_edges(4, [(2, 0, 1), (0, 3, 1), (3, 1, 1)])
    assert canonical_code(a) == canonical_code(b)
    assert canonical_code(path(4)) != canonical_code(star(4))


def test_canonical_code_bicentroidal():
    # even paths have two centroids
    assert canonical_code(path(4)).startswith("[")
    assert canonical_code(path(5)).startswith("(")


def test_canonical_code_rejects_non_trees():
    C = Graph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    with pytest.raises(GraphError):
        canonical_code(C)


def test_enumerate_trees_bounds():
    with pytest.raises(GraphError):
        list(enumerate_trees(0))


@pytest.mark.parametrize("n", [0, -1, MAX_TREE_ORDER + 1])
def test_tree_count_bounds(n):
    with pytest.raises(GraphError, match=f"tree order must be in 1..{MAX_TREE_ORDER}"):
        tree_count(n)


def test_canonical_code_rejects_disconnected_graphs_with_tree_edge_count():
    # a triangle plus an isolated vertex has n - 1 edges but is no tree
    G = Graph.from_edges(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    with pytest.raises(GraphError):
        canonical_code(G)


def test_edges_label_vertices_in_bracket_order():
    assert _edges("()") == []
    assert _edges("(()(()))") == [(0, 1), (0, 2), (2, 3)]
    # [AB] joins the root of A (vertex 0) to the root of B (vertex |A|)
    assert _edges("[(())(())]") == [(0, 1), (0, 2), (2, 3)]
    assert _edges("[(()())(())]") == [(0, 1), (0, 2), (0, 3), (3, 4)]


# -- the Graph-based generator, kept here as the reference for the stream --


def _graph_from_rooted(code):
    edges, stack, counter = [], [], 0
    for c in code:
        if c == "(":
            if stack:
                edges.append((stack[-1], counter, 1))
            stack.append(counter)
            counter += 1
        else:
            stack.pop()
    return Graph.from_edges(counter, edges)


def _graph_from_code(code):
    if not code.startswith("["):
        return _graph_from_rooted(code)
    inner, depth = code[1:-1], 0
    for k, c in enumerate(inner):
        depth += 1 if c == "(" else -1
        if depth == 0:
            split = k + 1
            break
    left = _graph_from_rooted(inner[:split])
    right = _graph_from_rooted(inner[split:])
    items = list(left.edges)
    items += [(u + left.n, v + left.n, w) for u, v, w in right.edges]
    items.append((0, left.n, 1))
    return Graph.from_edges(left.n + right.n, items)


def _graph_codes(n, memo={1: ("()",)}):
    if n not in memo:
        seen = set()
        for code in _graph_codes(n - 1):
            T = _graph_from_code(code)
            for v in range(T.n):
                seen.add(canonical_code(
                    Graph.from_edges(T.n + 1, list(T.edges) + [(v, T.n, 1)])
                ))
        memo[n] = tuple(sorted(seen))
    return memo[n]


@pytest.mark.parametrize("n", range(1, 13))
def test_codes_and_trees_match_the_graph_based_generator(n):
    assert tuple(_codes(n)) == _graph_codes(n)
    assert list(enumerate_trees(n)) == [_graph_from_code(c) for c in _graph_codes(n)]
