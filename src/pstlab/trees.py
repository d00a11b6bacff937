"""Canonical enumeration of free trees, one representative per isomorphism
class.

Trees are grown by leaf addition with centroid-rooted canonical codes for
rejection; the stream is deterministic (sorted by code).  A slow Prüfer-based
oracle lives in the test suite for cross-validation.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .graphs import Graph, GraphError

#: largest tree order that ``enumerate_trees`` and ``scan_trees`` accept
MAX_TREE_ORDER = 16


def _subtree_sizes(adj: list[list[int]], root: int, n: int) -> list[int]:
    size = [1] * n
    order = []
    parent = [-1] * n
    stack = [root]
    seen = [False] * n
    while stack:
        v = stack.pop()
        seen[v] = True
        order.append(v)
        for u in adj[v]:
            if not seen[u]:
                parent[u] = v
                stack.append(u)
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
    return size


def _centroids(adj: list[list[int]], n: int) -> list[int]:
    size = _subtree_sizes(adj, 0, n)
    best, out = n + 1, []
    for v in range(n):
        heaviest = n - size[v]
        for u in adj[v]:
            if size[u] < size[v]:
                heaviest = max(heaviest, size[u])
        if heaviest < best:
            best, out = heaviest, [v]
        elif heaviest == best:
            out.append(v)
    return out


def _ahu(adj: list[list[int]], root: int, banned: int) -> str:
    children = [u for u in adj[root] if u != banned]
    codes = sorted(_ahu(adj, u, root) for u in children)
    return "(" + "".join(codes) + ")"


def canonical_code(G: Graph) -> str:
    """Centroid-rooted AHU canonical string; isomorphism invariant."""
    if G.n == 0:
        raise GraphError("empty graph has no tree code")
    adj = [list(G.neighbors(v)) for v in range(G.n)]
    if len(G.edges) != G.n - 1:
        raise GraphError("not a tree")
    cents = _centroids(adj, G.n)
    if len(cents) == 1:
        return _ahu(adj, cents[0], -1)
    a, b = cents
    ca, cb = _ahu(adj, a, b), _ahu(adj, b, a)
    lo, hi = sorted((ca, cb))
    return "[" + lo + hi + "]"


def _tree_from_rooted(code: str) -> Graph:
    edges: list[tuple[int, int, int]] = []
    stack: list[int] = []
    counter = 0
    for c in code:
        if c == "(":
            label = counter
            counter += 1
            if stack:
                edges.append((stack[-1], label, 1))
            stack.append(label)
        else:
            stack.pop()
    return Graph.from_edges(counter, edges)


def _tree_from_bicentroidal(code: str) -> Graph:
    inner = code[1:-1]
    depth = 0
    split = 0
    for k, c in enumerate(inner):
        depth += 1 if c == "(" else -1
        if depth == 0:
            split = k + 1
            break
    left = _tree_from_rooted(inner[:split])
    right = _tree_from_rooted(inner[split:])
    items = list(left.edges)
    items += [(u + left.n, v + left.n, w) for u, v, w in right.edges]
    items.append((0, left.n, 1))
    return Graph.from_edges(left.n + right.n, items)


def _build(code: str) -> Graph:
    if code.startswith("["):
        return _tree_from_bicentroidal(code)
    return _tree_from_rooted(code)


def _add_leaf(T: Graph, v: int) -> Graph:
    return Graph.from_edges(T.n + 1, list(T.edges) + [(v, T.n, 1)])


@lru_cache(maxsize=None)
def _codes(n: int) -> tuple[str, ...]:
    if n == 1:
        return ("()",)
    seen = set()
    for code in _codes(n - 1):
        T = _build(code)
        for v in range(T.n):
            seen.add(canonical_code(_add_leaf(T, v)))
    return tuple(sorted(seen))


def tree_count(n: int) -> int:
    return len(_codes(n))


def enumerate_trees(n: int) -> Iterator[Graph]:
    """One canonically-labeled representative per isomorphism class of free
    trees on n vertices, unit weights, deterministic order."""
    if not (1 <= n <= MAX_TREE_ORDER):
        raise GraphError(f"tree order must be in 1..{MAX_TREE_ORDER}")
    for code in _codes(n):
        yield _build(code)
