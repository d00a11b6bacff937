"""Canonical enumeration of free trees, one representative per isomorphism
class.

Trees are grown by leaf addition with centroid-rooted canonical codes for
rejection; the stream is deterministic (sorted by code).  A slow Prüfer-based
oracle lives in the test suite for cross-validation.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .graphs import Graph, GraphError, is_connected

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


def _canonical(adj: list[list[int]]) -> str:
    """Centroid-rooted AHU code of the tree with adjacency lists adj."""
    cents = _centroids(adj, len(adj))
    if len(cents) == 1:
        return _ahu(adj, cents[0], -1)
    a, b = cents
    ca, cb = _ahu(adj, a, b), _ahu(adj, b, a)
    lo, hi = sorted((ca, cb))
    return "[" + lo + hi + "]"


def canonical_code(G: Graph) -> str:
    """Centroid-rooted AHU canonical string; isomorphism invariant."""
    if G.n == 0:
        raise GraphError("empty graph has no tree code")
    if len(G.edges) != G.n - 1 or not is_connected(G):
        raise GraphError("not a tree")
    return _canonical([list(G.neighbors(v)) for v in range(G.n)])


def _edges(code: str) -> list[tuple[int, int]]:
    """Edges of the tree with a rooted code "(...)" or a bicentroidal code
    "[AB]".  Vertices are numbered in the order their brackets open; "[AB]"
    joins the root of A (vertex 0) to the root of B (vertex |A|)."""
    edges: list[tuple[int, int]] = []
    stack: list[int] = []
    count = 0
    for c in code:
        if c == "(":
            if stack or count:
                edges.append((stack[-1] if stack else 0, count))
            stack.append(count)
            count += 1
        elif c == ")":
            stack.pop()
    return edges


@lru_cache(maxsize=None)
def _codes(n: int) -> tuple[str, ...]:
    """Sorted codes of the trees on n vertices: leaf n - 1 on each vertex of
    each tree of order n - 1."""
    if n == 1:
        return ("()",)
    seen = set()
    for code in _codes(n - 1):
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in _edges(code):
            adj[u].append(v)
            adj[v].append(u)
        for v in range(n - 1):
            adj[v].append(n - 1)
            adj[n - 1] = [v]
            seen.add(_canonical(adj))
            adj[v].pop()
    return tuple(sorted(seen))


def tree_count(n: int) -> int:
    return len(_codes(n))


def enumerate_trees(n: int) -> Iterator[Graph]:
    """One canonically-labeled representative per isomorphism class of free
    trees on n vertices, unit weights, deterministic order."""
    if not (1 <= n <= MAX_TREE_ORDER):
        raise GraphError(f"tree order must be in 1..{MAX_TREE_ORDER}")
    for code in _codes(n):
        yield Graph.from_edges(n, [(u, v, 1) for u, v in _edges(code)])
