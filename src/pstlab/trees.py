"""Canonical enumeration of free trees, one representative per isomorphism
class.

Each tree is built once, from its centroid-rooted canonical code; the stream
is deterministic (sorted by code).  A slow Prüfer-based oracle and a
leaf-growth generator live in the test suite for cross-validation.
"""
from __future__ import annotations

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


def canonical_code(G: Graph) -> str:
    """Centroid-rooted AHU canonical string; isomorphism invariant."""
    if G.n == 0:
        raise GraphError("empty graph has no tree code")
    if len(G.edges) != G.n - 1 or not is_connected(G):
        raise GraphError("not a tree")
    adj = [list(G.neighbors(v)) for v in range(G.n)]
    cents = _centroids(adj, G.n)
    if len(cents) == 1:
        return _ahu(adj, cents[0], -1)
    a, b = cents
    lo, hi = sorted((_ahu(adj, a, b), _ahu(adj, b, a)))
    return "[" + lo + hi + "]"


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


def _forests(pool: list[tuple[str, int]], total: int, start: int = 0) -> Iterator[str]:
    """Each multiset of rooted trees from pool[start:] with total vertices in
    all, as its codes joined in pool order.  pool holds (code, size) pairs
    sorted by code, so the join is sorted as ``_ahu`` sorts children."""
    if total == 0:
        yield ""
        return
    for k in range(start, len(pool)):
        code, size = pool[k]
        if size <= total:
            for rest in _forests(pool, total - size, k):
                yield code + rest


def _codes(n: int) -> tuple[str, ...]:
    """Sorted centroid-rooted codes of the trees on n vertices: a root whose
    branches each have fewer than n/2 vertices, or, for even n, two rooted
    halves of n/2 vertices joined at their roots."""
    if not (1 <= n <= MAX_TREE_ORDER):
        raise GraphError(f"tree order must be in 1..{MAX_TREE_ORDER}")
    pool: list[tuple[str, int]] = []  # rooted trees of fewer than size vertices
    for size in range(1, n // 2 + 1):
        rooted = sorted("(" + f + ")" for f in _forests(pool, size - 1))
        if 2 * size < n:
            pool = sorted(pool + [(code, size) for code in rooted])
    codes = ["(" + f + ")" for f in _forests(pool, n - 1)]
    if n % 2 == 0:
        codes += ["[" + lo + hi + "]" for i, lo in enumerate(rooted) for hi in rooted[i:]]
    return tuple(sorted(codes))


def tree_count(n: int) -> int:
    return len(_codes(n))


def enumerate_trees(n: int) -> Iterator[Graph]:
    """One canonically-labeled representative per isomorphism class of free
    trees on n vertices, unit weights, deterministic order."""
    for code in _codes(n):
        yield Graph.from_edges(n, [(u, v, 1) for u, v in _edges(code)])
