"""Weighted graphs with exact rational weights, plus structural predicates.

Vertices are labeled 0..n-1.  Loops are allowed (entries on the diagonal),
which lets the Laplacian matrix be treated with the same machinery as the
adjacency matrix.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional


class GraphError(ValueError):
    pass


class GraphParseError(GraphError):
    pass


@dataclass(frozen=True)
class Graph:
    """Symmetric weighted graph.  Immutable and hashable.

    ``edges`` holds sorted (u, v, w) with u <= v and a Fraction w != 0, as
    ``from_edges`` builds them; a (u, u, w) entry is a loop, i.e. a diagonal
    entry of the matrix.  Absent pairs have weight 0.
    """

    n: int
    edges: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("vertex count must be nonnegative")
        for u, v, w in self.edges:
            if not (0 <= u <= v < self.n):
                raise GraphError(f"edge ({u},{v}) out of range for n={self.n}")
            if w == 0:
                raise GraphError("zero-weight edges must not be stored")

    @staticmethod
    def from_edges(n: int, items: Iterable[tuple[int, int, object]]) -> "Graph":
        seen: dict[tuple[int, int], Fraction] = {}
        for u, v, w in items:
            if u > v:
                u, v = v, u
            w = Fraction(w)
            if (u, v) in seen and seen[(u, v)] != w:
                raise GraphError(f"conflicting weights for edge ({u},{v})")
            seen[(u, v)] = w
        edges = tuple(sorted((u, v, w) for (u, v), w in seen.items() if w != 0))
        return Graph(n, edges)

    @cached_property
    def _hash(self) -> int:
        return hash((self.n, self.edges))

    def __hash__(self) -> int:
        # computed once per graph: cache lookups keyed by a graph stay O(1)
        return self._hash

    @cached_property
    def _weights(self) -> dict[tuple[int, int], Fraction]:
        return {(u, v): w for u, v, w in self.edges}

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v, _ in self.edges:
            if u != v:
                nbrs[u].append(v)
                nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @cached_property
    def _bridges(self) -> frozenset[tuple[int, int]]:
        return _lowlink_bridges(self)

    def weight(self, u: int, v: int) -> Fraction:
        if u > v:
            u, v = v, u
        return self._weights.get((u, v), Fraction(0))

    def has_edge(self, u: int, v: int) -> bool:
        return self.weight(u, v) != 0

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adjacency[v]

    def adjacency_rows(self) -> list[list[Fraction]]:
        rows = [[Fraction(0)] * self.n for _ in range(self.n)]
        for u, v, w in self.edges:
            rows[u][v] = w
            rows[v][u] = w
        return rows

    def is_integer_weighted(self) -> bool:
        return all(w.denominator == 1 for _, _, w in self.edges)

    def has_loops(self) -> bool:
        return any(u == v for u, v, _ in self.edges)


# ---------------------------------------------------------------------------
# parsing


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: first line n, then "u v" or "u v w" lines.

    Comment lines start with '#'.  Weights are exact rationals "p" or "p/q";
    unweighted edges get weight 1.  A "u u w" line sets a loop.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphParseError("empty graph description")
    try:
        n = int(lines[0])
    except ValueError:
        raise GraphParseError(f"bad vertex count line: {lines[0]!r}") from None
    if n < 1:
        raise GraphParseError("vertex count must be >= 1")
    items: list[tuple[int, int, Fraction]] = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) not in (2, 3):
            raise GraphParseError(f"malformed line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = Fraction(parts[2]) if len(parts) == 3 else Fraction(1)
        except (ValueError, ZeroDivisionError):
            raise GraphParseError(f"malformed line: {ln!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"vertex index out of range in line: {ln!r}")
        items.append((u, v, w))
    try:
        return Graph.from_edges(n, items)
    except GraphError as exc:
        raise GraphParseError(str(exc)) from None


def parse_graph6(line: str) -> Graph:
    """Parse a single graph6-encoded unweighted graph (63-offset bytes)."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise GraphParseError("invalid graph6 character")
    if not data:
        raise GraphParseError("empty graph6 string")
    if data[0] < 63:
        n, data = data[0], data[1:]
    elif len(data) >= 4 and data[1] < 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        data = data[4:]
    elif len(data) >= 8:
        n = 0
        for b in data[2:8]:
            n = (n << 6) | b
        data = data[8:]
    else:
        raise GraphParseError("truncated graph6 header")
    nbits = n * (n - 1) // 2
    if len(data) != (nbits + 5) // 6:
        raise GraphParseError("graph6 length mismatch")
    bits = []
    for b in data:
        bits.extend((b >> shift) & 1 for shift in range(5, -1, -1))
    items = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                items.append((u, v, 1))
            idx += 1
    return Graph.from_edges(n, items)


def load_graph_text(text: str) -> Graph:
    """Dispatch between edge-list and graph6 input.

    graph6 bytes are all >= '?' (63), so a leading integer line means
    edge-list format.
    """
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if ln.startswith(">>graph6<<") or not ln.split()[0].isdigit():
            return parse_graph6(ln)
        return parse_graph(text)
    raise GraphParseError("empty graph description")


# ---------------------------------------------------------------------------
# structure


def delete_vertices(G: Graph, S: Iterable[int]) -> Graph:
    """Induced subgraph on V \\ S, relabeled 0.. preserving original order."""
    dropped = set(S)
    for v in dropped:
        if not (0 <= v < G.n):
            raise GraphError(f"vertex {v} out of range")
    keep = [v for v in range(G.n) if v not in dropped]
    relabel = {v: k for k, v in enumerate(keep)}
    # the relabeling is monotone, so the edges stay normalized and sorted
    items = [
        (relabel[u], relabel[v], w)
        for u, v, w in G.edges
        if u in relabel and v in relabel
    ]
    return Graph(len(keep), tuple(items))


def connected_components(G: Graph) -> list[list[int]]:
    seen = [False] * G.n
    comps = []
    for s in range(G.n):
        if seen[s]:
            continue
        comp = []
        stack = [s]
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in G.neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def is_connected(G: Graph) -> bool:
    return G.n <= 1 or len(connected_components(G)) == 1


def bfs_distances(G: Graph, source: int) -> list[int]:
    """Unweighted hop distances; -1 for unreachable vertices."""
    dist = [-1] * G.n
    dist[source] = 0
    q = deque([source])
    while q:
        v = q.popleft()
        for u in G.neighbors(v):
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                q.append(u)
    return dist


def eccentricity(G: Graph, v: int) -> int:
    dist = bfs_distances(G, v)
    if any(d < 0 for d in dist):
        raise GraphError("eccentricity requires a connected graph")
    return max(dist)


def bridges(G: Graph) -> frozenset[tuple[int, int]]:
    """All cut-edges, as (u, v) with u < v; found once per graph."""
    return G._bridges


def _lowlink_bridges(G: Graph) -> frozenset[tuple[int, int]]:
    """The cut-edges by an iterative lowlink DFS."""
    disc = [-1] * G.n
    low = [0] * G.n
    out: set[tuple[int, int]] = set()
    timer = 0
    for root in range(G.n):
        if disc[root] >= 0:
            continue
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        while stack:
            v, parent, i = stack.pop()
            if i == 0:
                disc[v] = low[v] = timer
                timer += 1
            nbrs = G.neighbors(v)
            if i < len(nbrs):
                stack.append((v, parent, i + 1))
                u = nbrs[i]
                if u == parent:
                    # skip one parent edge occurrence; parallel edges are
                    # impossible here (simple weighted graph)
                    continue
                if disc[u] >= 0:
                    low[v] = min(low[v], disc[u])
                else:
                    stack.append((u, v, 0))
            else:
                if parent >= 0:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        out.add((min(parent, v), max(parent, v)))
    return frozenset(out)


def separating_cut_edge(G: Graph, e: tuple[int, int], i: int, j: int) -> bool:
    """True iff e is a bridge whose removal leaves i and j in different
    components."""
    u, v = e
    if not G.has_edge(u, v) or u == v:
        raise GraphError(f"({u},{v}) is not an edge")
    if i == j:
        raise GraphError("need distinct vertices i, j")
    if not (0 <= i < G.n and 0 <= j < G.n):
        raise GraphError(f"vertex pair ({i},{j}) out of range")
    if (min(u, v), max(u, v)) not in bridges(G):
        return False
    d_i = bfs_distances(G, i)
    if d_i[j] < 0:
        return True
    d_j = bfs_distances(G, j)
    # a vertex is on the v side of the bridge iff it is closer to v than to u;
    # off the bridge's component both tests read False
    return (d_i[v] < d_i[u]) != (d_j[v] < d_j[u])


def separating_neighbor(G: Graph, v: int, other: int) -> Optional[int]:
    """The least neighbor nb != other of v whose edge to v is a bridge
    separating v from other, or None.

    The bridge {v, nb} separates them exactly when other does not reach v,
    or reaches it through nb (nb is one hop closer to other than v is).
    """
    cut = bridges(G)
    d = bfs_distances(G, other)
    for nb in G.neighbors(v):
        if nb != other and (min(v, nb), max(v, nb)) in cut:
            if d[v] < 0 or d[nb] == d[v] - 1:
                return nb
    return None


# ---------------------------------------------------------------------------
# generators


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return Graph.from_edges(n, [(k, k + 1, 1) for k in range(n - 1)])


def star(n: int) -> Graph:
    """Star on n vertices; vertex 0 is the center."""
    if n < 1:
        raise GraphError("star needs n >= 1")
    return Graph.from_edges(n, [(0, k, 1) for k in range(1, n)])


def double_star(a: int, b: int) -> Graph:
    """Adjacent centers 0 and 1 carrying a and b leaves respectively."""
    if a < 1 or b < 1:
        raise GraphError("double_star needs a, b >= 1")
    items = [(0, 1, 1)]
    items += [(0, 2 + k, 1) for k in range(a)]
    items += [(1, 2 + a + k, 1) for k in range(b)]
    return Graph.from_edges(2 + a + b, items)


def hypercube(d: int) -> Graph:
    if not (1 <= d <= 10):
        raise GraphError("hypercube needs 1 <= d <= 10")
    n = 1 << d
    items = []
    for v in range(n):
        for bit in range(d):
            u = v ^ (1 << bit)
            if u > v:
                items.append((v, u, 1))
    return Graph.from_edges(n, items)


def laplacian_form(G: Graph) -> Graph:
    """Graph whose matrix is L = D - A: negated off-diagonal weights plus
    weighted-degree loops."""
    if G.has_loops():
        raise GraphError("laplacian_form requires a loopless graph")
    deg = [Fraction(0)] * G.n
    items: list[tuple[int, int, Fraction]] = []
    for u, v, w in G.edges:
        deg[u] += w
        deg[v] += w
        items.append((u, v, -w))
    for v in range(G.n):
        if deg[v] != 0:
            items.append((v, v, deg[v]))
    return Graph.from_edges(G.n, items)
