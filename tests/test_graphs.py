import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pstlab import graphs
from pstlab.graphs import (
    Graph,
    GraphError,
    GraphParseError,
    bfs_distances,
    bridges,
    connected_components,
    delete_vertices,
    double_star,
    eccentricity,
    hypercube,
    is_connected,
    laplacian_form,
    load_graph_text,
    parse_graph,
    parse_graph6,
    path,
    separating_cut_edge,
    separating_neighbor,
    star,
)
from pstlab.trees import enumerate_trees


def test_from_edges_normalizes_orientation():
    G = Graph.from_edges(3, [(2, 0, 1), (1, 2, "1/2")])
    assert G.edges == ((0, 2, Fraction(1)), (1, 2, Fraction(1, 2)))
    assert G.weight(0, 2) == 1
    assert G.weight(2, 0) == 1
    assert G.weight(0, 1) == 0


def test_zero_weight_edges_dropped():
    G = Graph.from_edges(2, [(0, 1, 0)])
    assert G.edges == ()


def test_conflicting_weights_rejected():
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 1, 1), (1, 0, 2)])


def test_graph_is_hashable_and_equal_by_value():
    a = Graph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
    b = Graph.from_edges(3, [(1, 2, 1), (0, 1, 1)])
    assert a == b
    assert hash(a) == hash(b)


def test_out_of_range_edge():
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 2, 1)])


# -- parsing ----------------------------------------------------------------


def test_parse_edge_list_with_weights_and_comments():
    text = """
    # triangle with one rational weight
    3
    0 1
    1 2 2
    0 2 1/3
    """
    G = parse_graph(text)
    assert G.n == 3
    assert G.weight(0, 2) == Fraction(1, 3)
    assert G.weight(1, 2) == 2


def test_parse_rejects_garbage():
    for bad in ["", "x", "2\n0 1 2 3", "2\n0 5", "2\n0 1 1/0"]:
        with pytest.raises(GraphParseError):
            parse_graph(bad)


def test_parse_graph6_small():
    # "D?{" encodes the star K_{1,4} with center 4
    G = parse_graph6("D?{")
    assert G.n == 5
    assert sorted((u, v) for u, v, _ in G.edges) == [(0, 4), (1, 4), (2, 4), (3, 4)]
    # "Ch" is the path on 4 vertices
    P = parse_graph6("Ch")
    assert P.n == 4
    assert sorted((u, v) for u, v, _ in P.edges) == [(0, 1), (1, 2), (2, 3)]


def test_parse_graph6_header_prefix():
    G = parse_graph6(">>graph6<<A_")
    assert G.n == 2 and G.has_edge(0, 1)


def test_load_graph_text_dispatch():
    assert load_graph_text("2\n0 1").n == 2
    assert load_graph_text("A_").n == 2
    with pytest.raises(GraphParseError):
        load_graph_text("   \n# nothing\n")


# -- structure --------------------------------------------------------------


def test_delete_vertices_relabels_in_order():
    P = path(5)
    H = delete_vertices(P, {2})
    assert H.n == 4
    # remaining path pieces 0-1 and 3-4 become 0-1 and 2-3
    assert sorted((u, v) for u, v, _ in H.edges) == [(0, 1), (2, 3)]
    assert not is_connected(H)


def test_connected_components():
    G = Graph.from_edges(5, [(0, 1, 1), (3, 4, 1)])
    assert connected_components(G) == [[0, 1], [2], [3, 4]]


def test_bfs_and_eccentricity():
    P = path(5)
    assert bfs_distances(P, 0) == [0, 1, 2, 3, 4]
    assert eccentricity(P, 2) == 2
    assert eccentricity(P, 0) == 4
    with pytest.raises(GraphError):
        eccentricity(Graph.from_edges(3, [(0, 1, 1)]), 0)


def test_bridges_on_tree_and_cycle():
    P = path(4)
    assert bridges(P) == {(0, 1), (1, 2), (2, 3)}
    C = Graph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    assert bridges(C) == set()
    # tadpole: triangle plus pendant
    T = Graph.from_edges(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)])
    assert bridges(T) == {(2, 3)}


def test_bridges_are_found_once_per_graph(monkeypatch):
    passes = []
    real_lowlink = graphs._lowlink_bridges

    def counting_lowlink(G):
        passes.append(G)
        return real_lowlink(G)

    monkeypatch.setattr(graphs, "_lowlink_bridges", counting_lowlink)
    T = Graph.from_edges(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1), (3, 4, 1), (3, 5, 1)])
    cut = bridges(T)
    assert cut == {(2, 3), (3, 4), (3, 5)} and isinstance(cut, frozenset)
    for v in range(T.n):
        for other in range(T.n):
            if v != other:
                separating_neighbor(T, v, other)
    assert bridges(T) is cut
    assert passes == [T]


def test_separating_cut_edge():
    P = path(4)
    assert separating_cut_edge(P, (1, 2), 0, 3)
    assert not separating_cut_edge(P, (0, 1), 1, 3)
    C = Graph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert not separating_cut_edge(C, (0, 1), 0, 1)
    with pytest.raises(GraphError):
        separating_cut_edge(P, (0, 2), 0, 3)


def _separating_by_removal(G, e, i, j):
    """Reference: delete the edge e and compare components."""
    u, v = min(e), max(e)
    H = Graph(G.n, tuple(x for x in G.edges if x[:2] != (u, v)))
    comp = {w: k for k, c in enumerate(connected_components(H)) for w in c}
    return comp[u] != comp[v] and comp[i] != comp[j]


def _check_separating_cut_edge(G):
    for u, v, _ in G.edges:
        if u == v:
            continue
        for i in range(G.n):
            for j in range(G.n):
                if i != j:
                    assert separating_cut_edge(G, (u, v), i, j) == \
                        _separating_by_removal(G, (u, v), i, j)


def test_separating_cut_edge_matches_edge_removal_on_trees():
    for n in range(2, 9):
        for T in enumerate_trees(n):
            _check_separating_cut_edge(T)


def test_separating_cut_edge_rejects_out_of_range_vertices():
    with pytest.raises(GraphError):
        separating_cut_edge(path(3), (0, 1), 0, 3)
    with pytest.raises(GraphError):
        separating_cut_edge(path(3), (0, 1), -1, 2)


def _separating_neighbor_oracle(G, v, other):
    """The per-edge search: the first neighbor whose edge is a separating
    cut-edge, by separating_cut_edge (which copies G for each edge)."""
    for nb in G.neighbors(v):
        if nb != other and separating_cut_edge(G, (v, nb), v, other):
            return nb
    return None


def _check_separating_neighbor(G):
    for v in range(G.n):
        for other in range(G.n):
            if other != v:
                assert separating_neighbor(G, v, other) == \
                    _separating_neighbor_oracle(G, v, other)


def test_separating_neighbor_examples():
    P = path(4)
    assert separating_neighbor(P, 0, 3) == 1
    assert separating_neighbor(P, 3, 0) == 2
    assert separating_neighbor(P, 1, 0) is None  # only the direct edge separates
    # tadpole: only the pendant edge (2, 3) is a bridge
    T = Graph.from_edges(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)])
    assert separating_neighbor(T, 3, 0) == 2
    assert separating_neighbor(T, 2, 0) is None  # the bridge points away from 0
    # other in another component: any bridge at v separates
    D = Graph.from_edges(4, [(0, 1, 1), (2, 3, 1)])
    assert separating_neighbor(D, 0, 2) == 1


def test_separating_neighbor_matches_per_edge_search_on_trees():
    for n in range(2, 10):
        for T in enumerate_trees(n):
            _check_separating_neighbor(T)


def _graph_from_items(n, items):
    seen = {}
    for u, v, w in items:
        seen.setdefault((min(u, v), max(u, v)), w)
    return Graph.from_edges(n, [(u, v, w) for (u, v), w in seen.items()])


# cycles, loops, signed weights and disconnected parts all occur
random_graphs = st.integers(2, 9).flatmap(
    lambda n: st.lists(
        st.tuples(
            st.integers(0, n - 1),
            st.integers(0, n - 1),
            st.sampled_from([-3, -2, -1, Fraction(1, 2), 1, 2]),
        ),
        max_size=2 * n,
    ).map(lambda items: _graph_from_items(n, items))
)


@settings(max_examples=150, deadline=None)
@given(random_graphs)
def test_separating_neighbor_matches_per_edge_search(G):
    _check_separating_neighbor(G)


@settings(max_examples=150, deadline=None)
@given(random_graphs)
def test_separating_cut_edge_matches_edge_removal(G):
    _check_separating_cut_edge(G)


def test_delete_vertices_matches_from_edges_on_trees():
    for n in range(2, 9):
        for T in enumerate_trees(n):
            drops = [{v} for v in range(n)]
            drops += [{u, v} for u in range(n) for v in range(u + 1, n)]
            for S in drops:
                keep = [v for v in range(n) if v not in S]
                relabel = {v: k for k, v in enumerate(keep)}
                expected = Graph.from_edges(len(keep), [
                    (relabel[u], relabel[v], w)
                    for u, v, w in T.edges
                    if u in relabel and v in relabel
                ])
                H = delete_vertices(T, S)
                assert H == expected
                assert hash(H) == hash(expected)


def test_graph_hash_is_the_hash_of_its_fields():
    G = Graph.from_edges(4, [(0, 1, Fraction(1, 2)), (1, 2, -3), (2, 2, 5), (2, 3, 1)])
    cold = pickle.loads(pickle.dumps(G))  # pickled before the hash is cached
    graphs = [G, delete_vertices(G, {1}), delete_vertices(G, set())]
    for H in graphs:
        hash(H)  # cache the hash before pickling
    warm = [pickle.loads(pickle.dumps(H)) for H in graphs]
    assert all("_hash" in vars(H) for H in warm)  # the cached hash travels
    graphs += warm + [cold]
    graphs += [T for n in range(1, 7) for T in enumerate_trees(n)]
    for H in graphs:
        assert hash(H) == hash((H.n, H.edges))
    assert cold == G and hash(cold) == hash(G)
    # equal graphs built along different routes hash alike
    H = delete_vertices(G, {0})
    same = Graph.from_edges(3, [(2, 1, 1), (0, 1, -3), (1, 1, 5)])
    assert H == same and hash(H) == hash(same)
    assert {H: 1}[same] == 1


# -- generators -------------------------------------------------------------


def test_generators_shapes():
    assert path(1).n == 1
    assert len(star(5).edges) == 4
    D = double_star(2, 3)
    assert D.n == 7
    assert sorted(len(D.neighbors(v)) for v in range(D.n)) == [1, 1, 1, 1, 1, 3, 4]
    Q = hypercube(3)
    assert Q.n == 8
    assert all(len(Q.neighbors(v)) == 3 for v in range(8))


def test_laplacian_form():
    P = path(3)
    L = laplacian_form(P)
    assert L.weight(0, 0) == 1
    assert L.weight(1, 1) == 2
    assert L.weight(0, 1) == -1
    assert L.weight(0, 2) == 0
    with pytest.raises(GraphError):
        laplacian_form(L)  # has loops
