"""The packed tables' class keys, strong pre-check, strong verdict and
gcd(phi, phi') against the polynomials they stand for.  For each graph it
asserts that the table's gcd(phi, phi'), taken at half the degree when phi
is even or odd, equals the full-degree gcd, that two vertices share a class
key exactly when their phi(G - v) are equal as polynomials, and for each
cospectral pair that the pre-check g(X) | phi(G - {i, j})(X) keeps the pair
whenever polynomial division by g = gcd(phi, phi') accepts it, and that the
table's strong verdict is that division.  The graphs are every tree up to
an order (forest tables), the Laplacian form of each of those trees, whose
loops give it an adjugate table, and Q2-Q6 and P3 x P3 (adjugate tables,
whose bipartite phi takes the half-degree gcd).  On every ordered pair of
every tree it also asserts that the forest table's cut pair (``cut_pair``)
is the pair of separating neighbors that the graph search finds
(``graphs.separating_neighbor``).  Prints the pair counts of the last order
and of each named graph, and the time.  CI runs it to n = 12 (a few
seconds):

    PYTHONPATH=src python tests/table_sweep.py 12
"""
import sys
import time

from pstlab.graphs import Graph, hypercube, laplacian_form, separating_neighbor
from pstlab.polys import Poly, _AdjugateTable, _ForestTables, _tables, divides, poly_gcd
from pstlab.trees import enumerate_trees

P3_BY_P3 = Graph.from_edges(9, [(v, v + 1, 1) for v in range(9) if v % 3 != 2]
                            + [(v, v + 3, 1) for v in range(6)])


def check_graph(G, kind) -> tuple[int, int, int]:
    """(cospectral pairs, pairs the pre-check keeps, strong pairs) of G,
    whose table must be of the class ``kind``."""
    table = _tables(G)
    assert isinstance(table, kind), G
    keys = [table.class_key(v) for v in range(G.n)]
    deleted = table.deleted_all()
    total = Poly(table.total)
    # gcd(phi, phi') at half the degree on an even or odd phi, at full degree on the rest
    assert table._gcd[0] == poly_gcd(total, total.derivative()), G
    g = table.repeated_part
    verdicts: dict = {}  # polynomial division, once per distinct quotient
    cosp = kept = strong = 0
    for i in range(G.n):
        for j in range(i + 1, G.n):
            assert (keys[i] == keys[j]) == (deleted[i] == deleted[j]), (G, i, j)
            if keys[i] != keys[j]:
                continue
            pair = table.deleted(i, j)
            divisible = verdicts.get(pair)
            if divisible is None:
                divisible = verdicts[pair] = divides(g, pair)
            assert table.may_divide(i, j) or not divisible, (G, i, j)
            assert table.strong(i, j) == divisible, (G, i, j)
            cosp += 1
            kept += table.may_divide(i, j)
            strong += divisible
    return cosp, kept, strong


def check_cut_pairs(T) -> int:
    """The ordered pairs of the tree T, each with its cut pair checked."""
    table = _tables(T)
    pairs = 0
    for i in range(T.n):
        for j in range(T.n):
            if i != j:
                ni = separating_neighbor(T, i, j)
                nj = None if ni is None else separating_neighbor(T, j, i)
                assert table.cut_pair(i, j) == (None if nj is None else (ni, nj)), (T, i, j)
                pairs += 1
    return pairs


def main(max_n: int) -> int:
    start = time.monotonic()
    trees = ordered = 0
    for n in range(2, max_n + 1):
        counts = {"trees": [0, 0, 0], "Laplacian": [0, 0, 0]}
        for T in enumerate_trees(n):
            trees += 1
            ordered += check_cut_pairs(T)
            for name, G, kind in (("trees", T, _ForestTables),
                                  ("Laplacian", laplacian_form(T), _AdjugateTable)):
                counts[name] = [a + b for a, b in zip(counts[name], check_graph(G, kind))]
    lines = [f"{name} n = {max_n}: {c} cospectral pairs, {k} kept by the pre-check, {s} strong"
             for name, (c, k, s) in counts.items()]
    for name, G in [(f"Q{d}", hypercube(d)) for d in range(2, 7)] + [("P3 x P3", P3_BY_P3)]:
        c, k, s = check_graph(G, _AdjugateTable)
        lines.append(f"{name}: {c} cospectral pairs, {k} kept by the pre-check, {s} strong")
    print(f"{trees} trees n <= {max_n}, their Laplacian forms, Q2-Q6 and P3 x P3: gcd, class "
          f"keys, pre-check and strong verdict agree with the polynomials; the cut pair "
          f"agrees with the separating neighbors on {ordered} ordered tree pairs; "
          f"{time.monotonic() - start:.1f} s")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))
