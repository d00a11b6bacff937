"""Pair quantities are memoized on the polynomials they read, so pairs with
equal data share one computation.  Every shared answer must equal the one
computed from cold caches, and the memo keys must tell apart pairs whose
data differ."""
from fractions import Fraction

import pytest

from conftest import grid, seeded_mirror_graphs, trees_up_to
from pstlab import gapcert, graphs, polys, pst, spectra, walk
from pstlab.graphs import Graph, hypercube, path
from pstlab.polys import vertex_deleted_charpoly
from pstlab.pst import decide_pst, pst_pairs
from pstlab.spectra import (
    cospectral_pairs,
    is_strongly_cospectral,
    signed_path_sum,
    support_partition,
    support_poly,
)


def _clear_caches():
    for module in (graphs, polys, spectra, pst, gapcert, walk):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _pair_data(G, i, j):
    strong = is_strongly_cospectral(G, i, j)
    return (
        vertex_deleted_charpoly(G, i, j),
        strong,
        support_poly(G, i),
        signed_path_sum(G, i, j),
        support_partition(G, i, j) if strong else None,
        decide_pst(G, i, j).to_json(),
    )


def test_shared_pair_quantities_equal_the_cold_ones():
    graphs_ = [T for _, T in trees_up_to(9)]
    graphs_ += [hypercube(3), hypercube(4), grid(3, 3)] + seeded_mirror_graphs(53, 12)
    cases = [(G, i, j) for G in graphs_ for i, j in cospectral_pairs(G)]
    _clear_caches()
    # no cache is cleared between graphs either: polynomials shared across
    # graphs hit the same memo entries
    warm = [_pair_data(*case) for case in cases]
    for case, shared in zip(cases, warm):
        _clear_caches()
        assert _pair_data(*case) == shared, case
    assert len(cases) > 500
    assert sum(data[1] for data in warm) > 150


def test_pair_quotient_key_holds_the_table_scale():
    # L A is the same integer matrix for both, so the tables hold equal lists
    halves = Graph.from_edges(4, [(v, v + 1, Fraction(1, 2)) for v in range(3)])
    units = path(4)
    _clear_caches()
    a, b = polys._tables(units), polys._tables(halves)
    assert (a.total, a.deleted_raw(0), a.path_raw(0, 3)) == (
        b.total, b.deleted_raw(0), b.path_raw(0, 3)
    )
    assert (a.scale, b.scale) == (1, 2)
    assert vertex_deleted_charpoly(units, 0, 3).coeffs == (-1, 0, 1)
    assert vertex_deleted_charpoly(halves, 0, 3).coeffs == (Fraction(-1, 4), 0, 1)


def test_pair_quotient_key_holds_the_path_sum():
    P = path(5)
    _clear_caches()
    tables = polys._tables(P)
    # phi(P - 1) = phi(P - 3), so the pairs {0, 1} and {0, 3} differ only in S
    assert tables.deleted_raw(1) == tables.deleted_raw(3)
    assert tables.path_raw(0, 1) != tables.path_raw(0, 3)
    assert vertex_deleted_charpoly(P, 0, 1).coeffs == (0, -2, 0, 1)  # P3
    assert vertex_deleted_charpoly(P, 0, 3).coeffs == (0, -1, 0, 1)  # P2 and P1
    assert len(tables._pair_quotients) == 2


@pytest.mark.parametrize(
    "G, quotients, pst",
    [
        (hypercube(3), 3, [(i, 7 - i) for i in range(4)]),
        (hypercube(4), 4, [(i, 15 - i) for i in range(8)]),
        (hypercube(6), 6, [(i, 63 - i) for i in range(32)]),
        (grid(3, 3), 4, [(0, 8), (1, 7), (2, 6), (3, 5)]),
    ],
)
def test_symmetric_graphs_compute_few_pair_quotients(G, quotients, pst):
    _clear_caches()
    found = pst_pairs(G)
    assert [(i, j) for i, j, _ in found] == pst
    assert len(polys._tables(G)._pair_quotients) == quotients
