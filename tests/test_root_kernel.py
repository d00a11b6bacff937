"""The root kernel of ``polys.RealRoots`` against the bisection oracle.

The kernel isolates with one Sturm-chain evaluation per split and refines
by quadratic interval refinement on the bisection grid; the oracle
(``oracles.BisectionRoots``) evaluates the chain at both ends of a split
and refines by plain halving.  Both must give the same isolating
intervals, boxes, refinements (by ``narrow`` and by ``bisect``), integer
roots and repeated parts.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_mirror_graphs, trees_up_to
import oracles
from oracles import BisectionRoots, bisection_boxes
from pstlab import polys
from pstlab.graphs import Graph
from pstlab.polys import (
    BOX_WIDTH,
    Poly,
    RealRoots,
    charpoly,
    isolate_real_roots,
    vertex_deleted_charpoly,
)
from pstlab.spectra import support_poly

FINE = Fraction(1, 2**60)


def _intervals(roots):
    """Every box of roots as a pair of Fractions."""
    return [_fractions(roots.interval(k)) for k in range(len(roots))]


def _fractions(interval):
    lo, hi, d = interval
    return Fraction(lo, d), Fraction(hi, d)


def assert_matches_oracle(p: Poly) -> None:
    assert isolate_real_roots(p) == bisection_boxes(p)
    new, old = RealRoots(p), BisectionRoots(p)
    assert _intervals(new) == _intervals(old)  # the isolating intervals
    assert new.repeated == old.repeated
    assert new.boxes() == old.boxes()
    for k in range(len(new)):
        assert _fractions(new.narrow(k, FINE)) == _fractions(old.narrow(k, FINE))
    assert new.boxes() == old.boxes()
    assert RealRoots(p).integers() == BisectionRoots(p).integers()
    # single halvings first, as decisions take them, then a deep refinement
    new, old = RealRoots(p), BisectionRoots(p)
    for k in range(len(new)):
        for _ in range(3):
            new.bisect(k)
            old.bisect(k)
        assert _fractions(new.interval(k)) == _fractions(old.interval(k))
        assert _fractions(new.narrow(k, FINE)) == _fractions(old.narrow(k, FINE))
    assert new.boxes() == old.boxes()


def test_isolation_evaluates_the_chain_once_per_split(monkeypatch):
    # the oracle evaluates the chain at both ends of every split, the kernel
    # at its midpoint only: 2 + splits evaluations, the two at the bound.
    # Past that count the kernel fails at once rather than split forever.
    ps = [charpoly(T) for _, T in trees_up_to(9, 9)]
    ps += [charpoly(G) for G in seeded_mirror_graphs(3, 4)]
    ps += [Poly([0, -7, 6, 1]), Poly([0, 0, -2, 0, 1]) * Poly([-1, 3])]
    calls = {oracles: 0, polys: 0}
    limit = 0

    def count(module):
        variations = module._variations

        def counting(*args):
            calls[module] += 1
            assert module is oracles or calls[module] <= limit, "too many chain evaluations"
            return variations(*args)

        monkeypatch.setattr(module, "_variations", counting)

    count(oracles)
    count(polys)
    for p in ps:
        calls.update({oracles: 0, polys: 0})
        BisectionRoots(p)
        limit = 2 + (calls[oracles] - 2) // 2
        RealRoots(p)
        assert calls[polys] == limit


def _tree_polys(max_n):
    """Every charpoly, support and two-vertex deletion of every tree up to
    max_n vertices, each once."""
    out = {}
    for _, T in trees_up_to(max_n):
        out[charpoly(T)] = None
        for i in range(T.n):
            out[support_poly(T, i)] = None
            for j in range(i + 1, T.n):
                out[vertex_deleted_charpoly(T, i, j)] = None
    return list(out)


def test_tree_polynomials_match_the_oracle():
    ps = _tree_polys(9)
    assert len(ps) > 250
    for p in ps:
        assert_matches_oracle(p)


@pytest.mark.parametrize("seed", [3, 11])
def test_mirror_graph_polynomials_match_the_oracle(seed):
    for G in seeded_mirror_graphs(seed, 8):
        assert_matches_oracle(charpoly(G))
        for i in range(G.n):
            assert_matches_oracle(support_poly(G, i))
        assert_matches_oracle(vertex_deleted_charpoly(G, 0, G.n - 1))


def test_p3_with_huge_weights_matches_the_oracle():
    w = 2**37
    G = Graph.from_edges(3, [(0, 1, w), (1, 2, w)])
    assert_matches_oracle(charpoly(G))
    assert_matches_oracle(support_poly(G, 0))
    assert RealRoots(support_poly(G, 0)).integers() == [0]


# t (t + 7) has the root bound 8: isolation splits [-8, 8] at its root 0
# and is nudged off it, and refinement halves the box of -7 onto it
@pytest.mark.parametrize(
    "p",
    [
        Poly([0, 7, 1]),
        Poly([0, -7, 6, 1]),  # t (t + 7) (t - 1)
        Poly([15, Fraction(17, 2), 1]),  # (t + 6) (t + 5/2)
        Poly([0, 7, 1]) * Poly([0, 7, 1]) * Poly([0, 1]),
    ],
)
def test_exact_grid_roots_match_the_oracle(p):
    assert_matches_oracle(p)
    assert any(b.lo == b.hi for b in RealRoots(p).boxes())


dyadic = st.builds(lambda k, e: Fraction(k, 2**e), st.integers(-24, 24), st.integers(0, 4))


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.tuples(dyadic, st.integers(1, 3)), min_size=1, max_size=5),
    st.integers(0, 3),
    st.lists(st.integers(-4, 4), max_size=3),
    st.integers(1, 3),
)
def test_dyadic_roots_match_the_oracle(roots, zeros, extra, lead):
    # dyadic rational roots, some repeated, times t^zeros and a factor that
    # may have irrational or no real roots
    p = Poly([lead])
    for r, m in roots:
        for _ in range(m):
            p = p * Poly.linear(r)
    for _ in range(zeros):
        p = p * Poly.x()
    assert_matches_oracle(p * Poly(extra + [1]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=2, max_size=5), st.integers(1, 2))
def test_squares_match_the_oracle(coeffs, power):
    q = Poly(coeffs)
    if q.degree < 1:
        return
    p = q
    for _ in range(power):
        p = p * q
    assert_matches_oracle(p)
    assert_matches_oracle(p * Poly([-1, 0, 1]))


def test_narrow_past_box_width_keeps_the_box_width_box():
    # boxes() after a refinement below BOX_WIDTH reports the box at the
    # first width below BOX_WIDTH, not the finer one
    p = Poly([-2, 0, 1]) * Poly([-3, 0, 0, 1]) * Poly([-1, 7])
    roots = RealRoots(p)
    for k in range(len(roots)):
        assert roots.below(k, BOX_WIDTH) is False
        roots.narrow(k, FINE)
        assert roots.below(k, FINE)
    boxes = roots.boxes()
    assert boxes == BisectionRoots(p).boxes()
    for box in boxes:
        assert BOX_WIDTH / 2 <= box.hi - box.lo < BOX_WIDTH


def test_refinement_takes_fewer_evaluations_than_bisection(monkeypatch):
    # 13.4 exact evaluations per root to reach BOX_WIDTH on the tree
    # polynomials, against 39.9 by bisection; without the retry of
    # the neighbour cell it takes 15.0
    ps = _tree_polys(8)
    rs = [RealRoots(p) for p in ps]
    count = 0
    value_at = polys._int_value_at

    def counting(*args):
        nonlocal count
        count += 1
        return value_at(*args)

    monkeypatch.setattr(polys, "_int_value_at", counting)
    for r in rs:
        r.boxes()
    assert count <= 14 * sum(len(r) for r in rs)
