"""The root kernel of ``polys.RealRoots`` against the bisection oracle.

The kernel keeps the Sturm cells that hold two roots or more pending and
splits one only when a root inside it is read, with one chain evaluation
per split and none past the root bound, on the chain of R for an even or
odd t^e R(t^2); it refines by quadratic interval refinement on the
bisection grid.  The oracle (``oracles.BisectionRoots``) isolates every
root at once on the chain of the whole polynomial, evaluates it at both
ends of a split and refines by plain halving.  Both must give the same
isolating intervals, boxes, refinements (by ``narrow`` and by single
halvings), integer roots, repeated parts, signs, multiplicities and gap
verdicts, whatever order the roots are read in.  The gap verdict of
``roots_within``, read off signs at the roots, must equal that of the
refinement oracle (``oracles.refinement_within``).
"""
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_mirror_graphs, trees_up_to
import oracles
from oracles import BisectionRoots, bisection_boxes, halve, refinement_within
from pstlab import polys
from pstlab.graphs import Graph
from pstlab.polys import (
    BOX_WIDTH,
    Poly,
    RealRoots,
    charpoly,
    isolate_real_roots,
    roots_within,
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


def _width(interval):
    lo, hi, d = interval
    return Fraction(hi - lo, d)


def assert_matches_oracle(p: Poly) -> None:
    assert isolate_real_roots(p) == bisection_boxes(p)
    new, old = RealRoots(p), BisectionRoots(p)
    assert _intervals(new) == _intervals(old)  # the isolating intervals
    assert new.repeated == old.repeated
    boxes = old.boxes()
    assert new.boxes() == boxes
    for k in range(len(new)):
        assert _fractions(new.narrow(k, FINE)) == _fractions(old.narrow(k, FINE))
    assert new.boxes() == old.boxes()
    assert RealRoots(p).integers() == BisectionRoots(p).integers()
    # the gap verdicts on fresh roots, where pending cells may answer first;
    # deciding leaves the boxes those of the grid
    for D in (1, 2):
        new = RealRoots(p)
        assert roots_within(new, D) == refinement_within(BisectionRoots(p), D)
        assert new.boxes() == boxes
    # single halvings first, as decisions take them, then a deep refinement
    new, old = RealRoots(p), BisectionRoots(p)
    for k in range(len(new)):
        for _ in range(3):
            halve(new, k)
            halve(old, k)
        assert _fractions(new.interval(k)) == _fractions(old.interval(k))
        assert _fractions(new.narrow(k, FINE)) == _fractions(old.narrow(k, FINE))
    assert new.boxes() == old.boxes()


def test_isolation_evaluates_the_chain_once_per_split(monkeypatch):
    # the oracle evaluates the chain at both ends of every split, 2 + 2
    # splits in all; the kernel at most once per split (a nudge included)
    # and never past the root bound, so at most 2 + splits to isolate
    # every root.  Past that count the kernel fails at once rather than
    # split forever.
    ps = [charpoly(T) for _, T in trees_up_to(9, 9)]
    ps += [charpoly(G) for G in seeded_mirror_graphs(3, 4)]
    ps += [Poly([0, -7, 6, 1]), Poly([0, 0, -2, 0, 1]) * Poly([-1, 3])]
    calls = {oracles: 0, polys: 0}
    limit = 0
    total = {oracles: 0, polys: 0}

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
        roots = RealRoots(p)
        assert calls[polys] == 0  # nothing is isolated before it is read
        for k in range(len(roots)):
            roots.interval(k)
        assert calls[polys] <= limit
        total[oracles] += limit
        total[polys] += calls[polys]
    # the bound saves evaluations: 518 against 2 + splits = 687 in all
    assert total[polys] < total[oracles]


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


# -- the sqrt(D) gap verdict against the refinement oracle ---------------------

_quarters = st.builds(Fraction, st.integers(-24, 24), st.just(4))


@st.composite
def gap_polys(draw):
    """(p, D): rational roots, some repeated; pairs a +- sqrt(D + eps)/2,
    exactly sqrt(D) apart at eps = 0 and just off it otherwise; triples a,
    a +- sqrt(D); quadratics t^2 + bt + c, often with complex roots; all
    under a leading coefficient of either sign."""
    D = draw(st.sampled_from([1, 2, 3, 5, 8, 12]))
    p = Poly([draw(st.sampled_from([1, -1, 2, -3]))])
    for r, m in draw(st.lists(st.tuples(_quarters, st.integers(1, 3)), max_size=3)):
        for _ in range(m):
            p = p * Poly.linear(r)
    for a, eps in draw(st.lists(st.tuples(_quarters, st.sampled_from([0, 0, 2**-30, -2**-30])), max_size=2)):
        s = (D + Fraction(eps)) / 4
        p = p * Poly([a * a - s, -2 * a, 1])
    for a in draw(st.lists(_quarters, max_size=1)):
        p = p * Poly.linear(a) * Poly([a * a - D, -2 * a, 1])
    for b, c in draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 6)), max_size=2)):
        p = p * Poly([c, b, 1])
    return p, D


@settings(max_examples=200, deadline=None)
@given(gap_polys())
def test_gap_verdicts_match_the_refinement_oracle(p_D):
    p, D = p_D
    roots = RealRoots(p)
    assert roots_within(roots, D) == refinement_within(BisectionRoots(p), D)
    assert roots.boxes() == BisectionRoots(p).boxes()


def test_open_gaps_are_decided_by_signs_without_refinement(monkeypatch):
    # gaps exactly sqrt(D), or 2^-50 off it, stay open on isolated boxes:
    # the signs at the roots decide them, and no box is narrowed
    calls = []
    signs = RealRoots.signs
    monkeypatch.setattr(RealRoots, "signs", lambda self, q: calls.append(q) or signs(self, q))
    tie, near = Poly([0, -2, 0, 1]), Poly([0, -2 - Fraction(1, 2**50), 0, 1])
    cube = Poly([1, -1]) * Poly([1, -1]) * Poly([1, -1]) * Poly([1, 1])  # -(t - 1)^3 (t + 1)
    for p, D, verdict in [(tie, 2, True), (near, 2, False), (cube, 2, False), (cube, 4, True)]:
        roots = RealRoots(p)
        isolated = _intervals(RealRoots(p))
        calls.clear()
        assert roots_within(roots, D) is verdict
        assert calls and _intervals(roots) == isolated
        assert refinement_within(BisectionRoots(p), D) is verdict


def test_narrow_past_box_width_reaches_the_oracle_box():
    # boxes() gives the boxes at the first width below BOX_WIDTH, and a
    # refinement past BOX_WIDTH reaches the box that bisection reaches
    p = Poly([-2, 0, 1]) * Poly([-3, 0, 0, 1]) * Poly([-1, 7])
    boxes = RealRoots(p).boxes()
    assert boxes == BisectionRoots(p).boxes()
    for box in boxes:
        assert BOX_WIDTH / 2 <= box.hi - box.lo < BOX_WIDTH
    roots, oracle = RealRoots(p), BisectionRoots(p)
    for k in range(len(roots)):
        assert _width(roots.interval(k)) >= BOX_WIDTH
        lo, hi, d = roots.narrow(k, FINE)
        assert _width((lo, hi, d)) < FINE
        olo, ohi, od = oracle.narrow(k, FINE)
        assert (Fraction(lo, d), Fraction(hi, d)) == (Fraction(olo, od), Fraction(ohi, od))


def test_refinement_takes_fewer_evaluations_than_bisection(monkeypatch):
    # counted apart: isolating every root takes 3.9 exact evaluations per
    # root on the tree polynomials (13.2 when every polynomial was isolated
    # on the Sturm chain of its full degree from the Cauchy bound), and
    # refining it to BOX_WIDTH 13.4, against 39.9 by bisection; without the
    # retry of the neighbour cell refinement takes 15.0
    ps = _tree_polys(8)
    rs = [RealRoots(p) for p in ps]
    roots = sum(len(r) for r in rs)
    count = 0
    value_at = polys._int_value_at

    def counting(*args):
        nonlocal count
        count += 1
        return value_at(*args)

    monkeypatch.setattr(polys, "_int_value_at", counting)
    for r in rs:
        for k in range(len(r)):
            r.interval(k)
    assert count <= 4 * roots
    count = 0
    for r in rs:
        r.boxes()
    assert count <= 14 * roots


# -- even and odd polynomials: the half-degree counts against the oracle ------

# u for a factor t^2 - u: a square of an integer (roots on the grid, where
# bisection is nudged), of a dyadic rational, any other rational (irrational
# or complex roots), never 0
_squares = st.one_of(
    st.integers(1, 9).map(lambda r: Fraction(r * r)),
    st.builds(lambda k, e: Fraction(k * k, 4**e), st.integers(1, 24), st.integers(1, 3)),
    st.fractions(min_value=-6, max_value=12, max_denominator=3).filter(bool),
)


@st.composite
def even_odd_polys(draw):
    """(p, us): p = lead t^e prod (t^2 - u)^m with e <= 3 and m <= 2, so R
    may repeat roots and t may divide p more than once, and the list of the
    u of its factors."""
    e = draw(st.integers(0, 3))
    factors = draw(st.lists(st.tuples(_squares, st.integers(1, 2)), min_size=1, max_size=4))
    lead = draw(st.sampled_from([1, -1, 2, -3, 5]))
    p = Poly([0] * e + [lead])
    for u, m in factors:
        for _ in range(m):
            p = p * Poly([-u, 0, 1])
    return p, [u for u, _ in factors]


def _exact_sign(q: Poly, x: Fraction) -> int:
    v = q(x)
    return (v > 0) - (v < 0)


@settings(max_examples=150, deadline=None)
@given(even_odd_polys(), st.lists(st.integers(-4, 4), min_size=1, max_size=4), st.randoms())
def test_even_and_odd_polynomials_match_the_oracle(p_us, q_coeffs, rng):
    p, us = p_us
    assert RealRoots(p)._e is not None  # counted at half the degree
    assert_matches_oracle(p)
    new, old = RealRoots(p), BisectionRoots(p)
    # read the roots in any order: the boxes are those of the grid
    order = list(range(len(new)))
    rng.shuffle(order)
    for k in order:
        assert _fractions(new.interval(k)) == _fractions(old.interval(k))
    q = Poly(q_coeffs)
    if not q.is_zero():
        assert RealRoots(p).signs(q) == old.signs(q)
        rational = [x for u in us if u > 0 for x in _rational_roots(u)]
        if rational:
            roots = RealRoots(p)
            signs = dict(zip(roots.boxes(), roots.signs(q)))
            for box in roots.boxes():
                x = next((x for x in rational if box.lo <= x <= box.hi), None)
                if x is not None:
                    assert signs[box] == _exact_sign(q, x)
    assert RealRoots(p).multiplicities() == old.multiplicities()
    # the Fujiwara bound lies above every complex root: above |u| for the
    # roots +-sqrt(u) and +-i sqrt(-u)
    bound = Fraction(*polys._fujiwara(RealRoots(p).fi))
    assert all(abs(u) < bound * bound for u in us) and bound > 0


def _rational_roots(u: Fraction) -> list:
    n, d = isqrt(u.numerator), isqrt(u.denominator)
    return [Fraction(n, d), -Fraction(n, d)] if n * n == u.numerator and d * d == u.denominator else []


def test_even_and_odd_polynomials_are_counted_on_the_half_degree_chain(monkeypatch):
    # p = t (t^2 - 2)(t^2 - 9): R = (u - 2)(u - 9) has a chain of three
    # members; t^2 + 1 times a root at 1 is neither even nor odd
    p = Poly([0, 1]) * Poly([-2, 0, 1]) * Poly([-9, 0, 1])
    lengths = []
    variations = polys._variations
    monkeypatch.setattr(polys, "_variations",
                        lambda chain, xn, xd: lengths.append(len(chain)) or variations(chain, xn, xd))
    roots = RealRoots(p)
    assert (roots._e, len(roots)) == (1, 5)
    assert roots.boxes() == BisectionRoots(p).boxes()
    assert lengths and set(lengths) == {3}
    assert RealRoots(Poly([1, 0, 1]) * Poly([-1, 1]))._e is None


@pytest.mark.parametrize(
    "p",
    [
        Poly([-1, 1]), Poly([-1, 0, 1]), Poly([0, -1, 0, 1]) * 7, Poly([-2, 0, 0, 0, 1]),
        Poly([3, 0, 1]), Poly([-5, 1, 4, -1, 2]), Poly([0, 0, 0, 1]),
    ],
)
def test_fujiwara_bound_is_strict(p):
    # a root equal to the unrounded bound (t - 1: 2 |c_0 / 2|) still lies
    # below the bound, and so does every root of the oracle's boxes
    fi = p.vector
    bound = Fraction(*polys._fujiwara(fi))
    assert all(max(-b.lo, b.hi) < bound for b in bisection_boxes(p))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**40), st.integers(1, 12))
def test_root_ceil_is_the_least_integer_root(m, k):
    r = polys._root_ceil(m, k)
    assert r ** k >= m and (r == 0 or (r - 1) ** k < m)


def test_decisions_isolate_only_the_roots_they_read():
    # the pair record's sign pin and the partition's top-root check read
    # only the top support root; the class signs are read when asked for
    from pstlab import spectra
    from pstlab.spectra import cospectral_pairs, is_strongly_cospectral, support_partition

    for module in (polys, spectra):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    isolated = total = 0
    for _, T in trees_up_to(9, 9):
        for i, j in cospectral_pairs(T):
            if is_strongly_cospectral(T, i, j):
                part = support_partition(T, i, j)
                roots = polys.real_roots(part.support)
                pending = sum(roots._pending.values())
                isolated += len(roots) - pending
                total += len(roots)
                assert part.signs[-1] == +1 and not roots._pending
    assert 0 < isolated < total / 2
