import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle, grid, random_weighted_graph, seeded_mirror_graphs, trees_up_to
from oracles import (
    FractionPoly,
    NotASquareError,
    berkowitz_charpoly,
    bisection_boxes,
    box_has_root,
    compare_roots,
    halve,
    merge_roots,
    path_sum_bruteforce,
    poly_sqrt,
    squarefree_decomposition,
)
from pstlab.gapcert import GapError
from pstlab.graphs import (
    Graph,
    GraphError,
    delete_vertices,
    hypercube,
    laplacian_form,
    path,
    separating_neighbor,
    star,
)
from pstlab import gapcert, polys, spectra
from pstlab.spectra import is_strongly_cospectral
from pstlab.polys import (
    Poly,
    PolyError,
    RatFunc,
    RealRoots,
    RootBox,
    charpoly,
    isolate_real_roots,
    path_sum_poly,
    poly_gcd,
    real_roots,
    roots_within,
    simple_pole_residues,
    square_free_part,
    squarefree_part_int,
    vertex_deleted_charpoly,
    vertex_deleted_charpolys,
)

X = Poly.x()


def lin(*roots):
    p = Poly.one()
    for r in roots:
        p = p * Poly.linear(r)
    return p


# -- arithmetic -------------------------------------------------------------


def test_poly_basic_arithmetic():
    p = Poly([1, 2, 3])  # 3t^2 + 2t + 1
    q = Poly([0, 1])
    assert (p + q).coeffs == (1, 3, 3)
    assert (p - p).is_zero()
    assert (p * Poly.one()) == p
    assert p(Fraction(2)) == 17
    assert p.derivative().coeffs == (2, 6)


def test_poly_trims_leading_zeros():
    assert Poly([1, 0, 0]).degree == 0
    assert Poly([0, 0]).is_zero()


def test_divmod_exact_and_remainder():
    p = lin(1, 2, 3)
    q, r = divmod(p, lin(2))
    assert r.is_zero()
    assert q == lin(1, 3)
    _, r2 = divmod(p, Poly.linear(5))
    assert r2 == Poly.constant(p(Fraction(5)))
    with pytest.raises(PolyError):
        lin(1, 2).exact_div(lin(3))


def test_poly_immutable():
    p = Poly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (5,)


def test_content_split_matches_the_fraction_coefficients():
    seen = []
    for G in seeded_mirror_graphs(41, 12):
        seen += [charpoly(G), *vertex_deleted_charpolys(G)]
        seen += [path_sum_poly(G, 0, j) for j in range(1, G.n)]
    assert sum(type(p.content) is Fraction for p in seen) > 50
    for p in seen:
        assert p.content > 0 and math.gcd(*p.vector) == 1
        assert [c * p.content for c in p.vector] == list(p.coeffs)


# a coefficient: small, above 2^64, or rational
_coeff = st.one_of(
    st.integers(-6, 6),
    st.integers(-2**80, 2**80),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


def _matches(p: Poly, ref: FractionPoly) -> None:
    """p equals the reference and keeps its representation's invariants."""
    assert list(p.coeffs) == ref.cs
    assert all(type(c) is int or c.denominator > 1 for c in p.coeffs)
    assert p.content > 0 and (type(p.content) is int or p.content.denominator > 1)
    if p.is_zero():
        assert p.vector == () and p.content == 1
    else:
        assert math.gcd(*p.vector) == 1 and all(type(c) is int for c in p.vector)
        assert [c * p.content for c in p.vector] == ref.cs
    if p.content == 1:
        assert p.coeffs is p.vector
    for twin in (Poly(p.coeffs), Poly(ref.cs), Poly._of(p.vector, p.content),
                 pickle.loads(pickle.dumps(p))):
        assert twin == p and hash(twin) == hash(p)


@settings(max_examples=300, deadline=None)
@given(st.lists(_coeff, max_size=6), st.lists(_coeff, max_size=6), _coeff,
       st.fractions(min_value=-5, max_value=5, max_denominator=7))
def test_poly_arithmetic_matches_the_fraction_list_reference(a, b, c, x):
    p, q = Poly(a), Poly(b)
    rp, rq = FractionPoly(a), FractionPoly(b)
    for got, want in [(p, rp), (q, rq), (p + q, rp + rq), (p - q, rp - rq), (-p, -rp),
                      (p * q, rp * rq), (p.scale(c), rp.scale(c)), (c * p, rp.scale(c)),
                      (p.monic(), rp.monic()), (p.derivative(), rp.derivative())]:
        _matches(got, want)
    if not q.is_zero():
        _matches((p * q).exact_div(q), rp)
        try:
            want = rp.exact_div(rq)
        except PolyError:
            with pytest.raises(PolyError):
                p.exact_div(q)
        else:
            _matches(p.exact_div(q), want)
    assert p(x) == rp(x) and p(3) == rp(3)
    assert (p == q) == (rp == rq)


def test_json_round_trip():
    p = Poly([Fraction(1, 3), Fraction(-2), Fraction(7, 5)])
    assert Poly(Fraction(s) for s in p.to_json()) == p


@given(
    st.lists(st.integers(-9, 9), min_size=0, max_size=6),
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
)
def test_divmod_identity(a, b):
    p, q = Poly(a), Poly(b)
    if q.is_zero():
        return
    quot, rem = divmod(p, q)
    assert quot * q + rem == p
    assert rem.is_zero() or rem.degree < q.degree


def _divmod_exact_div(p, q):
    """Test-local oracle: exact division as long division over Q."""
    quot, rem = divmod(p, q)
    if not rem.is_zero():
        raise PolyError("division is not exact")
    return quot


_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_rationals, min_size=1, max_size=5),
    st.lists(_rationals, min_size=0, max_size=5),
    st.lists(_rationals, min_size=0, max_size=3),
)
def test_exact_div_matches_long_division_over_q(q, cofactor, noise):
    q, cofactor = Poly(q), Poly(cofactor)
    if q.is_zero():
        return
    exact = cofactor * q
    assert exact.exact_div(q) == _divmod_exact_div(exact, q) == cofactor
    p = exact + Poly(noise)  # exact only when q divides the noise
    try:
        want = _divmod_exact_div(p, q)
    except PolyError:
        with pytest.raises(PolyError):
            p.exact_div(q)
    else:
        assert p.exact_div(q) == want
    with pytest.raises(ZeroDivisionError):
        p.exact_div(Poly.zero())


# -- gcd and square-free ----------------------------------------------------


def test_poly_gcd():
    a, b = lin(1, 2, 3), lin(2, 3, 4)
    assert poly_gcd(a, b) == lin(2, 3)
    assert poly_gcd(a, Poly.zero()) == a.monic()
    with pytest.raises(PolyError):
        poly_gcd(Poly.zero(), Poly.zero())


def test_square_free_part_and_decomposition():
    p = lin(1) * lin(2) * lin(2) * lin(3) * lin(3) * lin(3)
    assert square_free_part(p) == lin(1, 2, 3)
    dec = squarefree_decomposition(p)
    assert dec == [(lin(1), 1), (lin(2), 2), (lin(3), 3)]
    assert squarefree_decomposition(lin(5, 7)) == [(lin(5, 7), 1)]


def test_poly_sqrt():
    p = lin(1, 4) * lin(1, 4)
    assert poly_sqrt(p) == lin(1, 4)
    assert poly_sqrt(Poly.constant(Fraction(9, 4))) == Poly.constant(Fraction(3, 2))
    with pytest.raises(NotASquareError):
        poly_sqrt(lin(1, 2))
    with pytest.raises(NotASquareError):
        poly_sqrt(Poly([1, 1, 1]))


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=4))
def test_poly_sqrt_round_trip(coeffs):
    p = Poly(coeffs)
    if p.is_zero():
        return
    got = poly_sqrt(p * p)
    assert got == p or got == -p
    assert got.leading > 0


# -- characteristic polynomial ----------------------------------------------


def test_charpoly_small_exact():
    assert charpoly(path(2)) == Poly([-1, 0, 1])  # t^2 - 1
    assert charpoly(path(3)) == Poly([0, -2, 0, 1])  # t^3 - 2t
    assert charpoly(Graph(1, ())) == Poly([0, 1])
    assert charpoly(Graph(0, ())) == Poly.one()


def test_charpoly_star_and_loop():
    # K_{1,3}: t^4 - 3t^2
    assert charpoly(star(4)) == Poly([0, 0, -3, 0, 1])
    loop = Graph.from_edges(1, [(0, 0, 5)])
    assert charpoly(loop) == Poly.linear(5)


def test_charpoly_rational_weights_vs_leibniz():
    rng = random.Random(7)
    for _ in range(20):
        G = random_weighted_graph(rng, rng.randint(2, 5))
        rows = G.adjacency_rows()
        n = G.n
        # Leibniz expansion of det(tI - A), an independent route
        import itertools

        def perm_sign(perm):
            sign = 1
            seen = [False] * len(perm)
            for s in range(len(perm)):
                if seen[s]:
                    continue
                length = 0
                k = s
                while not seen[k]:
                    seen[k] = True
                    k = perm[k]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
            return sign

        total = Poly.zero()
        for perm in itertools.permutations(range(n)):
            term = Poly.constant(perm_sign(perm))
            for r in range(n):
                entry = Poly.constant(-rows[r][perm[r]])
                if perm[r] == r:
                    entry = X + entry
                term = term * entry
            total = total + term
        assert charpoly(G) == total


def test_charpoly_disjoint_union_multiplies():
    a, b = path(3), star(4)
    union = Graph.from_edges(
        7, list(a.edges) + [(u + 3, v + 3, w) for u, v, w in b.edges]
    )
    assert charpoly(union) == charpoly(a) * charpoly(b)


# -- deleted-subgraph charpolys ----------------------------------------------


def test_vertex_deleted_charpoly_matches_charpoly_on_vertex_sets():
    rng = random.Random(31)
    graphs = [T for _, T in trees_up_to(8)]
    graphs += [random_weighted_graph(rng, rng.randint(2, 8)) for _ in range(40)]
    for G in graphs:
        for i in range(G.n):
            assert vertex_deleted_charpoly(G, i) == charpoly(delete_vertices(G, {i}))
            for j in range(i + 1, G.n):
                memo = vertex_deleted_charpoly(G, i, j)
                assert memo == charpoly(delete_vertices(G, {i, j}))
                # the table keeps one entry per vertex set, whatever the order
                assert vertex_deleted_charpoly(G, j, i) is memo
                assert vertex_deleted_charpoly(G, j, i, j) is memo
    memo = vertex_deleted_charpoly(path(4), 1)
    assert vertex_deleted_charpoly(path(4), 1, 1) is memo
    assert vertex_deleted_charpoly(path(4)) == charpoly(path(4))
    assert spectra.vertex_deleted_charpoly is vertex_deleted_charpoly


# -- path-sum polynomial ----------------------------------------------------


def test_path_sum_on_paths():
    # single i-j path through the whole graph: S = product of weights = 1
    P = path(4)
    assert path_sum_poly(P, 0, 3) == Poly.one()
    assert path_sum_bruteforce(P, 0, 3) == Poly.one()
    assert path_sum_poly(P, 0, 1) == charpoly(path(2))  # interior remainder


def test_path_sum_disconnected_is_zero():
    G = Graph.from_edges(4, [(0, 1, 1), (2, 3, 1)])
    assert path_sum_poly(G, 0, 2).is_zero()


def test_path_sum_matches_bruteforce_random():
    rng = random.Random(123)
    for _ in range(40):
        G = random_weighted_graph(rng, rng.randint(2, 6))
        i, j = rng.sample(range(G.n), 2)
        s = path_sum_poly(G, i, j)
        b = path_sum_bruteforce(G, i, j)
        assert s == b or s == -b


def test_path_sum_sign_convention_positive_lead():
    rng = random.Random(5)
    for _ in range(20):
        G = random_weighted_graph(rng, rng.randint(2, 6))
        i, j = rng.sample(range(G.n), 2)
        s = path_sum_poly(G, i, j)
        if not s.is_zero():
            assert s.leading > 0


def test_path_sum_matches_bruteforce_trees():
    for n, T in trees_up_to(9):
        for i in range(T.n):
            for j in range(i + 1, T.n):
                s = path_sum_poly(T, i, j)
                assert s == _wronskian_path_sum(T, i, j)
                if n <= 7:
                    assert s == path_sum_bruteforce(T, i, j)


# -- rational functions -----------------------------------------------------


def test_ratfunc_reduces():
    f = RatFunc.make(lin(1, 2), lin(2, 3) * 4)
    assert f.num == lin(1).scale(Fraction(1, 4))
    assert f.den == lin(3)
    assert f(Fraction(5)) == Fraction(1, 2)
    with pytest.raises(PolyError):
        RatFunc.make(Poly.one(), Poly.zero())


# -- root isolation ---------------------------------------------------------


def test_isolate_known_roots():
    p = lin(-2, 0, Fraction(1, 2), 3)
    boxes = isolate_real_roots(p)
    assert len(boxes) == 4
    for box, root in zip(boxes, [-2, 0, Fraction(1, 2), 3]):
        assert box.lo <= root <= box.hi
        assert box.multiplicity == 1
        assert box.hi - box.lo <= Fraction(1, 2**40) or box.lo == box.hi


def test_isolate_multiplicities():
    p = lin(1) * lin(1) * lin(2)
    boxes = isolate_real_roots(p)
    assert [b.multiplicity for b in boxes] == [2, 1]


def test_isolate_multiplicities_through_the_sturm_chain():
    # repeated part gcd(p, p') = (t^2 - 2) t^3 (t - 1)^2: the root 1 has even
    # multiplicity there and changes no sign of it, so membership is read
    # off the square-free part of the gcd
    s2 = Poly([-2, 0, 1])
    p = s2 * s2 * lin(0, 0, 0, 0) * lin(1, 1, 1)
    roots = real_roots(p)
    assert roots.repeated.monic() == poly_gcd(p, p.derivative())
    assert roots.multiplicities() == [2, 4, 3, 2]
    boxes = isolate_real_roots(p)
    assert [b.multiplicity for b in boxes] == [2, 4, 3, 2]
    assert [(b.lo, b.hi, b.multiplicity) for b in boxes] == _fraction_isolate(p)
    assert real_roots(s2).repeated is None
    assert real_roots(Poly.constant(3)).multiplicities() == []


def test_isolate_no_real_roots():
    assert isolate_real_roots(Poly([1, 0, 1])) == ()


def test_isolate_irrational_roots():
    # t^2 - 2
    boxes = isolate_real_roots(Poly([-2, 0, 1]))
    assert len(boxes) == 2
    assert abs(boxes[0].midpoint + 2**0.5) < 1e-10
    assert abs(boxes[1].midpoint - 2**0.5) < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=2, max_size=5))
def test_isolate_counts_match_numpy(roots):
    import numpy as np

    p = lin(*roots)
    boxes = isolate_real_roots(p)
    assert sum(b.multiplicity for b in boxes) == len(roots)
    for box in boxes:
        assert any(box.lo <= r <= box.hi for r in roots)
    assert len(boxes) == len(set(roots))
    # cross-check positions against numpy roots
    np_roots = sorted(np.roots([float(c) for c in reversed(p.coeffs)]).real)
    mids = sorted(set(float(r) for r in roots))
    for box, r in zip(boxes, mids):
        assert abs(box.midpoint - r) < 1e-9


def test_box_has_root():
    p = Poly([-2, 0, 1])
    boxes = isolate_real_roots(p)
    assert box_has_root(p, boxes[0])
    assert not box_has_root(lin(5), boxes[0])
    exact = RootBox(Fraction(3), Fraction(3), 1)
    assert box_has_root(lin(3), exact)
    assert not box_has_root(lin(4), exact)


# -- integer helpers --------------------------------------------------------


def test_rational_roots_monic_integer():
    # the rational roots of a monic integer polynomial are its integer roots
    p = lin(0, 0, 2, -3)
    assert real_roots(p).integers() == [-3, 0, 2]
    assert real_roots(lin(Fraction(1, 2), 1)).integers() == [1]


def test_rational_roots_of_a_huge_constant_term():
    # trial division of |c0| would not finish; the root boxes answer at once
    assert real_roots(lin(-7, 3 * 2**80)).integers() == [-7, 3 * 2**80]
    assert real_roots(Poly((-5 * 2**80, 0, 1))).integers() == []
    assert real_roots(lin(0, 0, 5) * Poly([1, 0, 1])).integers() == [0, 5]


# -- lazily refined root boxes ---------------------------------------------


def test_lazy_support_boxes_resume_to_isolate_real_roots():
    from pstlab.scan import scan_trees

    scan_trees(9)  # the scan refines the shared support boxes as far as it needs
    supports = {spectra.support_poly(T, v) for _, T in trees_up_to(9) for v in range(T.n)}
    for sup in supports:
        assert real_roots(sup).boxes() == isolate_real_roots(sup)
    assert len(supports) > 100
    # the shared boxes are those of a fresh isolation and of the oracle
    p = Poly([-2, 0, 1])
    assert isolate_real_roots(p) == RealRoots(p).boxes() == bisection_boxes(p)
    roots = RealRoots(p)
    roots.narrow(1, Fraction(1, 2**70))
    lo, hi, d = roots.interval(1)
    assert (hi - lo) * 2**70 < d and lo * lo < 2 * d * d < hi * hi


def test_real_roots_of_a_repeated_factor():
    roots = real_roots(lin(1, 1, 2) * Poly([-2, 0, 1]) * Poly([-2, 0, 1]))
    assert len(roots) == 4
    assert roots.boxes() == tuple(RootBox(b.lo, b.hi, 1) for b in isolate_real_roots(lin(1, 2) * Poly([-2, 0, 1])))
    assert roots.integers() == [1, 2]


def test_compare_roots_settles_ties_exactly():
    a = RealRoots(Poly([-2, 0, 1]))  # -sqrt2, sqrt2
    b = RealRoots(Poly([-2, 0, 1]) * lin(1, Fraction(7, 5)))  # -sqrt2, 1, 7/5, sqrt2
    assert compare_roots(a, 1, b, 3) == 0
    assert compare_roots(a, 0, b, 0) == 0
    assert compare_roots(a, 1, b, 2) == 1
    assert compare_roots(b, 1, a, 1) == -1
    # a rational root hit exactly, against an irrational one
    c = RealRoots(lin(0, Fraction(3, 2)))
    assert compare_roots(c, 0, a, 1) == -1 and compare_roots(c, 1, a, 1) == 1
    merged = merge_roots([(a, 0), (a, 1)], [(b, k) for k in range(4)])
    assert merged == [(0, 0, False), (1, 0, True), (1, 1, False), (1, 2, False),
                      (0, 1, False), (1, 3, True)]


def test_compare_roots_past_box_width():
    # sqrt2 and sqrt(2 + 2^-60) agree to well below 2^-40
    a = RealRoots(Poly([-2, 0, 1]))
    b = RealRoots(Poly([-2 - Fraction(1, 2**60), 0, 1]))
    assert compare_roots(a, 1, b, 1) == -1
    assert compare_roots(b, 0, a, 0) == -1


def _exact_signs(roots, q):
    return [(v > 0) - (v < 0) for v in (q(Fraction(r)) for r in sorted(set(roots)))]


def test_signs_on_exact_boxes():
    roots = RealRoots(lin(-3, -1, 1))
    for k in range(3):
        roots.narrow(k, Fraction(1, 2**20))
    assert all(lo == hi for lo, hi, _ in map(roots.interval, range(3)))
    for q in [lin(0), lin(-1), lin(-3, 1), Poly([1, 0, 1]), Poly([5]), Poly.zero(), lin(-2, 2) * lin(-1)]:
        assert roots.signs(q) == _exact_signs([-3, -1, 1], q)


def test_signs_without_real_roots():
    assert RealRoots(Poly([1, 0, 1])).signs(Poly.x()) == []
    assert RealRoots(Poly([2, 2, 1]) * Poly([1, 0, 1])).signs(lin(3)) == []
    assert RealRoots(Poly([7])).signs(Poly.x()) == []


def test_signs_at_irrational_roots():
    roots = RealRoots(Poly([-2, 0, 1]) * lin(1, Fraction(7, 5)))  # -sqrt2, 1, 7/5, sqrt2
    assert roots.signs(lin(Fraction(3, 2))) == [-1, -1, -1, -1]
    assert roots.signs(Poly([-2, 0, 1])) == [0, -1, -1, 0]
    assert roots.signs(lin(Fraction(141, 100), Fraction(-1, 2))) == [1, -1, -1, 1]


_sign_points = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-16, 16), st.just(4)))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_sign_points, max_size=7),
    st.lists(st.sampled_from([Poly([1, 0, 1]), Poly([2, 2, 1])]), max_size=2),
    st.one_of(
        st.lists(st.integers(-5, 5), max_size=6).map(Poly),
        st.tuples(st.lists(_sign_points, max_size=4), st.integers(0, 3), st.booleans()),
    ),
    st.lists(st.one_of(st.none(), st.integers(0, 70)), max_size=7),
)
def test_signs_match_exact_evaluation(p_roots, complex_factors, q, depths):
    """Signs of q at rational roots of p, repeated ones too, beside complex
    factors, with q drawn freely or sharing roots with p (sign 0), on boxes
    refined to unequal widths (None halves a box once), which are often
    made exact."""
    p = lin(*p_roots)
    for factor in complex_factors:
        p = p * factor
    if not isinstance(q, Poly):
        q_roots, shared, complex_q = q
        q = lin(*q_roots, *sorted(set(p_roots))[:shared]) * (Poly([1, 0, 1]) if complex_q else Poly.one())
    roots = RealRoots(p)
    for k, depth in zip(range(len(roots)), depths):
        if depth is None:
            halve(roots, k)
        elif depth:
            roots.narrow(k, Fraction(1, 2**depth))
    assert roots.signs(q) == _exact_signs(p_roots, q)


def test_roots_within():
    # t^3 - 2t: consecutive roots exactly sqrt2 apart, where the norm vanishes
    tie = real_roots(Poly([0, -2, 0, 1]))
    assert roots_within(tie, 2)
    assert not roots_within(tie, 1)
    # t (t^2 - 2 - 2^-50): gaps just above sqrt2, decided by signs
    assert not roots_within(real_roots(Poly([0, -2 - Fraction(1, 2**50), 0, 1])), 2)
    # t ((t + 2^-50)^2 - 2): one gap just below sqrt2
    eps = Fraction(1, 2**50)
    assert roots_within(real_roots(lin(0) * (lin(-eps) * lin(-eps) - Poly([2]))), 2)
    # the bridge bound: P4's support 1.618.., 0.618.. and their negatives
    assert roots_within(real_roots(Poly([1, 0, -3, 0, 1])), 1)
    assert not roots_within(real_roots(lin(-1, 1)), 1)
    assert roots_within(real_roots(lin(-1, 0, 1)), 1)  # an exact tie at 1
    assert not roots_within(real_roots(lin(5)), 2)


def _squarefree_part_by_trial_division(m):
    """Test-local oracle: strip every square factor d^2, d up to sqrt(m)."""
    out, d = 1, 2
    while d * d <= m:
        while m % (d * d) == 0:
            m //= d * d
        if m % d == 0:
            m //= d
            out *= d
        d += 1
    return out * m


def test_squarefree_part_int():
    assert squarefree_part_int(1) == 1
    assert squarefree_part_int(8) == 2
    assert squarefree_part_int(360) == 10
    with pytest.raises(ValueError):
        squarefree_part_int(0)
    for m in range(1, 10**4 + 1):
        assert squarefree_part_int(m) == _squarefree_part_by_trial_division(m), m
    # (2 theta)^2 of P3 with both weights w = 2^31 - 1 (a prime) is 8 w^2;
    # trial division to sqrt(m) would run 2^33 steps
    w = 2**31 - 1
    assert squarefree_part_int(8 * w * w) == 2
    assert squarefree_part_int(w * w) == 1
    assert squarefree_part_int(2 * w) == 2 * w
    assert squarefree_part_int(3 * w * (2**19 - 1)) == 3 * w * (2**19 - 1)
    assert squarefree_part_int(12 * (2**19 - 1) ** 2) == 3


def test_simple_pole_residues():
    # 1 / ((t-1)(t+1)) has residues 1/2 at 1 and -1/2 at -1
    f = RatFunc.make(Poly.one(), lin(1, -1))
    res = dict(
        (round(box.midpoint), r) for box, r in simple_pole_residues(f)
    )
    assert abs(res[1] - 0.5) < 1e-9
    assert abs(res[-1] + 0.5) < 1e-9
    with pytest.raises(PolyError):
        simple_pole_residues(RatFunc.make(Poly.one(), lin(1) * lin(1)))
    # a repeated pole that is not real is still a repeated pole
    with pytest.raises(PolyError):
        simple_pole_residues(RatFunc.make(Poly.one(), lin(2) * Poly([1, 0, 1]) * Poly([1, 0, 1])))
    assert simple_pole_residues(RatFunc.make(Poly.one(), Poly.constant(2))) == []


# -- integer kernel vs its Fraction-arithmetic references -------------------


def _strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _euclid_gcd_over_q(p, q):
    """Monic gcd by the Euclidean algorithm on Fraction lists."""
    a = _strip(Fraction(c) for c in p.coeffs)
    b = _strip(Fraction(c) for c in q.coeffs)
    while b:
        rem = list(a)
        while len(rem) >= len(b):
            c = rem[-1] / b[-1]
            shift = len(rem) - len(b)
            for k, y in enumerate(b):
                rem[shift + k] -= c * y
            rem = _strip(rem[:-1])
        a, b = b, rem
    return Poly([c / a[-1] for c in a])


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
rational_polys = st.lists(rationals, min_size=0, max_size=4).map(Poly)


@settings(max_examples=150, deadline=None)
@given(rational_polys, rational_polys, rational_polys)
def test_poly_gcd_matches_euclid_over_q(a, b, common):
    for p, q in ((a * common, b * common), (a, b), (a * common, a * common)):
        if p.is_zero() and q.is_zero():
            continue
        assert poly_gcd(p, q) == _euclid_gcd_over_q(p, q)


@pytest.mark.parametrize(
    "p, q",
    [
        (lin(1, 2), Poly.zero()),
        (Poly.zero(), lin(Fraction(1, 3)) * 6),
        (Poly.constant(Fraction(5, 2)), lin(1, 2)),
        (lin(1, 2) * 3, lin(1, 2) * 3),
        (X, X + Poly.one()),
        (lin(Fraction(1, 2), 3) * 4, lin(Fraction(1, 2), -1) * 6),
    ],
)
def test_poly_gcd_edge_cases_match_euclid_over_q(p, q):
    assert poly_gcd(p, q) == _euclid_gcd_over_q(p, q)


def _sign_at(q, x) -> int:
    """Sign of q at the rational x, by exact evaluation."""
    v = q(x)
    return (v > 0) - (v < 0)


def _fraction_isolate(p):
    """Sturm bisection on Fraction endpoints, refined below 2^-40."""
    width = Fraction(1, 2**40)
    factors = squarefree_decomposition(p)
    f = Poly.one()
    for fac, _ in factors:
        f = f * fac
    chain = [f, f.derivative()]
    while chain[-1].degree > 0:
        rem = -(chain[-2] % chain[-1])
        if rem.is_zero():
            break
        chain.append(rem)

    def variations(x):
        signs = [s for s in (_sign_at(q, x) for q in chain) if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)

    bound = 1 + max(abs(Fraction(c)) for c in f.coeffs[:-1]) / abs(f.leading)
    stack = [(-bound, bound, variations(-bound) - variations(bound))]
    boxes = []
    while stack:
        a, b, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt > 1:
            mid = (a + b) / 2
            while f(mid) == 0:
                mid = (a + mid) / 2
            left = variations(a) - variations(mid)
            stack += [(a, mid, left), (mid, b, cnt - left)]
            continue
        slo = _sign_at(f, a)
        while b - a >= width:
            mid = (a + b) / 2
            sm = _sign_at(f, mid)
            if sm == 0:
                a = b = mid
                break
            if sm == slo:
                a = mid
            else:
                b = mid
        mult = next(
            m
            for fac, m in factors
            if (fac(a) == 0 if a == b else fac(a) * fac(b) < 0)
        )
        boxes.append((a, b, mult))
    return sorted(boxes)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=4),
    st.lists(st.integers(-5, 5), min_size=0, max_size=3),
    st.integers(1, 6),
)
def test_isolate_real_roots_matches_fraction_bisection(roots, quad, lead):
    # rational roots (some repeated) times a factor that may have irrational
    # or no real roots, scaled by a non-unit leading coefficient
    p = lin(*roots) * Poly(quad + [1]) * lead
    got = [(b.lo, b.hi, b.multiplicity) for b in isolate_real_roots(p)]
    assert got == _fraction_isolate(p)


@pytest.mark.parametrize(
    "coeffs",
    # Sturm chains whose degree drops by two below a member with a negative
    # leading coefficient, where the pseudo-remainder's sign must be fixed
    [[-1, 3, 2, 0, 0, 1], [-3, 1, -2, 3, 0, 0, 1], [3, -2, 1, 2, 0, 0, 1]],
)
def test_isolate_abnormal_sturm_chains_match_fraction_bisection(coeffs):
    p = Poly(coeffs)
    got = [(b.lo, b.hi, b.multiplicity) for b in isolate_real_roots(p)]
    assert got == _fraction_isolate(p)


@pytest.mark.parametrize(
    "roots, signs",
    [
        ([1, 2, 3], (1, -1, 1)),  # negative total count
        ([1, 2, 3, 4], (1, 1, -1, -1, -1)),  # a half with more roots than the whole
    ],
)
def test_isolate_raises_on_a_corrupted_sturm_chain(monkeypatch, roots, signs):
    # both chains used to make the bisection loop forever
    true_chain = polys._sturm_chain_int
    monkeypatch.setattr(polys, "_sturm_chain_int", lambda fi: [
        tuple(sign * c for c in member) for sign, member in zip(signs, true_chain(fi))
    ])
    polys._tables.cache_clear()
    real_roots.cache_clear()
    with pytest.raises(PolyError):
        isolate_real_roots(lin(*roots))


def _forest(parent_choices, weight_choices, cuts, perm_keys):
    """A forest from a random parent array: vertex v > 0 hangs off an
    earlier vertex unless v is a cut, which starts a new component."""
    n = len(parent_choices) + 1
    items = []
    for v in range(1, n):
        if v in cuts:
            continue
        u = parent_choices[v - 1] % v
        items.append((u, v, weight_choices[(v - 1) % len(weight_choices)]))
    perm = sorted(range(n), key=lambda v: (perm_keys[v % len(perm_keys)], v))
    return Graph.from_edges(n, [(perm[u], perm[v], w) for u, v, w in items])


def _deletions(G):
    """Every set of at most two vertices, the empty one first."""
    yield ()
    for i in range(G.n):
        yield (i,)
        for j in range(i + 1, G.n):
            yield (i, j)


def _wronskian_path_sum(G, i, j):
    """Test-local oracle: the positive square root of the Wronskian
    phi^{G\\i} phi^{G\\j} - phi^{G\\{i,j}} phi^G, every charpoly by Berkowitz."""
    def phi(*S):
        return berkowitz_charpoly(delete_vertices(G, set(S)))

    w = phi(i) * phi(j) - phi(i, j) * phi()
    return Poly.zero() if w.is_zero() else poly_sqrt(w)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 100), min_size=0, max_size=10),
    st.lists(st.sampled_from([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), min_size=1, max_size=11),
    st.sets(st.integers(1, 10), max_size=5),
    st.lists(st.integers(0, 20), min_size=1, max_size=11),
)
def test_forest_charpoly_matches_berkowitz(parents, weights, cuts, perm_keys):
    # the branch tables against Berkowitz, brute force and the Wronskian
    F = _forest(parents, weights, cuts, perm_keys)
    assert charpoly(F) == berkowitz_charpoly(F)
    _assert_packed_table(F)
    for S in _deletions(F):
        H = delete_vertices(F, S)
        assert vertex_deleted_charpoly(F, *S) == charpoly(H) == berkowitz_charpoly(H)
    for i in range(F.n):
        for j in range(i + 1, F.n):
            s, b = path_sum_poly(F, i, j), path_sum_bruteforce(F, i, j)
            assert s == (b if b.leading >= 0 else -b) == _wronskian_path_sum(F, i, j)


def test_forest_charpoly_matches_berkowitz_on_all_trees_to_n10():
    for _, T in trees_up_to(10, min_n=1):
        assert charpoly(T) == berkowitz_charpoly(T)
        _assert_packed_table(T)
        for S in _deletions(T):
            H = delete_vertices(T, S)
            assert vertex_deleted_charpoly(T, *S) == charpoly(H) == berkowitz_charpoly(H)


def test_forest_tables_edge_cases():
    empty = Graph.from_edges(0, [])
    assert vertex_deleted_charpoly(empty) == charpoly(empty) == Poly.one()
    single = Graph.from_edges(1, [])
    assert vertex_deleted_charpoly(single) == X
    assert vertex_deleted_charpoly(single, 0) == Poly.one()
    isolated = Graph.from_edges(3, [])
    assert vertex_deleted_charpoly(isolated, 0, 2) == X
    assert path_sum_poly(isolated, 0, 1).is_zero()
    # a signed path: |w(P)| phi(G \\ P), the sign of w(P) is normalized away
    P = Graph.from_edges(4, [(0, 1, -2), (1, 2, 3), (2, 3, 1)])
    assert path_sum_poly(P, 0, 2) == Poly.constant(6) * X
    for G in (path(4), hypercube(3)):
        with pytest.raises(GraphError):
            vertex_deleted_charpoly(G, G.n)
        with pytest.raises(GraphError):
            vertex_deleted_charpoly(G, -1, 0)
        with pytest.raises(GraphError):
            path_sum_poly(G, -1, 0)


def _assert_packed_table(G):
    """The packed forest table against the adjugate table, built directly,
    and against Berkowitz: the total, every phi(G - v), every phi(G - {i, j})
    and every |S_ij|, and the class keys against Poly equality."""
    table, oracle = polys._forest_tables(G), polys._AdjugateTable(G)
    assert isinstance(table, polys._ForestTables)
    assert table.total == oracle.total
    assert table.charpoly == oracle.charpoly == berkowitz_charpoly(G)
    deleted = [oracle.deleted(v) for v in range(G.n)]
    assert [table.deleted_raw(v) for v in range(G.n)] == [oracle.deleted_raw(v) for v in range(G.n)]
    assert list(table.deleted_all()) == deleted
    keys = [table.class_key(v) for v in range(G.n)]
    for i in range(G.n):
        for j in range(i + 1, G.n):
            assert (keys[i] == keys[j]) == (deleted[i] == deleted[j]), (G, i, j)
            assert table.deleted(i, j) == oracle.deleted(i, j), (G, i, j)
            s = oracle.path_raw(i, j)
            assert table.path_raw(i, j) in (s, [-c for c in s]), (G, i, j)
            assert table.path_raw(j, i) == table.path_raw(i, j)


@pytest.mark.parametrize("w", [2**37, 2**31 - 1])
def test_packed_table_with_large_weights(w):
    # the bound prod (1 + w^2) sets the digit width, far above 2^(n + 1)
    forests = [
        Graph.from_edges(7, [(0, 1, w), (1, 2, -w), (1, 3, 1), (4, 5, w), (5, 6, 2)]),
        Graph.from_edges(6, [(0, 1, w), (1, 2, w), (2, 3, w), (3, 4, w), (4, 5, w)]),
        Graph.from_edges(5, [(0, 1, w), (0, 2, 3), (0, 3, -w), (0, 4, 5)]),
    ]
    for F in forests:
        _assert_packed_table(F)
    assert polys._forest_tables(forests[1]).bits > 5 * 2 * 31


def test_packed_values_unpack_at_the_bound():
    bits = 9
    top = 2 ** (bits - 1) - 1  # X/2 - 1, the largest coefficient that unpacks
    for cs in ([top], [-top], [top, 0, 0, -top], [-top, top, 0, -1, top],
               [0, 0, 5, 0, -top], [1], [-1, 0, 1], []):
        assert polys._unpack(Poly(cs)(1 << bits), bits) == cs
    assert polys._unpack(0, bits) == []
    # one past the bound carries into the next digit
    assert polys._unpack(top + 1, bits) == [-top - 1, 1]


def test_packed_division_by_a_non_divisor_raises():
    bits, X = 8, 1 << 8
    a, b = Poly([-1, 0, 1])(X), Poly([1, 1])(X)
    assert polys._unpack(polys._quo_packed(a, b), bits) == [-1, 1]
    with pytest.raises(PolyError):
        polys._quo_packed(a, Poly([2, 1])(X))
    with pytest.raises(PolyError):
        polys._quo_packed(Poly([1, 0, 1])(X), b)


def test_packed_table_edge_cases():
    # one vertex, isolated vertices, several components; the empty graph has
    # an adjugate table (test_adjugate_table_edge_cases)
    single = Graph.from_edges(1, [])
    isolated = Graph.from_edges(3, [])
    pieces = Graph.from_edges(8, [(0, 1, 1), (2, 3, 2), (3, 4, 1), (5, 6, -3)])
    for G in (single, isolated, pieces):
        _assert_packed_table(G)
    table = polys._forest_tables(single)
    assert (table.total, table.deleted_raw(0), table.bits) == ([0, 1], [1], 2)
    table = polys._forest_tables(isolated)
    assert len({table.class_key(v) for v in range(3)}) == 1
    assert table.path_raw(0, 1) == [] and table.deleted(0, 2) == X
    table = polys._forest_tables(pieces)
    assert table.path_raw(0, 2) == []
    assert Poly(table.path_raw(5, 6)) == charpoly(delete_vertices(pieces, {5, 6})).scale(3)
    assert table.deleted(1, 5) == charpoly(delete_vertices(pieces, {1, 5}))


def test_packed_precheck_never_rejects_a_divisor():
    # g(X) | P(X) whenever g | P: on every cospectral pair of every tree
    # n <= 10, the pre-check keeps each pair that polynomial division accepts
    pairs = kept = strong = 0
    for _, T in trees_up_to(10):
        table = polys._forest_tables(T)
        g = table.repeated_part
        for i, j in spectra.cospectral_pairs(T):
            pairs += 1
            divisible = polys.divides(g, table.deleted(i, j))
            assert table.may_divide(i, j) or not divisible, (T, i, j)
            assert spectra.is_strongly_cospectral(T, i, j) == divisible, (T, i, j)
            kept += table.may_divide(i, j)
            strong += divisible
    assert pairs > kept >= strong > 0  # 1026 > 217 >= 217 > 0


def test_strong_verdict_does_not_rest_on_the_precheck(monkeypatch):
    # the pre-check only rejects: with it keeping every pair, the verdict
    # still comes from polynomial division, memoized on phi(G - {i, j})
    monkeypatch.setattr(polys._Table, "may_divide", lambda self, i, j: True)
    polys._tables.cache_clear()
    pairs = strong = 0
    for G in [T for _, T in trees_up_to(8)] + [hypercube(3), laplacian_form(grid(3, 3))]:
        g = polys._tables(G).repeated_part
        for i, j in spectra.cospectral_pairs(G):
            divisible = polys.divides(g, vertex_deleted_charpoly(G, i, j))
            assert spectra.is_strongly_cospectral(G, i, j) == divisible, (G, i, j)
            pairs += 1
            strong += divisible
    assert pairs > strong > 0


@pytest.mark.parametrize(
    "G",
    [
        # a cycle with isolated vertices has fewer edges than vertices
        Graph.from_edges(5, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]),
        Graph.from_edges(3, [(0, 1, Fraction(1, 2)), (1, 2, 1)]),
        Graph.from_edges(3, [(0, 1, 1), (1, 2, 1), (1, 1, 2)]),
    ],
)
def test_charpoly_of_non_forests_matches_berkowitz(G):
    assert charpoly(G) == berkowitz_charpoly(G)


def _assert_adjugate_table(G, brute_force=True):
    """The packed adjugate table against Berkowitz on every deleted
    subgraph, its class keys against Poly equality, its pre-check and strong
    verdict against polynomial division by gcd(phi, phi'), and its signed
    path sums against the brute-force path sum (or, past its guard, the
    test-local Wronskian, which fixes them up to sign)."""
    table = polys._AdjugateTable(G)  # built directly, also for a forest
    _, diag, lower = polys._scaled_rows(G)
    assert table.total == polys._berkowitz(diag, lower)[::-1]
    phi = berkowitz_charpoly(G)
    assert table.charpoly == charpoly(G) == phi
    g = poly_gcd(phi, phi.derivative())
    assert table.repeated_part == g
    deleted = [berkowitz_charpoly(delete_vertices(G, {v})) for v in range(G.n)]
    assert list(table.deleted_all()) == list(vertex_deleted_charpolys(G)) == deleted
    assert spectra.cospectral_pairs(G) == [
        (i, j) for i in range(G.n) for j in range(i + 1, G.n) if deleted[i] == deleted[j]
    ]
    keys = [table.class_key(v) for v in range(G.n)]
    for i in range(G.n):
        assert vertex_deleted_charpoly(G, i) == deleted[i]
        for j in range(i + 1, G.n):
            assert (keys[i] == keys[j]) == (deleted[i] == deleted[j]), (G, i, j)
            pair = berkowitz_charpoly(delete_vertices(G, {i, j}))
            assert table.deleted(i, j) == vertex_deleted_charpoly(G, i, j) == pair
            divisible = polys.divides(g, pair)
            assert table.may_divide(i, j) or not divisible, (G, i, j)
            assert table.strong(i, j) == divisible, (G, i, j)
            s = table.path_sum(i, j)
            assert s == table.path_sum(j, i)
            if brute_force:
                assert s == path_sum_bruteforce(G, i, j)
            else:
                w = _wronskian_path_sum(G, i, j)
                assert s in (w, -w)
            assert path_sum_poly(G, i, j) == (-s if s.leading < 0 else s)


def _laplacian_family():
    mirrors = [M for M in seeded_mirror_graphs(41, 8) if not M.has_loops()]
    bases = [hypercube(3), grid(3, 3), star(4), cycle(5)] + mirrors
    return [laplacian_form(G) for G in bases]


@pytest.mark.parametrize(
    "G",
    [hypercube(3), grid(3, 3), Graph.from_edges(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])]
    + [cycle(n) for n in (3, 4, 5, 6)]
    + seeded_mirror_graphs(41, 8)
    + _laplacian_family(),
)
def test_adjugate_table_matches_berkowitz_and_brute_force(G):
    _assert_adjugate_table(G)


@pytest.mark.parametrize("G", [hypercube(4), laplacian_form(hypercube(4))])
def test_adjugate_table_past_the_brute_force_guard(G):
    _assert_adjugate_table(G, brute_force=False)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_adjugate_table_on_random_graphs(data):
    # loops, negative, rational (scale > 1) and 2^37 weights, and graphs in pieces
    n = data.draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    numerators = st.sampled_from([-3, -2, -1, 1, 2, 3, 2**37, -2**37])
    weight = st.builds(Fraction, numerators, st.integers(1, 4))
    _assert_adjugate_table(Graph.from_edges(n, [(u, v, data.draw(weight)) for u, v in chosen]))


@pytest.mark.parametrize("n, d", [(1, 1), (5, 2**37), (6, -3), (7, Fraction(-2, 3))])
def test_packed_adjugate_table_unpacks_equal_loops_at_the_hadamard_width(n, d):
    # A' = L d I: (s - L d)^n has absolute coefficient sum prod_r (1 + |L d|),
    # the most a row-by-row bound allows, and Hadamard's bound on |.|^2,
    # (n + 1) prod_r (1 + |L d|)^2, sets the least digit width above it
    G = Graph.from_edges(n, [(v, v, d) for v in range(n)])
    table = polys._AdjugateTable(G)
    e = int(table.scale * d)
    bound = (1 + abs(e)) ** n
    assert bound < 2 ** (table.bits - 1)
    assert 4 ** (table.bits - 2) <= (n + 1) * bound**2 < 4 ** (table.bits - 1)
    assert table.total == list(lin(*[e] * n).coeffs)
    assert sum(map(abs, table.total)) == bound
    assert all(table.deleted_raw(v) == list(lin(*[e] * (n - 1)).coeffs) for v in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            assert table.path_raw(i, j) == []
            assert table.deleted(i, j) == lin(*[d] * (n - 2))
    _assert_adjugate_table(G)


def test_adjugate_table_edge_cases():
    empty = Graph.from_edges(0, [])
    assert isinstance(polys._tables(empty), polys._AdjugateTable)
    assert charpoly(empty) == Poly.one() and vertex_deleted_charpolys(empty) == ()
    loop = Graph.from_edges(1, [(0, 0, Fraction(-2, 3))])
    assert charpoly(loop) == Poly([Fraction(2, 3), 1])
    assert vertex_deleted_charpolys(loop) == (Poly.one(),)
    # one edge of weight -1/2 and a triangle: the signed entry is -1/2 phi(G \ P)
    G = Graph.from_edges(5, [(0, 1, Fraction(-1, 2)), (2, 3, 1), (3, 4, 1), (2, 4, 1)])
    assert polys._tables(G).path_sum(0, 1) == charpoly(cycle(3)).scale(Fraction(-1, 2))
    assert path_sum_poly(G, 0, 1) == charpoly(cycle(3)).scale(Fraction(1, 2))
    assert path_sum_poly(G, 0, 2).is_zero()
    with pytest.raises(GraphError):
        vertex_deleted_charpoly(G, 5)
    with pytest.raises(GraphError):
        path_sum_poly(G, 0, -1)


def _dense_berkowitz(rows):
    """Test-local oracle: the division-free Berkowitz recurrence on dense
    Fraction rows, coefficients of det(tI - A) high degree first."""
    n = len(rows)
    coeffs = [1]
    for k in range(1, n + 1):
        a = rows[k - 1][k - 1]
        R = rows[k - 1][:k - 1]
        C = [rows[m][k - 1] for m in range(k - 1)]
        col = [1, -a]
        v = C
        for step in range(k - 1):
            col.append(-sum(x * y for x, y in zip(R, v)))
            if step < k - 2:
                v = [
                    sum(rows[p][q] * v[q] for q in range(k - 1))
                    for p in range(k - 1)
                ]
        new = []
        for i in range(k + 1):
            acc = 0
            for j in range(max(0, i - k), min(i, k - 1) + 1):
                acc += col[i - j] * coeffs[j]
            new.append(acc)
        coeffs = new
    return Poly(tuple(reversed(coeffs)))


def _assert_same_charpoly(G):
    expected = _dense_berkowitz(G.adjacency_rows())
    got = berkowitz_charpoly(G)
    assert got == expected
    # the same representation: ints where integral, Fractions elsewhere
    assert [type(c) for c in got.coeffs] == [type(c) for c in expected.coeffs]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_berkowitz_matches_dense_fraction_oracle(data):
    n = data.draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    weight = st.builds(
        Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3, 5]), st.integers(1, 7)
    )
    # a cut makes the vertices before it a separate component
    cut = data.draw(st.integers(0, n))
    items = [
        (u, v, data.draw(weight))
        for u, v in chosen
        if (u < cut) == (v < cut)
    ]
    G = Graph.from_edges(n, items)
    _assert_same_charpoly(G)
    for v in range(n):
        _assert_same_charpoly(delete_vertices(G, {v}))


@pytest.mark.parametrize("G", [hypercube(3), hypercube(4), grid(3, 3)])
def test_berkowitz_matches_dense_fraction_oracle_on_laplacians(G):
    L = laplacian_form(G)
    _assert_same_charpoly(L)
    _assert_same_charpoly(G)
    _assert_same_charpoly(delete_vertices(L, {0}))


def _no_float(p):
    return not any(isinstance(c, float) for c in p.coeffs)


def test_integral_coefficients_are_ints():
    p = Poly([Fraction(4, 2), 3, Fraction(1, 2)])
    assert [type(c) for c in p.coeffs] == [int, int, Fraction]
    assert p == Poly([2, Fraction(3), Fraction(1, 2)])
    assert hash(Poly([3])) == hash(Poly([Fraction(3)]))
    assert p.to_json() == ["2", "3", "1/2"]


def test_exact_results_never_leak_floats():
    m = Poly([1, 3, 2]).monic()
    assert m.coeffs == (Fraction(1, 2), Fraction(3, 2), 1) and _no_float(m)
    q, r = divmod(Poly([1, 0, 1]), Poly([1, 2]))
    assert _no_float(q) and _no_float(r)
    assert q * Poly([1, 2]) + r == Poly([1, 0, 1])
    value = RatFunc.make(Poly.one(), Poly([1, 1]))(2)
    assert value == Fraction(1, 3) and not isinstance(value, float)
    root = poly_sqrt(Poly([Fraction(1, 4), 1, 1]))
    assert root == Poly([Fraction(1, 2), 1]) and _no_float(root)
    f = RatFunc.make(Poly([1, 1]), Poly([1, 2]))
    assert _no_float(f.num) and _no_float(f.den) and f.den.leading == 1
    (box,) = isolate_real_roots(Poly([-1, 2]))
    assert isinstance(box.lo, Fraction) and box.lo <= Fraction(1, 2) <= box.hi


@pytest.mark.parametrize("model", ["adjacency", "laplacian"])
def test_table_gcd_at_half_degree_equals_the_full_gcd(model):
    # a forest's or a bipartite graph's phi = t^e R(t^2) takes gcd(phi, phi')
    # as t^max(e - 1, 0) gcd(R, R')(t^2); any other phi at full degree
    graphs = [T for _, T in trees_up_to(10)] + [hypercube(d) for d in range(1, 5)]
    graphs += [star(6), grid(3, 3), cycle(5), cycle(6)] + seeded_mirror_graphs(7, 6)
    halves = 0
    for G in graphs:
        if model == "laplacian":
            if G.has_loops():
                continue
            G = laplacian_form(G)
        table = polys._tables(G)
        total = Poly(table.total)
        assert table._gcd[0] == poly_gcd(total, total.derivative()), G
        halves += polys._even_odd(table.total) is not None
    assert (halves > 100) == (model == "adjacency")


# -- the cut pair of a forest's table ---------------------------------------


def _separating_pair(G, i, j):
    """The cut-edge pair by graph search: the separating neighbor of each
    side, as ``gapcert`` takes it on a graph that is not a forest."""
    ni = separating_neighbor(G, i, j)
    nj = None if ni is None else separating_neighbor(G, j, i)
    return None if nj is None else (ni, nj)


def test_cut_pair_matches_the_separating_neighbors_on_all_trees_to_n10():
    pairs = 0
    for _, T in trees_up_to(10, min_n=1):
        table = polys._tables(T)
        for i in range(T.n):
            for j in range(T.n):
                if i != j:
                    assert table.cut_pair(i, j) == _separating_pair(T, i, j), (T, i, j)
                    pairs += 1
    assert pairs == 14946


def _certificate(certify):
    try:
        return certify()
    except GapError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 100), min_size=0, max_size=10),
    st.lists(st.sampled_from([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), min_size=1, max_size=11),
    st.sets(st.integers(1, 10), max_size=5),
    st.lists(st.integers(0, 20), min_size=1, max_size=11),
)
def test_cut_pair_matches_the_separating_neighbors_on_forests(parents, weights, cuts, perm_keys):
    # pairs in different components, isolated vertices and weights |w| > 1;
    # the certificate read through the table's cut pair equals the one read
    # through the graph search, weights and conclusion included
    F = _forest(parents, weights, cuts, perm_keys)
    table = polys._tables(F)
    assert isinstance(table, polys._ForestTables)
    for i in range(F.n):
        for j in range(F.n):
            if i == j:
                continue
            nbrs = _separating_pair(F, i, j)
            assert table.cut_pair(i, j) == nbrs, (F, i, j)
            record = spectra._pair_record(F, i, j) if is_strongly_cospectral(F, i, j) else None
            searched = _certificate(lambda: gapcert._certify(F, i, j, record, nbrs))
            assert _certificate(lambda: gapcert.certify_gap(F, i, j)) == searched, (F, i, j)


def test_cut_pair_weights_decide_the_hypotheses():
    for w, ok in ((2, False), (-1, True)):
        P = Graph.from_edges(5, [(0, 1, w), (1, 2, 1), (2, 3, 1), (3, 4, w)])
        assert polys._tables(P).cut_pair(0, 4) == (1, 3)
        assert polys._tables(P).cut_pair(4, 0) == (3, 1)
        cert = gapcert.certify_gap(P, 0, 4)
        assert cert.strongly_cospectral and cert.cut_edges_ok
        assert cert.hypotheses_ok == ok
    # adjacent: no cut pair; in two components: the least neighbor of each
    F = Graph.from_edges(6, [(0, 1, 1), (1, 2, 1), (3, 4, 3), (3, 5, 1)])
    table = polys._tables(F)
    assert table.cut_pair(0, 1) is None and table.cut_pair(1, 0) is None
    assert table.cut_pair(0, 2) == (1, 1)
    assert table.cut_pair(1, 3) == (0, 4) and table.cut_pair(5, 2) == (3, 1)
