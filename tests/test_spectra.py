import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid, random_weighted_graph, seeded_mirror_graphs, trees_up_to
from oracles import (
    berkowitz_charpoly,
    box_has_root,
    full_degree_gcd,
    full_degree_record,
    full_degree_reduce,
)
from pstlab import polys, spectra
from pstlab.graphs import (
    Graph,
    delete_vertices,
    double_star,
    hypercube,
    laplacian_form,
    path,
    star,
)
from pstlab.polys import (
    Poly,
    RatFunc,
    charpoly,
    isolate_real_roots,
    path_sum_poly,
    poly_gcd,
    residue_at,
    square_free_part,
)
from pstlab.spectra import (
    SpectraError,
    is_cospectral,
    is_strongly_cospectral,
    min_support_gap,
    projector_entries,
    signed_path_sum,
    support_partition,
    support_poly,
    vertex_deleted_charpoly,
)


def test_cospectral_path_ends():
    P = path(4)
    assert is_cospectral(P, 0, 3)
    assert is_cospectral(P, 1, 2)
    assert not is_cospectral(P, 0, 1)
    with pytest.raises(SpectraError):
        is_cospectral(P, 2, 2)


def test_strong_cospectrality_examples():
    assert is_strongly_cospectral(path(2), 0, 1)
    assert is_strongly_cospectral(path(3), 0, 2)
    assert is_strongly_cospectral(path(4), 0, 3)
    # star leaves are cospectral but not strongly cospectral: the pole at 0
    # of phi^{G\{i,j}}/phi^G is not simple
    S = star(4)
    assert is_cospectral(S, 1, 2)
    assert not is_strongly_cospectral(S, 1, 2)


def test_strong_cospectrality_hypercube_antipodes():
    Q = hypercube(3)
    assert is_strongly_cospectral(Q, 0, 7)
    assert not is_strongly_cospectral(Q, 0, 1)


def _simple_poles(G, i, j):
    """Test-local oracle: whether phi^{G\\{i,j}}/phi^G, reduced, has a
    square-free denominator, every charpoly by Berkowitz."""
    f = RatFunc.make(berkowitz_charpoly(delete_vertices(G, {i, j})), berkowitz_charpoly(G))
    return f.den.degree == 0 or square_free_part(f.den) == f.den


def _graphs_with_loops(seed, count):
    """Random rational-weighted graphs, some with loops, and the Laplacians
    of the loopless ones."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        G = random_weighted_graph(rng, rng.randint(2, 7), density=0.4)
        loops = [
            (v, v, Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2])))
            for v in range(G.n)
            if rng.random() < 0.4
        ]
        out += [laplacian_form(G), Graph.from_edges(G.n, list(G.edges) + loops)]
    return out


def _check_strong_against_pole_route(G, every_pair):
    """is_strongly_cospectral against cospectrality plus the pole oracle on
    the cospectral pairs; with every_pair, also the divisibility by
    gcd(phi, phi') against the oracle on every pair, which interlacing makes
    equivalent for any two vertices."""
    g = polys._tables(G).repeated_part
    strong = 0
    for i in range(G.n):
        for j in range(i + 1, G.n):
            cosp = is_cospectral(G, i, j)
            if cosp or every_pair:
                simple = _simple_poles(G, i, j)
                assert is_strongly_cospectral(G, i, j) == (cosp and simple)
                divides = (vertex_deleted_charpoly(G, i, j) % g).is_zero()
                assert divides == simple
                strong += cosp and simple
            else:
                assert not is_strongly_cospectral(G, i, j)
    return strong


def test_strong_cospectrality_matches_the_pole_route_on_trees_to_n10():
    strong = 0
    for n, T in trees_up_to(10):
        strong += _check_strong_against_pole_route(T, every_pair=n <= 7)
    assert strong > 100


def test_strong_cospectrality_matches_the_pole_route_on_other_graphs():
    graphs = [hypercube(3), hypercube(4), grid(3, 3)]
    graphs += [laplacian_form(G) for G in graphs]
    graphs += seeded_mirror_graphs(19, 12) + _graphs_with_loops(23, 30)
    strong = sum(_check_strong_against_pole_route(G, every_pair=G.n <= 9) for G in graphs)
    assert strong > 40


def test_strong_cospectrality_takes_one_gcd_per_graph(monkeypatch):
    # the table takes gcd(phi, phi') from the helper that RealRoots uses
    calls = []
    real_gcd = polys._chain_and_repeated

    def counting_gcd(fi):
        calls.append(fi)
        return real_gcd(fi)

    monkeypatch.setattr(polys, "_chain_and_repeated", counting_gcd)
    # the gcd is taken on the scaled total: weights 1/2 give scale 2, and the
    # Laplacian form has loops, so both get adjugate tables
    halves = Graph.from_edges(8, [(u, v, Fraction(1, 2)) for u, v, _ in hypercube(3).edges])
    looped = laplacian_form(grid(3, 3))
    for G in (hypercube(3), grid(3, 3), star(5), path(6), halves, looped):
        polys._tables.cache_clear()
        calls.clear()
        for i in range(G.n):
            for j in range(i + 1, G.n):
                is_strongly_cospectral(G, i, j)
        assert len(calls) == 1
    assert (polys._tables(halves).scale, looped.has_loops()) == (2, True)


def test_support_poly_p3():
    P = path(3)
    # end-vertex support is all three eigenvalues {0, +-sqrt(2)}
    assert support_poly(P, 0) == Poly([0, -2, 0, 1])
    # center support omits 0
    assert support_poly(P, 1) == Poly([-2, 0, 1])
    assert support_poly(P, 0).degree == 3
    assert support_poly(P, 1).degree == 2


def test_support_is_pole_set_of_walk_generating_function():
    # support polynomial divides charpoly and matches the simple poles
    for _, T in trees_up_to(6):
        phi = charpoly(T)
        for v in range(T.n):
            sup = support_poly(T, v)
            assert (phi % sup).is_zero()


def test_signed_path_sum_perron_alignment():
    for G, i, j in [(path(2), 0, 1), (path(3), 0, 2), (path(4), 0, 3)]:
        s = signed_path_sum(G, i, j)
        part = support_partition(G, i, j)
        # the largest support eigenvalue always lands in the plus class
        assert part.signs[-1] == +1
        assert not s.is_zero()


def test_support_partition_p3():
    part = support_partition(path(3), 0, 2)
    # plus class {+-sqrt(2)}, minus class {0}
    assert part.plus == Poly([-2, 0, 1])
    assert part.minus == Poly([0, 1])
    assert part.plus * part.minus == part.support
    assert part.signs == (1, -1, 1)


def test_support_partition_rejects_non_strongly_cospectral():
    with pytest.raises(SpectraError):
        support_partition(star(4), 1, 2)


def test_support_partition_rejects_a_repeated_support_root():
    # phi = (t - 1)^2 (t - 3), phi^{G\i} = 1, s = (t - 1)^2 / 2 - 1: the
    # plus class t - 3 times the minus class (t - 1)^2 is the whole support,
    # and the two classes share no root, but the support repeats the root 1
    one = Poly([-1, 1])
    phi = one * one * Poly([-3, 1])
    s = (one * one).scale(Fraction(1, 2)) - Poly.one()
    record = spectra._pair_records(phi, Poly.one(), s)
    assert record.s == s
    plus, minus = (alpha.num.monic() for alpha, _ in record.quotients)
    assert (plus, minus) == (Poly([-3, 1]), one * one)
    with pytest.raises(SpectraError, match="repeated support root"):
        record.partition


def test_partition_multiplies_back_on_scanned_pairs():
    for _, T in trees_up_to(8):
        for i in range(T.n):
            for j in range(i + 1, T.n):
                if not is_strongly_cospectral(T, i, j):
                    continue
                part = support_partition(T, i, j)
                assert part.plus * part.minus == part.support
                assert part.support == support_poly(T, i)
                assert part.support == support_poly(T, j)


def _projector_rows_by_boxes(G, i, j):
    """(theta, e_ij, sigma) of each projector row, with the pole of S/phi
    and the class of each support root found by evaluating the square-free
    pole polynomial and the two classes at the ends of the row's box."""
    phi = charpoly(G)
    s = signed_path_sum(G, i, j)
    off = None if s.is_zero() else RatFunc.make(s, phi)
    part = support_partition(G, i, j) if is_strongly_cospectral(G, i, j) else None
    rows = []
    for box in isolate_real_roots(support_poly(G, i)):
        theta = box.midpoint
        pole = off is not None and box_has_root(square_free_part(off.den), box)
        sigma = None
        if part is not None:
            in_plus, in_minus = box_has_root(part.plus, box), box_has_root(part.minus, box)
            assert in_plus != in_minus
            sigma = +1 if in_plus else -1
        rows.append((theta, residue_at(off, theta) if pole else 0.0, sigma))
    return rows


def test_projector_rows_by_index_match_the_box_oracle():
    """projector_entries reads row k as support root k: its pole flag and
    class sign equal those found by evaluation on the row's root box."""
    graphs = [T for _, T in trees_up_to(8)]
    graphs += [hypercube(3), grid(3, 3)] + seeded_mirror_graphs(47, 12)
    strong = 0
    for G in graphs:
        for i in range(G.n):
            for j in range(G.n):
                if i == j:
                    continue
                got = [(r.theta, r.e_ij, r.sigma) for r in projector_entries(G, i, j).rows]
                assert got == _projector_rows_by_boxes(G, i, j), (G.edges, i, j)
                strong += got[0][2] is not None
    assert strong > 200


def test_projector_entries_p2():
    table = projector_entries(path(2), 0, 1)
    assert len(table.rows) == 2
    for row in table.rows:
        assert abs(row.e_ii - 0.5) < 1e-9
        assert abs(abs(row.e_ij) - 0.5) < 1e-9
    sigmas = sorted(r.sigma for r in table.rows)
    assert sigmas == [-1, 1]


def test_projector_entries_diagonal_sums_to_one():
    for G in [path(4), star(5), double_star(2, 2)]:
        for v in range(G.n):
            table = projector_entries(G, v, v)
            assert abs(sum(r.e_ii for r in table.rows) - 1.0) < 1e-9
            assert all(r.e_ii >= -1e-12 for r in table.rows)


def test_min_support_gap_values():
    # P3 end vertex: support {-sqrt2, 0, sqrt2}, gap sqrt2
    assert abs(min_support_gap(path(3), 0) - math.sqrt(2)) < 1e-9
    # P4 end vertex: golden-ratio spectrum, consecutive gap 1
    assert abs(min_support_gap(path(4), 0) - 1.0) < 1e-9
    with pytest.raises(SpectraError):
        min_support_gap(Graph(1, ()), 0)


def test_vertex_deleted_charpoly_memo_matches_charpoly():
    rng = random.Random(7)
    graphs = [T for _, T in trees_up_to(8, min_n=1)]
    graphs += [random_weighted_graph(rng, rng.randint(1, 9)) for _ in range(50)]
    for G in graphs:
        expected = [charpoly(delete_vertices(G, {i})) for i in range(G.n)]
        # an equal copy of G hits the memo and gets the same answers
        copy = pickle.loads(pickle.dumps(G))
        for H in (G, copy, G):
            assert [vertex_deleted_charpoly(H, i) for i in range(G.n)] == expected


def test_polys_and_partitions_survive_pickle_and_deepcopy():
    part = support_partition(path(3), 0, 2)
    part.support_roots  # a cached read travels with the partition
    objects = [
        Poly([1, 2]),
        Poly(()),
        Poly([Fraction(1, 3), -2, Fraction(7, 5)]),
        RatFunc.make(Poly([1, 2]), Poly([Fraction(1, 2), 0, 1])),
        part,
    ]
    for obj in objects:
        hash(obj)  # cache the hash before copying
        for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert twin == obj and hash(twin) == hash(obj)
    twin = pickle.loads(pickle.dumps(objects[2]))
    with pytest.raises(AttributeError):
        twin.coeffs = ()
    assert pickle.loads(pickle.dumps(part)).to_json() == part.to_json()


# -- the half-degree reduction ----------------------------------------------


X = Poly.x()
_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
_contents = st.sampled_from([1, -1, 3, -2, Fraction(1, 2), Fraction(-5, 3)])


def _even_odd_poly(e, low):
    """t^e R(t^2) for the monic R with the lower coefficients low."""
    return Poly(polys._halve(list(low) + [1], e))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 6),
    st.integers(0, 6),
    st.lists(_rationals, min_size=0, max_size=3),
    st.lists(_rationals, min_size=0, max_size=3),
    st.lists(st.integers(-4, 4), min_size=0, max_size=2),
    st.one_of(st.just(0), _contents),
    _contents,
)
def test_reduce_even_odd_matches_the_full_reduction(a, b, n_low, d_low, c_low, c_num, c_den):
    # num = c t^a N(t^2) and den = c' t^b D(t^2) share the factor C(t^2), and
    # often a factor t^k with k >= 3; rational coefficients and contents,
    # negative leading coefficients and a zero numerator, complex and
    # repeated roots; even and odd b - a, both signs of N(0) D(0)
    common = _even_odd_poly(0, c_low)
    num = (_even_odd_poly(a, n_low) * common).scale(c_num)
    den = (_even_odd_poly(b, d_low) * common).scale(c_den)
    assert RatFunc.reduce(num, den) == full_degree_reduce(num, den)
    assert poly_gcd(den, num) == full_degree_gcd(den, num)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 5),
    st.integers(0, 5),
    st.lists(_rationals, min_size=0, max_size=3),
    st.lists(_rationals, min_size=0, max_size=3),
    st.lists(st.integers(-4, 4), min_size=0, max_size=2),
    _contents,
)
def test_gcd_and_square_free_part_of_even_and_odd_polynomials_match_euclid(
    a, b, p_low, q_low, c_low, content
):
    # a repeated factor C(t^2)^2 and t^a: repeated roots, at 0 too
    common = _even_odd_poly(0, c_low)
    p = (_even_odd_poly(a, p_low) * common * common).scale(content)
    q = _even_odd_poly(b, q_low) * common
    assert poly_gcd(p, q) == full_degree_gcd(p, q)
    assert square_free_part(p) == (p // full_degree_gcd(p, p.derivative())).monic()


def test_reduce_even_odd_examples():
    # den/num for num = t (t^2 - 2): over t^2 - 1 it jumps up at 0 and at
    # +-sqrt(2), index 2 * 1 + 1; over t^2 + 1 it jumps down at 0, index
    # 2 * 1 - 1
    num = Poly([0, -2, 0, 1])
    for den, index in ((Poly([-1, 0, 1]), 3), (Poly([1, 0, 1]), 1)):
        assert RatFunc.reduce(num, den) == (RatFunc(num, den), index)
        assert full_degree_reduce(num, den)[1] == index
    # even b - a: t^3 / t reduces to t^2 / 1, and 1/t^2 has index 0
    assert RatFunc.reduce(X * X * X, X) == (RatFunc(X * X, Poly.one()), 0)


# -- the pair record against its full-degree oracle --------------------------


def _assert_record_matches_the_oracle(G, i, j):
    """Support, signed path sum and both reduced sign quotients with their
    Cauchy indices, against gcds and reductions at full degree."""
    record = spectra._pair_record(G, i, j)
    want = full_degree_record(charpoly(G), vertex_deleted_charpoly(G, i), path_sum_poly(G, i, j))
    assert (record.support, record.s) + record.quotients == want, (G, i, j)
    return record


def test_pair_record_matches_the_full_degree_oracle_on_trees():
    pairs = odd = 0
    for _, T in trees_up_to(9):
        for i in range(T.n):
            for j in range(i + 1, T.n):
                if is_strongly_cospectral(T, i, j):
                    _assert_record_matches_the_oracle(T, i, j)
                    pairs += 1
                    odd += path_sum_poly(T, i, j).degree % 2 == T.n % 2
    assert pairs == 104 and odd > 0


def _counting_routes(monkeypatch):
    """The degree of the first member of each remainder sequence that
    ``poly_gcd`` and ``RatFunc.reduce`` run: deg phi at full degree, deg
    phi // 2 at half the degree on these graphs."""
    degrees, inside = [], []
    sequence, gcd, reduce = polys._remainder_sequence, polys.poly_gcd, RatFunc.reduce

    def counting(a, b):
        if inside:
            degrees.append(len(a) - 1)
        return sequence(a, b)

    def route(kernel):
        def wrapper(*args):
            inside.append(kernel)
            try:
                return kernel(*args)
            finally:
                inside.pop()
        return wrapper

    monkeypatch.setattr(polys, "_remainder_sequence", counting)
    monkeypatch.setattr(spectra, "poly_gcd", route(gcd))
    monkeypatch.setattr(RatFunc, "reduce", staticmethod(route(reduce)))
    return degrees


def _routes(degrees, n):
    assert all(d in (n, n // 2) for d in degrees), degrees
    return {"full": degrees.count(n), "half": degrees.count(n // 2)}


def test_pair_record_routes_where_the_index_is_not_full(monkeypatch):
    # 0 and 1 at distance 2: both sign quotients and the support at half
    # degree; 0 and 2 at distance 1: the support at half degree and one
    # full reduction, mirrored.  Neither pair is strongly cospectral, and no
    # index equals its degree.
    G = Graph.from_edges(3, [(0, 2, -1), (1, 2, 2)])
    degrees = _counting_routes(monkeypatch)
    for (i, j), indices, routes in (((0, 1), [3, -1], {"full": 0, "half": 3}),
                                    ((0, 2), [1, 1], {"full": 1, "half": 1})):
        spectra._support_poly.cache_clear()
        spectra._pair_records.cache_clear()
        degrees.clear()
        record = spectra._pair_record(G, i, j)
        record.quotients
        assert _routes(degrees, G.n) == routes
        assert [index for _, index in record.quotients] == indices
        assert [alpha.num.degree for alpha, _ in record.quotients] == [3, 3]
        _assert_record_matches_the_oracle(G, i, j)


def test_pair_record_keeps_the_full_route_off_even_and_odd_polynomials(monkeypatch):
    # a triangle with a pendant vertex on each of two corners: phi is
    # neither even nor odd
    G = Graph.from_edges(5, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 3, 1), (1, 4, 1)])
    degrees = _counting_routes(monkeypatch)
    spectra._support_poly.cache_clear()
    spectra._pair_records.cache_clear()
    assert _assert_record_matches_the_oracle(G, 3, 4).quotients
    assert _routes(degrees, G.n) == {"full": 3, "half": 0}  # the support and 2 quotients


_weights = st.sampled_from([-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-3, 2)])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 7),
    st.lists(st.booleans(), min_size=7, max_size=7),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), _weights), max_size=12),
)
def test_pair_record_matches_the_full_degree_oracle_on_weighted_bipartite_graphs(
    n, sides, items
):
    # negative and rational weights, cycles and several components: pairs at
    # odd and even distance and in two components, often with an index that
    # is not full
    edges = {tuple(sorted((u % n, v % n))): w for u, v, w in items
             if sides[u % n] != sides[v % n]}
    G = Graph.from_edges(n, [(u, v, w) for (u, v), w in edges.items()])
    for i in range(n):
        for j in range(n):
            if i != j:
                _assert_record_matches_the_oracle(G, i, j)
