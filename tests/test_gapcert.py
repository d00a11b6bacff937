import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import grid, mirror_graph, seeded_mirror_graphs, trees_up_to
from oracles import merge_residue_signs
from pstlab import gapcert, graphs, polys, pst, spectra
from pstlab.gapcert import (
    SQRT2,
    GapError,
    PartialFraction,
    alpha_pair,
    arrow_matrix,
    bridge_gap_check,
    certify_gap,
    general_bound,
    merged_alphas,
    partial_fraction,
    residue_mass,
)
from pstlab.graphs import Graph, delete_vertices, hypercube, path, star
from pstlab.polys import (
    Poly,
    PolyError,
    RatFunc,
    RealRoots,
    RootBox,
    charpoly,
    isolate_real_roots,
    poly_gcd,
    simple_pole_residues,
)
from pstlab.pst import decide_pst
from pstlab.scan import scan_trees
from pstlab.spectra import (
    is_strongly_cospectral,
    min_support_gap,
    signed_path_sum,
    support_partition,
    support_poly,
)


def sc_pairs(T):
    return [
        (i, j)
        for i in range(T.n)
        for j in range(i + 1, T.n)
        if is_strongly_cospectral(T, i, j)
    ]


# -- alpha functions --------------------------------------------------------


def test_alpha_pair_p3():
    plus, minus = alpha_pair(path(3), 0, 2)
    # alpha- = t, alpha+ = t - 2/t = (t^2-2)/t
    assert minus.num == Poly([0, 1]) and minus.den == Poly.one()
    assert plus.num == Poly([-2, 0, 1]) and plus.den == Poly([0, 1])


def test_alpha_pair_requires_strong_cospectrality():
    with pytest.raises(GapError):
        alpha_pair(star(4), 1, 2)


def test_difalpha_identity_on_trees():
    """alpha+ - alpha- == -2 S / phi^{G\\{i,j}} as exact rational functions."""
    for _, T in trees_up_to(8):
        for i, j in sc_pairs(T):
            plus, minus = alpha_pair(T, i, j)
            s = signed_path_sum(T, i, j)
            phi_ij = charpoly(delete_vertices(T, {i, j}))
            lhs = plus - minus
            rhs = RatFunc.make(Poly.constant(-2) * s, phi_ij)
            assert lhs == rhs


def test_alpha_zeros_are_support_classes():
    for _, T in trees_up_to(7):
        for i, j in sc_pairs(T):
            plus, minus = alpha_pair(T, i, j)
            part = support_partition(T, i, j)
            assert plus.num.monic() == part.plus
            assert minus.num.monic() == part.minus


def _alpha_pair_by_deletion(G, i, j):
    """The alpha functions built directly: (phi^{G\\i} -+ S) / phi^{G\\{i,j}}."""
    phi_i = charpoly(delete_vertices(G, {i}))
    phi_ij = charpoly(delete_vertices(G, {i, j}))
    s = signed_path_sum(G, i, j)
    return RatFunc.make(phi_i - s, phi_ij), RatFunc.make(phi_i + s, phi_ij)


def _assert_alpha_pair_matches_deletion_route(G):
    """alpha_pair equals the deletion route on every strongly cospectral
    pair, and its zeros are the support classes; returns the pair count."""
    pairs = sc_pairs(G)
    for i, j in pairs:
        plus, minus = alpha_pair(G, i, j)
        assert (plus, minus) == _alpha_pair_by_deletion(G, i, j)
        part = support_partition(G, i, j)
        assert plus.num.monic() == part.plus
        assert minus.num.monic() == part.minus
    return len(pairs)


def test_alpha_pair_matches_deletion_route():
    graphs = [T for _, T in trees_up_to(9)]
    graphs += [hypercube(3), grid(3, 3)] + seeded_mirror_graphs(11, 12)
    assert sum(_assert_alpha_pair_matches_deletion_route(G) for G in graphs) > 100


weights = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_alpha_pair_matches_deletion_route_on_weighted_mirrors(data):
    k = data.draw(st.integers(1, 4))
    slots = [(u, v) for u in range(k) for v in range(u, k)]  # u == v is a loop
    chosen = data.draw(st.lists(st.sampled_from(slots), unique=True))
    items = [(u, v, data.draw(weights)) for u, v in chosen]
    G = mirror_graph(
        (k, items),
        data.draw(st.integers(0, k - 1)),
        data.draw(weights),
        data.draw(st.integers(0, k - 1)),
    )
    _assert_alpha_pair_matches_deletion_route(G)


def test_alpha_pair_is_the_partition_record():
    graphs = [T for _, T in trees_up_to(8)]
    graphs += [hypercube(3), grid(3, 3)] + seeded_mirror_graphs(47, 12)
    for G in graphs:
        for i in range(G.n):
            for j in range(G.n):
                if i != j and is_strongly_cospectral(G, i, j):
                    assert alpha_pair(G, i, j) == support_partition(G, i, j).alphas
    with pytest.raises(GapError):
        alpha_pair(star(4), 1, 2)


# -- partial fractions ------------------------------------------------------


def test_partial_fraction_p3_plus():
    plus, minus = alpha_pair(path(3), 0, 2)
    pf = partial_fraction(plus)
    assert pf.s0 == 0.0
    assert pf.poles == (0.0,)
    assert pf.residues == (2.0,)
    assert abs(pf(3.0) - (3.0 - 2.0 / 3.0)) < 1e-12


def test_partial_fraction_evaluates_like_ratfunc():
    for _, T in trees_up_to(7):
        for i, j in sc_pairs(T):
            plus, _ = alpha_pair(T, i, j)
            pf = partial_fraction(plus)
            for x in (7.3, -11.1, 19.0):
                assert abs(pf(x) - float(plus.num(x)) / float(plus.den(x))) < 1e-6


def test_partial_fraction_rejects_wrong_degree():
    f = RatFunc.make(Poly([1]), Poly([0, 1]))
    with pytest.raises(GapError):
        partial_fraction(f)


def test_partial_fraction_rejects_poles_off_the_real_line():
    # t^3/(t^2 + 1) = t - t/(t^2 + 1) has no real pole to carry a residue
    f = RatFunc.make(Poly([0, 0, 0, 1]), Poly([1, 0, 1]))
    with pytest.raises(GapError, match="poles off the real line"):
        partial_fraction(f)


def test_merged_alphas_share_pole_grid():
    for _, T in trees_up_to(7):
        for i, j in sc_pairs(T):
            pf_p, pf_m = merged_alphas(T, i, j)
            assert pf_p.poles == pf_m.poles
            assert pf_p.k == pf_m.k
            assert all(mu >= 0 for mu in pf_p.residues)
            assert all(mu >= 0 for mu in pf_m.residues)


def test_merged_alphas_equal_shifts_under_hypotheses():
    # P4 ends satisfy the cut-edge hypotheses, so the shifts agree exactly
    pf_p, pf_m = merged_alphas(path(4), 0, 3)
    assert pf_p.s0_exact == pf_m.s0_exact


# -- arrow matrices ---------------------------------------------------------


def test_arrow_matrix_realizes_partial_fraction():
    """charpoly(arrow) / charpoly(tail) equals t - s0 - sum mu/(t - r)."""
    pf_p, pf_m = merged_alphas(path(4), 0, 3)
    for pf in (pf_p, pf_m):
        M = arrow_matrix(pf).dense()
        for x in (5.0, -6.0, 9.5):
            num = np.linalg.det(x * np.eye(len(M)) - M)
            den = np.prod([x - r for r in pf.poles])
            assert abs(num / den - pf(x)) < 1e-8


def test_arrow_matrix_rejects_negative_residue():
    pf = PartialFraction(Fraction(0), lambda: ((1.0,), (-1.0,), ()))
    with pytest.raises(GapError):
        arrow_matrix(pf)


def test_arrow_difference_has_rank_at_most_two():
    """M+ - M- differs only in the border row/column."""
    for _, T in trees_up_to(8):
        for i, j in sc_pairs(T):
            pf_p, pf_m = merged_alphas(T, i, j)
            D = arrow_matrix(pf_p).dense() - arrow_matrix(pf_m).dense()
            assert np.linalg.matrix_rank(D, tol=1e-9) <= 2
            # operator norm of the difference stays within sqrt(2) when the
            # cut-edge hypotheses hold (they pin the shifts together and cap
            # the residue mass); P2 is the pair without such neighbors
            if certify_gap(T, i, j).hypotheses_ok:
                assert np.linalg.norm(D, 2) <= SQRT2 + 1e-9


def test_weyl_bound_random_symmetric_pairs():
    rng = np.random.default_rng(42)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        A = rng.normal(size=(k, k))
        A = (A + A.T) / 2
        E = rng.normal(size=(k, k))
        E = (E + E.T) / 2
        ev_a = np.linalg.eigvalsh(A)
        ev_b = np.linalg.eigvalsh(A + E)
        assert np.max(np.abs(ev_a - ev_b)) <= np.linalg.norm(E, 2) + 1e-9


def test_arrow_eigenvalues_interlace_tail():
    """Cauchy interlacing: tail entries separate the arrow eigenvalues."""
    for _, T in trees_up_to(7):
        for i, j in sc_pairs(T):
            for pf in merged_alphas(T, i, j):
                ev = sorted(arrow_matrix(pf).eigenvalues_desc())
                tail = sorted(pf.poles)
                for k, r in enumerate(tail):
                    assert ev[k] <= r + 1e-9
                    assert r <= ev[k + 1] + 1e-9


# -- gap certificates -------------------------------------------------------


def test_certify_gap_p3_equality():
    cert = certify_gap(path(3), 0, 2)
    assert cert.hypotheses_ok
    assert cert.equality_detected
    assert cert.achieved_gap == pytest.approx(SQRT2, abs=1e-9)
    assert cert.eigenvalue_distance == pytest.approx(SQRT2, abs=1e-7)
    assert "P3" in cert.conclusion


def test_certify_gap_p4_strict():
    cert = certify_gap(path(4), 0, 3)
    assert cert.hypotheses_ok
    assert not cert.equality_detected
    assert cert.achieved_gap == pytest.approx(1.0, abs=1e-9)
    assert cert.achieved_gap <= SQRT2 + 1e-9
    assert cert.common_index is not None
    assert cert.eigenvalue_distance <= SQRT2 + 1e-9


def test_certify_gap_p2_hypotheses_fail():
    # P2 has no second neighbor on either side: cut-edge hypotheses fail
    cert = certify_gap(path(2), 0, 1)
    assert cert.strongly_cospectral
    assert not cert.cut_edges_ok
    assert not cert.hypotheses_ok


P3_COMPONENT_GRAPHS = [
    # P3 plus two isolated vertices, pair at the ends of the P3
    (Graph.from_edges(5, [(2, 3, 1), (2, 4, 1)]), 3, 4),
    # P3 plus K2
    (Graph.from_edges(5, [(0, 1, 1), (1, 2, 1), (3, 4, 1)]), 0, 2),
    # a signed P3 next to a triangle and a weighted P4
    (Graph.from_edges(10, [(0, 1, 1), (1, 2, -1), (3, 4, 1), (4, 5, 1), (3, 5, 1),
                           (6, 7, 2), (7, 8, 1), (8, 9, 1)]), 0, 2),
]


@pytest.mark.parametrize("G, i, j", P3_COMPONENT_GRAPHS)
def test_certify_gap_equality_on_a_p3_component(G, i, j):
    cert = certify_gap(G, i, j)
    assert cert.hypotheses_ok
    assert cert.equality_detected
    assert "P3" in cert.conclusion


def test_certify_gap_rejects_heavy_cut_edges():
    # P4 with weight 2: the weighted bound is 2 sqrt(2), and the gap is 2
    G = Graph.from_edges(4, [(0, 1, 2), (1, 2, 2), (2, 3, 2)])
    cert = certify_gap(G, 0, 3)
    assert cert.strongly_cospectral and cert.cut_edges_ok
    assert not cert.hypotheses_ok
    assert "|w(i,i') w(j,j')| > 1" in cert.conclusion
    assert cert.achieved_gap == pytest.approx(2.0, abs=1e-9)
    assert general_bound(G, 0, 3) == pytest.approx(2 * SQRT2)


def test_certify_gap_accepts_light_cut_edges():
    # |w(0,1) w(3,2)| = 1/4 <= 1, so the sqrt(2) bound applies
    G = Graph.from_edges(4, [(0, 1, Fraction(1, 2)), (1, 2, 3), (2, 3, Fraction(1, 2))])
    cert = certify_gap(G, 0, 3)
    assert cert.hypotheses_ok
    assert cert.achieved_gap <= SQRT2


def test_certify_gap_equality_only_p3_on_trees():
    for n, T in trees_up_to(9):
        for i, j in sc_pairs(T):
            cert = certify_gap(T, i, j)
            if cert.equality_detected:
                assert n == 3
            if cert.hypotheses_ok:
                assert cert.achieved_gap <= SQRT2 + 1e-9


def test_pigeonhole_index_matches_both_classes():
    from pstlab.spectra import support_partition

    for _, T in trees_up_to(8):
        for i, j in sc_pairs(T):
            cert = certify_gap(T, i, j)
            if not cert.strongly_cospectral:
                continue
            part = support_partition(T, i, j)
            plus_mids = [b.midpoint for b in part.plus_roots]
            minus_mids = [b.midpoint for b in part.minus_roots]
            assert any(abs(cert.theta_plus - z) < 1e-6 for z in plus_mids)
            assert any(abs(cert.theta_minus - z) < 1e-6 for z in minus_mids)


# -- residue mass and weighted bounds ---------------------------------------


def test_residue_mass_p4_equality():
    mass, bound = residue_mass(path(4), 0, 3)
    assert bound == pytest.approx(1.0, abs=1e-12)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_residue_mass_within_bound_on_trees():
    for _, T in trees_up_to(9):
        for i, j in sc_pairs(T):
            try:
                mass, bound = residue_mass(T, i, j)
            except GapError:
                continue  # hypotheses not satisfied for this pair
            assert mass <= bound + 1e-9


def test_residue_mass_explicit_sets():
    mass, bound = residue_mass(path(4), 0, 3, i_side=[1], j_side=[2])
    assert bound == pytest.approx(1.0)
    with pytest.raises(GapError):
        residue_mass(path(2), 0, 0)


def test_residue_mass_detects_only_the_missing_side():
    # a spider with three legs of two edges; 1 and 3 are the middles of two
    # legs, and the detected sides are their neighbors toward the centre 0
    G = Graph.from_edges(7, [(0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 4, 1), (0, 5, 1), (5, 6, 1)])
    assert residue_mass(G, 1, 3)[1] == pytest.approx(1.0)
    assert residue_mass(G, 1, 3, i_side=[0, 2])[1] == pytest.approx(SQRT2)
    assert residue_mass(G, 1, 3, j_side=[0, 4])[1] == pytest.approx(SQRT2)
    assert residue_mass(G, 1, 3, i_side=[0, 2], j_side=[4])[1] == pytest.approx(SQRT2)
    # no bridge on a cycle: the missing side cannot be detected
    C4 = Graph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    with pytest.raises(GapError, match="no separating neighbors"):
        residue_mass(C4, 0, 2, i_side=[1])
    with pytest.raises(GapError, match="no separating neighbors"):
        residue_mass(C4, 0, 2, j_side=[1])


def test_general_bound_reduces_to_sqrt2():
    # unweighted non-adjacent pair with single unit neighbors on both sides:
    # a_ij = 0, u = v = 1, bound = sqrt(2)
    assert general_bound(path(4), 0, 3) == pytest.approx(SQRT2, abs=1e-12)
    assert general_bound(path(3), 0, 2) == pytest.approx(SQRT2, abs=1e-12)


def test_general_bound_adjacent_pair():
    # P2: a_ij = 1 and empty side sets; bound = 1 + sqrt(1 + 0) = 2
    value = general_bound(path(2), 0, 1)
    assert value == pytest.approx(2.0, abs=1e-12)
    assert min_support_gap(path(2), 0) <= value + 1e-9


def test_general_bound_weighted():
    # heavier arms raise the bound: weights 2 on the outer edges of P4
    G = Graph.from_edges(4, [(0, 1, 2), (1, 2, 1), (2, 3, 2)])
    value = general_bound(G, 0, 3)
    assert value == pytest.approx(math.sqrt(2 * math.sqrt(16)), abs=1e-12)
    assert min_support_gap(G, 0) <= value + 1e-9


def test_general_bound_requires_strong_cospectrality():
    with pytest.raises(GapError):
        general_bound(star(4), 1, 2)


# -- bridge checks ----------------------------------------------------------


def test_bridge_gap_check_p2_exempt():
    report = bridge_gap_check(path(2), 0, 1)
    assert report.is_p2
    assert report.gap == pytest.approx(2.0)


@pytest.mark.parametrize(
    "G",
    [
        Graph.from_edges(3, [(0, 1, 1)]),  # P2 and an isolated vertex
        Graph.from_edges(5, [(0, 1, 1), (2, 3, 1), (3, 4, 1)]),  # P2 and P3
    ],
    ids=["P2+K1", "P2+P3"],
)
def test_bridge_gap_check_p2_component_exempt(G):
    # the exemption is the component of the pair, as in certify_gap
    report = bridge_gap_check(G, 0, 1)
    assert report.is_p2
    assert not report.within_unit_bound
    assert report.gap == pytest.approx(2.0)


def test_bridge_gap_check_p2_with_loops_is_not_exempt():
    # equal loops keep 0 and 1 cospectral, but the component is not P2: its
    # support 0, 2 has gap 2
    G = Graph.from_edges(3, [(0, 0, 1), (1, 1, 1), (0, 1, 1)])
    with pytest.raises(GapError, match="bridge pair with support gap"):
        bridge_gap_check(G, 0, 1)


def test_bridge_gap_check_mid_p4():
    report = bridge_gap_check(path(4), 1, 2)
    assert not report.is_p2
    assert report.within_unit_bound
    assert report.gap <= 1 + 1e-9


def test_bridge_gap_check_rejections():
    with pytest.raises(GapError):
        bridge_gap_check(path(4), 0, 3)  # not adjacent
    with pytest.raises(GapError):
        bridge_gap_check(path(3), 0, 1)  # not cospectral
    C = Graph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    with pytest.raises(GapError):
        bridge_gap_check(C, 0, 1)  # cycle edge is not a bridge


def test_certify_gap_evaluates_the_cut_edge_hypotheses_once(monkeypatch):
    # a forest's table reads the cut pair off its paths, once per
    # certificate and with no bridge search; any other graph finds the
    # separating neighbor of each side by one bridge search
    neighbor_calls, bridge_calls, cut_calls = [], [], []
    real_neighbor, real_bridges = graphs.separating_neighbor, graphs.bridges
    real_cut_pair = polys._ForestTables.cut_pair

    def counting_neighbor(G, v, other):
        neighbor_calls.append((v, other))
        return real_neighbor(G, v, other)

    def counting_bridges(G):
        bridge_calls.append(G)
        return real_bridges(G)

    def counting_cut_pair(table, i, j):
        cut_calls.append((i, j))
        return real_cut_pair(table, i, j)

    monkeypatch.setattr(gapcert, "separating_neighbor", counting_neighbor)
    monkeypatch.setattr(graphs, "bridges", counting_bridges)
    monkeypatch.setattr(polys._ForestTables, "cut_pair", counting_cut_pair)

    def certify(G, i, j):
        merged_alphas.cache_clear()
        for calls in (neighbor_calls, bridge_calls, cut_calls):
            calls.clear()
        certify_gap(G, i, j)

    pairs = 0
    for _, T in trees_up_to(8):
        for i, j in sc_pairs(T):
            certify(T, i, j)
            assert cut_calls == [(i, j)]
            assert neighbor_calls == bridge_calls == []
            pairs += 1
    assert pairs > 50
    pairs = 0
    for G in seeded_mirror_graphs(3, 12):
        if isinstance(polys._tables(G), polys._ForestTables):
            continue  # loopless with integer weights: a forest, as above
        for i, j in sc_pairs(G):
            # the second side is searched only when the first one has a neighbor
            once = [(i, j)] if real_neighbor(G, i, j) is None else [(i, j), (j, i)]
            certify(G, i, j)
            assert neighbor_calls == once
            assert len(bridge_calls) == len(once)
            assert cut_calls == []
            pairs += 1
    assert pairs > 10


# -- the exact certificate against the earlier float route ------------------


def _float_route(G, i, j):
    """The float decisions that certify_gap used to make, kept as an oracle:
    float residues clamped to 0 below 1e-12 and rejected below -1e-9, arrow
    eigenvalues from eigvalsh matched to the class roots within 1e-7, and the
    support gap compared with SQRT2 + 1e-9.  Returns (common_index,
    hypotheses_ok, equality_detected, (theta_plus, theta_minus)), or the
    GapError message."""

    def clamp(mu):
        if abs(mu) < 1e-12:
            return 0.0
        if mu < -1e-9:
            raise GapError(f"negative residue {mu}")
        return max(mu, 0.0)

    def shift_and_terms(f):
        if f.num.degree != f.den.degree + 1:
            raise GapError("numerator degree must exceed denominator degree by 1")
        try:
            residues = simple_pole_residues(f)
        except PolyError as exc:
            raise GapError(str(exc)) from exc
        quot, _ = divmod(f.num, f.den)
        if quot.degree != 1 or quot.leading != 1:
            raise GapError("expected a monic linear quotient")
        return -quot.coeffs[0], [(box, -res) for box, res in residues]

    def arrow_eigenvalues(s0, poles, mus):
        M = np.zeros((len(poles) + 1, len(poles) + 1))
        M[0, 0] = float(s0)
        for k, (r, mu) in enumerate(zip(poles, mus), start=1):
            M[k, k] = r
            M[0, k] = M[k, 0] = math.sqrt(max(mu, 0.0))
        return np.linalg.eigvalsh(M)[::-1]

    try:
        sc = is_strongly_cospectral(G, i, j)
        ni = graphs.separating_neighbor(G, i, j)
        nj = None if ni is None else graphs.separating_neighbor(G, j, i)
        hypotheses_ok = sc and nj is not None and abs(G.weight(i, ni) * G.weight(j, nj)) <= 1
        if not sc:
            return None, hypotheses_ok, False, (None, None)
        plus, minus = alpha_pair(G, i, j)
        (s0p, terms_p), (s0m, terms_m) = shift_and_terms(plus), shift_and_terms(minus)
        union = (plus.den * minus.den).exact_div(poly_gcd(plus.den, minus.den)).monic()
        boxes = isolate_real_roots(union) if union.degree else ()

        def on_union(terms):
            return [
                clamp(next((mu for b, mu in terms if b.lo <= box.hi and box.lo <= b.hi), 0.0))
                for box in boxes
            ]

        mus_p, mus_m = on_union(terms_p), on_union(terms_m)
        if nj is not None and s0p != s0m:
            raise GapError("shifts differ despite the cut-edge hypotheses")
        poles = [b.midpoint for b in boxes]
        ev_p = arrow_eigenvalues(s0p, poles, mus_p)
        ev_m = arrow_eigenvalues(s0m, poles, mus_m)
        part = support_partition(G, i, j)
        plus_roots = [b.midpoint for b in isolate_real_roots(part.plus)]
        minus_roots = [b.midpoint for b in isolate_real_roots(part.minus)] if part.minus.degree else []
        common = next(
            (
                m
                for m in range(len(ev_p))
                if any(abs(ev_p[m] - z) < 1e-7 for z in plus_roots)
                and any(abs(ev_m[m] - z) < 1e-7 for z in minus_roots)
            ),
            None,
        )
        if common is None:
            raise GapError("pigeonhole index not found among arrow eigenvalues")
        equality = gapcert._detect_equality_case(plus, minus) is not None
        if equality and not gapcert._component_is_p3(G, i):
            raise GapError("equality case detected on a graph that is not P3")
        if hypotheses_ok and support_poly(G, i).degree >= 2:
            gap = min_support_gap(G, i)
            if gap > SQRT2 + 1e-9:
                raise GapError(f"support gap {gap} exceeds sqrt(2)")
        return common, hypotheses_ok, equality, (float(ev_p[common]), float(ev_m[common]))
    except GapError as exc:
        return str(exc)


def _exact_route(G, i, j):
    try:
        cert = certify_gap(G, i, j)
    except GapError as exc:
        return str(exc)
    thetas = (cert.theta_plus, cert.theta_minus)
    return cert.common_index, cert.hypotheses_ok, cert.equality_detected, thetas


def test_exact_certificate_matches_the_float_route():
    graphs_ = [T for _, T in trees_up_to(10)]
    graphs_ += [hypercube(3), grid(3, 3)] + seeded_mirror_graphs(23, 12)
    pairs = hypotheses = 0
    for G in graphs_:
        for i, j in sc_pairs(G):
            expected = _float_route(G, i, j)
            assert _exact_route(G, i, j) == expected, (G, i, j)
            pairs += 1
            hypotheses += expected[1]
    assert pairs >= 277 and hypotheses >= 200


# -- no float decides ---------------------------------------------------------


def _clear_caches():
    for module in (graphs, polys, spectra, pst, gapcert):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _decisions(mirrors):
    report = scan_trees(9).to_json()
    report.pop("wall_time_seconds")
    verdicts = []
    for G in mirrors:
        for i in range(G.n):
            for j in range(i + 1, G.n):
                verdicts.append(decide_pst(G, i, j).to_json())
                if is_strongly_cospectral(G, i, j):
                    cert = certify_gap(G, i, j)
                    verdicts.append((cert.common_index, cert.hypotheses_ok, cert.conclusion))
    return report, verdicts


def test_no_float_decides(monkeypatch):
    def refuse(*args):
        raise AssertionError("a float took part in a decision")

    mirrors = seeded_mirror_graphs(31, 12)
    _clear_caches()
    with monkeypatch.context() as m:
        m.setattr(RootBox, "midpoint", property(refuse))
        m.setattr(polys, "residue_at", refuse)
        m.setattr(spectra, "residue_at", refuse)
        m.setattr(np.linalg, "eigvalsh", refuse)
        floatless = _decisions(mirrors)
    _clear_caches()
    assert _decisions(mirrors) == floatless
    assert sum(len(entry["pst_pairs"]) for entry in floatless[0]["per_order"]) == 2


# -- the Cauchy-index route against the merge route ---------------------------


def _merge_index(G, i, j):
    """The pigeonhole index as the merge route finds it."""
    pf_plus, pf_minus = merged_alphas(G, i, j)
    both = zip(pf_plus.numerator_eigen, pf_minus.numerator_eigen)
    return next(m for m, (p, q) in enumerate(both) if p and q)


def test_index_route_matches_merge_route_on_graphs():
    graphs_ = [T for _, T in trees_up_to(9)]
    graphs_ += [hypercube(3), grid(3, 3)] + seeded_mirror_graphs(47, 12)
    pairs = 0
    for G in graphs_:
        for i, j in sc_pairs(G):
            assert support_partition(G, i, j).interlaced
            cert = certify_gap(G, i, j)
            assert cert.common_index == _merge_index(G, i, j)
            expected = cert.to_json()
            _clear_caches()
            assert certify_gap(G, i, j).to_json() == expected
            pairs += 1
    assert pairs >= 160


def _from_roots(roots, lead=1):
    p = Poly.constant(lead)
    for r in roots:
        p = p * Poly.linear(r)
    return p


grid_points = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-16, 16), st.just(4)))


@st.composite
def rational_functions(draw):
    """(num, den) with integer or dyadic roots: interlacing roots, or free
    root lists (negative mu, repeated poles, wrong degrees), with an
    optional common factor, a pair of complex roots and a leading
    coefficient other than 1."""
    if draw(st.booleans()):
        points = sorted(set(draw(st.lists(grid_points, min_size=1, max_size=9))))
        points = points[: len(points) - (len(points) % 2 == 0)]
        num_roots, den_roots = points[0::2], points[1::2]
    else:
        num_roots = draw(st.lists(grid_points, max_size=5))
        den_roots = draw(st.lists(grid_points, max_size=4))
    common = draw(st.lists(grid_points, max_size=2))
    num = _from_roots(num_roots + common, draw(st.sampled_from([1, 1, 1, 2, -1])))
    den = _from_roots(den_roots + common)
    complex_pair = Poly([1, 0, 1])
    where = draw(st.sampled_from(["none", "none", "num", "den", "both"]))
    if where in ("num", "both"):
        num = num * complex_pair
    if where in ("den", "both"):
        den = den * complex_pair
    return num, den


@settings(max_examples=400, deadline=None)
@given(rational_functions())
def test_index_verdict_matches_partial_fraction(num_den):
    f, index = RatFunc.reduce(*num_den)
    assert f == RatFunc.make(*num_den)
    try:
        partial_fraction(f)
        accepted = True
    except GapError:
        accepted = False
    assert spectra._interlaces(f, index) == accepted


# -- residue signs by Sturm-Tarski against the merge oracle -------------------


def _both_routes(f, pole_poly):
    """The arrow flags, or the error message, of ``gapcert._residue_signs``
    and of the merge oracle, each on its own root boxes of pole_poly, with
    the poles of f flagged as its own."""
    outcomes = []
    for route in (gapcert._residue_signs, merge_residue_signs):
        poles = RealRoots(pole_poly)
        try:
            outcomes.append(route(f, poles, poles.vanishing(f.den)))
        except GapError as exc:
            outcomes.append(str(exc))
    return outcomes


def _lacking_ties(f, pole_poly):
    poles = RealRoots(pole_poly)
    return sum(s == 0 and not own for s, own in zip(poles.signs(f.num), poles.vanishing(f.den)))


def test_residue_signs_match_the_merge_oracle_on_graphs():
    graphs_ = [T for _, T in trees_up_to(9)]
    graphs_ += [hypercube(3), grid(3, 3)] + seeded_mirror_graphs(47, 12)
    pairs = ties = 0
    for G in graphs_:
        for i, j in sc_pairs(G):
            plus, minus = alpha_pair(G, i, j)
            union = (plus.den * minus.den).exact_div(poly_gcd(plus.den, minus.den)).monic()
            for f in (plus, minus):
                new, merged = _both_routes(f, union)
                assert new == merged, (G, i, j)
                ties += _lacking_ties(f, union)
            pairs += 1
    assert pairs >= 160 and ties >= 10


@settings(max_examples=400, deadline=None)
@given(rational_functions(), st.lists(grid_points, max_size=3))
def test_residue_signs_match_the_merge_oracle_on_rational_functions(num_den, extra):
    """On every f that passes the checks before the residue signs, over its
    poles and extra poles that f lacks, some of them at a root of its
    numerator."""
    f = RatFunc.make(*num_den)
    try:
        gapcert._shift(f, polys.real_roots(f.den))
    except GapError:
        assume(False)
    union = f.den
    for e in set(extra):
        if f.den(e):
            union = union * Poly.linear(e)
    new, merged = _both_routes(f, union)
    assert new == merged


@settings(max_examples=200, deadline=None)
@given(st.lists(grid_points, min_size=1, max_size=7), st.integers(0, 2))
def test_cauchy_index_of_the_log_derivative_counts_real_roots(roots, pairs):
    """Ind(p'/p) is the number of distinct real roots of p, and Ind(-p'/p)
    its negative, whatever the complex roots and the multiplicities."""
    p = _from_roots(roots)
    for complex_pair in [Poly([1, 0, 1]), Poly([2, 2, 1])][:pairs]:
        p = p * complex_pair
    distinct = len(set(roots))
    assert RatFunc.reduce(p, p.derivative())[1] == distinct
    assert RatFunc.reduce(p, -p.derivative())[1] == -distinct
    assert RatFunc.reduce(-p, p.derivative())[1] == -distinct


def _with_plus_alpha(part, alpha):
    """The support partition of a pair with alpha+ replaced by alpha, its
    plus class and support rebuilt to match, and the interlacing flag read
    off the Cauchy indices as the partition reads it."""
    plus = alpha.num.monic()
    support = plus * part.minus
    alphas = (alpha, part.alphas[1])
    interlaced = all(spectra._interlaces(*RatFunc.reduce(f.num, f.den)) for f in alphas)
    return spectra.SupportPartition(support, plus, part.minus, alphas, interlaced)


FAILING_ALPHAS = {
    # t + 4/t: mu = -4
    "negative residue": lambda plus: RatFunc.make(Poly([4, 0, 1]), Poly([0, 1])),
    # t - 1/t^2: a double pole at 0
    "repeated poles": lambda plus: RatFunc.make(Poly([-1, 0, 0, 1]), Poly([0, 0, 1])),
    "numerator degree must exceed denominator degree by 1": lambda plus: RatFunc.make(
        Poly([-1, 0, 1]), Poly.one()
    ),
    "expected a monic linear quotient": lambda plus: RatFunc.make(Poly([-1, 0, 2]), Poly([0, 1])),
    # alpha+ + 1: s0 moves by 1, and the residues stay positive
    "shifts differ despite the cut-edge hypotheses": lambda plus: RatFunc.make(
        plus.num + plus.den, plus.den
    ),
}


class _Record:
    """A pair record that carries a given partition."""

    def __init__(self, partition):
        self.partition, self.support = partition, partition.support


@pytest.mark.parametrize("message", sorted(FAILING_ALPHAS))
def test_a_failing_alpha_raises_the_merge_route_message(monkeypatch, message):
    G = path(4)
    part = support_partition(G, 0, 3)
    bad = _with_plus_alpha(part, FAILING_ALPHAS[message](part.alphas[0]))
    assert not bad.interlaced or message.startswith("shifts")
    # merged_alphas reads the partition, certify_gap the pair's record
    monkeypatch.setattr(gapcert, "support_partition", lambda G, i, j: bad)
    monkeypatch.setattr(gapcert, "_pair_record", lambda G, i, j: _Record(bad))
    merged_alphas.cache_clear()
    with pytest.raises(GapError) as merge:
        merged_alphas(G, 0, 3)
    assert str(merge.value).startswith(message)
    merged_alphas.cache_clear()
    with pytest.raises(GapError) as index:
        certify_gap(G, 0, 3)
    assert str(index.value) == str(merge.value)
    merged_alphas.cache_clear()


def test_a_false_flag_that_the_merge_route_accepts_is_an_internal_error(monkeypatch):
    part = support_partition(path(4), 0, 3)
    lying = spectra.SupportPartition(
        part.support, part.plus, part.minus, part.alphas, False
    )
    monkeypatch.setattr(gapcert, "support_partition", lambda G, i, j: lying)
    monkeypatch.setattr(gapcert, "_pair_record", lambda G, i, j: _Record(lying))
    merged_alphas.cache_clear()
    with pytest.raises(RuntimeError, match="arrow-form checks accept"):
        certify_gap(path(4), 0, 3)
    merged_alphas.cache_clear()


def test_scan_makes_one_strong_check_per_pair_in_the_gap_layer(monkeypatch):
    """Every pstlab module that binds is_strongly_cospectral calls the
    counting wrapper.  scan_trees(11) made 4144 calls before the gap layer
    read alpha+- off the partition; now the scan reads the table's strong
    verdict once per cospectral pair and passes it to the cores of
    decide_pst and certify_gap, so it makes none."""
    real, real_strong = spectra.is_strongly_cospectral, polys._Table.strong
    calls, verdicts = [], []

    def counting(G, i, j):
        calls.append((i, j))
        return real(G, i, j)

    def counting_strong(table, i, j):
        verdicts.append((i, j))
        return real_strong(table, i, j)

    for name, module in list(sys.modules.items()):
        binds = getattr(module, "is_strongly_cospectral", None) is real
        if name.split(".")[0] == "pstlab" and binds:
            monkeypatch.setattr(module, "is_strongly_cospectral", counting)
    monkeypatch.setattr(polys._Table, "strong", counting_strong)
    _clear_caches()
    certify_gap(path(3), 0, 2)
    assert calls == [(0, 2)]  # the public function still checks
    calls.clear()
    _clear_caches()
    verdicts.clear()
    report = scan_trees(11)
    assert calls == []
    assert len(verdicts) == sum(entry["cospectral_pairs"] for entry in report.per_order)
