import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle, grid, seeded_mirror_graphs, trees_up_to
from pstlab.graphs import Graph, GraphError, hypercube, laplacian_form, path, star
from pstlab.polys import (
    Poly,
    RootBox,
    isolate_real_roots,
    rational_roots_monic_integer,
    squarefree_part_int,
)
from pstlab.pst import (
    NOT_STRONGLY_COSPECTRAL,
    PARITY_CONDITION_C,
    RATIO_CONDITION_B,
    PstError,
    QuadraticSpectrum,
    decide_pst,
    fit_quadratic_spectrum,
    pst_pairs,
)
from pstlab.spectra import is_strongly_cospectral, support_partition, support_poly
from pstlab.walk import fidelity


def lin(*roots):
    p = Poly.one()
    for r in roots:
        p = p * Poly.linear(r)
    return p


# -- quadratic-field spectrum fitting ---------------------------------------


def test_fit_integer_spectrum():
    qs = fit_quadratic_spectrum(lin(-1, 1))
    assert qs == QuadraticSpectrum(a=0, delta=1, b=(2, -2))
    assert qs.theta(0) == 1.0


def test_fit_quadratic_spectrum_p3():
    # {-sqrt2, 0, sqrt2} = (0 + b sqrt(2))/2 with b in {2, 0, -2}
    qs = fit_quadratic_spectrum(Poly([0, -2, 0, 1]))
    assert qs == QuadraticSpectrum(a=0, delta=2, b=(2, 0, -2))


def test_fit_rejects_golden_ratio_support():
    # P4 ends: roots (+-1 +- sqrt(5))/2 -- two distinct rational parts,
    # so no common 'a' exists and the fit must fail
    assert fit_quadratic_spectrum(support_poly(path(4), 0)) is None


def test_fit_rejects_non_integer_polys():
    assert fit_quadratic_spectrum(Poly([Fraction(1, 2), 1])) is None
    assert fit_quadratic_spectrum(Poly([1, 1, 1, 1])) is None  # complex roots


def test_fit_odd_parity_case():
    # roots (1 +- sqrt(5))/2: a=1, delta=5, b=+-1 (odd parity throughout)
    p = Poly([-1, -1, 1])
    qs = fit_quadratic_spectrum(p)
    assert qs == QuadraticSpectrum(a=1, delta=5, b=(1, -1))


def test_fit_requires_nonconstant():
    with pytest.raises(PstError):
        fit_quadratic_spectrum(Poly.one())


# -- decisions --------------------------------------------------------------


def test_p2_pst():
    cert = decide_pst(path(2), 0, 1)
    assert cert.result == "PST"
    assert cert.t_min == pytest.approx(math.pi / 2, abs=1e-12)
    assert cert.spectrum == QuadraticSpectrum(0, 1, (2, -2))
    assert cert.g == 2
    assert cert.sigmas == (1, -1)
    assert abs(abs(cert.phase) - 1.0) < 1e-9


def test_p3_pst_between_ends():
    cert = decide_pst(path(3), 0, 2)
    assert cert.result == "PST"
    assert cert.t_min == pytest.approx(math.pi / math.sqrt(2), abs=1e-12)
    assert cert.spectrum.delta == 2
    assert cert.g == 1
    assert cert.k == (0, 1, 2)


def test_p3_no_pst_end_to_center():
    cert = decide_pst(path(3), 0, 1)
    assert cert.result == "NO_PST"
    assert cert.failing_condition == NOT_STRONGLY_COSPECTRAL


def test_p4_fails_ratio_condition():
    cert = decide_pst(path(4), 0, 3)
    assert cert.result == "NO_PST"
    assert cert.failing_condition == RATIO_CONDITION_B


def test_hypercube_antipodal_pst():
    Q = hypercube(3)
    cert = decide_pst(Q, 0, 7)
    assert cert.result == "PST"
    assert cert.t_min == pytest.approx(math.pi / 2, abs=1e-12)
    assert fidelity(Q, 0, 7, cert.t_min) > 1 - 1e-9


def test_weighted_path_pst():
    # P3 with both edges scaled by 2 transfers at pi/(2*sqrt(2))
    G = Graph.from_edges(3, [(0, 1, 2), (1, 2, 2)])
    cert = decide_pst(G, 0, 2)
    assert cert.result == "PST"
    assert cert.t_min == pytest.approx(math.pi / (2 * math.sqrt(2)), abs=1e-12)


def test_non_algebraic_integer_support_fails_condition_b():
    # Half-integer weights push the support eigenvalues (+-3/sqrt(2)) outside
    # the ring of algebraic integers; the characterization is scoped to
    # integer quadratic spectra, so the exact fit must report a (b) failure.
    G = Graph.from_edges(3, [(0, 1, "3/2"), (1, 2, "3/2")])
    cert = decide_pst(G, 0, 2)
    assert cert.result == "NO_PST"
    assert cert.failing_condition == RATIO_CONDITION_B


def test_same_vertex_rejected():
    with pytest.raises(PstError):
        decide_pst(path(3), 1, 1)


def test_pst_pairs_collects_all():
    assert [(i, j) for i, j, _ in pst_pairs(path(3))] == [(0, 2)]
    assert [(i, j) for i, j, _ in pst_pairs(path(2))] == [(0, 1)]
    assert pst_pairs(path(4)) == []
    # Q3 pairs antipodal vertices: 4 pairs
    q_pairs = [(i, j) for i, j, _ in pst_pairs(hypercube(3))]
    assert q_pairs == [(0, 7), (1, 6), (2, 5), (3, 4)]


def _exhaustive_pst_pairs(G, model):
    """Test-local oracle: decide_pst on every pair."""
    return [
        (i, j, cert)
        for i in range(G.n)
        for j in range(i + 1, G.n)
        for cert in [decide_pst(G, i, j, model)]
        if cert.result == "PST"
    ]


@pytest.mark.parametrize(
    "G",
    [path(2), path(3), path(4), star(4), hypercube(3), grid(3, 3), cycle(4), cycle(6),
     Graph.from_edges(4, [(0, 1, 2), (1, 2, 2), (2, 3, 1), (0, 0, 1)])]
    + seeded_mirror_graphs(43, 4),
)
def test_pst_pairs_matches_every_pair(G):
    models = ["adjacency"]
    if G.is_integer_weighted() and not G.has_loops():
        models.append("laplacian")
    for model in models:
        assert pst_pairs(G, model) == _exhaustive_pst_pairs(G, model)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_pst_pairs_rejects_a_bad_model_up_front(n):
    with pytest.raises(PstError):
        pst_pairs(path(n) if n else Graph.from_edges(0, []), "hamiltonian")
    rational = Graph.from_edges(max(n, 1), [(0, 0, Fraction(1, 2))])
    with pytest.raises(GraphError):
        pst_pairs(rational, "laplacian")


def test_no_pst_on_small_trees_beyond_p3():
    for n, T in trees_up_to(7, min_n=4):
        assert pst_pairs(T) == [], f"unexpected PST on a tree with n={n}"


# -- Laplacian model --------------------------------------------------------


def test_laplacian_p2_pst():
    cert = decide_pst(path(2), 0, 1, model="laplacian")
    assert cert.result == "PST"
    assert cert.model == "laplacian"
    # Laplacian spectrum of P2 is {0, 2}: transfer at pi/2
    assert cert.t_min == pytest.approx(math.pi / 2, abs=1e-12)


def test_laplacian_p3_no_pst():
    cert = decide_pst(path(3), 0, 2, model="laplacian")
    assert cert.result == "NO_PST"


def test_laplacian_requires_integer_weights():
    from pstlab.graphs import GraphError

    G = Graph.from_edges(2, [(0, 1, Fraction(1, 2))])
    with pytest.raises(GraphError):
        decide_pst(G, 0, 1, model="laplacian")


def test_unknown_model_rejected():
    with pytest.raises(PstError):
        decide_pst(path(2), 0, 1, model="seidel")


# -- oracle agreement -------------------------------------------------------


def test_every_positive_verdict_hits_fidelity_one():
    cases = [
        (path(2), 0, 1),
        (path(3), 0, 2),
        (hypercube(2), 0, 3),
        (hypercube(3), 0, 7),
        (Graph.from_edges(3, [(0, 1, 3), (1, 2, 3)]), 0, 2),
    ]
    for G, i, j in cases:
        cert = decide_pst(G, i, j)
        assert cert.result == "PST"
        assert fidelity(G, i, j, cert.t_min) > 1 - 1e-9
        # minimality: no earlier time on a fine grid reaches fidelity 1
        import numpy as np

        from pstlab.walk import amplitudes_on_grid

        times = np.linspace(1e-3, cert.t_min * 0.999, 2000)
        vals = np.abs(amplitudes_on_grid(G, i, j, times))
        assert vals.max() < 1 - 1e-6


# -- the gcd parity test against the divisor loop it replaced -----------------


def _divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


def _divisor_loop_verdict(G, i, j, model):
    """decide_pst's parity step as a loop over every divisor g of the gcd,
    largest first: (result, failing condition, g, k)."""
    H = G if model == "adjacency" else laplacian_form(G)
    if not is_strongly_cospectral(H, i, j):
        return "NO_PST", NOT_STRONGLY_COSPECTRAL, None, ()
    spectrum = fit_quadratic_spectrum(support_poly(H, i))
    if spectrum is None:
        return "NO_PST", RATIO_CONDITION_B, None, ()
    partition = support_partition(H, i, j)
    sigmas = [partition.sigma(box) for box in reversed(partition.support_roots)]
    deltas = [(spectrum.b[0] - br) // 2 for br in spectrum.b]
    for g in reversed(_divisors(math.gcd(*deltas))):
        ks = tuple(d // g for d in deltas)
        if all((k % 2 == 0) == (s == +1) for k, s in zip(ks, sigmas)):
            return "PST", None, g, ks
    return "NO_PST", PARITY_CONDITION_C, None, ()


def _assert_parity_matches_divisor_loop(G, models=("adjacency", "laplacian")):
    """decide_pst agrees with the divisor loop on every pair; returns the
    number of PST verdicts."""
    found = 0
    for model in models:
        for i in range(G.n):
            for j in range(i + 1, G.n):
                cert = decide_pst(G, i, j, model)
                got = cert.result, cert.failing_condition, cert.g, cert.k
                assert got == _divisor_loop_verdict(G, i, j, model)
                found += cert.result == "PST"
    return found


def test_parity_matches_divisor_loop_on_trees():
    # PST: P2 (both models) and P3 (adjacency)
    assert sum(_assert_parity_matches_divisor_loop(T) for _, T in trees_up_to(9)) == 3


@pytest.mark.parametrize(
    "G", [hypercube(d) for d in range(1, 6)] + [grid(3, 3)], ids=lambda G: f"n{G.n}"
)
def test_parity_matches_divisor_loop_on_pst_families(G):
    assert _assert_parity_matches_divisor_loop(G) > 0


def test_parity_matches_divisor_loop_on_weighted_p3():
    for w in range(1, 13):
        G = Graph.from_edges(3, [(0, 1, w), (1, 2, w)])
        assert _assert_parity_matches_divisor_loop(G) == 1


# -- the exact fit against the float-proposed fit it replaced ----------------


def _expand_quadratic_product(a, delta, bs):
    """Exactly expand prod_r (t - (a + b_r sqrt(delta))/2) over Q(sqrt(delta));
    None if an irrational part survives."""
    coeffs = [(Fraction(1), Fraction(0))]
    for b in bs:
        rx, ry = Fraction(a, 2), Fraction(b, 2)
        new = [(Fraction(0), Fraction(0))] * (len(coeffs) + 1)
        for k, (x, y) in enumerate(coeffs):
            nx, ny = new[k + 1]
            new[k + 1] = (nx + x, ny + y)
            px = rx * x + delta * ry * y
            py = rx * y + ry * x
            nx, ny = new[k]
            new[k] = (nx - px, ny - py)
        coeffs = new
    if any(y != 0 for _, y in coeffs):
        return None
    return Poly(tuple(x for x, _ in coeffs))


def _float_proposed_fit(support):
    """The earlier fit: floats guess delta and each b_r from box midpoints,
    and an expansion over Q(sqrt(delta)) checks the guess.  Sound for small
    roots, where the midpoints carry enough precision."""
    if support.degree < 1:
        raise PstError("support polynomial must be nonconstant")
    if support.leading != 1 or any(c.denominator != 1 for c in support.coeffs):
        return None
    int_roots = [
        z for z in rational_roots_monic_integer(support)
        if support(Fraction(z)) == 0
    ]
    q = support
    for z in int_roots:
        q = q.exact_div(Poly.linear(z))
    if q.degree == 0:
        return QuadraticSpectrum(0, 1, tuple(2 * z for z in sorted(int_roots, reverse=True)))
    if q.degree % 2:
        return None
    a2 = Fraction(2) * -q.coeffs[q.degree - 1] / q.degree
    if a2.denominator != 1:
        return None
    a = int(a2)
    if len(int_roots) > 1:
        return None
    if int_roots and 2 * int_roots[0] != a:
        return None
    boxes = isolate_real_roots(q)
    first = 2 * boxes[-1].midpoint - a
    d2 = round(first * first)
    if d2 <= 0:
        return None
    delta = squarefree_part_int(d2)
    sqd = math.sqrt(delta)
    bs = []
    for box in boxes:
        b = round((2 * box.midpoint - a) / sqd)
        if b == 0:
            return None
        bs.append(b)
    bs += [0] * len(int_roots)
    if len({abs(b) % 2 for b in bs} | {abs(a) % 2}) > 1:
        return None
    rebuilt = _expand_quadratic_product(a, delta, bs)
    if rebuilt is None or rebuilt != support:
        return None
    return QuadraticSpectrum(a, delta, tuple(sorted(bs, reverse=True)))


def _assert_fits_agree(G):
    fits = 0
    for v in range(G.n):
        support = support_poly(G, v)
        got = fit_quadratic_spectrum(support)
        assert got == _float_proposed_fit(support), (G, v)
        fits += got is not None
    return fits


def test_fit_matches_float_proposed_fit_on_trees():
    fits = 0
    for _, T in trees_up_to(10):
        fits += _assert_fits_agree(T)
        fits += _assert_fits_agree(laplacian_form(T))
    assert fits > 0


@pytest.mark.parametrize(
    "G", [hypercube(d) for d in range(1, 6)] + [grid(3, 3)], ids=lambda G: f"n{G.n}"
)
def test_fit_matches_float_proposed_fit_on_pst_families(G):
    assert _assert_fits_agree(G) == G.n
    _assert_fits_agree(laplacian_form(G))


@settings(max_examples=200, deadline=None)
@given(
    a=st.integers(-8, 8),
    delta=st.sampled_from([2, 3, 5, 6, 7, 10, 13]),
    bs=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    middle=st.booleans(),
    extra=st.lists(st.integers(-6, 6), max_size=2),
)
def test_fit_matches_float_proposed_fit_on_quadratic_products(a, delta, bs, middle, extra):
    # prod_r (t^2 - a t + (a^2 - b_r^2 delta)/4), the roots (a +- b_r sqrt(delta))/2
    p = Poly.one()
    for b in bs:
        p = p * Poly((Fraction(a * a - b * b * delta, 4), -a, 1))
    if middle:
        p = p * Poly.linear(Fraction(a, 2))
    for z in extra:
        p = p * Poly.linear(z)
    got = fit_quadratic_spectrum(p)
    assert got == _float_proposed_fit(p)
    integral = all(c.denominator == 1 for c in p.coeffs)
    same_parity = all(b % 2 == a % 2 for b in bs) and not (middle and a % 2)
    if integral and same_parity and len(set(bs)) == len(bs) and not extra:
        b_all = bs + [-b for b in bs] + [0] * middle
        assert got == QuadraticSpectrum(a, delta, tuple(sorted(b_all, reverse=True)))


def test_fit_large_lucas_quadratic():
    # t^2 - L40 t + 1 has roots (L40 +- F40 sqrt(5))/2; float midpoints of
    # (2 theta - a)^2 ~ 5e16 no longer round to the right integer
    lucas_40, fib_40 = 228826127, 102334155
    qs = fit_quadratic_spectrum(Poly((1, -lucas_40, 1)))
    assert qs == QuadraticSpectrum(lucas_40, 5, (fib_40, -fib_40))


def test_fit_pins_large_roots_past_box_precision():
    # L56 ~ 2^38: the interval of (2 theta - a)^2 over a 2^-40 box is wider
    # than 1, so the fit bisects the box further until it pins one integer
    lucas, fib = [2, 1], [0, 1]
    while len(lucas) <= 56:
        lucas.append(lucas[-1] + lucas[-2])
        fib.append(fib[-1] + fib[-2])
    qs = fit_quadratic_spectrum(Poly((1, -lucas[56], 1)))
    assert qs == QuadraticSpectrum(lucas[56], 5, (fib[56], -fib[56]))


def test_fit_huge_constant_term():
    # trial division of the constant term would stall here; the root boxes
    # give no integer root at once and pin (2 theta)^2 = 5 * 2^82
    assert fit_quadratic_spectrum(Poly((-5 * 2**80, 0, 1))) == QuadraticSpectrum(
        0, 5, (2**41, -(2**41))
    )


def test_fit_uses_no_float(monkeypatch):
    def no_midpoint(box):
        raise AssertionError("float midpoint read during the fit")

    monkeypatch.setattr(RootBox, "midpoint", property(no_midpoint))
    assert fit_quadratic_spectrum(Poly([-1, -1, 1])) == QuadraticSpectrum(1, 5, (1, -1))
    assert fit_quadratic_spectrum(support_poly(grid(3, 3), 0)).delta == 2
    assert fit_quadratic_spectrum(support_poly(path(4), 0)) is None
