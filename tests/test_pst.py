import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pstlab.pst as pst_module
from conftest import cycle, grid, seeded_mirror_graphs, trees_up_to
from pstlab.graphs import Graph, GraphError, hypercube, laplacian_form, path, star
from pstlab.polys import (
    Poly,
    RootBox,
    gcd_mod,
    isolate_real_roots,
    pow_x_mod,
    real_roots,
    squarefree_part_int,
)
from pstlab.pst import (
    NOT_STRONGLY_COSPECTRAL,
    PARITY_CONDITION_C,
    RATIO_CONDITION_B,
    WITNESS_PRIMES,
    PstError,
    QuadraticSpectrum,
    _centred_squares,
    decide_pst,
    fit_quadratic_spectrum,
    pst_pairs,
    ratio_witness,
)
from pstlab.spectra import (
    cospectral_pairs,
    is_strongly_cospectral,
    support_partition,
    support_poly,
)
from test_trees import prufer_to_edges
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


def test_fit_integer_spectrum_whose_roots_do_not_pair_up():
    # twice the mean of 0, 1 and 3 is 8/3, no integer a: the roots do not
    # pair up around a/2, and only the integer route fits them
    support = lin(0, 1, 3)
    assert _centred_squares(support) is None
    assert fit_quadratic_spectrum(support) == QuadraticSpectrum(0, 1, (6, 2, 0))


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
    sigmas = partition.signs[::-1]
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
        z for z in real_roots(support).integers()
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
    assert ratio_witness(p) is None or got is None
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


# -- the modular ratio witness against the exact fit ------------------------


def _reduce(q, p):
    """An integral Poly with its coefficients reduced into [0, p)."""
    assert all(c.denominator == 1 for c in q.coeffs)
    return Poly([c.numerator % p for c in q.coeffs])


def _even_part(support):
    """f(u) = 4^m R(u/4) for S(t) = t^e R(t^2), as a Poly."""
    cs, d = support.coeffs, support.degree
    assert not any(cs[(d + 1) % 2::2])
    r = cs[d % 2::2]
    return Poly([c * 4 ** (len(r) - 1 - k) for k, c in enumerate(r)])


def _square_free_mod(f, p):
    """Euclid over F_p with Poly division by monic divisors."""
    a, b = _reduce(f, p), _reduce(f.derivative(), p)
    while not b.is_zero():
        b = _reduce(b.scale(pow(b.leading.numerator, -1, p)), p)
        a, b = b, _reduce(a % b, p)
    return a.degree == 0


def _x_power_mod(f, q, p):
    """u^q mod (f, p) by q multiplications by u over Q, reduced mod p."""
    power = Poly.one()
    for _ in range(q):
        power = _reduce(power * Poly.x() % f, p)
    return power


def _replay_witness(support, p):
    """Test-local replay of a fired witness, not through the F_p helpers."""
    f = _even_part(support)
    assert f.leading == 1 and f.degree >= 2
    assert _square_free_mod(f, p)
    assert _x_power_mod(f, p, p) != Poly.x()


def _fit_only(G, i, j, monkeypatch):
    """decide_pst with the witness switched off: the exact fit alone."""
    with monkeypatch.context() as patch:
        patch.setattr(pst_module, "ratio_witness", lambda support: None)
        return decide_pst(G, i, j)


def _assert_witness_agrees_with_fit(G, monkeypatch):
    """On every strong pair: a witness replays, implies no fit, and
    decide_pst matches the fit-only path.  Returns the pairs the fit
    accepts and the number of witnesses."""
    accepted, fired = [], 0
    for i, j in cospectral_pairs(G):
        if not is_strongly_cospectral(G, i, j):
            continue
        support = support_poly(G, i)
        prime = ratio_witness(support)
        fit = fit_quadratic_spectrum(support)
        if prime is not None:
            fired += 1
            assert fit is None, (G, i, j, prime)
            _replay_witness(support, prime)
        if fit is not None:
            accepted.append((i, j))
        cert = decide_pst(G, i, j)
        assert cert.witness_prime == prime
        oracle = _fit_only(G, i, j, monkeypatch)
        assert (cert.result, cert.failing_condition) == (oracle.result, oracle.failing_condition)
        assert cert.to_json() == oracle.to_json()
    return accepted, fired


DOUBLE_STAR = Graph.from_edges(6, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (3, 4, 1), (3, 5, 1)])


def test_witness_agrees_with_fit_on_trees(monkeypatch):
    accepted, fired = {}, 0
    for n, T in trees_up_to(10):
        pairs, k = _assert_witness_agrees_with_fit(T, monkeypatch)
        fired += k
        if pairs:
            accepted[n] = (T, pairs)
    # past P2 and P3 (the end pair of each), only the double star has pairs
    # whose fit succeeds
    assert {n: pairs for n, (_, pairs) in accepted.items()} == {
        2: [(0, 1)], 3: [(1, 2)], 6: [(0, 3), (1, 2), (4, 5)]
    }
    assert accepted[6][0] == DOUBLE_STAR
    assert fired > 100


def test_witness_agrees_with_fit_on_seeded_prufer_trees(monkeypatch):
    rng = random.Random(11)
    fired = 0
    for n in range(17, 41):
        seq = [rng.randrange(n) for _ in range(n - 2)]
        T = Graph.from_edges(n, [(u, v, 1) for u, v in prufer_to_edges(seq, n)])
        accepted, k = _assert_witness_agrees_with_fit(T, monkeypatch)
        assert accepted == []
        fired += k
    assert fired > 0


def test_witness_fires_at_17_past_the_primes_to_13():
    # the third tree of order 100 when three Pruefer trees per order
    # 30, 40, ..., 100 are drawn from one random.Random(1): the pair (39, 89)
    # has a degree-78 support whose f is not square-free mod 3, 5, 7, 11 or 13
    rng = random.Random(1)
    for n in range(30, 101, 10):
        for _ in range(3):
            seq = [rng.randrange(n) for _ in range(n - 2)]
    T = Graph.from_edges(100, [(u, v, 1) for u, v in prufer_to_edges(seq, 100)])
    support = support_poly(T, 39)
    assert support.degree == 78
    f = _even_part(support)
    assert not any(_square_free_mod(f, p) for p in (3, 5, 7, 11, 13))
    assert ratio_witness(support) == 17
    _replay_witness(support, 17)
    cert = decide_pst(T, 39, 89)
    assert (cert.failing_condition, cert.witness_prime) == (RATIO_CONDITION_B, 17)


def test_witness_skips_a_prime_where_f_is_not_square_free():
    # S = (t^2 - 1)(t^2 - 4) for the pair (0, 3): f = u^2 - 20u + 64 =
    # (u - 4)(u - 16) = (u - 1)^2 mod 3, and u^3 = 1 != u mod (f, 3), so a
    # test that did not skip p = 3 would reject a pair whose fit succeeds
    f = [64, -20, 1]
    assert gcd_mod(f, [-20, 2], 3) == [2, 1]
    assert pow_x_mod(3, f, 3) == [1]
    assert _even_part(support_poly(DOUBLE_STAR, 0)) == Poly(f)
    for i, j in [(0, 3), (1, 2), (4, 5)]:
        assert ratio_witness(support_poly(DOUBLE_STAR, i)) is None
        cert = decide_pst(DOUBLE_STAR, i, j)
        assert (cert.result, cert.failing_condition) == ("NO_PST", PARITY_CONDITION_C)
        assert cert.witness_prime is None


def test_witness_rejects_p4_at_three():
    # S = t^4 - 3t^2 + 1 (the golden ratio): f = u^2 - 12u + 16 = u^2 + 1 mod
    # 3, irreducible, so u^3 = -u
    support = support_poly(path(4), 0)
    assert ratio_witness(support) == 3
    _replay_witness(support, 3)
    cert = decide_pst(path(4), 0, 3)
    assert (cert.failing_condition, cert.witness_prime) == (RATIO_CONDITION_B, 3)
    assert "witness_prime" not in cert.to_json()
    # with a unit loop on every vertex the roots pair up around a/2 = 1
    assert ratio_witness(support_poly(_with_loops(path(4), 1), 0)) == 3


def _with_loops(G, c):
    """G + cI: a loop of weight c on every vertex."""
    return Graph.from_edges(G.n, list(G.edges) + [(v, v, c) for v in range(G.n)])


@pytest.mark.parametrize("c", [1, -2])
def test_adding_c_identity_changes_no_verdict_or_witness(c):
    # A + cI has the eigenvalues theta + c with the same projectors, so the
    # numbers (2 theta - a)^2 and the polynomial H the witness reads stay
    # the same; the phase gains e^{ict} and is not compared
    pairs = witnessed = 0
    for _, T in trees_up_to(9):
        shifted = _with_loops(T, c)
        for i, j in cospectral_pairs(T):
            if not is_strongly_cospectral(T, i, j):
                continue
            plain, loop = decide_pst(T, i, j), decide_pst(shifted, i, j)
            assert (loop.result, loop.failing_condition, loop.t_min) == (
                plain.result, plain.failing_condition, plain.t_min
            ), (T, i, j)
            prime = ratio_witness(support_poly(T, i))
            assert ratio_witness(support_poly(shifted, i)) == prime, (T, i, j)
            pairs += 1
            witnessed += prime is not None
    assert (pairs, witnessed) == (104, 89)


def test_witness_ignores_supports_without_parity():
    assert ratio_witness(Poly([-1, -1, 1])) is None  # golden ratio, a = 1
    assert ratio_witness(Poly([Fraction(-1, 4), 0, 1])) is None  # not integral
    assert ratio_witness(Poly([-5, 0, 2])) is None  # not monic
    assert ratio_witness(Poly([0, 1])) is None
    assert ratio_witness(Poly([1])) is None
    for d in (3, 4, 5):  # Laplacian of Q_d: integer spectrum 0, 2, ..., 2d
        support = support_poly(laplacian_form(hypercube(d)), 0)
        assert fit_quadratic_spectrum(support) is not None
        assert ratio_witness(support) is None


@pytest.mark.parametrize(
    "G", [hypercube(d) for d in range(1, 6)] + [grid(3, 3)], ids=lambda G: f"n{G.n}"
)
def test_witness_never_fires_on_pst_families(G):
    for v in range(G.n):
        support = support_poly(G, v)
        assert fit_quadratic_spectrum(support) is not None
        assert ratio_witness(support) is None


@settings(max_examples=150, deadline=None)
@given(w1=st.integers(1, 2**31 - 1), w2=st.integers(1, 2**31 - 1))
def test_witness_never_fires_on_weighted_p3(w1, w2):
    G = Graph.from_edges(3, [(0, 1, w1), (1, 2, w2)])
    for v in range(3):
        support = support_poly(G, v)
        assert ratio_witness(support) is None
    cert = decide_pst(G, 0, 2)
    assert cert.witness_prime is None


@settings(max_examples=300, deadline=None)
@given(
    bs=st.sets(st.integers(1, 20), min_size=1, max_size=6),
    delta=st.sampled_from([1, 2, 3, 5, 6, 7]),
    odd=st.booleans(),
    extra=st.sets(st.integers(1, 400), max_size=2),
)
def test_witness_never_fires_on_products_of_square_factors(bs, delta, odd, extra):
    # t^e prod (t^2 - c): every root of f is 4c, an integer, so no prime can
    # witness.  With c = b^2 delta alone the fit accepts.
    cs = {b * b * delta for b in bs}
    support = Poly([0, 1]) if odd else Poly.one()
    for c in cs | extra:
        support = support * Poly([-c, 0, 1])
    assert ratio_witness(support) is None
    if extra <= cs:
        assert fit_quadratic_spectrum(support) is not None


@settings(max_examples=200, deadline=None)
@given(
    f=st.lists(st.integers(-50, 50), min_size=1, max_size=7),
    b=st.lists(st.integers(-50, 50), max_size=8),
    p=st.sampled_from(WITNESS_PRIMES),
    q=st.integers(0, 40),
)
def test_fp_helpers_match_poly_arithmetic_mod_p(f, b, p, q):
    f = f + [1]
    assert Poly(pow_x_mod(q, f, p)) == _x_power_mod(Poly(f), q, p)
    g = Poly(gcd_mod(f, b, p))
    assert g.leading == 1
    for a in (Poly(f), Poly(b)):
        assert _reduce(a % g, p).is_zero()  # g divides both mod p
    derivative = [k * c for k, c in enumerate(f) if k]
    assert (len(gcd_mod(f, derivative, p)) == 1) == _square_free_mod(Poly(f), p)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_pst_pairs_prepares_the_laplacian_once(d, monkeypatch):
    G = hypercube(d)
    H = laplacian_form(G)
    per_pair = [
        (i, j, cert)
        for i, j in cospectral_pairs(H)
        for cert in [decide_pst(G, i, j, "laplacian")]
        if cert.result == "PST"
    ]
    calls = []
    monkeypatch.setattr(pst_module, "laplacian_form", lambda G: calls.append(G) or laplacian_form(G))
    assert pst_pairs(G, "laplacian") == per_pair
    assert len(calls) == 1
    assert [(i, j) for i, j, _ in per_pair] == [(i, (1 << d) - 1 - i) for i in range(1 << (d - 1))]
