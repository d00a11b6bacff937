"""Polynomial-time perfect-state-transfer decider with verifiable
certificates.

The decision runs entirely in exact arithmetic: the quadratic-field shape of
the support spectrum is read off rational root boxes and accepted only after
exact polynomial reconstruction.  On an even or odd support a modular
witness (``ratio_witness``) rejects most ratio-condition failures before any
root is isolated.  Both read only the support, so they are memoized on it and
pairs with equal supports share them.  No float takes part until the numeric
walk oracle, which cross-checks each positive verdict, pair by pair, before it
is returned.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import walk
from .graphs import Graph, GraphError, laplacian_form
from .polys import Poly, gcd_mod, pow_x_mod, real_roots, squarefree_part_int
from .spectra import cospectral_pairs, is_strongly_cospectral, support_partition, support_poly

NOT_STRONGLY_COSPECTRAL = "not_strongly_cospectral"
RATIO_CONDITION_B = "ratio_condition_b"
PARITY_CONDITION_C = "parity_condition_c"

#: the primes ``ratio_witness`` tries, in order
WITNESS_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


class PstError(ValueError):
    pass


@dataclass(frozen=True)
class QuadraticSpectrum:
    """Support eigenvalues written as (a + b_r sqrt(delta)) / 2, largest
    first."""

    a: int
    delta: int
    b: tuple[int, ...]

    def theta(self, r: int) -> float:
        return (self.a + self.b[r] * math.sqrt(self.delta)) / 2

    def to_json(self) -> dict:
        return {"a": self.a, "delta": self.delta, "b": list(self.b)}


@dataclass(frozen=True)
class PstCertificate:
    pair: tuple[int, int]
    model: str
    result: str  # "PST" | "NO_PST"
    failing_condition: Optional[str] = None
    spectrum: Optional[QuadraticSpectrum] = None
    sigmas: tuple[int, ...] = ()
    g: Optional[int] = None
    k: tuple[int, ...] = ()
    t_min: Optional[float] = None
    phase: Optional[complex] = None
    witness_prime: Optional[int] = None  # from ratio_witness; not in to_json

    def to_json(self) -> dict:
        out = {
            "pair": list(self.pair),
            "model": self.model,
            "result": self.result,
        }
        if self.result == "NO_PST":
            out["failing_condition"] = self.failing_condition
            return out
        out["spectrum"] = self.spectrum.to_json()
        out["sigmas"] = list(self.sigmas)
        out["g"] = self.g
        out["k"] = list(self.k)
        out["t_min"] = self.t_min
        out["t_min_symbolic"] = f"pi/({self.g}*sqrt({self.delta}))"
        out["phase"] = [self.phase.real, self.phase.imag]
        return out

    @property
    def delta(self) -> Optional[int]:
        return self.spectrum.delta if self.spectrum else None


@lru_cache(maxsize=100_000)
def fit_quadratic_spectrum(support: Poly) -> Optional[QuadraticSpectrum]:
    """Exact fit of the support roots to (a + b_r sqrt(delta))/2, or None when
    the ratio condition fails.

    The integer roots and each root theta above a/2 are read off the lazily
    refined root boxes of the support: s = (2 theta - a)^2 must be the
    integer b^2 delta, and a box is bisected until (2 hi - a)^2 - (2 lo - a)^2
    < 1 pins s to at most one integer.  The fit is accepted only if the
    quadratics t^2 - a t + (a^2 - s)/4 multiply back to the support exactly.
    """
    if support.degree < 1:
        raise PstError("support polynomial must be nonconstant")
    if support.leading != 1 or any(c.denominator != 1 for c in support.coeffs):
        return None  # eigenvalues are not algebraic integers
    roots = real_roots(support)
    int_roots = roots.integers()
    q = support
    for z in int_roots:
        q = q.exact_div(Poly.linear(z))
    if q.degree == 0:
        a, delta = 0, 1
        thetas = sorted(int_roots, reverse=True)
        bs = [2 * z for z in thetas]
        return QuadraticSpectrum(a, delta, tuple(bs))
    if q.degree % 2:
        return None
    # all conjugate pairs sum to a, so a = 2 * (root sum) / deg
    a, rem = divmod(-2 * q.coeffs[q.degree - 1], q.degree)
    if rem:
        return None
    if len(int_roots) > 1:
        return None  # at most one rational support root (= a/2) is possible
    if int_roots and 2 * int_roots[0] != a:
        return None
    squares = []
    rebuilt = Poly.one()
    for k in range(len(roots)):
        if roots.sign_vs(k, a, 2) <= 0:
            continue
        while True:
            lo, hi, d = roots.interval(k)
            u, v = 2 * lo - a * d, 2 * hi - a * d  # 2 theta - a in (u/d, v/d), u >= 0
            if v * v - u * u < d * d:
                break
            roots.bisect(k)
        s = -(-u * u // (d * d))
        if s * d * d > v * v:
            return None
        squares.append(s)
        rebuilt = rebuilt * Poly((Fraction(a * a - s, 4), -a, 1))
    if rebuilt != q:
        return None
    delta = squarefree_part_int(squares[-1])
    bs = [math.isqrt(s // delta) for s in squares]
    if any(b * b * delta != s for b, s in zip(bs, squares)):
        return None
    bs += [-b for b in bs] + [0] * len(int_roots)
    parities = {abs(b) % 2 for b in bs} | {abs(a) % 2}
    if len(parities) > 1:
        return None
    order = sorted(bs, reverse=True)
    return QuadraticSpectrum(a, delta, tuple(order))


@lru_cache(maxsize=100_000)
def ratio_witness(support: Poly) -> Optional[int]:
    """A prime p that proves the ratio condition fails on the support, or
    None when no prime in WITNESS_PRIMES does (the fit then decides).

    Only a monic integer support that is even or odd, S(t) = t^e R(t^2), is
    tested.  There the root sum is 0, so a fit that passes has a = 0 and
    every root theta has 4 theta^2 = b^2 delta an integer: the monic integer
    f(u) = 4^m R(u/4) splits into linear factors over Z, and so mod p.  When
    f is square-free mod p it then divides u^p - u, so u^p != u mod (f, p)
    is an exact witness (the distinct-degree step of Berlekamp and
    Cantor-Zassenhaus).  A prime where f is not square-free mod p is
    skipped."""
    cs, d = support.coeffs, support.degree
    if support.leading != 1 or any(c.denominator != 1 for c in cs):
        return None
    if any(cs[(d + 1) % 2::2]):
        return None  # neither even nor odd
    r = cs[d % 2::2]
    m = len(r) - 1
    if m < 2:
        return None  # a linear f always splits
    f = [c * 4 ** (m - k) for k, c in enumerate(r)]
    df = [k * c for k, c in enumerate(f) if k]
    for p in WITNESS_PRIMES:
        if len(gcd_mod(f, df, p)) == 1 and pow_x_mod(p, f, p) != [0, 1]:
            return p
    return None


def _prepare_model(G: Graph, model: str) -> Graph:
    if model == "adjacency":
        return G
    if model == "laplacian":
        if not G.is_integer_weighted():
            raise GraphError("Laplacian model requires integer weights")
        return laplacian_form(G)
    raise PstError(f"unknown model: {model}")


def decide_pst(G: Graph, i: int, j: int, model: str = "adjacency") -> PstCertificate:
    """Full characterization-based PST decision for the pair (i, j)."""
    if i == j:
        raise PstError("need distinct vertices")
    return _decide(_prepare_model(G, model), i, j, model)


def _decide(H: Graph, i: int, j: int, model: str) -> PstCertificate:
    """decide_pst on the matrix of the model, H = _prepare_model(G, model)."""
    if not is_strongly_cospectral(H, i, j):
        return PstCertificate((i, j), model, "NO_PST", NOT_STRONGLY_COSPECTRAL)
    support = support_poly(H, i)
    prime = ratio_witness(support)
    if prime is not None:
        return PstCertificate((i, j), model, "NO_PST", RATIO_CONDITION_B, witness_prime=prime)
    spectrum = fit_quadratic_spectrum(support)
    if spectrum is None:
        return PstCertificate((i, j), model, "NO_PST", RATIO_CONDITION_B)
    # support roots ascending; spectrum.b is descending in theta
    sigmas = tuple(reversed(support_partition(H, i, j).signs))
    if sigmas[0] != +1:
        raise PstError("largest support eigenvalue must carry sigma = +1")
    b0 = spectrum.b[0]
    deltas = [(b0 - br) // 2 for br in spectrum.b]
    if any(2 * d != b0 - br for d, br in zip(deltas, spectrum.b)):
        raise PstError("b values with mixed parity survived the exact fit")
    # Only the gcd g can pass: a divisor g' with g/g' even makes every k even,
    # but sum(sigma E(i, i)) = I(i, j) = 0 with every E(i, i) > 0, so some
    # sigma is -1; with g/g' odd the k keep their parities at g.
    g = math.gcd(*deltas)
    if g == 0:
        return PstCertificate((i, j), model, "NO_PST", PARITY_CONDITION_C)
    ks = tuple(d // g for d in deltas)
    if any((k % 2 == 0) != (s == +1) for k, s in zip(ks, sigmas)):
        return PstCertificate((i, j), model, "NO_PST", PARITY_CONDITION_C)
    t_min = math.pi / (g * math.sqrt(spectrum.delta))
    cert = PstCertificate(
        (i, j),
        model,
        "PST",
        spectrum=spectrum,
        sigmas=sigmas,
        g=g,
        k=ks,
        t_min=t_min,
        phase=walk.amplitude(H, i, j, t_min),
    )
    if not walk.verify_certificate(H, cert):
        raise PstError("internal error: algebraic PST verdict failed the walk oracle")
    return cert


def pst_pairs(
    G: Graph, model: str = "adjacency"
) -> list[tuple[int, int, PstCertificate]]:
    """All unordered pairs admitting PST, in lexicographic order.

    PST needs strong cospectrality, so only pairs inside a class of equal
    vertex-deleted characteristic polynomials are decided."""
    H = _prepare_model(G, model)
    out = []
    for i, j in cospectral_pairs(H):
        cert = _decide(H, i, j, model)
        if cert.result == "PST":
            out.append((i, j, cert))
    return out
