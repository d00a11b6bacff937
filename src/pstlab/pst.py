"""Polynomial-time perfect-state-transfer decider with verifiable
certificates.

The decision runs entirely in exact arithmetic.  The ratio condition is read
off one polynomial H, whose roots are the numbers (2 theta - a)^2 for the
support roots theta paired up around a/2: a modular witness
(``ratio_witness``) rejects most failures before any root is isolated, and
outside an integer spectrum the exact fit needs the roots of H to be
positive integers.  Both read only the support, so they are memoized on it
and pairs with equal supports share them.  No float takes part until the
numeric walk oracle, which cross-checks each positive verdict, pair by pair,
before it is returned.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from . import walk
from .graphs import Graph, GraphError, laplacian_form
from .polys import Poly, gcd_mod, pow_x_mod, real_roots, squarefree_part_int
from .spectra import _pair_record, _PairRecord, cospectral_pairs, is_strongly_cospectral

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


def _centred_squares(support: Poly) -> Optional[tuple[int, list[int]]]:
    """(a, H) for a monic integer support S of degree d >= 1 whose roots
    pair up around a/2, or None.

    a = -2 c_{d-1} / d is twice the mean root and must be an integer.  The
    monic integer F(u) = 2^d S((u + a)/2) has the roots 2 theta - a, which
    pair up around 0 exactly when F is even or odd, F(u) = u^e H(u^2).  The
    roots of H, low degree first, are then the numbers (2 theta - a)^2."""
    cs, d = support.coeffs, support.degree
    if d < 1 or support.leading != 1 or any(c.denominator != 1 for c in cs):
        return None
    a, rem = divmod(-2 * cs[d - 1], d)
    if rem:
        return None
    if a == 0:
        f = [c << (d - k) for k, c in enumerate(cs)]
    else:  # Horner's rule: F = (...(u + a) + 2 c_{d-1})(u + a) + ... + 2^d c_0
        f = [1]
        for k in range(d - 1, -1, -1):
            f = [a * x + y for x, y in zip(f + [0], [0] + f)]
            f[0] += cs[k] << (d - k)
    if any(f[(d + 1) % 2::2]):
        return None  # neither even nor odd
    return a, f[d % 2::2]


@lru_cache(maxsize=100_000)
def fit_quadratic_spectrum(support: Poly) -> Optional[QuadraticSpectrum]:
    """Exact fit of the support roots to (a + b_r sqrt(delta))/2, or None when
    the ratio condition fails.

    An integer spectrum is read off the root boxes as a = 0, b = 2 theta.
    Otherwise the roots pair up around a/2 and each s = (2 theta - a)^2 is
    the integer b^2 delta: the fit holds exactly when the polynomial H of
    those s has deg H distinct positive integer roots."""
    if support.degree < 1:
        raise PstError("support polynomial must be nonconstant")
    if support.leading != 1 or any(c.denominator != 1 for c in support.coeffs):
        return None  # eigenvalues are not algebraic integers
    int_roots = real_roots(support).integers()
    if len(int_roots) == support.degree:
        return QuadraticSpectrum(0, 1, tuple(2 * z for z in reversed(int_roots)))
    centred = _centred_squares(support)
    if centred is None:
        return None
    a, h = centred
    squares = real_roots(Poly(h)).integers()
    if len(squares) != len(h) - 1 or squares[0] <= 0:
        return None  # a complex, repeated or irrational (2 theta - a)^2
    delta = squarefree_part_int(squares[-1])
    bs = [math.isqrt(s // delta) for s in squares]
    if any(b * b * delta != s for b, s in zip(bs, squares)):
        return None
    bs += [-b for b in bs] + [0] * (support.degree % 2)
    parities = {abs(b) % 2 for b in bs} | {abs(a) % 2}
    if len(parities) > 1:
        return None
    order = sorted(bs, reverse=True)
    return QuadraticSpectrum(a, delta, tuple(order))


@lru_cache(maxsize=100_000)
def ratio_witness(support: Poly) -> Optional[int]:
    """A prime p that proves the ratio condition fails on the support, or
    None when no prime in WITNESS_PRIMES does (the fit then decides).

    Only a monic integer support whose roots pair up around a/2 is tested,
    on the H of ``_centred_squares``.  A fit that passes makes every root of
    H the integer b^2 delta, so H splits into linear factors over Z, and so
    mod p.  When H is square-free mod p it then divides v^p - v, so
    v^p != v mod (H, p) is an exact witness (the distinct-degree step of
    Berlekamp and Cantor-Zassenhaus).  A prime where H is not square-free
    mod p is skipped."""
    centred = _centred_squares(support)
    if centred is None:
        return None
    h = centred[1]
    if len(h) < 3:
        return None  # a linear H always splits
    dh = [k * c for k, c in enumerate(h) if k]
    for p in WITNESS_PRIMES:
        if len(gcd_mod(h, dh, p)) == 1 and pow_x_mod(p, h, p) != [0, 1]:
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
    return _decide_strong(H, i, j, model, _pair_record(H, i, j))


def _decide_strong(H: Graph, i: int, j: int, model: str, record: _PairRecord) -> PstCertificate:
    """The decision for a strongly cospectral pair of H, on the pair's
    record: the support always, the class signs only where the fit
    passes."""
    support = record.support
    prime = ratio_witness(support)
    if prime is not None:
        return PstCertificate((i, j), model, "NO_PST", RATIO_CONDITION_B, witness_prime=prime)
    spectrum = fit_quadratic_spectrum(support)
    if spectrum is None:
        return PstCertificate((i, j), model, "NO_PST", RATIO_CONDITION_B)
    # support roots ascending; spectrum.b is descending in theta
    sigmas = tuple(reversed(record.partition.signs))
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
