"""Cospectrality deciders, eigenvalue supports, and the signed support
partition.

All yes/no decisions here are exact polynomial algebra: on the lazily
refined root boxes of each support (``polys.real_roots``), and on the Cauchy
indices of the sign quotients, which say whether both alphas interlace.
Strong cospectrality is one divisibility test per cospectral pair, against
gcd(phi, phi') on the graph's table.  Floats are diagnostics only: projector
tables, root midpoints and the 2^-40 boxes of the JSON output, computed when
they are read.

The pair quantities are memoized on the polynomials they read, so the pairs
of a symmetric graph share them: the divisibility on the table's packed
phi^{G\\{i,j}}, the support on phi^G and phi^{G\\i}, and one record per pair
(``_PairRecord``), which the signed path sum and the partition are read off,
on phi^G, phi^{G\\i} and the unsigned path sum.  The record builds each of
them when first read, so a PST decision that reads only the support pays
for no sign quotient.  ``poly_gcd`` and ``RatFunc.reduce`` take them at
half the degree where the polynomials are even or odd, as on a bipartite
graph; at odd distance one sign quotient is the mirror image of the other
(``_sign_quotients``).  The tree scan
builds one record per strong pair and passes it to the cores of
``pst.decide_pst`` and ``gapcert.certify_gap``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

from .graphs import Graph
from .polys import (
    Poly,
    RatFunc,
    RootBox,
    _parity_split,
    _require_vertices,
    _tables,
    charpoly,
    isolate_real_roots,
    path_sum_poly,
    poly_gcd,
    real_roots,
    residue_at,
    simple_pole_residues,
    vertex_deleted_charpoly,  # re-exported under its old name
)


class SpectraError(ValueError):
    pass


def is_cospectral(G: Graph, i: int, j: int) -> bool:
    """phi^{G\\i} == phi^{G\\j}, exactly, by the class keys of the graph's
    table."""
    if i == j:
        raise SpectraError("need distinct vertices")
    _require_vertices(G, (i, j))
    tables = _tables(G)
    return tables.class_key(i) == tables.class_key(j)


def cospectral_pairs(G: Graph) -> list[tuple[int, int]]:
    """Every cospectral pair i < j, in lexicographic order, from the
    vertices grouped by the class keys of the graph's table."""
    tables = _tables(G)
    classes: dict[object, list[int]] = {}
    for v in range(G.n):
        classes.setdefault(tables.class_key(v), []).append(v)
    return sorted(
        (i, j)
        for members in classes.values()
        for a, i in enumerate(members)
        for j in members[a + 1:]
    )


def is_strongly_cospectral(G: Graph, i: int, j: int) -> bool:
    """Cospectral, and every pole of phi^{G\\{i,j}}/phi^G is simple.

    By interlacing, deleting two vertices lowers the multiplicity m of an
    eigenvalue theta to no less than m - 2, so the pole at theta has order
    at most 2, and it is double exactly when theta has multiplicity m - 2 in
    phi^{G\\{i,j}} (Godsil & Smith, "Strongly cospectral vertices").  So the
    poles are simple iff gcd(phi^G, phi^G'), with theta of multiplicity
    m - 1, divides phi^{G\\{i,j}}: one divisibility test per distinct
    phi^{G\\{i,j}}, against a gcd taken once per graph, and none when the
    spectrum is simple.  The table rejects most pairs first on the values
    of both polynomials at its Kronecker point."""
    return is_cospectral(G, i, j) and _tables(G).strong(i, j)


def support_poly(G: Graph, i: int) -> Poly:
    """Monic square-free polynomial whose roots are the eigenvalue support of
    i: phi^G / gcd(phi^G, phi^{G\\i})."""
    return _support_poly(charpoly(G), vertex_deleted_charpoly(G, i))


def _reflect(p: Poly, sign: int) -> Poly:
    """sign * p(-t), for sign = +-1."""
    return Poly._of(tuple([sign * (-1) ** k * c for k, c in enumerate(p.vector)]), p.content)


@lru_cache(maxsize=100_000)
def _support_poly(phi: Poly, phi_i: Poly) -> Poly:
    """phi / gcd(phi, phi_i), monic: the reduced numerator of phi/phi_i."""
    return phi.exact_div(poly_gcd(phi, phi_i)).monic()


def _sign_quotients(phi: Poly, phi_i: Poly, s: Poly) -> tuple[tuple[RatFunc, int], ...]:
    """``RatFunc.reduce`` of phi / (phi_i + s) and phi / (phi_i - s), each
    with the Cauchy index of its inverse.

    phi_i + s neither even nor odd, phi even or odd and (phi_i + s)(-t) =
    (-1)^(n-1) (phi_i - s)(t), n = deg phi, as at odd distance on a
    bipartite graph: then phi(-t) = (-1)^n phi(t), so the minus quotient is
    -q(-t) for the plus quotient q, and one reduction gives both.  With q =
    P/Q and Q monic of degree d, -q(-t) is -(-1)^d P(-t) over the monic
    (-1)^d Q(-t).  The jump of 1/q at r and that of -1/q(-t) at -r agree,
    so the two Cauchy indices are equal.  Otherwise two reductions."""
    plus, minus = phi_i + s, phi_i - s
    q, index = RatFunc.reduce(phi, plus)
    if (_parity_split(plus.vector) is None and _parity_split(phi.vector) is not None
            and _reflect(plus, (-1) ** plus.degree) == minus):
        d = q.den.degree
        mirror = RatFunc(_reflect(q.num, (-1) ** (d + 1)), _reflect(q.den, (-1) ** d))
        return (q, index), (mirror, index)
    return (q, index), RatFunc.reduce(phi, minus)


def _interlaces(f: RatFunc, index: int) -> bool:
    """Whether f = t - s0 - sum mu/(t - r) with simple poles and every
    mu > 0, given the Cauchy index of 1/f.  For monic num and den with
    deg num = deg den + 1 that holds exactly when num and den have real,
    simple, strictly interlacing roots, which is when 1/f jumps from -inf
    to +inf at each of the deg num roots of num: the index is deg num."""
    d = f.num.degree
    return d == f.den.degree + 1 and f.num.leading == 1 and index == d


class _PairRecord:
    """A pair's support of i and its sign quotients phi^G / (phi^{G\\i} +-
    s), each reduced with the Cauchy index of its inverse
    (``_sign_quotients``), and the path sum s with its sign pinned, so that
    the top support root is a root of the numerator for +s.  For a strongly
    cospectral pair the two monic numerators are the plus and minus classes
    of the support of i, and since (phi^{G\\i} - s)(phi^{G\\i} + s) =
    phi^{G\\{i,j}} phi^G the quotients are alpha+- = (phi^{G\\i} -+ s) /
    phi^{G\\{i,j}}.  Each is built when first read, the partition too: a
    PST decision reads the support, and the classes only where the fit
    passes."""

    def __init__(self, phi: Poly, phi_i: Poly, s: Poly):
        self._polys = phi, phi_i, s

    @cached_property
    def support(self) -> Poly:
        return _support_poly(*self._polys[:2])

    @cached_property
    def _signed(self) -> tuple[Poly, tuple[tuple[RatFunc, int], ...]]:
        phi, phi_i, s = self._polys
        quotients = _sign_quotients(phi, phi_i, s)
        if not s.is_zero():
            # s = +-adj(tI - A)_ij, so the numerator is the reduced
            # denominator of (phi^{G\\i} + s)/phi, whose poles are simple
            # support eigenvalues: any isolating box of the top root decides
            roots = real_roots(self.support)
            if not roots.has_root(len(roots) - 1, quotients[0][0].num):
                s, quotients = -s, quotients[::-1]
        return s, quotients

    @property
    def s(self) -> Poly:
        return self._signed[0]

    @property
    def quotients(self) -> tuple[tuple[RatFunc, int], ...]:
        return self._signed[1]

    @cached_property
    def partition(self) -> SupportPartition:
        alphas = tuple(alpha for alpha, _ in self.quotients)
        plus, minus = (alpha.num.monic() for alpha in alphas)
        if plus * minus != self.support:
            raise SpectraError("partition does not multiply back to the support")
        # a square-free support is the product of disjoint parts
        roots = real_roots(self.support)
        if roots.repeated is not None:
            raise SpectraError("repeated support root: plus and minus parts are not disjoint")
        if not roots.has_root(len(roots) - 1, plus):
            raise SpectraError("largest support root missing from the plus part")
        interlaced = all(_interlaces(*quotient) for quotient in self.quotients)
        return SupportPartition(self.support, plus, minus, alphas, interlaced)


_pair_records = lru_cache(maxsize=100_000)(_PairRecord)


def _pair_record(G: Graph, i: int, j: int) -> _PairRecord:
    return _pair_records(charpoly(G), vertex_deleted_charpoly(G, i), path_sum_poly(G, i, j))


def signed_path_sum(G: Graph, i: int, j: int) -> Poly:
    """The path-sum polynomial S with its sign pinned so the largest element
    of the support of i lands in the plus part of the partition (Perron
    consistency).  Requires cospectral i, j for the sign check to be
    meaningful; for the positive-leading-coefficient default this is a no-op
    on unit-weight connected graphs."""
    return _pair_record(G, i, j).s


@dataclass(frozen=True)
class SupportPartition:
    """Eigenvalue support of i split into the plus/minus classes of a
    strongly cospectral pair, as exact square-free polynomials, and the
    pair's exact (alpha+, alpha-), whose monic numerators are the two
    classes.  ``interlaced`` says whether both alphas have the form t - s0 -
    sum mu/(t - r) with simple poles and every mu > 0, read off the Cauchy
    indices of the sign quotients.  The class sign of each support root
    (ascending), which isolates every root, and the 2^-40 root boxes, which
    are diagnostics, are computed when first read."""

    support: Poly
    plus: Poly
    minus: Poly
    alphas: tuple[RatFunc, RatFunc]
    interlaced: bool

    @cached_property
    def signs(self) -> tuple[int, ...]:
        # each support root is classified on its box, since both parts
        # divide the support
        roots = real_roots(self.support)
        return tuple(+1 if in_plus else -1 for in_plus in roots.vanishing(self.plus))

    @cached_property
    def support_roots(self) -> tuple[RootBox, ...]:
        return isolate_real_roots(self.support)

    @cached_property
    def plus_roots(self) -> tuple[RootBox, ...]:
        return isolate_real_roots(self.plus)

    @cached_property
    def minus_roots(self) -> tuple[RootBox, ...]:
        return isolate_real_roots(self.minus) if self.minus.degree else ()

    def to_json(self) -> dict:
        return {
            "support": self.support.to_json(),
            "plus": self.plus.to_json(),
            "minus": self.minus.to_json(),
            "support_roots": [b.to_json() for b in self.support_roots],
            "plus_roots": [b.to_json() for b in self.plus_roots],
            "minus_roots": [b.to_json() for b in self.minus_roots],
        }


def support_partition(G: Graph, i: int, j: int) -> SupportPartition:
    """Split the support of i into plus/minus parts for a strongly cospectral
    pair, verifying all structural invariants exactly before returning.
    Strong cospectrality is checked for every pair; the partition is read
    off the pair's record."""
    if not is_strongly_cospectral(G, i, j):
        raise SpectraError("vertices are not strongly cospectral")
    return _pair_record(G, i, j).partition


@dataclass(frozen=True)
class ProjectorRow:
    theta: float
    e_ii: float
    e_ij: float
    sigma: Optional[int]


@dataclass(frozen=True)
class ProjectorTable:
    """Numeric eigenprojector entries on the support of i.  Diagnostic
    output; no algebraic decision reads these floats."""

    pair: tuple[int, int]
    rows: tuple[ProjectorRow, ...]

    def to_json(self) -> dict:
        return {
            "pair": list(self.pair),
            "rows": [
                {
                    "theta": r.theta,
                    "e_ii": r.e_ii,
                    "e_ij": r.e_ij,
                    "sigma": r.sigma,
                }
                for r in self.rows
            ],
        }


def projector_entries(G: Graph, i: int, j: int) -> ProjectorTable:
    """Residues of phi^{G\\i}/phi^G and S/phi^G at each support eigenvalue.

    Signs are only assigned when i, j are strongly cospectral (or i == j,
    where every sigma is +1).
    """
    phi = charpoly(G)
    diag = RatFunc.make(vertex_deleted_charpoly(G, i), phi)
    terms = simple_pole_residues(diag)
    if i == j:
        rows = [ProjectorRow(box.midpoint, e_ii, e_ii, +1) for box, e_ii in terms]
        return ProjectorTable((i, j), tuple(rows))
    # diag.den is the support of i, so row k is support root k.  The poles
    # of S/phi^G are simple and lie in the support (S is an entry of the
    # resolvent adj(tI - A)/phi^G), so they are found on its boxes.
    s = signed_path_sum(G, i, j)
    off = None if s.is_zero() else RatFunc.make(s, phi)
    poles = real_roots(diag.den).vanishing(off.den) if off is not None else [False] * len(terms)
    strong = is_strongly_cospectral(G, i, j)
    signs = support_partition(G, i, j).signs if strong else [None] * len(terms)
    rows = [
        ProjectorRow(box.midpoint, e_ii, residue_at(off, box.midpoint) if pole else 0.0, sigma)
        for (box, e_ii), pole, sigma in zip(terms, poles, signs)
    ]
    return ProjectorTable((i, j), tuple(rows))


def min_support_gap(G: Graph, i: int) -> float:
    """Minimum distance between consecutive support eigenvalues of i."""
    roots = isolate_real_roots(support_poly(G, i))
    if len(roots) < 2:
        raise SpectraError("support has fewer than two eigenvalues")
    mids = [b.midpoint for b in roots]
    return min(b - a for a, b in zip(mids, mids[1:]))
