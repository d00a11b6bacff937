"""Alpha rational functions, partial fractions, arrow matrices, and the
eigenvalue-gap certificates.

Every decision here is exact.  ``certify_gap`` reads the residue signs of
both alphas off the support partition's interlacing flag: every mu > 0
exactly when the Cauchy index of 1/alpha, taken from the remainder sequence
that reduces alpha, equals deg num.  The shift s0 is read off two
coefficients, the square-root-of-two gap bound off the support's isolated
root boxes or signs at its roots (``polys.roots_within``), and the equality
case is exact algebra on the alpha functions.  ``partial_fraction`` and
``merged_alphas`` read the sign of each alpha's numerator at every pole off
one signed remainder sequence (``RealRoots.signs``, Sturm-Tarski); they
give the arrow matrices and the pigeonhole index that a certificate prints,
and the error that names a failed check.  Floats (poles, residues, arrow
matrices and their eigenvalues, gaps) are diagnostics, computed when first
read.

``certify_gap`` checks the pair, then runs one core (``_certify``) on the
pair's record and its cut-edge pair (i', j').  A forest's table reads that
pair off the i-j path: the next vertex on each side, none at distance 1.
Other graphs find it by a bridge search (``graphs.separating_neighbor``).
The tree scan calls the core directly, with the record it builds once per
strong pair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .graphs import Graph, bridges, connected_components, separating_neighbor
from .polys import (
    Poly,
    PolyError,
    RatFunc,
    RealRoots,
    _ForestTables,
    _tables,
    isolate_real_roots,
    poly_gcd,
    real_roots,
    roots_within,
    simple_pole_residues,
    vertex_deleted_charpoly,
)
from .spectra import (
    _pair_record,
    _PairRecord,
    is_cospectral,
    is_strongly_cospectral,
    min_support_gap,
    signed_path_sum,
    support_partition,
    support_poly,
)

SQRT2 = math.sqrt(2.0)
#: float residues below this are shown as 0.0
RESIDUE_CLAMP = 1e-12
RESIDUE_TOL = 1e-9


class GapError(ValueError):
    pass


# ---------------------------------------------------------------------------
# alpha functions


def alpha_pair(G: Graph, i: int, j: int) -> tuple[RatFunc, RatFunc]:
    """(alpha+, alpha-) = (phi^{G\\i} -+ S) / phi^{G\\{i,j}} for the signed path
    sum S, as kept on the support partition, whose plus and minus classes
    are their monic numerators."""
    if not is_strongly_cospectral(G, i, j):
        raise GapError("vertices are not strongly cospectral")
    return support_partition(G, i, j).alphas


# ---------------------------------------------------------------------------
# partial fractions


Floats = tuple[tuple[float, ...], tuple[float, ...]]


class PartialFraction:
    """f(t) = t - s0 - sum_l mu_l / (t - r_l), with mu_l >= 0.

    ``s0_exact`` keeps the shift as an exact rational.  The float poles and
    residues are diagnostics, computed by ``diagnostics`` when first read.
    A merged alpha also carries ``numerator_eigen``: for each eigenvalue of
    its arrow matrix, largest first, whether it is a root of the numerator,
    decided exactly.
    """

    def __init__(
        self,
        s0_exact: Fraction,
        diagnostics: Callable[[], Floats],
        numerator_eigen: tuple[bool, ...] = (),
    ):
        self.s0_exact = s0_exact
        self.numerator_eigen = numerator_eigen
        self._diagnostics = diagnostics

    @cached_property
    def _floats(self) -> Floats:
        return self._diagnostics()

    @property
    def poles(self) -> tuple[float, ...]:
        return self._floats[0]

    @property
    def residues(self) -> tuple[float, ...]:
        return self._floats[1]

    @property
    def s0(self) -> float:
        return float(self.s0_exact)

    @property
    def k(self) -> int:
        return len(self.poles)

    def __call__(self, t: float) -> float:
        acc = t - self.s0
        for r, mu in zip(self.poles, self.residues):
            acc -= mu / (t - r)
        return acc

    def to_json(self) -> dict:
        return {
            "s0": self.s0,
            "poles": list(self.poles),
            "residues": list(self.residues),
        }


def _coefficient_shift(f: RatFunc) -> Fraction:
    """s0 of f = t - s0 - sum mu/(t - r) for monic num and den with
    deg num = deg den + 1 = d + 1: the t^(d-1) coefficient of den less the
    t^d coefficient of num."""
    d = f.den.degree
    return (f.den.coeffs[d - 1] if d else 0) - f.num.coeffs[d]


def _shift(f: RatFunc, poles: RealRoots) -> Fraction:
    """s0 of f = t - s0 - sum mu/(t - r), after the exact checks of that
    form: the degrees, simple real poles and a monic linear quotient (den is
    monic).  ``poles`` are the roots of a multiple of den, so den is
    square-free when their Sturm chain finds no repeated part, and then
    real-rooted when that multiple has as many real roots as its degree."""
    if f.num.degree != f.den.degree + 1:
        raise GapError("numerator degree must exceed denominator degree by 1")
    if poles.repeated is not None:
        raise GapError("repeated poles")
    if len(poles) != poles.poly.degree:
        raise GapError("poles off the real line")
    if f.num.leading != 1:
        raise GapError("expected a monic linear quotient")
    return _coefficient_shift(f)


def _on_union(f: RatFunc, own: list[bool]) -> list[float]:
    """The float mu of f at each of the ascending poles that ``own`` flags,
    and 0 at the poles that f lacks."""
    mus = iter(-res for _, res in simple_pole_residues(f))
    return [next(mus) if o else 0.0 for o in own]


def _residue_signs(f: RatFunc, poles: RealRoots, own: list[bool]) -> tuple[bool, ...]:
    """Check every mu >= 0 of f = t - s0 - sum mu/(t - r) exactly, and
    return its arrow flags.

    ``poles`` are ascending poles, of which f has those flagged in ``own``;
    ``poles.signs`` gives the sign s of f's numerator at each of them.
    Walking down from the top pole, with k poles of f above: at a pole of f,
    den'(r) has the sign (-1)^k (num and den are monic), so mu =
    -num(r)/den'(r) > 0 iff s = -(-1)^k; the lowest pole that breaks this
    raises.  Then num and den interlace, so k roots of num lie above a
    pole that f lacks when s = (-1)^k, k + 1 when s = -(-1)^k, and s = 0
    ties it with a root.  The arrow eigenvalues, largest first, are the
    roots of num and the poles that f lacks; each is flagged True when it
    is a root, so a lacking pole equal to a root is flagged True too."""
    negative, k, flags, emitted = None, 0, [], 0
    for u, s in reversed(list(enumerate(poles.signs(f.num)))):
        flip = s == (-1) ** (k + 1)
        if own[u]:
            if not flip:
                negative = u
            k += 1
        else:
            above = k + flip
            flags += [True] * (above - emitted) + [s == 0]
            emitted = above
    if negative is not None:
        raise GapError(f"negative residue {_on_union(f, own)[negative]}")
    return tuple(flags + [True] * (f.num.degree - emitted))


def _display_residue(mu: float) -> float:
    return 0.0 if abs(mu) < RESIDUE_CLAMP else max(mu, 0.0)


def _diagnostics(f: RatFunc, pole_poly: Poly, own: list[bool]) -> Callable[[], Floats]:
    """The float poles and residues of f over the roots of pole_poly,
    computed when first read."""
    def compute() -> Floats:
        poles = tuple(b.midpoint for b in isolate_real_roots(pole_poly))
        return poles, tuple(_display_residue(mu) for mu in _on_union(f, own))

    return compute


def partial_fraction(f: RatFunc) -> PartialFraction:
    """Partial-fraction form t - s0 - sum mu/(t - r) of a reduced rational
    function with numerator degree = denominator degree + 1.  Each mu >= 0 is
    checked exactly, on the sign of the numerator at each pole."""
    pole_roots = real_roots(f.den)
    s0 = _shift(f, pole_roots)
    own = [True] * len(pole_roots)
    _residue_signs(f, pole_roots, own)
    return PartialFraction(s0, _diagnostics(f, f.den, own))


@lru_cache(maxsize=50_000)
def merged_alphas(
    G: Graph, i: int, j: int
) -> tuple[PartialFraction, PartialFraction]:
    """Both alpha partial fractions re-expressed over the union of their pole
    sets (zero residues where a pole is absent).

    The roots of each numerator are its class of the support partition.
    The sign of each numerator at the union poles gives that alpha's
    residue signs and its arrow eigenvalues: the class roots plus the union
    poles where that alpha has no pole."""
    plus, minus = alpha_pair(G, i, j)
    union = poly_gcd(plus.den, minus.den)
    union_poly = (plus.den * minus.den).exact_div(union).monic()
    # the lcm of the two denominators is square-free iff both are
    pole_roots = real_roots(union_poly)
    shifts = [_shift(f, pole_roots) for f in (plus, minus)]
    out = []
    for f, s0 in zip((plus, minus), shifts):
        own = pole_roots.vanishing(f.den)
        eigen = _residue_signs(f, pole_roots, own)
        out.append(PartialFraction(s0, _diagnostics(f, union_poly, own), eigen))
    if _cut_edge_hypotheses(G, i, j) is not None and shifts[0] != shifts[1]:
        raise GapError("shifts differ despite the cut-edge hypotheses")
    return tuple(out)


# ---------------------------------------------------------------------------
# arrow matrices


@dataclass(frozen=True)
class ArrowMatrix:
    """Symmetric (k+1)x(k+1) matrix with corner s0, arms sqrt(mu_l), and
    diagonal tail r_l; its characteristic polynomial realizes the shifted
    partial fraction."""

    corner: float
    tail: tuple[float, ...]
    arms: tuple[float, ...]

    def dense(self) -> np.ndarray:
        k = len(self.tail)
        M = np.zeros((k + 1, k + 1))
        M[0, 0] = self.corner
        for idx, (r, arm) in enumerate(zip(self.tail, self.arms), start=1):
            M[idx, idx] = r
            M[0, idx] = M[idx, 0] = arm
        return M

    def eigenvalues_desc(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.dense())[::-1]

    def to_json(self) -> dict:
        return {
            "corner": self.corner,
            "tail": list(self.tail),
            "arms": list(self.arms),
        }


def arrow_matrix(pf: PartialFraction) -> ArrowMatrix:
    for mu in pf.residues:
        if mu < -RESIDUE_TOL:
            raise GapError(f"negative residue {mu}")
    return ArrowMatrix(
        corner=pf.s0,
        tail=pf.poles,
        arms=tuple(math.sqrt(max(mu, 0.0)) for mu in pf.residues),
    )


# ---------------------------------------------------------------------------
# gap certificates


def _cut_edge_hypotheses(G: Graph, i: int, j: int) -> Optional[tuple[int, int]]:
    """Neighbors (i', j'), i' != j of i and j' != i of j, such that the edges
    ii' and jj' are cut-edges, each separating i and j; None if either is
    missing.  A forest's table reads them off its paths (``cut_pair``);
    other graphs take ``separating_neighbor``."""
    tables = _tables(G)
    if isinstance(tables, _ForestTables):
        return tables.cut_pair(i, j)
    ni = separating_neighbor(G, i, j)
    nj = None if ni is None else separating_neighbor(G, j, i)
    return None if nj is None else (ni, nj)


def _component_is_p3(G: Graph, v: int) -> bool:
    comp = next(c for c in connected_components(G) if v in c)
    return sorted(len(G.neighbors(u)) for u in comp) == [1, 1, 2]


def _detect_equality_case(plus: RatFunc, minus: RatFunc) -> Optional[Fraction]:
    """Exact test for alpha- = t - r and alpha+ = t - r - 2/(t - r); returns
    r when it matches."""
    if not minus.is_polynomial() or minus.num.degree != 1:
        return None
    lin = minus.num.monic()
    r = -lin.coeffs[0]
    shifted = Poly.linear(r)
    if plus.den != shifted:
        return None
    if plus.num != shifted * shifted - Poly.constant(2):
        return None
    return r


@dataclass(frozen=True)
class GapCertificate:
    """The exact verdicts of ``certify_gap``.  The pigeonhole index
    ``common_index`` and the float fields (``theta_plus``, ``theta_minus``,
    ``eigenvalue_distance``, ``achieved_gap``, ``arrow_plus``,
    ``arrow_minus``) are diagnostics, computed from ``graph`` when first
    read."""

    pair: tuple[int, int]
    hypotheses_ok: bool
    strongly_cospectral: bool
    cut_edges_ok: bool
    bound: float
    equality_detected: bool
    conclusion: str
    graph: Graph = field(repr=False, compare=False)

    @cached_property
    def common_index(self) -> Optional[int]:
        """The first arrow eigenvalue (largest first) that is a class root of
        both alphas.  A certificate of a strongly cospectral pair exists
        only when both alphas interlace: then each arrow has |union poles|
        + 1 <= |support| - 1 eigenvalues, and the two flag lists hold at
        least |support| roots in total, so the pigeonhole index exists."""
        if not self.strongly_cospectral:
            return None
        pf_plus, pf_minus = merged_alphas(self.graph, *self.pair)
        both = zip(pf_plus.numerator_eigen, pf_minus.numerator_eigen)
        return next(m for m, (p, q) in enumerate(both) if p and q)

    @cached_property
    def _arrows(self) -> tuple[Optional[ArrowMatrix], Optional[ArrowMatrix]]:
        if not self.strongly_cospectral:
            return None, None
        pf_plus, pf_minus = merged_alphas(self.graph, *self.pair)
        return arrow_matrix(pf_plus), arrow_matrix(pf_minus)

    @property
    def arrow_plus(self) -> Optional[ArrowMatrix]:
        return self._arrows[0]

    @property
    def arrow_minus(self) -> Optional[ArrowMatrix]:
        return self._arrows[1]

    @cached_property
    def _thetas(self) -> tuple[Optional[float], Optional[float]]:
        m = self.common_index
        if m is None:
            return None, None
        return tuple(float(arrow.eigenvalues_desc()[m]) for arrow in self._arrows)

    @property
    def theta_plus(self) -> Optional[float]:
        return self._thetas[0]

    @property
    def theta_minus(self) -> Optional[float]:
        return self._thetas[1]

    @property
    def eigenvalue_distance(self) -> Optional[float]:
        theta_p, theta_m = self._thetas
        return None if theta_p is None else abs(theta_p - theta_m)

    @cached_property
    def achieved_gap(self) -> Optional[float]:
        i = self.pair[0]
        if support_poly(self.graph, i).degree < 2:
            return None
        return min_support_gap(self.graph, i)

    def to_json(self) -> dict:
        return {
            "pair": list(self.pair),
            "hypotheses_ok": self.hypotheses_ok,
            "strongly_cospectral": self.strongly_cospectral,
            "cut_edges_ok": self.cut_edges_ok,
            "common_index": self.common_index,
            "theta_plus": self.theta_plus,
            "theta_minus": self.theta_minus,
            "eigenvalue_distance": self.eigenvalue_distance,
            "achieved_gap": self.achieved_gap,
            "bound": self.bound,
            "equality_detected": self.equality_detected,
            "conclusion": self.conclusion,
            "arrow_plus": self.arrow_plus.to_json() if self.arrow_plus else None,
            "arrow_minus": self.arrow_minus.to_json() if self.arrow_minus else None,
        }


def certify_gap(G: Graph, i: int, j: int) -> GapCertificate:
    """Certificate for the sqrt(2) support-gap bound on the pair (i, j).

    Hypotheses are checked and reported, never assumed.  Both alphas must
    have positive residues and simple poles (the partition's interlacing
    flag) and, under the cut-edge hypotheses, equal shifts; when a check
    fails, ``merged_alphas`` raises the GapError that names it.  The gap
    bound is decided by ``roots_within`` with D = 2: on the support's
    isolated root boxes, or else by signs at its roots.  Equality forces the
    component of the pair to be P3 and is detected by exact algebra.
    """
    sc = is_strongly_cospectral(G, i, j)
    record = _pair_record(G, i, j) if sc else None
    return _certify(G, i, j, record, _cut_edge_hypotheses(G, i, j))


def _certify(G: Graph, i: int, j: int, record: Optional[_PairRecord],
             nbrs: Optional[tuple[int, int]]) -> GapCertificate:
    """certify_gap on the record of a strongly cospectral pair, None for
    any other pair, and the cut-edge pair (``_cut_edge_hypotheses``)."""
    sc = record is not None
    cut_ok = nbrs is not None
    # the weighted bound sqrt(2 |w(i,i') w(j,j')|) is at most sqrt(2) only here
    hypotheses_ok = sc and cut_ok and abs(G.weight(i, nbrs[0]) * G.weight(j, nbrs[1])) <= 1
    equality = False
    conclusion = "hypotheses not satisfied"
    if sc:
        part = record.partition
        plus_rf, minus_rf = part.alphas
        if not part.interlaced or (
            cut_ok and _coefficient_shift(plus_rf) != _coefficient_shift(minus_rf)
        ):
            merged_alphas(G, i, j)
            raise RuntimeError("the arrow-form checks accept an alpha whose Cauchy index "
                               "is not full, or shifts that the coefficients say differ")
        if _detect_equality_case(plus_rf, minus_rf) is not None:
            equality = True
            if not _component_is_p3(G, i):
                raise GapError("equality case detected on a graph that is not P3")
        if hypotheses_ok:
            # equality puts the support at r - sqrt(2), r, r + sqrt(2)
            sup = record.support
            if not equality and sup.degree >= 2 and not roots_within(real_roots(sup), 2):
                raise GapError(f"support gap {min_support_gap(G, i)} exceeds sqrt(2)")
            if equality:
                where = "G" if G.n == 3 else "the component of the pair"
                conclusion = f"gap equals sqrt(2); {where} is isomorphic to P3"
            else:
                conclusion = "support gap at most sqrt(2)"
        elif cut_ok:
            conclusion = "strongly cospectral, but |w(i,i') w(j,j')| > 1 on the cut-edges"
        else:
            conclusion = "strongly cospectral, but cut-edge hypotheses fail"
    return GapCertificate(
        pair=(i, j),
        hypotheses_ok=hypotheses_ok,
        strongly_cospectral=sc,
        cut_edges_ok=cut_ok,
        bound=SQRT2,
        equality_detected=equality,
        conclusion=conclusion,
        graph=G,
    )


# ---------------------------------------------------------------------------
# residue mass and the general weighted bound


def residue_mass(
    G: Graph,
    i: int,
    j: int,
    i_side: Optional[Sequence[int]] = None,
    j_side: Optional[Sequence[int]] = None,
) -> tuple[float, float]:
    """Total absolute residue mass of S / phi^{G\\{i,j}} and its
    Cauchy-Schwarz bound.

    A side that is not passed is detected only in the structurally
    unambiguous cut-edge case: the single separating neighbor of i (or j).
    """
    if i == j:
        raise GapError("need distinct vertices")
    sides = [[separating_neighbor(G, v, w)] if side is None else side
             for side, v, w in ((i_side, i, j), (j_side, j, i))]
    if [None] in sides:
        raise GapError("no separating neighbors detected; pass neighbor sets explicitly")
    i_side, j_side = sides
    s = signed_path_sum(G, i, j)
    mass = 0.0
    if not s.is_zero():
        f = RatFunc.make(s, vertex_deleted_charpoly(G, i, j))
        try:
            residues = simple_pole_residues(f)
        except PolyError as exc:
            raise GapError(f"{exc} in the path-sum quotient") from exc
        for _, res in residues:
            mass += abs(res)
    su = sum(float(G.weight(i, v)) ** 2 for v in i_side)
    sv = sum(float(G.weight(j, v)) ** 2 for v in j_side)
    bound = math.sqrt(su * sv)
    if mass > bound + 1e-9:
        raise GapError(f"residue mass {mass} exceeds bound {bound}")
    return mass, bound


def general_bound(
    G: Graph,
    i: int,
    j: int,
    i_side: Optional[Sequence[int]] = None,
    j_side: Optional[Sequence[int]] = None,
) -> float:
    """Weighted support-gap bound
    a_ij + sqrt(a_ij^2 + 2 sqrt(sum a_{i,i_k}^2 * sum a_{j_l,j}^2)).

    Defaults to all neighbors (minus the direct edge), which always satisfies
    the path hypothesis.  Asserts the achieved gap against the value.
    """
    if not is_strongly_cospectral(G, i, j):
        raise GapError("vertices are not strongly cospectral")
    if i_side is None:
        i_side = [v for v in G.neighbors(i) if v != j]
    if j_side is None:
        j_side = [v for v in G.neighbors(j) if v != i]
    a_ij = float(G.weight(i, j))
    su = sum(float(G.weight(i, v)) ** 2 for v in i_side)
    sv = sum(float(G.weight(j, v)) ** 2 for v in j_side)
    value = a_ij + math.sqrt(a_ij * a_ij + 2 * math.sqrt(su * sv))
    if support_poly(G, i).degree >= 2:
        gap = min_support_gap(G, i)
        if gap > value + 1e-9:
            raise GapError(f"support gap {gap} exceeds the bound {value}")
    return value


@dataclass(frozen=True)
class BridgeGapReport:
    pair: tuple[int, int]
    gap: float
    is_p2: bool
    within_unit_bound: bool

    def to_json(self) -> dict:
        return {
            "pair": list(self.pair),
            "gap": self.gap,
            "is_p2": self.is_p2,
            "within_unit_bound": self.within_unit_bound,
        }


def bridge_gap_check(G: Graph, i: int, j: int) -> BridgeGapReport:
    """For a cospectral pair joined by a bridge: the support of i contains
    two eigenvalues at distance at most 1, unless the component of the pair
    is P2: i and j are each other's only neighbor and carry no loop.  The
    bound is decided exactly by ``roots_within`` with D = 1; ``gap`` is a
    float diagnostic."""
    if not G.has_edge(i, j):
        raise GapError("vertices are not adjacent")
    if (min(i, j), max(i, j)) not in bridges(G):
        raise GapError("edge ij is not a bridge")
    if not is_cospectral(G, i, j):
        raise GapError("vertices are not cospectral")
    is_p2 = (
        G.neighbors(i) == (j,) and G.neighbors(j) == (i,)
        and not G.has_edge(i, i) and not G.has_edge(j, j)
    )
    gap = min_support_gap(G, i)
    ok = roots_within(real_roots(support_poly(G, i)), 1)
    if not ok and not is_p2:
        raise GapError(f"bridge pair with support gap {gap} > 1")
    return BridgeGapReport((i, j), gap, is_p2, ok)
