"""Alpha rational functions, partial fractions, arrow matrices, and the
eigenvalue-gap certificates.

The square-root-of-two bound and its equality case are certified here;
equality detection is exact algebra on the alpha functions, never a
floating-point comparison of gaps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .graphs import Graph, bridges, connected_components, separating_neighbor
from .polys import (
    Poly,
    PolyError,
    RatFunc,
    RootBox,
    isolate_real_roots,
    poly_gcd,
    simple_pole_residues,
    vertex_deleted_charpoly,
)
from .spectra import (
    is_cospectral,
    is_strongly_cospectral,
    min_support_gap,
    sign_quotient,
    signed_path_sum,
    support_partition,
    support_poly,
)

SQRT2 = math.sqrt(2.0)
RESIDUE_CLAMP = 1e-12
RESIDUE_TOL = 1e-9


class GapError(ValueError):
    pass


# ---------------------------------------------------------------------------
# alpha functions


@lru_cache(maxsize=50_000)
def alpha_pair(G: Graph, i: int, j: int) -> tuple[RatFunc, RatFunc]:
    """(alpha+, alpha-) = (phi^{G\\i} -+ S) / phi^{G\\{i,j}} for the signed path
    sum S: the sign quotients for +S and -S, whose monic numerators are the
    plus and minus classes of the support partition."""
    if not is_strongly_cospectral(G, i, j):
        raise GapError("vertices are not strongly cospectral")
    s = signed_path_sum(G, i, j)
    return sign_quotient(G, i, s), sign_quotient(G, i, -s)


# ---------------------------------------------------------------------------
# partial fractions


@dataclass(frozen=True)
class PartialFraction:
    """f(t) = t - s0 - sum_l mu_l / (t - r_l), with mu_l >= 0.

    ``s0_exact`` keeps the shift as an exact rational; poles keep their
    certified boxes.
    """

    s0_exact: Fraction
    poles: tuple[float, ...]
    residues: tuple[float, ...]
    pole_boxes: tuple[RootBox, ...]

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


def _shift_and_residues(f: RatFunc) -> tuple[Fraction, list[tuple[RootBox, float]]]:
    """s0 and the (pole box, mu) terms of f = t - s0 - sum mu/(t - r)."""
    if f.num.degree != f.den.degree + 1:
        raise GapError("numerator degree must exceed denominator degree by 1")
    try:
        residues = simple_pole_residues(f)
    except PolyError as exc:
        raise GapError(str(exc)) from exc
    quot, _ = divmod(f.num, f.den)
    if quot.degree != 1 or quot.leading != 1:
        raise GapError("expected a monic linear quotient")
    # mu is minus the residue of f at r
    return -quot.coeffs[0], [(box, -res) for box, res in residues]


def _clamp_residue(mu: float) -> float:
    if abs(mu) < RESIDUE_CLAMP:
        return 0.0
    if mu < -RESIDUE_TOL:
        raise GapError(f"negative residue {mu}")
    return max(mu, 0.0)


def partial_fraction(f: RatFunc) -> PartialFraction:
    """Partial-fraction form t - s0 - sum mu/(t - r) of a reduced rational
    function with numerator degree = denominator degree + 1."""
    s0, terms = _shift_and_residues(f)
    terms.sort(key=lambda br: br[0].lo)
    return PartialFraction(
        s0_exact=s0,
        poles=tuple(b.midpoint for b, _ in terms),
        residues=tuple(_clamp_residue(mu) for _, mu in terms),
        pole_boxes=tuple(b for b, _ in terms),
    )


@lru_cache(maxsize=50_000)
def merged_alphas(
    G: Graph, i: int, j: int
) -> tuple[PartialFraction, PartialFraction]:
    """Both alpha partial fractions re-expressed over the union of their pole
    sets (zero residues where a pole is absent)."""
    plus, minus = alpha_pair(G, i, j)
    s0p, terms_p = _shift_and_residues(plus)
    s0m, terms_m = _shift_and_residues(minus)
    union = poly_gcd(plus.den, minus.den)
    union_poly = (plus.den * minus.den).exact_div(union).monic()
    boxes = isolate_real_roots(union_poly) if union_poly.degree else ()

    def on_union(terms) -> tuple[float, ...]:
        # the residue whose pole box overlaps each union box, 0 where absent
        return tuple(
            _clamp_residue(
                next((mu for b, mu in terms if b.lo <= box.hi and box.lo <= b.hi), 0.0)
            )
            for box in boxes
        )

    mus_p, mus_m = on_union(terms_p), on_union(terms_m)
    if _cut_edge_hypotheses(G, i, j) is not None and s0p != s0m:
        raise GapError("shifts differ despite the cut-edge hypotheses")
    poles = tuple(b.midpoint for b in boxes)
    return (
        PartialFraction(s0p, poles, mus_p, boxes),
        PartialFraction(s0m, poles, mus_m, boxes),
    )


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


@lru_cache(maxsize=50_000)
def _cut_edge_hypotheses(G: Graph, i: int, j: int) -> Optional[tuple[int, int]]:
    """Neighbors (i', j'), i' != j of i and j' != i of j, such that the edges
    ii' and jj' are cut-edges, each separating i and j; None if either is
    missing."""
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
    pair: tuple[int, int]
    hypotheses_ok: bool
    strongly_cospectral: bool
    cut_edges_ok: bool
    common_index: Optional[int]
    theta_plus: Optional[float]
    theta_minus: Optional[float]
    eigenvalue_distance: Optional[float]
    achieved_gap: Optional[float]
    bound: float
    equality_detected: bool
    conclusion: str
    arrow_plus: Optional[ArrowMatrix]
    arrow_minus: Optional[ArrowMatrix]

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

    Hypotheses are checked and reported, never assumed.  Equality forces the
    component of the pair to be P3 and is detected by exact algebra.
    """
    sc = is_strongly_cospectral(G, i, j)
    nbrs = _cut_edge_hypotheses(G, i, j)
    cut_ok = nbrs is not None
    # the weighted bound sqrt(2 |w(i,i') w(j,j')|) is at most sqrt(2) only here
    hypotheses_ok = sc and cut_ok and abs(G.weight(i, nbrs[0]) * G.weight(j, nbrs[1])) <= 1
    gap: Optional[float] = None
    if support_poly(G, i).degree >= 2:
        gap = min_support_gap(G, i)
    common = theta_p = theta_m = dist = None
    equality = False
    arrow_p = arrow_m = None
    conclusion = "hypotheses not satisfied"
    if sc:
        plus_rf, minus_rf = alpha_pair(G, i, j)
        pf_plus, pf_minus = merged_alphas(G, i, j)
        arrow_p, arrow_m = arrow_matrix(pf_plus), arrow_matrix(pf_minus)
        ev_p = arrow_p.eigenvalues_desc()
        ev_m = arrow_m.eigenvalues_desc()
        partition = support_partition(G, i, j)
        plus_roots = sorted(b.midpoint for b in partition.plus_roots)
        minus_roots = sorted(b.midpoint for b in partition.minus_roots)
        for m in range(len(ev_p)):
            in_plus = any(abs(ev_p[m] - z) < 1e-7 for z in plus_roots)
            in_minus = any(abs(ev_m[m] - z) < 1e-7 for z in minus_roots)
            if in_plus and in_minus:
                common = m
                theta_p, theta_m = float(ev_p[m]), float(ev_m[m])
                dist = abs(theta_p - theta_m)
                break
        if common is None:
            raise GapError("pigeonhole index not found among arrow eigenvalues")
        r = _detect_equality_case(plus_rf, minus_rf)
        if r is not None:
            equality = True
            if not _component_is_p3(G, i):
                raise GapError("equality case detected on a graph that is not P3")
        if hypotheses_ok:
            if gap is not None and gap > SQRT2 + 1e-9:
                raise GapError(f"support gap {gap} exceeds sqrt(2)")
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
        common_index=common,
        theta_plus=theta_p,
        theta_minus=theta_m,
        eigenvalue_distance=dist,
        achieved_gap=gap,
        bound=SQRT2,
        equality_detected=equality,
        conclusion=conclusion,
        arrow_plus=arrow_p,
        arrow_minus=arrow_m,
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

    Without explicit neighbor sets, only the structurally unambiguous
    cut-edge case (single separating neighbor on each side) is detected.
    """
    if i == j:
        raise GapError("need distinct vertices")
    if i_side is None or j_side is None:
        ni = separating_neighbor(G, i, j)
        nj = separating_neighbor(G, j, i)
        if ni is None or nj is None:
            raise GapError(
                "no separating neighbors detected; pass neighbor sets explicitly"
            )
        i_side, j_side = [ni], [nj]
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
    two eigenvalues at distance at most 1, unless the graph is P2."""
    if not G.has_edge(i, j):
        raise GapError("vertices are not adjacent")
    if (min(i, j), max(i, j)) not in bridges(G):
        raise GapError("edge ij is not a bridge")
    if not is_cospectral(G, i, j):
        raise GapError("vertices are not cospectral")
    is_p2 = G.n == 2 and len(G.edges) == 1
    gap = min_support_gap(G, i)
    ok = gap <= 1 + 1e-9
    if not ok and not is_p2:
        raise GapError(f"bridge pair with support gap {gap} > 1")
    return BridgeGapReport((i, j), gap, is_p2, ok)
