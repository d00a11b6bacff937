"""Test oracles: slow, independent routes to what the package computes.

- ``berkowitz_charpoly``: det(tI - A) by Berkowitz, for any graph.
- ``path_sum_bruteforce``: the path sum S_ij, path by path.
- ``FractionPoly``: a polynomial as a plain list of Fractions, for the
  arithmetic of ``polys.Poly`` on its content and primitive vector.
- ``poly_sqrt``: exact polynomial square root (``NotASquareError`` if none),
  for the Wronskian route to S_ij.
- ``squarefree_decomposition``: Yun's algorithm, for root multiplicities.
- ``bisection_isolate``, ``BisectionRoots`` and ``bisection_boxes``: Sturm
  isolation with two chain evaluations per split and refinement by plain
  bisection, for the root boxes of ``polys.RealRoots`` and
  ``polys.isolate_real_roots``.
- ``halve``: one halving of a root box on the bisection grid.
- ``refinement_within``: the sqrt(D) gap verdict by halving the boxes of
  open pairs round by round, an exact tie settled by a gcd, for the sign
  rule of ``polys.roots_within``.
- ``box_has_root``: whether a square-free polynomial vanishes in a root
  box, by exact rational evaluation at its ends, for the index-based root
  classification of ``spectra.projector_entries``.
- ``full_degree_gcd`` and ``full_degree_reduce``: gcds, reduced quotients
  and Cauchy indices by Euclid over Q at full degree (``divmod`` on
  ``Poly``), for the half-degree route of ``polys.poly_gcd`` and
  ``polys.RatFunc.reduce``.
- ``full_degree_record``: a pair's support and both sign quotients by
  those two, the path sum's sign pinned on the top support root, for the
  half-degree and mirrored routes of ``spectra._PairRecord``.
- ``compare_roots``, ``merge_roots`` and ``merge_residue_signs``: the
  residue signs and arrow flags of ``gapcert._residue_signs`` by an exact
  merge of the poles with the numerator's roots on their root boxes, ties
  settled by gcds, for ``polys.RealRoots.signs``.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import ne
from typing import Optional

from pstlab.gapcert import GapError, _on_union
from pstlab.graphs import Graph, delete_vertices
from pstlab.polys import (
    BOX_WIDTH,
    Poly,
    PolyError,
    RatFunc,
    RealRoots,
    RootBox,
    _berkowitz,
    _bisect,
    _div,
    _int_sign_at,
    _positive,
    _rational,
    _root_bound,
    _scaled_rows,
    _shift,
    _sturm_chain_int,
    _unscale,
    charpoly,
    poly_gcd,
    real_roots,
)


class FractionPoly:
    """A polynomial as the list of its Fraction coefficients, low degree
    first, trailing zeros stripped; ``exact_div`` is long division over Q
    with a remainder test."""

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.cs = cs

    def __eq__(self, other) -> bool:
        return self.cs == other.cs

    def __hash__(self) -> int:
        return hash(tuple(self.cs))

    def __add__(self, other: "FractionPoly") -> "FractionPoly":
        n = max(len(self.cs), len(other.cs))
        pad = [0] * n
        return FractionPoly(a + b for a, b in zip(self.cs + pad, other.cs + pad))

    def __neg__(self) -> "FractionPoly":
        return FractionPoly(-c for c in self.cs)

    def __sub__(self, other: "FractionPoly") -> "FractionPoly":
        return self + -other

    def __mul__(self, other: "FractionPoly") -> "FractionPoly":
        out = [Fraction(0)] * (len(self.cs) + len(other.cs))
        for k, a in enumerate(self.cs):
            for m, b in enumerate(other.cs):
                out[k + m] += a * b
        return FractionPoly(out)

    def scale(self, c) -> "FractionPoly":
        return FractionPoly(a * c for a in self.cs)

    def exact_div(self, other: "FractionPoly") -> "FractionPoly":
        rem, b = list(self.cs), other.cs
        quot = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
        for k in range(len(quot) - 1, -1, -1):
            c = quot[k] = rem[k + len(b) - 1] / b[-1]
            for m, y in enumerate(b):
                rem[k + m] -= c * y
        if any(rem):
            raise PolyError("division is not exact")
        return FractionPoly(quot)

    def monic(self) -> "FractionPoly":
        return self.scale(1 / self.cs[-1]) if self.cs else self

    def derivative(self) -> "FractionPoly":
        return FractionPoly(k * c for k, c in enumerate(self.cs) if k)

    def __call__(self, x):
        return sum(c * x ** k for k, c in enumerate(self.cs))


class NotASquareError(PolyError):
    pass


def _fraction_sqrt(c: Fraction) -> Fraction:
    if c < 0:
        raise NotASquareError("negative leading coefficient")
    np_, dp = isqrt(c.numerator), isqrt(c.denominator)
    if np_ * np_ != c.numerator or dp * dp != c.denominator:
        raise NotASquareError(f"{c} is not a rational square")
    return Fraction(np_, dp)


def poly_sqrt(p: Poly) -> Poly:
    """Exact square root with positive leading coefficient, or
    NotASquareError."""
    if p.is_zero():
        raise PolyError("square root of zero polynomial is ambiguous")
    if p.degree % 2:
        raise NotASquareError("odd degree")
    m = p.degree // 2
    lead = _rational(_fraction_sqrt(p.leading))
    q = [0] * (m + 1)
    q[m] = lead
    # solve p_{m+k} = sum_{i+j=m+k} q_i q_j for q_k, k = m-1 .. 0
    for k in range(m - 1, -1, -1):
        acc = 0
        for i in range(k + 1, m + 1):
            j = m + k - i
            if k < j <= m:
                acc += q[i] * q[j]
        target = p.coeffs[m + k] if m + k <= p.degree else 0
        q[k] = _div(target - acc, 2 * lead)
    root = Poly(q)
    if root * root != p:
        raise NotASquareError("polynomial is not a perfect square")
    return root


def berkowitz_charpoly(G: Graph) -> Poly:
    """det(tI - A(G)) for any graph, by the division-free Berkowitz
    recurrence on sparse integer rows that the adjugate table starts from.

    With L the lcm of the weight denominators, det(tI - A) =
    L^-n det((Lt)I - LA), so the coefficient of t^(n-m) is that of the
    integer matrix LA divided exactly by L^m.
    """
    scale, diag, lower = _scaled_rows(G)
    return _unscale(_berkowitz(diag, lower)[::-1], scale, G.n)


def path_sum_bruteforce(G: Graph, i: int, j: int) -> Poly:
    """Sum over simple i-j paths P of rho_P * charpoly(G \\ P)."""
    if i == j:
        raise PolyError("need distinct vertices")
    if G.n > 14:
        raise PolyError("brute-force guard: n <= 14")
    total = Poly.zero()
    stack: list[tuple[int, list[int], Fraction]] = [(i, [i], Fraction(1))]
    while stack:
        v, pathv, rho = stack.pop()
        if v == j:
            total = total + rho * charpoly(delete_vertices(G, set(pathv)))
            continue
        for u in G.neighbors(v):
            if u not in pathv:
                stack.append((u, pathv + [u], rho * G.weight(v, u)))
    return total


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: [(f_m, m)] with p = lead * prod f_m^m, f_m
    square-free, pairwise coprime, monic, nonconstant."""
    if p.is_zero():
        raise PolyError("decomposition of zero")
    p = p.monic()
    if p.degree == 0:
        return []
    out: list[tuple[Poly, int]] = []
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return [(p, 1)]
    w = p.exact_div(g)
    y = p.derivative().exact_div(g)
    z = y - w.derivative()
    m = 1
    while not z.is_zero():
        f = poly_gcd(w, z)
        if f.degree > 0:
            out.append((f.monic(), m))
        w = w.exact_div(f)
        y = z.exact_div(f)
        z = y - w.derivative()
        m += 1
    if w.degree > 0:
        out.append((w.monic(), m))
    return out


def _variations(chain: list[tuple[int, ...]], xn: int, xd: int) -> int:
    signs = [_int_sign_at(ic, xn, xd) for ic in chain]
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def bisection_isolate(fi: tuple[int, ...], chain: list[tuple[int, ...]]) -> list[tuple[int, int, int]]:
    """Sturm bisection of the square-free integer polynomial fi, evaluating
    the chain at both ends of every interval it splits: one interval
    (a, b, d) per real root, in ascending order."""
    b, d = _root_bound(fi)
    total = _variations(chain, -b, d) - _variations(chain, b, d)
    if total < 0:
        raise PolyError("negative Sturm count: the chain is not a Sturm sequence")
    intervals: list[tuple[int, int, int]] = []
    stack = [(-b, b, d, total)]
    while stack:
        a, b, d, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            intervals.append((a, b, d))
            continue
        a, b, mid, d = _bisect(a, b, d)
        while _int_sign_at(fi, mid, d) == 0:
            a, b, mid, d = 2 * a, 2 * b, a + mid, 2 * d
        left = _variations(chain, a, d) - _variations(chain, mid, d)
        if not 0 <= left <= cnt:
            raise PolyError("Sturm counts out of range: the chain is not a Sturm sequence")
        stack.append((a, mid, d, left))
        stack.append((mid, b, d, cnt - left))
    intervals.sort(key=lambda t: Fraction(t[0], t[2]))
    return intervals


class BisectionRoots(RealRoots):
    """``RealRoots`` isolated at once by ``bisection_isolate`` on the Sturm
    chain of the whole square-free part, with no pending cell, and refined
    by plain bisection, one exact evaluation per halving, from the sign at
    each box's lower end as evaluated; the other methods (``boxes``,
    ``integers``, ``multiplicities``, ...) are inherited and read these
    boxes.  ``repeated`` is the last member of the Sturm chain of p, and
    ``fi`` the square-free part, each made positive."""

    def __init__(self, p: Poly):
        if p.is_zero():
            raise PolyError("cannot isolate roots of the zero polynomial")
        fi = _positive(p.vector)
        chain = _sturm_chain_int(fi) if len(fi) > 1 else []
        self.repeated: Optional[Poly] = None
        if chain and len(chain[-1]) > 1:
            self.repeated = Poly(_positive(chain[-1]))
            fi = _positive(Poly(fi).exact_div(self.repeated).vector)
            chain = _sturm_chain_int(fi)
        self.fi = fi
        self.poly = Poly(fi)
        intervals = bisection_isolate(fi, chain) if chain else []
        self._total = len(intervals)
        self._pending = {}
        self._lo = [a for a, _, _ in intervals]
        self._hi = [b for _, b, _ in intervals]
        self._d = [d for _, _, d in intervals]
        self._slo = [_int_sign_at(fi, a, d) for a, _, d in intervals]
        self._fixed: list[Optional[tuple[int, int, int]]] = [None] * len(intervals)

    def narrow(self, k: int, width: Fraction) -> tuple[int, int, int]:
        fi, slo, fixed = self.fi, self._slo[k], self._fixed[k]
        lo, hi, d = self.interval(k)
        wn, wd = width.numerator, width.denominator
        bn, bd = BOX_WIDTH.numerator, BOX_WIDTH.denominator
        while (hi - lo) * wd >= d * wn:
            if fixed is None and (hi - lo) * bd < d * bn:
                fixed = (lo, hi, d)
            lo, hi, mid, d = _bisect(lo, hi, d)
            sm = _int_sign_at(fi, mid, d)
            if sm == 0:
                lo = hi = mid
            elif sm == slo:
                lo = mid
            else:
                hi = mid
        self._lo[k], self._hi[k], self._d[k], self._fixed[k] = lo, hi, d, fixed
        return lo, hi, d


def halve(roots: RealRoots, k: int) -> None:
    """Halve the box of root k on the bisection grid (no-op on an exact
    root): a refinement to the box's own width takes one halving."""
    lo, hi, d = roots.interval(k)
    if lo != hi:
        roots.narrow(k, Fraction(hi - lo, d))


def refinement_within(roots: RealRoots, D: int) -> bool:
    """Whether two consecutive real roots lie at most sqrt(D) apart, by
    refinement.  A pair of boxes decides its gap once (hi' - lo)^2 <= D or
    (lo' - hi)^2 > D, and the boxes of open pairs are halved round by round.
    Once they are all narrower than BOX_WIDTH, f(t) and f(t + sqrt(D))
    f(t - sqrt(D)) are tested for a common real root: if there is one, two
    roots lie exactly sqrt(D) apart, so some consecutive gap is at most
    sqrt(D); if not, no gap equals sqrt(D) and halving decides every
    pair."""
    pending = list(range(len(roots) - 1))
    tested = False
    while pending:
        still = []
        for k in pending:
            alo, ahi, ad = roots.interval(k)
            blo, bhi, bd = roots.interval(k + 1)
            scale = D * (ad * bd) ** 2
            up = bhi * ad - alo * bd
            if up * up <= scale:
                return True
            low = blo * ad - ahi * bd
            if low <= 0 or low * low <= scale:
                still.append(k)
        ends = sorted(set(still) | {k + 1 for k in still})
        if not tested and all(Fraction(hi - lo, d) < BOX_WIDTH for lo, hi, d in map(roots.interval, ends)):
            tested = True
            A, B = _shift(roots.fi, D)
            h = poly_gcd(roots.poly, A * A - B * B * D)
            if h.degree > 0 and any(roots.vanishing(h)):
                return True
        for k in ends:
            halve(roots, k)
        pending = still
    return False


def box_has_root(p: Poly, box: RootBox) -> bool:
    """Whether p vanishes inside an isolating box produced for a polynomial
    whose roots include those of p (square-free p)."""
    if box.lo == box.hi:
        return p(box.lo) == 0
    return p(box.lo) * p(box.hi) < 0


def bisection_boxes(p: Poly) -> tuple[RootBox, ...]:
    """``isolate_real_roots`` by the oracles: the boxes of
    ``BisectionRoots``, each with the multiplicity of the Yun factor that
    vanishes in it."""
    factors = squarefree_decomposition(p)
    return tuple(
        RootBox(box.lo, box.hi, next(m for f, m in factors if box_has_root(f, box)))
        for box in BisectionRoots(p).boxes()
    )


def compare_roots(a: RealRoots, k: int, b: RealRoots, m: int) -> int:
    """Sign of root k of a minus root m of b.  Boxes that overlap are
    bisected until they are apart, unless root k is a root of gcd(a, b): then
    it is root m exactly when its box shrinks inside the box of m, so ties
    are decided exactly."""
    common = None
    while True:
        alo, ahi, ad = a.interval(k)
        blo, bhi, bd = b.interval(m)
        if ahi * bd <= blo * ad:
            return 0 if alo == ahi and blo == bhi and ahi * bd == blo * ad else -1
        if bhi * ad <= alo * bd:
            return 1
        # the boxes overlap inside: one of them is not exact
        if alo == ahi or blo == bhi:
            # an exact root inside the other box is the other root iff it is
            # a root of the other polynomial
            if alo == ahi and _int_sign_at(b.fi, alo, ad) == 0:
                return 0
            if blo == bhi and _int_sign_at(a.fi, blo, bd) == 0:
                return 0
            halve(a, k)
            halve(b, m)
            continue
        if common is None:
            g = poly_gcd(a.poly, b.poly)
            common = g.degree > 0 and a.has_root(k, g)
        if common:
            if blo * ad < alo * bd and ahi * bd < bhi * ad:
                return 0
        else:
            halve(b, m)
        halve(a, k)


def merge_roots(
    a: list[tuple[RealRoots, int]], b: list[tuple[RealRoots, int]]
) -> list[tuple[int, int, bool]]:
    """Merge two ascending lists of roots into one ascending order: entries
    (0 for a or 1 for b, position in that list, equal to the entry before),
    a root of a first when it ties with one of b."""
    out: list[tuple[int, int, bool]] = []
    x = y = 0
    while x < len(a) and y < len(b):
        c = compare_roots(*a[x], *b[y])
        if c > 0:
            out.append((1, y, False))
            y += 1
            continue
        out.append((0, x, False))
        x += 1
        if c == 0:
            out.append((1, y, True))
            y += 1
    out += [(0, p, False) for p in range(x, len(a))]
    out += [(1, p, False) for p in range(y, len(b))]
    return out


def merge_residue_signs(f: RatFunc, poles: RealRoots, own: list[bool]) -> tuple[bool, ...]:
    """``gapcert._residue_signs`` by one exact merge of the poles with the
    real roots of odd multiplicity of f's numerator.  With num and den
    monic, num(r) has the sign (-1)^(roots of num above r) and den'(r) the
    sign (-1)^(poles of f above r), so mu = -num(r)/den'(r) > 0 iff their
    sum is odd; the lowest pole that breaks this raises.  The arrow flags
    count the roots above each pole that f lacks."""
    roots = real_roots(f.num)
    num = [(roots, k) for k, m in enumerate(roots.multiplicities()) if m % 2]
    above: list[int] = [0] * len(own)
    tied: list[bool] = [False] * len(own)
    seen = 0
    for side, pos, tie in merge_roots(num, [(poles, u) for u in range(len(own))]):
        if side == 0:
            seen += 1
        else:
            above[pos], tied[pos] = len(num) - seen, tie
    negative, own_above, flags, emitted = None, 0, [], 0
    for u in reversed(range(len(own))):
        if own[u]:
            if (above[u] + own_above) % 2 == 0:
                negative = u
            own_above += 1
        else:
            flags += [True] * (above[u] - emitted) + [tied[u]]
            emitted = above[u]
    if negative is not None:
        raise GapError(f"negative residue {_on_union(f, own)[negative]}")
    return tuple(flags + [True] * (len(num) - emitted))


def _euclid_sequence(p: Poly, q: Poly) -> list[Poly]:
    """The signed remainder sequence p, q, -(p mod q), ... over Q by
    ``divmod``, up to its last nonzero member, for p != 0."""
    seq = [p, q]
    while not seq[-1].is_zero():
        seq.append(-(seq[-2] % seq[-1]))
    return seq[:-1]


def full_degree_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd(p, q) for p != 0, by Euclid over Q at full degree."""
    return _euclid_sequence(p, q)[-1].monic()


def full_degree_reduce(num: Poly, den: Poly) -> tuple[RatFunc, int]:
    """``RatFunc.reduce`` at full degree by Euclid over Q: num and den
    divided by the last member of their signed remainder sequence, the
    denominator made monic, and the Cauchy index of den/num as V(-inf) -
    V(+inf) on that sequence, read off the leading coefficients and
    degrees."""
    if num.is_zero():
        return RatFunc(Poly.zero(), Poly.one()), 0
    seq = _euclid_sequence(num, den)
    high = [p.leading > 0 for p in seq]
    low = [up == (p.degree % 2 == 0) for up, p in zip(high, seq)]
    index = sum(map(ne, low, low[1:])) - sum(map(ne, high, high[1:]))
    num, den = num // seq[-1], den // seq[-1]
    return RatFunc(num.scale(1 / Fraction(den.leading)), den.monic()), index


def full_degree_record(phi: Poly, phi_i: Poly, s: Poly):
    """(support, signed s, (alpha+, index+), (alpha-, index-)) of the pair
    record on phi, phi(G \\ i) and the path sum s, every gcd at full
    degree: the support is phi / gcd(phi, phi_i), and each sign quotient is
    phi over phi_i +- s reduced, by ``full_degree_gcd`` and
    ``full_degree_reduce``, with the sign of s chosen so that the top
    support root is a root of the plus numerator."""
    support = (phi // full_degree_gcd(phi, phi_i)).monic()
    quotients = full_degree_reduce(phi, phi_i + s), full_degree_reduce(phi, phi_i - s)
    if not s.is_zero():
        roots = RealRoots(support)
        top = roots.boxes()[-1]
        if not box_has_root(quotients[0][0].num, top):
            s, quotients = -s, quotients[::-1]
    return (support, s) + quotients
