"""Exact polynomial arithmetic over the rationals, on an integer kernel.

A ``Poly`` is a positive rational content times a primitive integer
vector with the polynomial's signs, and the kernel reads that vector with
no conversion; products and exact divisions work on vectors and contents
apart (Gauss's lemma).  One loop, the signed remainder sequence over the
integers (``_remainder_sequence``), gives the Sturm chains, the gcds, the
Cauchy index that ``RatFunc.reduce`` returns and the signs of a polynomial
at the roots of another (``RealRoots.signs``, by Sturm-Tarski).  On even
or odd polynomials t^e R(t^2) it runs on the R parts: for every gcd and
reduction whose two inputs are even or odd (``_split_sequence``), so for a
pair's support and sign quotients in ``spectra`` too, for gcd(phi, phi')
and for the Sturm counts.  Small helpers reduce integer lists modulo a monic f and a small
prime p for ``pst.ratio_witness``.

A graph's polynomials are kept on its table (``_tables``, an LRU of 16
graphs) and nowhere else: phi(G), gcd(phi, phi'), each phi(G \\ v) and
phi(G \\ {i, j}) once read, and the strong verdicts; the quotient
(phi(G \\ i) phi(G \\ j) - S_ij^2) / phi(G) is memoized on what it reads.
A loopless integer-weighted forest gets branch polynomials
(``_ForestTables``), every other graph an adjugate table
(``_AdjugateTable``): Berkowitz on sparse integer rows, and a column of
adj(tI - A) by Faddeev-LeVerrier for each vertex that is read.  A forest's
table also reads each i-j path off its parent links, for S_ij and for the
cut-edge pair of the gap certificate (``cut_pair``).

Both tables keep each polynomial P as the integer P(X) at X = 2^b
(Kronecker substitution), with 2^(b - 1) above the absolute coefficient
sum of every polynomial they read: prod_e (1 + w_e^2) on a forest (the
matching expansion), Hadamard's bound on the minors of sI - A otherwise.
A table multiplies and divides these integers, groups cospectral vertices
by them and tests g(X) | P(X) before g | P; a coefficient list is
unpacked only when it is read.

A polynomial's roots are kept by ``real_roots``: isolated by Sturm
bisection only where a caller reads them, with the cells that hold two
roots or more kept pending, no evaluation past a Fujiwara bound and, for an
even or odd t^e R(t^2), the counts taken on the Sturm chain of R; a box is
refined only while a decision that reads it is open, by quadratic interval
refinement on the bisection grid; the sqrt(D) gap bound (``roots_within``)
reads signs at the roots instead.  The last member of the Sturm chain,
gcd(p, p'), gives the root multiplicities and the tables' repeated part,
and decides whether poles are simple.  Floats are diagnostics only: root
midpoints and the residues of ``residue_at``, on the 2^-40 boxes of
``isolate_real_roots``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm, prod
from operator import mul, ne
from typing import Iterable, Optional

from .graphs import Graph, GraphError, delete_vertices

#: refined root boxes are bisected below this width
BOX_WIDTH = Fraction(1, 2**40)


class PolyError(ValueError):
    pass


def _rational(c):
    """c as an exact rational: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _div(a, b):
    """Exact quotient a / b of two rationals; never a float for int inputs."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def _mul(a, b) -> list:
    """Product of two nonempty coefficient sequences, low degree first."""
    if len(b) == 1:
        return [x * b[0] for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for k, x in enumerate(a):
        if x:
            for m, y in enumerate(b):
                out[k + m] += x * y
    return out


_set = object.__setattr__


class Poly:
    """Dense univariate polynomial with rational coefficients: a positive
    rational ``content`` (an int when integral, 1 for zero) times
    ``vector``, a primitive integer tuple with the polynomial's signs, low
    degree first (() for zero).  ``coeffs``, the coefficients as ints where
    integral and Fractions otherwise, is built when first read, and is
    ``vector`` itself when the content is 1."""

    __slots__ = ("vector", "content", "_coeffs", "_hash")

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if type(c) is int else _rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        scale = lcm(*[c.denominator for c in cs])
        if scale != 1:
            cs = [c.numerator * (scale // c.denominator) for c in cs]
        g = gcd(cs[-1], *cs) if cs else 1  # the leading one first: monic costs no gcd
        self._put(tuple(cs) if g == 1 else tuple([c // g for c in cs]),
                  g if scale == 1 else _rational(Fraction(g, scale)))

    def _put(self, vector: tuple, content) -> None:
        _set(self, "vector", vector)
        _set(self, "content", content)
        _set(self, "_coeffs", vector if content == 1 else None)

    @staticmethod
    def _of(vector: tuple, content=1) -> "Poly":
        """content times vector, for a vector that is already primitive and
        a content in the form ``Poly`` keeps; no gcd is taken."""
        p = object.__new__(Poly)
        p._put(vector, content)
        return p

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "Poly":
        return Poly._of(())

    @staticmethod
    def one() -> "Poly":
        return Poly._of((1,))

    @staticmethod
    def x() -> "Poly":
        return Poly._of((0, 1))

    @staticmethod
    def constant(c) -> "Poly":
        return Poly((c,))

    @staticmethod
    def linear(r) -> "Poly":
        """t - r"""
        return Poly((-Fraction(r), 1))

    # -- basics ------------------------------------------------------------
    @property
    def coeffs(self) -> tuple:
        cs = self._coeffs
        if cs is None:
            c = self.content
            cs = tuple([_rational(x * c) for x in self.vector])
            _set(self, "_coeffs", cs)
        return cs

    @property
    def degree(self) -> int:
        return len(self.vector) - 1

    def is_zero(self) -> bool:
        return not self.vector

    @property
    def leading(self):
        return self.coeffs[-1] if self.vector else 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.vector == other.vector
                and self.content == other.content)

    def __hash__(self) -> int:
        # computed once: the memos keyed by polynomials hash them on every
        # lookup
        try:
            return self._hash
        except AttributeError:
            h = hash((self.vector, self.content))
            _set(self, "_hash", h)
            return h

    def __reduce__(self):
        # rebuilt from the coefficients: the slots cannot be restored through
        # the guarded __setattr__, and the hash is recomputed when read
        return Poly, (self.coeffs,)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"

    def __setattr__(self, *args):
        raise AttributeError("Poly is immutable")

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly._of(tuple([-c for c in self.vector]), self.content)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero() or other.is_zero():
                return Poly.zero()
            return Poly._of(tuple(_mul(self.vector, other.vector)),
                            _rational(self.content * other.content))
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = _rational(c)
        if not c or not self.vector:
            return Poly.zero()
        vector = self.vector if c > 0 else tuple([-x for x in self.vector])
        return Poly._of(vector, _rational(self.content * abs(c)))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(), self
        quot = [0] * (dq + 1)
        lead = other.leading
        for k in range(dq, -1, -1):
            c = _div(rem[k + other.degree], lead)
            quot[k] = c
            if c:
                for m, b in enumerate(other.coeffs):
                    rem[k + m] -= c * b
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        """self / other, or PolyError when other does not divide self.

        The vectors are divided by exact integer long division: by Gauss's
        lemma their quotient is integral, and primitive, when other divides
        self, so a step that is not integral means the division is not
        exact.  The quotient of the contents is applied last."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = Poly._of(tuple(_quo_exact(self.vector, other.vector)))
        ca, cb = self.content, other.content
        return q if ca == cb else q.scale(_div(ca, cb))

    def derivative(self) -> "Poly":
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def monic(self) -> "Poly":
        v = self.vector
        if not v or (v[-1] == 1 and self.content == 1):
            return self
        return Poly._of(v).scale(Fraction(1, v[-1]))

    def __call__(self, x):
        acc = 0 * x if not isinstance(x, Fraction) else Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- serialization -----------------------------------------------------
    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]


def _primitive(cs) -> tuple[int, ...]:
    """Integer vector divided by its (positive) content."""
    content = gcd(*cs)
    if content <= 1:
        return tuple(cs)
    return tuple(c // content for c in cs)


def _quo_exact(a, b) -> list:
    """a / b for integer coefficient lists (low degree first) when the
    quotient is integral, as for a primitive b dividing a (Gauss's lemma);
    PolyError when a step or the remainder shows it is not.  [] when a is
    zero."""
    db, lead = len(b) - 1, b[-1]
    rem = list(a)
    while rem and rem[-1] == 0:
        rem.pop()
    if db == 1 and not b[0] and lead == 1:  # b = t
        if rem and rem[0]:
            raise PolyError("division is not exact")
        return rem[1:]
    quot = [0] * max(len(rem) - db, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + db]
        if lead != 1:
            c, r = divmod(c, lead)
            if r:
                raise PolyError("division is not exact")
        if c:
            quot[k] = c
            for m in range(db):
                rem[k + m] -= c * b[m]
    if any(rem[:db]):
        raise PolyError("division is not exact")
    return quot


def _prem(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Remainder of a modulo b, times a positive integer, over the integers
    (pseudo-division by |lc(b)|); trailing zeros are trimmed."""
    if b[-1] < 0:
        b = tuple(-c for c in b)
    lead, db = b[-1], len(b) - 1
    rem = list(a)
    for k in range(len(a) - len(b), -1, -1):
        c = rem.pop()
        if lead != 1:
            rem = [lead * x for x in rem]
        if c:
            for m in range(db):
                rem[k + m] -= c * b[m]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _remainder_sequence(a: tuple[int, ...], b: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The signed remainder sequence a, b, -rem(a, b), ... of the integer
    vectors a != 0 and b, each member scaled by a positive rational to a
    primitive vector, up to its last nonzero member, the primitive gcd up to
    sign.  ``_prem`` gives positive multiples of the remainders, so the
    scaling keeps every sign that Sturm's and Sturm-Tarski's theorems read
    (Basu, Pollack and Roy, *Algorithms in Real Algebraic Geometry*, ch. 2)."""
    seq = [a]
    while b:
        rem = _prem(a, b)
        content = -gcd(*rem)  # negative: the next member is -rem, made primitive
        a, b = b, tuple([c // content for c in rem])
        seq.append(a)
    return seq


def _end_variations(seq: list[tuple[int, ...]]) -> tuple[int, int]:
    """(V(-inf), V(+inf)): the sign changes along seq at -+inf, read off the
    leading coefficients and degrees."""
    high = [m[-1] > 0 for m in seq]
    low = [up == (len(m) % 2 == 1) for up, m in zip(high, seq)]
    return sum(map(ne, low, low[1:])), sum(map(ne, high, high[1:]))


def _cauchy_index(seq: list[tuple[int, ...]]) -> int:
    """The Cauchy index of b/a over the reals for the signed remainder
    sequence of a and b: V(-inf) - V(+inf)."""
    low, high = _end_variations(seq)
    return low - high


def _zero_variations(seq: list[tuple[int, ...]]) -> int:
    """V(0) on seq, read off the constant terms.  On the signed remainder
    sequence of N and D with N(0) != 0, V(0) - V(+inf) is the Cauchy index of
    D/N over (0, +inf), the number of positive roots of N when D = N'."""
    at_zero = [m[0] > 0 for m in seq if m[0]]
    return sum(map(ne, at_zero, at_zero[1:]))


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd by a primitive remainder sequence over the integers, at
    half the degree when p and q are even or odd (``_split_sequence``);
    gcd(p, 0) = monic p."""
    if p.is_zero() and q.is_zero():
        raise PolyError("gcd of two zero polynomials")
    a, b = p.vector, q.vector
    if len(a) < len(b):
        a, b = b, a
    seq, halves = _split_sequence(a, b)
    return Poly._of(seq[-1] if halves is None else _halve(seq[-1], min(halves))).monic()


def divides(g: Poly, p: Poly) -> bool:
    """Whether the nonzero g divides p, by a pseudo-remainder over the
    integers."""
    return not p.vector or not _prem(p.vector, g.vector)


def _parity_split(fi) -> Optional[tuple[int, tuple[int, ...]]]:
    """(e, R) for the nonzero integer polynomial fi = t^e R(t^2) with R(0)
    != 0, None when fi is neither even nor odd."""
    e = 0
    while not fi[e]:
        e += 1
    rest = fi[e:]
    return None if any(rest[1::2]) else (e, rest[::2])


def _even_odd(fi) -> Optional[tuple[int, tuple[int, ...]]]:
    """``_parity_split`` of fi when deg R >= 1, None otherwise."""
    half = _parity_split(fi)
    return half if half is not None and len(half[1]) > 1 else None


def _halve(cs, e: int) -> tuple[int, ...]:
    """The coefficients of t^e R(t^2) for R = cs."""
    out = [0] * (e + 2 * len(cs) - 1)
    out[e::2] = cs
    return tuple(out)


def _split_sequence(a, b) -> tuple[list[tuple[int, ...]], Optional[tuple[int, int]]]:
    """The signed remainder sequence that gives gcd(a, b) for the nonzero
    integer vector a and any b, and (p, q) when it runs at half the degree:
    for a = t^p N(t^2) and b = t^q D(t^2) with N(0) D(0) != 0
    (``_parity_split``), it is that of N and D, and gcd(a, b) = t^m G(t^2)
    for m = min(p, q) and G = gcd(N, D), its last member.  t divides neither
    N(t^2) nor D(t^2), and u N + v D = G in x gives u(t^2) N(t^2) + v(t^2)
    D(t^2) = G(t^2).  Otherwise it is that of a and b, with None."""
    half_a = _parity_split(a)
    half_b = half_a and b and _parity_split(b)
    if not half_b:
        return _remainder_sequence(a, b), None
    (p, N), (q, D) = half_a, half_b
    return _remainder_sequence(N, D), (p, q)


# -- F_p[u] on integer lists, low degree first, for a small prime p --------


def _rem_mod(a, f, p: int) -> list[int]:
    """a mod (f, p) for a monic f, coefficients in [0, p); [] for zero."""
    df = len(f) - 1
    rem = [c % p for c in a]
    for k in range(len(rem) - 1 - df, -1, -1):
        c = rem.pop()
        if c:
            for m in range(df):
                rem[k + m] = (rem[k + m] - c * f[m]) % p
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _monic_mod(a, p: int) -> list[int]:
    """The nonzero a over F_p scaled to leading coefficient 1."""
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _mul_mod(a, b, f, p: int) -> list[int]:
    """a b mod (f, p) for a monic f."""
    return _rem_mod(_mul(a, b), f, p) if a and b else []


def pow_x_mod(q: int, f, p: int) -> list[int]:
    """x^q mod (f, p) for a monic f, by square and multiply."""
    r = [1]
    for bit in bin(q)[2:]:
        r = _mul_mod(r, r, f, p)
        if bit == "1":
            r = _rem_mod([0] + r, f, p)
    return r


def gcd_mod(f, b, p: int) -> list[int]:
    """Monic gcd over F_p of a monic f and any b."""
    a, b = [c % p for c in f], _rem_mod(b, f, p)
    while b:
        a, b = b, _rem_mod(a, _monic_mod(b, p), p)
    return _monic_mod(a, p)


def square_free_part(p: Poly) -> Poly:
    if p.is_zero():
        raise PolyError("square-free part of zero")
    if p.degree == 0:
        return Poly.one()
    return p.exact_div(poly_gcd(p, p.derivative())).monic()


# ---------------------------------------------------------------------------
# characteristic polynomial (Berkowitz, division-free)


def _berkowitz(diag: list[int], lower: list[list[tuple[int, int]]]) -> list[int]:
    """Coefficients of det(tI - A), high degree first, for the symmetric
    integer matrix A with diagonal ``diag`` and off-diagonal entries
    ``lower[p] = [(q, A[p][q]) for q < p]``.

    Step k borders the leading p x p block B (p = k - 1) with row and column
    p, which are the same sparse vector c = ``lower[p]``; B's entries are the
    diagonal and the pairs in ``lower[:p]``.  The Toeplitz column needs
    c B^s c for s < p, and by symmetry c B^s c = (B^a c).(B^(s-a) c), so
    the powers B^a c for a <= p/2 suffice.
    """
    coeffs = [1]
    for k in range(1, len(diag) + 1):
        p = k - 1
        v = [0] * p
        for q, w in lower[p]:
            v[q] = w
        powers = [v]
        for _ in range(p // 2):
            # v <- B v
            nv = [d * x for d, x in zip(diag, v)]
            for r in range(1, p):
                x = v[r]
                acc = nv[r]
                for q, w in lower[r]:
                    acc += w * v[q]
                    nv[q] += w * x
                nv[r] = acc
            v = nv
            powers.append(v)
        # the Toeplitz column reversed: col[k - m] is its entry m
        col = [
            -sum(map(mul, powers[s // 2], powers[s - s // 2]))
            for s in range(p - 1, -1, -1)
        ]
        col += [-diag[p], 1]
        coeffs = [sum(map(mul, col[k - i:], coeffs)) for i in range(k + 1)]
    return coeffs


def _scaled_rows(G: Graph) -> tuple[int, list[int], list[list[tuple[int, int]]]]:
    """(L, diag, lower) for the integer matrix L A(G), with L the lcm of the
    weight denominators: its diagonal, and ``lower[p] = [(q, L A[p][q]) for
    q < p]``."""
    scale = lcm(*(w.denominator for _, _, w in G.edges))
    diag = [0] * G.n
    lower: list[list[tuple[int, int]]] = [[] for _ in range(G.n)]
    for u, v, w in G.edges:
        w = w.numerator * (scale // w.denominator)
        if u == v:
            diag[u] = w
        else:
            lower[v].append((u, w))
    return scale, diag, lower


def _unscale(cs: list, scale: int, d: int) -> Poly:
    """The polynomial in t behind cs (low degree first), a polynomial of
    formal degree d in s = L t taken from the matrix L A: its coefficient of
    s^m is L^(d - m) times that of t^m."""
    if scale == 1:
        return Poly(cs)
    return Poly([_div(c, scale ** (d - m)) for m, c in enumerate(cs)])


def _unpack(value: int, bits: int) -> list[int]:
    """The coefficient list (low degree first, [] for zero) of the P with
    P(2^bits) = value, for a P whose coefficients lie in [-2^(bits-1),
    2^(bits-1)): the balanced base-2^bits digits of value."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    out = []
    while value:
        c = value & mask
        if c >= half:
            c -= mask + 1
        out.append(c)
        value = (value - c) >> bits
    return out


def _quo_packed(a: int, b: int) -> int:
    """a / b for the values of polynomials at X = 2^bits, PolyError on a
    nonzero remainder."""
    q, r = divmod(a, b)
    if r:
        raise PolyError("division is not exact")
    return q


class _Table:
    """The polynomials of one graph for the integer matrix ``scale`` * A,
    each kept as its value at X = 2^bits: a product is an integer product,
    an exact division an integer division checked by its remainder, and a
    coefficient list (low degree first) is read off the balanced base-X
    digits when it is read.  A subclass sets ``bits`` with 2^(bits - 1)
    above the absolute coefficient sum of every polynomial it unpacks, and
    gives the values of the monic characteristic polynomial (``_total``),
    of phi(G - v) (``_deleted_value``) and of the path sum S_ij (``_path``).
    The roots of phi then lie below X in absolute value (Cauchy), so a monic
    divisor of phi, such as gcd(phi, phi'), is not zero at X.

    phi(G - {i, j}) = (phi(G - i) phi(G - j) - S_ij^2) / phi(G), Jacobi's
    identity for the 2 x 2 minors of adj(tI - A), is one exact division of
    values; the product is never unpacked."""

    n: int
    bits: int
    scale = 1
    _total: int

    def __init__(self):
        # memos: phi(G - S) by S, pair values by pair and by what they read,
        # strong verdicts by value
        self._deleted, self._pairs, self._pair_quotients, self._strong = {}, {}, {}, {}

    def _deleted_value(self, v: int) -> int:
        raise NotImplementedError

    def _path(self, i: int, j: int) -> int:
        raise NotImplementedError

    @cached_property
    def total(self) -> list:
        return _unpack(self._total, self.bits)

    @cached_property
    def charpoly(self) -> Poly:
        return _unscale(self.total, self.scale, self.n)

    def deleted_raw(self, v: int) -> list:
        return _unpack(self._deleted_value(v), self.bits)

    def path_raw(self, i: int, j: int) -> list:
        return _unpack(self._path(i, j), self.bits)

    def deleted(self, *vertices: int) -> Poly:
        """phi(G - vertices) for one vertex or two in ascending order, built
        when first read and kept."""
        poly = self._deleted.get(vertices)
        if poly is None:
            value = (self._pair_value(*vertices) if vertices[1:]
                     else self._deleted_value(*vertices))
            raw = _unpack(value, self.bits)
            poly = self._deleted[vertices] = _unscale(raw, self.scale, self.n - len(vertices))
        return poly

    def deleted_all(self) -> tuple[Poly, ...]:
        return tuple(map(self.deleted, range(self.n)))

    def class_key(self, v: int) -> int:
        """Equal for two vertices exactly when their phi(G - v) are."""
        return self._deleted_value(v)

    def path_sum(self, i: int, j: int) -> Poly:
        return _unscale(self.path_raw(i, j), self.scale, self.n - 1)

    def _pair_value(self, i: int, j: int) -> int:
        """phi(G - {i, j}) at X, kept for the pair and memoized on what the
        quotient reads: phi(G - i) and phi(G - j) as an unordered pair and
        S_ij.  The memo lives on the table, so the table's own total and
        scale are part of its key.  The pairs of a symmetric graph carry
        equal values, so they share one exact division (Q6: 6 quotients for
        its 2016 cospectral pairs)."""
        pair = (i, j) if i < j else (j, i)
        value = self._pairs.get(pair)
        if value is None:
            s, di, dj = self._path(i, j), self._deleted_value(i), self._deleted_value(j)
            key = (di, dj, s) if di <= dj else (dj, di, s)
            value = self._pair_quotients.get(key)
            if value is None:
                value = self._pair_quotients[key] = _quo_packed(di * dj - s * s, self._total)
            self._pairs[pair] = value
        return value

    @cached_property
    def _gcd(self) -> tuple[Poly, int]:
        """gcd(phi, phi') of ``scale`` * A, taken once as ``RealRoots``
        takes it (at half the degree when phi is even or odd, as on a
        forest), and its value at X."""
        g = Poly._of(_positive(_chain_and_repeated(tuple(self.total))[2]))
        return g, g(1 << self.bits)

    @cached_property
    def repeated_part(self) -> Poly:
        """gcd(phi, phi'): each eigenvalue of multiplicity m >= 2 as a root
        of multiplicity m - 1, and no other root."""
        g = self._gcd[0]
        return _unscale(g.coeffs, self.scale, g.degree)

    def may_divide(self, i: int, j: int) -> bool:
        """Whether the value of gcd(phi, phi') at X divides that of
        phi(G - {i, j}); a polynomial divisor divides at every integer, so
        False proves that gcd(phi, phi') does not divide phi(G - {i, j})."""
        return self._pair_value(i, j) % self._gcd[1] == 0

    def strong(self, i: int, j: int) -> bool:
        """Whether gcd(phi, phi') divides phi(G - {i, j}): False when
        ``may_divide`` is, else by polynomial division, memoized on the value
        of phi(G - {i, j})."""
        g = self._gcd[0]
        if not g.degree:
            return True
        if not self.may_divide(i, j):
            return False
        value = self._pair_value(i, j)
        verdict = self._strong.get(value)
        if verdict is None:
            verdict = self._strong[value] = divides(g, Poly(_unpack(value, self.bits)))
        return verdict


class _ForestTables(_Table):
    """Branch polynomials of a loopless integer-weighted forest G, each
    component rooted at its least vertex, packed as in ``_Table``.

    Every polynomial that is unpacked is a forest characteristic polynomial
    or |w(P)| times one.  phi(F) = sum over the matchings M of F of (-1)^|M|
    prod_{e in M} w_e^2 t^(n - 2|M|), so its absolute coefficient sum is the
    sum over the matchings of prod w_e^2, at most prod_e (1 + w_e^2) over the
    edges of G; and |w(P)| <= prod_{e in P} (1 + w_e^2) for a path P whose
    edges are not in G - P.  ``bits`` makes 2^(bits - 1) exceed that bound,
    so each phi_c, a divisor of phi(G), is not zero at X either.

    The downward pass gives phi_v = phi(T_v) and psi_v = phi(T_v - v), the
    product of phi_c over the children c, for each rooted subtree T_v:
    phi_v = t psi_v - sum_c w_vc^2 psi_c prod_{c' != c} phi_c'.

    The upward pass, run when first read, gives up_v = phi(G - T_v), so that
    phi(G - v) = up_v psi_v is the product of the branches at v (Schwenk
    1974); a root starts from the other components, up_r = phi(G) / phi_r.
    Expanding phi(G) along the bridge from a child c to its parent v gives
    phi(G) = phi_c up_c - w_vc^2 psi_c Q with Q = phi(G - T_c - v) =
    phi(G - v) / phi_c, so up_c = (phi(G) + w_vc^2 psi_c Q) / phi_c: two exact
    divisions by phi_c per edge, each checked by its integer remainder.  A
    forest has at most one i-j path P, so S_ij is w(P) phi(G - P); the table
    keeps |w(P)|.
    """

    def __init__(self, parent: list[int], depth: list[int], weight: list[int],
                 order: list[int], children: list[list[int]]):
        # order lists every vertex after its parent; weight[c] = |w(c, parent)|
        super().__init__()
        self.parent, self.depth, self.weight = parent, depth, weight
        self.order, self.children = order, children
        self.n = n = len(parent)
        self.bits = b = prod(1 + w * w for w in weight).bit_length() + 1
        phi: list = [0] * n
        psi: list = [0] * n
        for v in reversed(order):
            psi_v, tail = 1, 0
            for c in children[v]:
                # tail = sum over the children c so far of w^2 psi_c prod phi_c'
                w2 = weight[c] * weight[c]
                if children[c]:
                    tail = tail * phi[c] + w2 * psi[c] * psi_v
                    psi_v *= phi[c]
                else:  # a leaf: phi_c = X, psi_c = 1
                    tail = (tail << b) + w2 * psi_v
                    psi_v <<= b
            phi[v], psi[v] = (psi_v << b) - tail, psi_v
        self.phi, self.psi = phi, psi
        self._total = prod(phi[v] for v in order if parent[v] < 0)

    @cached_property
    def _upward(self) -> tuple[list, list]:
        """(up_v, phi(G - v)) at X for every vertex v."""
        phi, psi, total = self.phi, self.psi, self._total
        up: list = [0] * self.n
        deleted: list = [0] * self.n
        for v in self.order:
            if self.parent[v] < 0:
                up[v] = _quo_packed(total, phi[v])
            dv = deleted[v] = up[v] * psi[v]
            for c in self.children[v]:
                w2 = self.weight[c] * self.weight[c]
                q = _quo_packed(dv, phi[c])
                up[c] = _quo_packed(total + w2 * psi[c] * q, phi[c])
        return up, deleted

    def _deleted_value(self, v: int) -> int:
        return self._upward[1][v]

    def _tree_path(self, i: int, j: int) -> Optional[tuple[list[int], int]]:
        """(the i-j path from i to j, its top vertex m), from the climbs up
        the rooted forest from i and from j that meet at m; None when i and
        j lie in different components."""
        parent, depth = self.parent, self.depth
        up_i, up_j = [i], [j]
        while up_i[-1] != up_j[-1]:
            side = up_i if depth[up_i[-1]] >= depth[up_j[-1]] else up_j
            if parent[side[-1]] < 0:
                return None
            side.append(parent[side[-1]])
        return up_i + up_j[-2::-1], up_i[-1]

    def _path(self, i: int, j: int) -> int:
        """|w(P)| phi(G - P) at X for the i-j path P, 0 when there is none:
        phi(G - P) is the product of the branches off P, which are the
        children off P of the path's vertices and the branch above its top."""
        found = self._tree_path(i, j)
        if found is None:
            return 0
        path, top = found
        on_path = set(path)
        out = prod(self.weight[v] for v in path if v != top) * self._upward[0][top]
        for v in on_path:
            for c in self.children[v]:
                if c not in on_path:
                    out *= self.phi[c]
        return out

    def cut_pair(self, i: int, j: int) -> Optional[tuple[int, int]]:
        """(i', j') of the gap certificate's cut-edge hypotheses for i != j:
        for each of i and j, the least neighbor other than the other vertex
        whose edge separates the two.  Every edge of a forest is a cut-edge.
        In one component that neighbor is the next vertex on the i-j path,
        so there is none at distance 1; in two, any neighbor separates them,
        and an isolated vertex has none."""
        found = self._tree_path(i, j)
        if found is None:
            least = [min(self.children[v] + ([self.parent[v]] if self.parent[v] >= 0 else []),
                         default=None) for v in (i, j)]
            return None if None in least else (least[0], least[1])
        path = found[0]
        return None if len(path) == 2 else (path[1], path[-2])


def _forest_tables(G: Graph) -> Optional[_ForestTables]:
    """The branch tables of a loopless integer-weighted forest, None for any
    other graph."""
    n = G.n
    if len(G.edges) >= n:
        return None
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, w in G.edges:
        if u == v or w.denominator != 1:
            return None
        adj[u].append((v, abs(w.numerator)))
        adj[v].append((u, abs(w.numerator)))
    parent, depth, weight = [-1] * n, [0] * n, [0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    seen = [False] * n
    order: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for u, w in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    parent[u], depth[u], weight[u] = v, depth[v] + 1, w
                    children[v].append(u)
                    stack.append(u)
    if len(G.edges) != n - parent.count(-1):
        return None  # a cycle
    return _ForestTables(parent, depth, weight, order, children)


class _AdjugateTable(_Table):
    """Columns of adj(sI - A') for the integer matrix A' = L A of any graph
    (L the lcm of the weight denominators), each computed when first read,
    and their entries packed as in ``_Table`` when read.

    Berkowitz gives phi' = det(sI - A') = s^n + c_1 s^(n-1) + ... + c_n.
    By Faddeev-LeVerrier, adj(sI - A') = sum_k B_k s^(n-1-k) with B_0 = I
    and B_k = A' B_(k-1) + c_k I, so column i is B_k e_i = A' B_(k-1) e_i +
    c_k e_i for k < n: n - 1 sparse integer mat-vecs.  Entry (i, i) is
    phi'(G - i) and entry (i, j) the signed path sum, the sum over the i-j
    paths P of w'(P) phi'(G - P) (Godsil).  Since adj(sI - A') = L^(n-1)
    adj((s/L)I - A), ``_unscale`` turns an entry into the one of A; only
    the entries that are read are rescaled.

    Every polynomial it unpacks is a minor P of M = sI - A', of degree at
    most n.  Its absolute coefficient sum is at most sqrt(n + 1) times its
    coefficient 2-norm (Cauchy-Schwarz), which is at most max |P(z)| on
    |z| = 1 (Parseval).  There Hadamard's inequality bounds |P(z)| by the
    product of the 2-norms of the rows of the submatrix, and row r of M(z)
    has 2-norm at most sqrt((1 + |A'_rr|)^2 + sum_{q != r} A'_rq^2) >= 1.
    ``bits`` puts 2^(bits - 1) above sqrt(n + 1) times the product of these.
    """

    def __init__(self, G: Graph):
        super().__init__()
        self.n = G.n
        self.scale, diag, lower = _scaled_rows(G)
        self._c = _berkowitz(diag, lower)
        # row r of A' as (neighbor, weight) pairs, the diagonal included
        rows: list[list[tuple[int, int]]] = [[(r, d)] if d else [] for r, d in enumerate(diag)]
        for r, pairs in enumerate(lower):
            for q, w in pairs:
                rows[r].append((q, w))
                rows[q].append((r, w))
        self._rows = rows
        # the square of the bound: (1 + |d|)^2 + sum_{q != r} w^2 = 1 + 2|d| + sum_q w^2
        square = (self.n + 1) * prod(
            1 + 2 * abs(d) + sum(w * w for _, w in row) for row, d in zip(rows, diag))
        self.bits = b = (square.bit_length() + 1) // 2 + 1
        self._total = Poly(self._c[::-1])(1 << b)
        self._columns: dict[int, list[list[int]]] = {}
        self._diagonal: dict[int, int] = {}

    def _column(self, i: int) -> list[list[int]]:
        """[B_k e_i for k < n], computed once."""
        col = self._columns.get(i)
        if col is None:
            rows, c = self._rows, self._c
            v = [0] * self.n
            v[i] = 1
            col = [v]
            for k in range(1, self.n):
                v = [sum([w * v[q] for q, w in row]) for row in rows]
                v[i] += c[k]
                col.append(v)
            self._columns[i] = col
        return col

    def _entry(self, i: int, j: int) -> int:
        """Entry (i, j) of adj(sI - A') at X, read off column j when it is
        there, by symmetry."""
        if i not in self._columns and j in self._columns:
            i, j = j, i
        value, b = 0, self.bits
        for v in self._column(i):
            value = (value << b) + v[j]
        return value

    def _deleted_value(self, v: int) -> int:
        # kept: the class keys read each diagonal entry again and again
        value = self._diagonal.get(v)
        if value is None:
            value = self._diagonal[v] = self._entry(v, v)
        return value

    def _path(self, i: int, j: int) -> int:
        return self._entry(i, j)


@lru_cache(maxsize=16)
def _tables(G: Graph) -> _Table:
    """The branch tables of a loopless integer-weighted forest, the
    adjugate table of any other graph.  Callers ask about one graph at a
    time, so a few are kept."""
    tables = _forest_tables(G)
    return tables if tables is not None else _AdjugateTable(G)


def _require_vertices(G: Graph, vertices) -> None:
    """GraphError unless every vertex lies in 0..n-1: the tables are lists,
    where a negative index would silently wrap."""
    if vertices and (min(vertices) < 0 or max(vertices) >= G.n):
        raise GraphError(f"vertex out of range for n={G.n}")


def charpoly(G: Graph) -> Poly:
    """Monic characteristic polynomial det(tI - A(G)), exactly, read off the
    graph's table: the subtree recursion on a loopless integer-weighted
    forest, Berkowitz on any other graph.  The empty graph gets the constant
    1."""
    return _tables(G).charpoly


def vertex_deleted_charpoly(G: Graph, *vertices: int) -> Poly:
    """charpoly(G \\ vertices) for the vertex set, whatever the order or
    repetition of the vertices.  One and two vertices are read off the
    graph's table, which keeps them; more are deleted and the rest takes
    ``charpoly``."""
    key = sorted(set(vertices))
    _require_vertices(G, key)
    if len(key) > 2:
        return charpoly(delete_vertices(G, key))
    return _tables(G).deleted(*key) if key else charpoly(G)


def vertex_deleted_charpolys(G: Graph) -> tuple[Poly, ...]:
    """phi^{G\\v} for every vertex v, in one read of the graph's table."""
    return _tables(G).deleted_all()


# ---------------------------------------------------------------------------
# path-sum polynomial


def path_sum_poly(G: Graph, i: int, j: int) -> Poly:
    """The path-sum polynomial S_ij = sum over the i-j paths P of
    w(P) phi^{G\\P}, up to sign, normalized to positive leading coefficient;
    zero when i and j sit in different components.

    It is read off the graph's table: |w(P)| phi^{G\\P} for the unique path
    of a loopless integer-weighted forest, and entry (i, j) of adj(tI - A),
    which is S_ij with its sign, for any other graph.
    """
    if i == j:
        raise PolyError("need distinct vertices")
    _require_vertices(G, (i, j))
    s = _tables(G).path_sum(i, j)
    return -s if s.leading < 0 else s


# ---------------------------------------------------------------------------
# rational functions


@dataclass(frozen=True)
class RatFunc:
    """Reduced rational function with monic denominator."""

    num: Poly
    den: Poly

    @staticmethod
    def make(num: Poly, den: Poly) -> "RatFunc":
        return RatFunc.reduce(num, den)[0]

    @staticmethod
    def reduce(num: Poly, den: Poly) -> tuple["RatFunc", int]:
        """(num/den reduced, the Cauchy index of den/num over the reals; 0
        for num = 0), from the remainder sequence whose last member gives
        gcd(num, den) (``_split_sequence``): V(-inf) - V(+inf) at full degree.

        At half the degree, num = c t^p N(t^2) and den = c' t^q D(t^2) with
        rationals c, c' > 0 and gcd t^m G(t^2), so the parts t^(p - m)
        (N/G)(t^2) and t^(q - m) (D/G)(t^2) are divided at half the degree.
        f = den/num = (c'/c) t^k (D/N)(t^2), k = q - p, has f(-t) = (-1)^k
        f(t).  For even k the jump of f at -r is the opposite of its jump at
        r, and f has no sign change at 0: the index is 0.  For odd k the
        jumps at -r and r agree, so the index is 2 I + j0, with I the index
        over (0, +inf) and j0 the jump at 0.  There (c'/c) t^k > 0 and x =
        t^2 increases, so I is the index of D/N in x over (0, +inf): V(0) -
        V(+inf) on the sequence of N and D, as N(0) != 0 (Basu, Pollack and
        Roy, ch. 2; ``_zero_variations``).  f has a pole at 0 exactly when k
        < 0, and there f ~ (c'/c) t^k D(0)/N(0) runs from -inf to +inf times
        sgn(D(0) N(0)): j0 is that sign, and 0 when k > 0."""
        if den.is_zero():
            raise PolyError("zero denominator")
        if num.is_zero():
            return RatFunc(Poly.zero(), Poly.one()), 0
        a, b = num.vector, den.vector
        seq, halves = _split_sequence(a, b)
        g = seq[-1]  # the sequence starts with a and b, or with N and D
        n, d = seq[:2] if len(g) == 1 else (_quo_exact(v, g) for v in seq[:2])
        index = _cauchy_index(seq) if halves is None else 0
        if halves is not None:
            (p, q), m = halves, min(halves)
            n, d = _halve(n, p - m), _halve(d, q - m)
            if (q - p) % 2:
                index = 2 * (_zero_variations(seq) - _end_variations(seq)[1])
                if p > q:
                    index += 1 if (seq[0][0] > 0) == (seq[1][0] > 0) else -1
        # num / den = (c / c') n / d for the contents c of num and c' of den
        scale = _div(num.content, den.content * d[-1])
        return RatFunc(Poly._of(tuple(n)).scale(scale), Poly._of(tuple(d)).monic()), index

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc.make(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __call__(self, x):
        return _div(self.num(x), self.den(x))

    @cached_property
    def _residue_floats(self) -> tuple[list[float], list[float]]:
        """The coefficients of num and of the exact den', each rounded to a
        float once, for ``residue_at``.  Horner's rule on them gives the
        floats that the exact coefficients give at a float point, where
        every step rounds to a float anyway."""
        den = self.den.coeffs
        den_prime = [float(k * den[k]) for k in range(1, len(den))]
        return [float(c) for c in self.num.coeffs], den_prime

    def is_polynomial(self) -> bool:
        return self.den.degree == 0


# ---------------------------------------------------------------------------
# real-root isolation (Sturm sequences)


@dataclass(frozen=True)
class RootBox:
    """Isolating interval [lo, hi] with exact rational endpoints.

    lo == hi means the root is known exactly.  The enclosed polynomial has
    exactly ``multiplicity`` roots (with multiplicity) in the box.
    """

    lo: Fraction
    hi: Fraction
    multiplicity: int

    @property
    def midpoint(self) -> float:
        lo, hi = self.lo, self.hi
        # one correctly rounded int division, as float(Fraction) does
        return (lo.numerator * hi.denominator + hi.numerator * lo.denominator) / (
            2 * lo.denominator * hi.denominator
        )

    def to_json(self) -> dict:
        return {
            "lo": str(self.lo),
            "hi": str(self.hi),
            "multiplicity": self.multiplicity,
            "midpoint": self.midpoint,
        }


def _int_value_at(ic: tuple[int, ...], xn: int, xd: int) -> int:
    """xd^deg times the integer polynomial at the rational xn/xd (xd > 0):
    an integer with the sign of the value."""
    acc = 0
    power = 1
    for c in reversed(ic):
        acc = acc * xn + c * power
        power *= xd
    return acc


def _int_sign_at(ic: tuple[int, ...], xn: int, xd: int) -> int:
    """Sign of the integer polynomial at the rational xn/xd (xd > 0)."""
    acc = _int_value_at(ic, xn, xd)
    return (acc > 0) - (acc < 0)


def _sturm_chain_int(fi: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Sturm sequence of fi: the signed remainder sequence of fi and fi'."""
    return _remainder_sequence(fi, _primitive([k * c for k, c in enumerate(fi) if k]))


def _chain_and_repeated(fi: tuple[int, ...]) -> tuple[Optional[tuple], list, tuple]:
    """(half, chain, repeated) for the nonzero integer polynomial fi: half =
    (e, R) when fi = t^e R(t^2) (``_even_odd``), else None; chain the Sturm
    chain of R, or of fi; repeated = gcd(fi, fi') up to sign, read off the
    chain's last member g as g itself, or as t^max(e - 1, 0) g(t^2) at half
    the degree."""
    half = _even_odd(fi)
    f = fi if half is None else half[1]
    chain = _sturm_chain_int(f) if len(f) > 1 else []
    g = chain[-1] if chain else (1,)
    return half, chain, g if half is None else _halve(g, max(half[0] - 1, 0))


def _variations(chain: list[tuple[int, ...]], xn: int, xd: int) -> Optional[int]:
    """Sign changes along the chain at xn/xd, zeros skipped; None when the
    chain's first member vanishes there."""
    first = _int_value_at(chain[0], xn, xd)
    if not first:
        return None
    signs = [first > 0] + [v > 0 for v in [_int_value_at(ic, xn, xd) for ic in chain[1:]] if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _positive(cs) -> tuple[int, ...]:
    """The integer vector with its sign chosen so that the last entry is
    positive."""
    return tuple(cs) if cs[-1] > 0 else tuple(-c for c in cs)


def _root_ceil(m: int, k: int) -> int:
    """The least r >= 0 with r^k >= m, by Newton's method on integers."""
    if m <= 1:
        return max(m, 0)
    r = 1 << -(-m.bit_length() // k)  # r^k > m
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r if r ** k >= m else r + 1
        r = s


#: the Fujiwara bound is rounded up on the grid of 2^-FUJIWARA_BITS
FUJIWARA_BITS = 4


def _fujiwara(fi: tuple[int, ...]) -> tuple[int, int]:
    """(m, 2^FUJIWARA_BITS), with m / 2^FUJIWARA_BITS above the absolute
    value of every complex root of fi (deg fi >= 1): Fujiwara's bound
    2 max_k |c_(n-k) / c_n|^(1/k), with c_0 / 2 in place of c_0, rounded up
    on the grid of 2^-FUJIWARA_BITS, plus one grid step so that no root
    equals it."""
    n, lead, q = len(fi) - 1, abs(fi[-1]), FUJIWARA_BITS
    top = max(
        _root_ceil(-(-(abs(fi[n - k]) << (q * k)) // (lead << (k == n))), k)
        for k in range(1, n + 1) if fi[n - k]
    ) if any(fi[:-1]) else 0
    return 2 * top + 1, 1 << q


def _root_bound(fi: tuple[int, ...]) -> tuple[int, int]:
    """(b, d) in lowest terms with b / d = 1 + max_k |c_k / c_n|, Cauchy's
    bound, which every complex root of fi lies below in absolute value."""
    lead = abs(fi[-1])
    m = max((abs(c) for c in fi[:-1]), default=0)
    g = gcd(m, lead)
    return (lead + m) // g, lead // g


def _bisect(a: int, b: int, d: int) -> tuple[int, int, int, int]:
    """Midpoint of [a/d, b/d]: (a', b', m, d') with the interval [a'/d',
    b'/d'] unchanged and the midpoint m/d'."""
    s = a + b
    if s & 1:
        return 2 * a, 2 * b, s, 2 * d
    return a, b, s >> 1, d


def _halvings(w: int, d: int, wn: int, wd: int) -> int:
    """How many halvings take a box of width w/d >= wn/wd below wn/wd."""
    a, b = w * wd, d * wn
    h = a.bit_length() - b.bit_length()
    return h + (a >= b << h)


def _qir_cell(fi, slo: int, lo: int, hi: int, d: int, vlo: int, vhi: int, step: int):
    """One step of quadratic interval refinement (Abbott) of the root of fi
    in (lo/d, hi/d), where fi has the sign slo at lo/d and the values vlo
    and vhi (``_int_value_at``) at the ends.

    The box is cut into n = 2^step equal cells on the grid over d 2^step.
    The secant through the end values guesses the cell of the root; the
    exact signs at its ends confirm it, or point to the neighbour cell,
    which is tried next.  Returns (lo, hi, d, vlo, vhi) for the cell (lo ==
    hi when a grid point is the root), or None when both cells miss."""
    n, w, scale = 1 << step, hi - lo, step * (len(fi) - 1)
    x0, d = lo << step, d << step
    vlo, vhi = vlo << scale, vhi << scale

    def at(j: int) -> int:
        return vlo if j == 0 else vhi if j == n else _int_value_at(fi, x0 + j * w, d)

    i = (vlo << step) // (vlo - vhi)  # 0 <= i < n, as vlo and vhi differ in sign
    va, vb = at(i), at(i + 1)
    if va and vb and (va > 0) == (vb > 0):
        if (va > 0) == (slo > 0):  # the root lies right of the cell
            i, va, vb = i + 1, vb, at(i + 2)
        else:
            i, va, vb = i - 1, at(i - 1), va
    if not va or not vb:
        x = x0 + (i if not va else i + 1) * w
        return x, x, d, 0, 0
    if (va > 0) == (vb > 0):
        return None
    return x0 + i * w, x0 + (i + 1) * w, d, va, vb


class RealRoots:
    """The distinct real roots of a polynomial, ascending, isolated by Sturm
    bisection only where a caller reads them, and refined lazily.

    Bisection starts from [-B, B] for the Cauchy bound B of the square-free
    part ``fi`` and splits a cell at its midpoint, nudged left off a root.
    The unsplit cells that hold two roots or more are kept pending with the
    index of their first root, and a cell is split only when a root inside
    it is read (``interval``, ``has_root``, ``narrow``, ``boxes``, ``signs``,
    ``integers``); ``len`` is the count between the ends.  A split
    evaluates the Sturm chain once at its midpoint (a nudge costs one more
    evaluation of the chain's first member), and not at all past a rational
    Fujiwara bound, where the count is read off the leading coefficients,
    as it is at the ends.  When fi =
    t^e R(t^2) (e <= 1, R(0) != 0), as for the characteristic polynomials of
    bipartite graphs, the counts come from the Sturm chain of R at x^2: R
    has as many roots above x^2 as fi has above |x|, and as fi has below
    -|x|.

    Root k, once isolated, is held as the integer interval [lo/d, hi/d]: an
    open interval with a sign change of fi, or the exact root once lo ==
    hi.  Every box is a cell of the dyadic grid that bisection visits, in
    whatever order cells are split: ``narrow`` jumps down the grid to the
    first cell below a width, so a caller refines a box only while its
    decision is open, and ``boxes`` still gives the boxes of
    ``isolate_real_roots``.

    ``repeated`` is gcd(p, p'), primitive with a positive leading
    coefficient, or None when p is square-free: p has a repeated root, real
    or not, exactly when it is not None.  ``multiplicities`` and the
    simple-pole checks read it.  ``fi`` has a positive leading coefficient.
    """

    def __init__(self, p: Poly):
        if p.is_zero():
            raise PolyError("cannot isolate roots of the zero polynomial")
        fi = _positive(p.vector)
        half, chain, repeated = _chain_and_repeated(fi)
        e, f = (None, fi) if half is None else half
        g = chain[-1] if chain else (1,)
        self.repeated = Poly._of(_positive(repeated)) if len(repeated) > 1 else None
        if len(g) > 1:  # a repeated root: take the square-free part
            f = _positive(_quo_exact(f, g))
            chain = _sturm_chain_int(f)
        self._e = None if half is None else min(e, 1)
        self.fi = fi = f if half is None else _halve(f, self._e)
        self.poly = Poly._of(fi)
        self._chain = chain
        # the counts at -+inf: V(-inf) on fi's chain, V(+inf) on R's
        if half is None:
            self._low, high = _end_variations(chain) if chain else (0, 0)
            total = self._low - high
        else:
            self._high = _end_variations(chain)[1]
            total = self._e + 2 * (_zero_variations(chain) - self._high)
        if total < 0:
            raise PolyError("negative Sturm count: the chain is not a Sturm sequence")
        self._total = total
        b, d = _root_bound(fi)
        if total:
            m, md = _fujiwara(fi)
            self._bound = (m, md) if m * d < b * md else (b, d)
        self._lo = [-b] * total
        self._hi = [b] * total
        self._d = [d] * total
        # the cells of two roots or more, by the index of their first root
        self._pending: dict[int, int] = {0: total} if total > 1 else {}

    def __len__(self) -> int:
        return self._total

    def _below(self, x: int, d: int) -> Optional[int]:
        """The number of roots below x/d, or None when x/d is a root."""
        mn, md = self._bound
        if x * md >= mn * d:
            return self._total
        if -x * md >= mn * d:
            return 0
        if self._e is None:
            v = _variations(self._chain, x, d)
            return None if v is None else self._low - v
        if not x:
            return None if self._e else self._total // 2
        v = _variations(self._chain, x * x, d * d)
        if v is None:
            return None
        beyond = v - self._high  # roots above |x/d|, and as many below -|x/d|
        return self._total - beyond if x > 0 else beyond

    def _split(self, first: int) -> None:
        """Split the pending cell of roots first, first + 1, ... at its
        midpoint, as Sturm bisection does."""
        end = first + self._pending.pop(first)
        a, b, mid, d = _bisect(self._lo[first], self._hi[first], self._d[first])
        while (m := self._below(mid, d)) is None:
            # nudge off an exact root so counts stay clean
            a, b, mid, d = 2 * a, 2 * b, a + mid, 2 * d
        if not first <= m <= end:
            raise PolyError("Sturm counts out of range: the chain is not a Sturm sequence")
        self._lo[first:end] = [a] * (m - first) + [mid] * (end - m)
        self._hi[first:end] = [mid] * (m - first) + [b] * (end - m)
        self._d[first:end] = [d] * (end - first)
        for start, stop in ((first, m), (m, end)):
            if stop - start > 1:
                self._pending[start] = stop - start

    def _isolate(self, k: int) -> None:
        """Split the cells that hold root k until it is alone in its cell."""
        while self._pending:
            first = next((f for f, c in self._pending.items() if f <= k < f + c), None)
            if first is None:
                return
            self._split(first)

    def crowded(self, D: int) -> bool:
        """Whether a pending cell proves that two consecutive roots lie at
        most sqrt(D) apart, splitting the pending cells round by round until
        one does or every root is isolated.  A cell that holds c >= 2 roots
        in an open interval of width w, clipped to the root bound, has two
        consecutive roots less than w / (c - 1) apart."""
        while self._pending:
            mn, md = self._bound
            for first, count in self._pending.items():
                lo, hi, d = self._lo[first], self._hi[first], self._d[first]
                width = min(hi * md, mn * d) - max(lo * md, -mn * d)
                if width * width <= (count - 1) ** 2 * D * (d * md) ** 2:
                    return True
            for first in list(self._pending):
                self._split(first)
        return False

    def _sign_below(self, k: int) -> int:
        """The sign of fi just below root k: fi is positive above its roots
        and changes sign at each of them."""
        return -1 if (self._total - k) & 1 else 1

    def interval(self, k: int) -> tuple[int, int, int]:
        """(lo, hi, d): root k lies in the open interval (lo/d, hi/d), or
        equals lo/d when lo == hi."""
        self._isolate(k)
        return self._lo[k], self._hi[k], self._d[k]

    def narrow(self, k: int, width: Fraction) -> tuple[int, int, int]:
        """Refine root k to the box that bisection reaches first below
        width, by quadratic interval refinement on the bisection grid: a
        step of 2^m cells goes m halvings deep, m doubles after each hit and
        halves after a miss, which takes one bisection step instead.  A step
        never passes the width.  A step of one halving needs no end values,
        so a shallow refinement costs what bisection costs."""
        lo, hi, d = self.interval(k)
        wn, wd = width.numerator, width.denominator
        fi, slo = self.fi, self._sign_below(k)
        deg, m = len(fi) - 1, 1
        vlo = vhi = None  # the values of fi at the ends, once known
        while (hi - lo) * wd >= d * wn:
            step = min(m, _halvings(hi - lo, d, wn, wd))
            if step > 1:
                if vlo is None:
                    vlo = _int_value_at(fi, lo, d)
                if vhi is None:
                    vhi = _int_value_at(fi, hi, d)
                cell = _qir_cell(fi, slo, lo, hi, d, vlo, vhi, step)
                if cell is not None:
                    lo, hi, d, vlo, vhi = cell
                    m <<= 1
                    continue
                m >>= 1
            else:
                m <<= 1
            # one bisection step; a known end value scales with d
            lo, hi, mid, d = lo << 1, hi << 1, lo + hi, d << 1
            vm = _int_value_at(fi, mid, d)
            if not vm:
                lo = hi = mid
            elif (vm > 0) == (slo > 0):
                lo, vlo, vhi = mid, vm, vhi and vhi << deg
            else:
                hi, vlo, vhi = mid, vlo and vlo << deg, vm
        self._lo[k], self._hi[k], self._d[k] = lo, hi, d
        return lo, hi, d

    def boxes(self) -> tuple[RootBox, ...]:
        """Every box at its first width below BOX_WIDTH: the boxes of
        ``isolate_real_roots``.  Decisions narrow a box no further than
        that width."""
        out = []
        for k in range(len(self)):
            lo, hi, d = self.narrow(k, BOX_WIDTH)
            out.append(RootBox(Fraction(lo, d), Fraction(hi, d), 1))
        return tuple(out)

    def multiplicities(self) -> list[int]:
        """The multiplicity in p of each root: 1 plus its multiplicity in
        gcd(p, p').  A root of gcd(p, p') is found by the square-free part
        of that gcd, since a root of even multiplicity changes no sign."""
        if self.repeated is None:
            return [1] * len(self)
        inner = real_roots(self.repeated)
        deeper = iter(inner.multiplicities())
        return [1 + next(deeper) if v else 1 for v in self.vanishing(inner.poly)]

    def has_root(self, k: int, q: Poly) -> bool:
        """Whether q vanishes at root k, for q whose real roots are roots of
        the polynomial (so q has at most one root in the box)."""
        return self._vanishes(q.vector, k)

    def vanishing(self, q: Poly) -> list[bool]:
        """``has_root`` at every root."""
        return [self._vanishes(q.vector, k) for k in range(len(self))]

    def _vanishes(self, qi, k: int) -> bool:
        lo, hi, d = self.interval(k)
        if lo == hi:
            return _int_sign_at(qi, lo, d) == 0
        return _int_sign_at(qi, lo, d) * _int_sign_at(qi, hi, d) < 0

    def signs(self, q: Poly) -> list[int]:
        """The sign (-1, 0 or +1) of q at each root, ascending.

        By Sturm-Tarski, V(a) - V(b) on the signed remainder sequence of fi
        and fi' q counts the roots of fi in (a, b) where q > 0 less those
        where q < 0 (Basu, Pollack and Roy, Thm 2.73), and fi' q may be
        reduced modulo fi first.  V is read once in each gap between
        consecutive boxes, at the midpoint of hi_k and lo_(k+1), where fi
        has no root, and at -+inf off the leading coefficients: no box is
        refined, and an exact box needs no special case."""
        if not self._total:
            return []
        for k in range(self._total):
            self._isolate(k)
        fi = self.fi
        derivative = [k * c for k, c in enumerate(fi) if k]
        seq = _remainder_sequence(fi, _primitive(_prem(_mul(derivative, q.vector), fi)))
        low, high = _end_variations(seq)
        v = [low]
        for hi, d, lo, e in zip(self._hi, self._d, self._lo[1:], self._d[1:]):
            v.append(_variations(seq, hi * e + lo * d, 2 * d * e))
        v.append(high)
        return [a - b for a, b in zip(v, v[1:])]

    def integers(self) -> list[int]:
        """The integer roots, ascending: a box narrower than 1 holds at most
        one integer, which is tested exactly."""
        out = []
        for k in range(len(self)):
            lo, hi, d = self.narrow(k, Fraction(1))
            if lo == hi:
                if lo % d == 0:
                    out.append(lo // d)
                continue
            z = lo // d + 1  # the least integer above lo/d
            if z * d < hi and _int_sign_at(self.fi, z, 1) == 0:
                out.append(z)
        return out


@lru_cache(maxsize=100_000)
def real_roots(p: Poly) -> RealRoots:
    """The lazily refined real roots of p, shared by every caller: a
    refinement only narrows boxes, so what one caller learns serves all."""
    return RealRoots(p)


def _shift(fi: tuple[int, ...], D: int) -> tuple[Poly, Poly]:
    """(A, B) with f(t + y) = A(t) + y B(t) modulo y^2 - D for the integer
    polynomial fi, so that f(t +- sqrt(D)) = A(t) +- sqrt(D) B(t)."""
    A, B = [0], [0]
    for c in reversed(fi):
        # (A + yB)(t + y) + c = (tA + DB + c) + y(tB + A)
        A, B = (
            [x + D * y for x, y in zip([c] + A, B + [0])],
            [x + y for x, y in zip([0] + B, A + [0])],
        )
    return Poly(A), Poly(B)


def roots_within(roots: RealRoots, D: int) -> bool:
    """Whether two consecutive real roots lie at most sqrt(D) apart.

    The pending cells of the roots answer True first when one of them
    holds enough roots in a short enough width (``RealRoots.crowded``).
    Otherwise one pass over the adjacent isolated boxes answers True once
    (hi' - lo)^2 <= D, and False when every pair has (lo' - hi)^2 > D.

    An open pair is decided by signs at the roots r_0 < ... < r_(m-1) of
    the square-free f = ``roots.fi``, with no refinement.  f is positive
    above its roots, and its complex roots change no sign, so sgn f(r_k +
    sqrt(D)) = (-1)^(m - 1 - k - c_k), where c_k counts the roots in (r_k,
    r_k + sqrt(D)].  The largest k with c_k >= 1 has c_k = 1, so some c_k is
    odd exactly when some gap is at most sqrt(D).  With f(t +- sqrt(D)) =
    A +- sqrt(D) B (``_shift``) and N = A^2 - D B^2 their product, N = 0 at
    a root puts two roots exactly sqrt(D) apart; otherwise f(r_k + sqrt(D))
    has the sign of A(r_k) where N(r_k) > 0 and of B(r_k) where N(r_k) < 0
    (``RealRoots.signs``, by Sturm-Tarski)."""
    if roots.crowded(D):
        return True
    m, open_pair = len(roots), False
    for k in range(m - 1):
        alo, ahi, ad = roots.interval(k)
        blo, bhi, bd = roots.interval(k + 1)
        scale = D * (ad * bd) ** 2
        up = bhi * ad - alo * bd
        if up * up <= scale:
            return True
        low = blo * ad - ahi * bd
        open_pair = open_pair or low <= 0 or low * low <= scale
    if not open_pair:
        return False
    A, B = _shift(roots.fi, D)
    norm = roots.signs(A * A - B * B * D)
    if 0 in norm:
        return True
    a = roots.signs(A) if 1 in norm else norm
    b = roots.signs(B) if -1 in norm else norm
    return any((a[k] if n > 0 else b[k]) != (-1) ** (m - 1 - k) for k, n in enumerate(norm))


def isolate_real_roots(p: Poly) -> tuple[RootBox, ...]:
    """Disjoint boxes covering all real roots of p, with multiplicities,
    sorted by position; boxes refined below width 2^-40.  The boxes come
    from the shared ``real_roots`` of p, which decisions refine only as far
    as they need, and the multiplicities from its Sturm chain."""
    roots = real_roots(p)
    return tuple(
        RootBox(box.lo, box.hi, m) for box, m in zip(roots.boxes(), roots.multiplicities())
    )


def squarefree_part_int(m: int) -> int:
    """Square-free part of a positive integer.  Trial division runs only
    while d^3 <= m: what is left then has no prime factor below d and is 1,
    p, p^2 or pq, so its square-free part is 1 for a square and itself
    otherwise."""
    if m <= 0:
        raise ValueError("need a positive integer")
    out = 1
    d = 2
    while d * d * d <= m:
        if m % d == 0:
            cnt = 0
            while m % d == 0:
                m //= d
                cnt += 1
            if cnt % 2:
                out *= d
        d += 1
    return out if isqrt(m) ** 2 == m else out * m


def _float_horner(cs: list[float], x: float) -> float:
    acc = 0.0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def residue_at(f: RatFunc, x: float) -> float:
    """num(x)/den'(x) in floats: the residue of f at a simple pole x."""
    num, den_prime = f._residue_floats
    return _float_horner(num, x) / _float_horner(den_prime, x)


def simple_pole_residues(f: RatFunc) -> list[tuple[RootBox, float]]:
    """Residues num(r)/den'(r) at the (simple) poles of a reduced rational
    function, evaluated at refined midpoints; PolyError on a repeated pole,
    read off the Sturm chain of the denominator."""
    if real_roots(f.den).repeated is not None:
        raise PolyError("repeated poles")
    return [(box, residue_at(f, box.midpoint)) for box in isolate_real_roots(f.den)]
