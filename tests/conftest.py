import random
from fractions import Fraction

import pytest

from pstlab.graphs import Graph, path, star
from pstlab.trees import enumerate_trees


@pytest.fixture(scope="session")
def p2():
    return path(2)


@pytest.fixture(scope="session")
def p3():
    return path(3)


@pytest.fixture(scope="session")
def p4():
    return path(4)


@pytest.fixture(scope="session")
def star4():
    return star(4)


def trees_up_to(max_n, min_n=2):
    for n in range(min_n, max_n + 1):
        for T in enumerate_trees(n):
            yield n, T


def random_weighted_graph(rng: random.Random, n: int, density=0.5) -> Graph:
    """Random connected-ish weighted graph with small rational weights."""
    items = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density or v == u + 1:
                num = rng.choice([-3, -2, -1, 1, 2, 3])
                den = rng.choice([1, 1, 2])
                items.append((u, v, Fraction(num, den)))
    return Graph.from_edges(n, items)


def grid(a, b):
    """The Cartesian product of the paths P_a and P_b."""
    items = [(x * b + y, x * b + y + 1, 1) for x in range(a) for y in range(b - 1)]
    items += [(x * b + y, (x + 1) * b + y, 1) for x in range(a - 1) for y in range(b)]
    return Graph.from_edges(a * b, items)


def cycle(n):
    return Graph.from_edges(n, [(v, (v + 1) % n, 1) for v in range(n)])


def mirror_graph(base, join, w_join, anchor):
    """Two copies of the weighted graph ``base`` = (k, items), joined by an
    edge of weight w_join between vertex ``join`` and its copy, with a
    unit-weight pendant vertex on ``anchor`` and on its copy.  Swapping the
    copies is an automorphism, so the two pendant vertices 2k and 2k + 1 are
    cospectral."""
    k, items = base
    edges = list(items) + [(u + k, v + k, w) for u, v, w in items]
    edges += [(join, join + k, w_join), (anchor, 2 * k, 1), (anchor + k, 2 * k + 1, 1)]
    return Graph.from_edges(2 * k + 2, edges)


def seeded_mirror_graphs(seed, count):
    """Mirror graphs of random rational-weighted bases on 2 to 5 vertices,
    loops included."""
    rng = random.Random(seed)
    out = []
    for m in range(count):
        k = 2 + m % 4
        items = [
            (rng.randrange(v), v, Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2])))
            for v in range(1, k)
        ]
        items += [
            (v, v, Fraction(rng.choice([-1, 1, 2]), 3))
            for v in range(k)
            if rng.random() < 0.3
        ]
        w_join = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2, 3]))
        out.append(mirror_graph((k, items), rng.randrange(k), w_join, rng.randrange(k)))
    return out
