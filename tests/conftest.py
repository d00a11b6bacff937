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
