"""Tests of the benchmark's own arithmetic and input generators.

    python3 -m pytest bench
"""
import random
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 1.5, 3.0, 1],
        ["c", 3.0, 3.5, 1],
        ["a", 5.0, 9.0, 0],
        ["b", 6.0, 8.0, 4],
    ]
    selfs = tracer.self_times(spans)
    assert selfs["root"] == pytest.approx(10 - 3 - 4)
    assert selfs["a"] == pytest.approx((3 - 1.5 - 0.5) + (4 - 2))
    assert selfs["b"] == pytest.approx(1.5 + 2)
    assert selfs["c"] == pytest.approx(0.5)
    assert sum(selfs.values()) == pytest.approx(10)


def test_tracer_nests_spans_and_consumes_generators():
    t = tracer.Tracer()

    def slow_trees(n):
        for k in range(n):
            time.sleep(0.01)
            yield k

    enumerate_trees = t.wrap("trees.enumerate", slow_trees)
    outer = t.open("outer")
    assert list(enumerate_trees(3)) == [0, 1, 2]
    t.close(outer)
    name, start, end, parent = t.spans[1]
    assert (name, parent) == ("trees.enumerate", 0)
    assert end - start >= 0.03
    assert t.counts["trees.count"] == 3
    assert t.counts["trees.enumerate.calls"] == 1


def test_tracer_keeps_cache_info_and_counts_hits():
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def square(x):
        return x * x

    t = tracer.Tracer()
    wrapped = t.wrap("square", square)
    assert [wrapped(2), wrapped(2), wrapped(3)] == [4, 4, 9]
    assert wrapped.cache_info().hits == 1
    assert (t.counts["square.calls"], t.counts["square.hits"]) == (3, 1)


@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (20, 50), (39, 50), (40, 75), (100, 90), (199, 90), (200, 95),
     (1000, 99), (9999, 99), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected
    if expected is not None:
        assert run.beyond(n, expected) >= 10


def test_min_items_is_the_least_count_for_each_tail():
    for p in run.TAILS.values():
        n = run.min_items(p)
        assert run.tail_percentile(n) == p
        assert run.beyond(n - 1, p) < 10


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 99.9) == 100
    assert run.percentile([7.0], 50) == 7.0


def _texts(seed):
    queries = inputs.pair_decide_queries(seed)
    cases = inputs.all_pairs_cases(seed)
    return [inputs.graph_text(q["graph"]) + repr(q["pair"]) for q in queries] + [
        inputs.graph_text(c["graph"]) for c in cases
    ]


def test_same_seed_gives_byte_identical_graphs():
    assert _texts(3) == _texts(3)
    assert _texts(3) != _texts(4)


def test_prufer_trees_are_trees():
    from pstlab.graphs import Graph, is_connected

    rng = random.Random(1)
    for n in (2, 3, 17, 24):
        graph = inputs.prufer_tree(rng, n)
        assert len(graph[1]) == n - 1
        assert is_connected(Graph.from_edges(*graph))


@pytest.mark.parametrize("seed", range(4))
def test_every_seeded_mirror_pair_is_strongly_cospectral(seed):
    from pstlab.graphs import Graph, separating_cut_edge
    from pstlab.spectra import is_strongly_cospectral

    rng = random.Random(seed)
    for k in (3, 4, 5, 6):
        graph, (i, j) = inputs.mirror(rng, k)
        G = Graph.from_edges(*graph)
        assert is_strongly_cospectral(G, i, j)
        (anchor,) = G.neighbors(i)
        assert separating_cut_edge(G, (i, anchor), i, j)
