import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pstlab.graphs import Graph, hypercube, path, star
from pstlab.pst import decide_pst
from pstlab.walk import (
    _eigendecomposition,
    amplitude,
    amplitudes_on_grid,
    fidelity,
    fidelity_scan,
    verify_certificate,
)


def test_amplitude_at_zero_is_identity():
    G = path(4)
    for i in range(4):
        assert abs(amplitude(G, i, i, 0.0) - 1.0) < 1e-12
        for j in range(4):
            if j != i:
                assert abs(amplitude(G, i, j, 0.0)) < 1e-12


def test_unitarity_columns():
    G = star(5)
    for t in [0.3, 1.7, 4.0]:
        for i in range(G.n):
            total = sum(abs(amplitude(G, i, j, t)) ** 2 for j in range(G.n))
            assert abs(total - 1.0) < 1e-10


def test_amplitude_symmetry():
    # symmetric matrix: U(t) is symmetric too
    G = path(5)
    for t in [0.5, 2.2]:
        for i in range(5):
            for j in range(5):
                assert abs(amplitude(G, i, j, t) - amplitude(G, j, i, t)) < 1e-12


def test_known_p2_fidelity():
    G = path(2)
    assert abs(fidelity(G, 0, 1, math.pi / 2) - 1.0) < 1e-12
    assert fidelity(G, 0, 1, math.pi / 4) == pytest.approx(math.sin(math.pi / 4))
    with pytest.raises(ValueError):
        fidelity(G, 0, 1, -1.0)


def test_grid_matches_pointwise():
    G = path(4)
    times = np.linspace(0.1, 3.0, 17)
    grid = amplitudes_on_grid(G, 0, 3, times)
    for t, a in zip(times, grid):
        assert abs(a - amplitude(G, 0, 3, float(t))) < 1e-12


def test_fidelity_scan_finds_p3_peak():
    series = fidelity_scan(path(3), 0, 2, 4.0, 4000)
    assert series.peak_value > 1 - 1e-9
    assert abs(series.peak_time - math.pi / math.sqrt(2)) < 1e-3
    with pytest.raises(ValueError):
        fidelity_scan(path(3), 0, 2, 4.0, 1)


def test_fidelity_series_csv():
    series = fidelity_scan(path(2), 0, 1, 1.0, 5)
    lines = series.to_csv().strip().splitlines()
    assert lines[0] == "t,fidelity"
    assert len(lines) == 6
    t0, f0 = lines[1].split(",")
    assert float(t0) == 0.0 and float(f0) == 0.0


def test_verify_certificate_accepts_true_positive():
    cert = decide_pst(path(2), 0, 1)
    assert verify_certificate(path(2), cert)
    cert3 = decide_pst(path(3), 0, 2)
    assert verify_certificate(path(3), cert3)


def test_verify_certificate_rejects_corrupted_time():
    """Negative control: a tampered certificate must fail the oracle."""
    cert = decide_pst(path(3), 0, 2)
    bad = dataclasses.replace(cert, t_min=cert.t_min * 0.9)
    assert not verify_certificate(path(3), bad)


def test_verify_certificate_rejects_wrong_pair():
    cert = decide_pst(hypercube(3), 0, 7)
    bad = dataclasses.replace(cert, pair=(0, 3))
    assert not verify_certificate(hypercube(3), bad)


def test_verify_certificate_requires_positive_result():
    cert = decide_pst(path(4), 0, 3)
    with pytest.raises(ValueError):
        verify_certificate(path(4), cert)


# loops, signed and rational weights, isolated vertices
weighted_graphs = st.integers(1, 8).flatmap(
    lambda n: st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(sorted).map(tuple),
        st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
        max_size=3 * n,
    ).map(lambda weights: Graph.from_edges(n, [(u, v, w) for (u, v), w in weights.items()]))
)


@settings(max_examples=150, deadline=None)
@given(weighted_graphs)
def test_eigendecomposition_of_the_edge_list_matches_the_dense_rows(G):
    A = np.array([[float(w) for w in row] for row in G.adjacency_rows()])
    evals, evecs = np.linalg.eigh(A)
    got_evals, got_evecs = _eigendecomposition(G)
    assert np.array_equal(got_evals, evals)
    assert np.array_equal(got_evecs, evecs)
