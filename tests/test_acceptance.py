"""Acceptance suite: one test per shipped guarantee, one pass/fail line each.

Each test prints "ACCEPTANCE <k>: PASS <summary>" on success; a failure
raises and pytest reports the line as FAILED.  Tolerances are pinned here
and must not be loosened without revisiting the underlying claim.
"""
import math
import random
import sys
import time

import numpy as np
import pytest

from conftest import random_weighted_graph
from oracles import path_sum_bruteforce
from pstlab.gapcert import (
    SQRT2,
    GapError,
    arrow_matrix,
    certify_gap,
    general_bound,
    merged_alphas,
    residue_mass,
)
from pstlab.graphs import eccentricity, path
from pstlab.polys import (
    RatFunc,
    charpoly,
    path_sum_poly,
    simple_pole_residues,
)
from pstlab.pst import decide_pst
from pstlab.scan import check_invariants, scan_trees
from pstlab.spectra import (
    is_cospectral,
    is_strongly_cospectral,
    min_support_gap,
    support_poly,
    vertex_deleted_charpoly,
)
from pstlab.trees import enumerate_trees
from pstlab.walk import _eigendecomposition, fidelity
from test_trees import FREE_TREE_COUNTS, prufer_class_count

SCAN_MAX_N = 12


def report(k, summary):
    print(f"ACCEPTANCE {k}: PASS {summary}", file=sys.stderr)


@pytest.fixture(scope="module")
def scan12():
    return scan_trees(SCAN_MAX_N)


def tree_stream(max_n, min_n=2):
    for n in range(min_n, max_n + 1):
        for T in enumerate_trees(n):
            yield n, T


def sc_pairs(T):
    return [
        (i, j)
        for i in range(T.n)
        for j in range(i + 1, T.n)
        if is_strongly_cospectral(T, i, j)
    ]


def test_criterion_01_pst_positive_controls():
    start = time.monotonic()
    c2 = decide_pst(path(2), 0, 1)
    assert c2.result == "PST"
    assert abs(c2.t_min - math.pi / 2) < 1e-12
    assert fidelity(path(2), 0, 1, c2.t_min) >= 1 - 1e-9
    c3 = decide_pst(path(3), 0, 2)
    assert c3.result == "PST"
    assert abs(c3.t_min - math.pi / math.sqrt(2)) < 1e-12
    assert fidelity(path(3), 0, 2, c3.t_min) >= 1 - 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"P2 at pi/2 and P3 at pi/sqrt(2), fidelity >= 1-1e-9 ({elapsed:.2f}s)")


def test_criterion_02_no_pst_on_trees_to_n12(scan12):
    check_invariants(scan12)
    by_n = {e["n"]: e for e in scan12.per_order}
    for n in range(4, SCAN_MAX_N + 1):
        assert by_n[n]["pst_pairs"] == [], f"PST pair on a tree with n={n}"
    # counts: live Prüfer-dedup oracle to n=7, frozen oracle values beyond
    for n in range(2, 8):
        assert by_n[n]["tree_count"] == prufer_class_count(n)
    for n in range(8, SCAN_MAX_N + 1):
        assert by_n[n]["tree_count"] == FREE_TREE_COUNTS[n - 1]
    report(2, f"zero PST pairs for 4 <= n <= {SCAN_MAX_N}; "
              f"counts match the Prüfer oracle ({scan12.wall_time:.1f}s scan)")


def test_criterion_03_gap_bound_with_equality_only_p3(scan12):
    checked = equalities = 0
    for n, T in tree_stream(SCAN_MAX_N):
        for i, j in sc_pairs(T):
            cert = certify_gap(T, i, j)
            if not cert.hypotheses_ok:
                continue
            checked += 1
            assert cert.achieved_gap <= SQRT2 + 1e-9
            if cert.equality_detected:
                equalities += 1
                assert n == 3 and sorted(map(len, map(T.neighbors, range(n)))) == [1, 1, 2]
            else:
                assert cert.achieved_gap < SQRT2 - 1e-9 or n == 3
    assert equalities == 1  # exactly the P3 end pair
    report(3, f"{checked} hypothesis pairs within sqrt(2)+1e-9; "
              "algebraic equality only on P3")


def test_criterion_04_path_sum_oracle():
    start = time.monotonic()
    for n, T in tree_stream(8):
        for i in range(n):
            for j in range(i + 1, n):
                assert path_sum_poly(T, i, j) == path_sum_bruteforce(T, i, j)
    rng = random.Random(2024)
    count = 0
    while count < 200:
        G = random_weighted_graph(rng, rng.randint(2, 6))
        i, j = rng.sample(range(G.n), 2)
        s, b = path_sum_poly(G, i, j), path_sum_bruteforce(G, i, j)
        assert s == b or s == -b  # brute force carries no sign normalization
        count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(4, f"exact Wronskian square root on all tree pairs n<=8 "
              f"and 200 random weighted graphs ({elapsed:.1f}s)")


def test_criterion_05_residue_mass_bounds():
    checked = 0
    for n, T in tree_stream(SCAN_MAX_N):
        for i, j in sc_pairs(T):
            try:
                mass, bound = residue_mass(T, i, j)
            except GapError:
                continue  # pair without the single-separating-neighbor shape
            checked += 1
            assert mass <= bound + 1e-9
    assert checked > 0
    # equality case: P4 end pair
    mass, bound = residue_mass(path(4), 0, 3)
    assert abs(mass - 1.0) < 1e-6 and abs(bound - 1.0) < 1e-12
    # general bound formula at a_ij = 0, u = v = 1 reduces to sqrt(2)
    assert abs(general_bound(path(4), 0, 3) - SQRT2) < 1e-12
    report(5, f"{checked} cut-edge pairs within the Cauchy-Schwarz bound; "
              "P4 equality and the sqrt(2) reduction hold")


def test_criterion_06_interlacing_and_positivity():
    pole_checks = alpha_checks = 0
    for n, T in tree_stream(10):
        phi = charpoly(T)
        for i in range(n):
            f = RatFunc.make(vertex_deleted_charpoly(T, i), phi)
            for _, res in simple_pole_residues(f):  # raises on repeated poles
                assert res >= -1e-9
                pole_checks += 1
        for i, j in sc_pairs(T):
            pf_p, pf_m = merged_alphas(T, i, j)
            assert all(mu >= -1e-9 for mu in pf_p.residues)
            assert all(mu >= -1e-9 for mu in pf_m.residues)
            alpha_checks += 1
    report(6, f"{pole_checks} simple poles with nonnegative residues, "
              f"{alpha_checks} merged alpha pairs nonnegative (n <= 10)")


def test_criterion_07_weyl_bound():
    checked = 0
    for n, T in tree_stream(SCAN_MAX_N):
        for i, j in sc_pairs(T):
            pf_p, pf_m = merged_alphas(T, i, j)
            Mp, Mm = arrow_matrix(pf_p).dense(), arrow_matrix(pf_m).dense()
            norm = np.linalg.norm(Mp - Mm, 2)
            dev = np.abs(np.linalg.eigvalsh(Mp) - np.linalg.eigvalsh(Mm))
            assert float(dev.max()) <= norm + 1e-9
            checked += 1
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = int(rng.integers(2, 8))
        A = rng.normal(size=(k, k))
        A = (A + A.T) / 2
        B = rng.normal(size=(k, k))
        B = (B + B.T) / 2
        dev = np.abs(np.linalg.eigvalsh(A) - np.linalg.eigvalsh(B))
        assert float(dev.max()) <= np.linalg.norm(A - B, 2) + 1e-9
    report(7, f"eigenvalue deviation within the operator norm on {checked} "
              "scanned pairs and 100 random symmetric pairs")


def test_criterion_08_eccentricity_bound():
    checked = 0
    for n, T in tree_stream(SCAN_MAX_N):
        for v in range(n):
            assert support_poly(T, v).degree >= eccentricity(T, v) + 1
            checked += 1
    report(8, f"|support| >= eccentricity + 1 on {checked} (tree, vertex) "
              f"pairs, n <= {SCAN_MAX_N}")


def test_criterion_09_no_pst_soundness():
    # amplitudes_on_grid for every NO_PST pair of a tree at once: the phase
    # matrix exp(i t theta) is built once per tree, a chunk of times at a
    # time, and multiplied by the stacked eigenvector products of its pairs
    start = time.monotonic()
    times = np.arange(1e-4, 4 * math.pi + 1e-4, 1e-4)
    scanned = 0
    for n, T in tree_stream(8):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if decide_pst(T, i, j).result == "NO_PST"]
        if not pairs:
            continue
        evals, evecs = _eigendecomposition(T)
        products = np.stack([evecs[i] * evecs[j] for i, j in pairs], axis=1)
        peaks = np.zeros(len(pairs))
        for chunk in np.array_split(times, 16):
            amplitudes = np.exp(1j * np.outer(chunk, evals)) @ products
            peaks = np.maximum(peaks, np.abs(amplitudes).max(axis=0))
        for (i, j), peak in zip(pairs, peaks):
            assert peak <= 1 - 1e-6, (
                f"NO_PST pair ({i},{j}) on n={n} reached fidelity {peak}"
            )
            scanned += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(9, f"{scanned} NO_PST pairs stayed below 1-1e-6 over (0, 4pi] "
              f"({elapsed:.1f}s)")


def test_criterion_10_laplacian_pst_only_p2():
    positives = []
    for n, T in tree_stream(10):
        for i in range(n):
            for j in range(i + 1, n):
                cert = decide_pst(T, i, j, model="laplacian")
                if cert.result == "PST":
                    positives.append((n, i, j))
    assert positives == [(2, 0, 1)]
    report(10, "Laplacian walk transfers only on P2 among all trees n <= 10")


def test_criterion_11_bridge_gap_at_most_one():
    checked = 0
    for n, T in tree_stream(SCAN_MAX_N):
        if n == 2:
            continue  # the exempt P2 case
        for u, v, _ in T.edges:  # every tree edge is a bridge
            if not is_cospectral(T, u, v):
                continue
            assert min_support_gap(T, u) <= 1 + 1e-9
            checked += 1
    report(11, f"{checked} bridge-joined cospectral pairs with support gap "
               "<= 1 + 1e-9 (P2 exempt)")
