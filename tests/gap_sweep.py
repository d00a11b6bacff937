"""The pair record at half degree, and the gap certificate's sign
decisions, against their oracles on every strongly cospectral pair of every
tree up to an order.  For each pair it asserts that the record's support,
signed path sum, both reduced sign quotients and both Cauchy indices, taken
at half degree or mirrored from one reduction, equal the full-degree
oracle's (``oracles.full_degree_record``), that both sign quotients have
full Cauchy index (so the
partition's interlacing flag is set), and that ``merged_alphas``, which
reads the residue signs and arrow flags off Sturm-Tarski sign counts,
accepts both alphas, finds a pigeonhole index, reads the same shifts s0 as
the coefficients do, and gives the arrow flags that the oracle's exact
merge of the union poles with the class roots gives.  Prints the counts and
the time.  Too slow for the tier-1 suite at n = 12 (CI runs it there):

    PYTHONPATH=src:tests python tests/gap_sweep.py 12
"""
import sys
import time

from oracles import full_degree_record, merge_residue_signs
from pstlab.gapcert import _coefficient_shift, merged_alphas
from pstlab.polys import RealRoots, charpoly, path_sum_poly, poly_gcd, vertex_deleted_charpoly
from pstlab.spectra import (
    _pair_record,
    cospectral_pairs,
    is_strongly_cospectral,
    support_partition,
)
from pstlab.trees import enumerate_trees


def check_pair(G, i: int, j: int) -> None:
    record = _pair_record(G, i, j)
    want = full_degree_record(charpoly(G), vertex_deleted_charpoly(G, i), path_sum_poly(G, i, j))
    assert (record.support, record.s) + record.quotients == want, (G, i, j)
    for alpha, index in record.quotients:
        assert index == alpha.num.degree, (G, i, j, index, alpha)
    part = support_partition(G, i, j)
    assert part.interlaced, (G, i, j)
    pfs = merged_alphas(G, i, j)
    both = zip(pfs[0].numerator_eigen, pfs[1].numerator_eigen)
    assert any(p and q for p, q in both), (G, i, j)
    plus, minus = part.alphas
    union = (plus.den * minus.den).exact_div(poly_gcd(plus.den, minus.den)).monic()
    for pf, alpha in zip(pfs, part.alphas):
        assert pf.s0_exact == _coefficient_shift(alpha), (G, i, j)
        poles = RealRoots(union)
        merged = merge_residue_signs(alpha, poles, poles.vanishing(alpha.den))
        assert pf.numerator_eigen == merged, (G, i, j)


def main(max_n: int) -> int:
    start = time.monotonic()
    trees = pairs = 0
    for n in range(2, max_n + 1):
        for T in enumerate_trees(n):
            trees += 1
            for i, j in cospectral_pairs(T):
                if is_strongly_cospectral(T, i, j):
                    check_pair(T, i, j)
                    pairs += 1
    print(
        f"trees n <= {max_n}: {trees} trees, {pairs} strong pairs, the half-degree record "
        f"equals the full-degree oracle's, both indices full and the merge oracle agrees "
        f"on every pair, {time.monotonic() - start:.1f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))
