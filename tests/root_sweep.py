"""Root boxes of ``polys.RealRoots`` against the bisection oracle on every
tree up to an order: every characteristic polynomial, every support, and
the merged pole polynomial (the lcm of the two alpha denominators) of every
strongly cospectral pair.  Each is compared as in ``test_root_kernel``:
isolating intervals, boxes with multiplicities, refinement to 2^-60,
integer roots, the repeated part, and the ``roots_within`` verdicts for
D = 1 and D = 2 against the refinement oracle
(``oracles.refinement_within``).  Too slow for the tier-1 suite at n = 12
(CI runs it there):

    PYTHONPATH=src:tests python tests/root_sweep.py 12
"""
import sys

from pstlab.gapcert import alpha_pair
from pstlab.polys import charpoly, poly_gcd
from pstlab.spectra import cospectral_pairs, is_strongly_cospectral, support_poly
from pstlab.trees import enumerate_trees
from test_root_kernel import assert_matches_oracle


def tree_polys(max_n: int) -> list:
    """The polynomials of the sweep, each once."""
    out = {}
    for n in range(2, max_n + 1):
        for T in enumerate_trees(n):
            out[charpoly(T)] = None
            for i in range(n):
                out[support_poly(T, i)] = None
            for i, j in cospectral_pairs(T):
                if is_strongly_cospectral(T, i, j):
                    plus, minus = alpha_pair(T, i, j)
                    union = poly_gcd(plus.den, minus.den)
                    out[(plus.den * minus.den).exact_div(union).monic()] = None
    return list(out)


def main(max_n: int) -> int:
    polys = tree_polys(max_n)
    for p in polys:
        assert_matches_oracle(p)
    print(f"trees n <= {max_n}: {len(polys)} polynomials, boxes and gap verdicts equal the oracles'")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))
