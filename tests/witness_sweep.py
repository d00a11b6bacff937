"""The modular ratio witness against the exact fit on the support of every
vertex of every tree up to an order, for the adjacency matrix, the
Laplacian and A + I.  A prime from ``ratio_witness`` proves that the ratio
condition fails, so it must never fire where ``fit_quadratic_spectrum``
passes.  Prints the counts.  Too slow for the tier-1 suite at n = 12 (CI
runs it there):

    PYTHONPATH=src python tests/witness_sweep.py 12
"""
import sys

from pstlab.graphs import Graph, laplacian_form
from pstlab.pst import fit_quadratic_spectrum, ratio_witness
from pstlab.spectra import support_poly
from pstlab.trees import enumerate_trees


def tree_supports(max_n: int) -> list:
    """The supports of the sweep, each once."""
    out = {}
    for n in range(2, max_n + 1):
        for T in enumerate_trees(n):
            shifted = Graph.from_edges(n, list(T.edges) + [(v, v, 1) for v in range(n)])
            for G in (T, laplacian_form(T), shifted):
                for v in range(n):
                    out[support_poly(G, v)] = None
    return list(out)


def main(max_n: int) -> int:
    supports = tree_supports(max_n)
    witnessed = fitted = 0
    for s in supports:
        prime = ratio_witness(s)
        fit = fit_quadratic_spectrum(s)
        assert prime is None or fit is None, (s, prime, fit)
        witnessed += prime is not None
        fitted += fit is not None
    print(
        f"trees n <= {max_n}: {len(supports)} distinct supports, "
        f"{witnessed} witnessed, {fitted} fits passed, none both"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))
