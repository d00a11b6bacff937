"""The packed forest table's class keys and strong pre-check against the
polynomials they stand for, on every tree up to an order.  For each tree it
asserts that two vertices share a class key exactly when their phi(T - v)
are equal as polynomials, and for each cospectral pair that the pre-check
g(X) | phi(T - {i, j})(X) keeps the pair whenever polynomial division by
g = gcd(phi, phi') accepts it.  Prints the pair counts of the last order and
the time.  CI runs it to n = 12 (under a second; n = 14 takes a few):

    PYTHONPATH=src python tests/table_sweep.py 12
"""
import sys
import time

from pstlab.polys import _forest_tables, divides
from pstlab.trees import enumerate_trees


def check_tree(T) -> tuple[int, int, int]:
    """(cospectral pairs, pairs the pre-check keeps, strong pairs) of T."""
    table = _forest_tables(T)
    keys = [table.class_key(v) for v in range(T.n)]
    deleted = table.deleted_all()
    g = table.repeated_part
    cosp = kept = strong = 0
    for i in range(T.n):
        for j in range(i + 1, T.n):
            assert (keys[i] == keys[j]) == (deleted[i] == deleted[j]), (T, i, j)
            if keys[i] != keys[j]:
                continue
            divisible = divides(g, table.deleted(i, j))
            assert table.may_divide(i, j) or not divisible, (T, i, j)
            cosp += 1
            kept += table.may_divide(i, j)
            strong += divisible
    return cosp, kept, strong


def main(max_n: int) -> int:
    start = time.monotonic()
    trees = 0
    for n in range(2, max_n + 1):
        counts = [0, 0, 0]
        for T in enumerate_trees(n):
            trees += 1
            counts = [a + b for a, b in zip(counts, check_tree(T))]
    cosp, kept, strong = counts
    print(
        f"trees n <= {max_n}: {trees} trees; class keys agree with the polynomials on "
        f"every tree; at n = {max_n}, {cosp} cospectral pairs, {kept} kept by the "
        f"pre-check, {strong} strong; {time.monotonic() - start:.1f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))
