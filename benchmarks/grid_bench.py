"""Compare the two exact orthogonality-grid paths.

The screened path screens a fixed weighted sum of the components of every
form mod a fixed prime below 2**23, with float64 BLAS products that stay
exact below 2**53, and
confirms only the residue-zero candidates, leaving out the zero row,
which is orthogonal to every row.  It confirms them with the same kernel
mod as many primes as their height bound asks for when the candidates
are dense enough to pay for the reduction, and on Python ints otherwise.
The pure path (ORTHOSET_LAB_EXACT_GRID=1) evaluates every pair, the zero
row's included, on Python ints.  Both are exact; this script measures how
much the screen buys per sfield and checks that the grids agree cell for
cell.

    python benchmarks/grid_bench.py [probe-count]
"""

import os
import random
import sys
import time

from orthoset_lab.hermspace import random_nonzero_vector, standard_space
from orthoset_lab.perpgrid import perp_grid
from orthoset_lab.starfields import StarSfield


def bench(space, rows, repeats=3):
    best = float("inf")
    grid = None
    for _ in range(repeats):
        start = time.perf_counter()
        grid = perp_grid(space, rows, rows)
        best = min(best, time.perf_counter() - start)
    return best, grid


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 192
    print(f"{count} x {count} ray grids, dim 5: the zero row and random "
          f"rows with numerators and denominators up to 10\n")
    print(f"{'sfield':8s} {'screened':>12s} {'pure-exact':>12s} {'speedup':>9s}")
    for sf in StarSfield:
        space = standard_space(sf, 5)
        rng = random.Random(f"bench:{sf.value}")
        # probe sets always hold the zero ray; its row needs no confirmation
        rows = [space.zero_vector().coords] + [
            random_nonzero_vector(space, rng).coords
            for _ in range(count - 1)]
        os.environ.pop("ORTHOSET_LAB_EXACT_GRID", None)
        fast_t, fast_grid = bench(space, rows)
        os.environ["ORTHOSET_LAB_EXACT_GRID"] = "1"
        pure_t, pure_grid = bench(space, rows, repeats=1)
        os.environ.pop("ORTHOSET_LAB_EXACT_GRID", None)
        assert (fast_grid == pure_grid).all(), "paths disagree"
        print(f"{sf.value:8s} {fast_t * 1e3:10.1f}ms {pure_t * 1e3:10.1f}ms "
              f"{pure_t / fast_t:8.1f}x")


if __name__ == "__main__":
    main()
