"""One-off reference figures for the scaling ladder named in ROADMAP.md.

    python3 perfbench/ladder.py

Times each case once, with the engine's caches emptied before it, and prints
one line per case.  A rung is skipped once the previous rung of the same
ladder took longer than ``MAX_SECONDS``.  These figures are not part of
the benchmark's metrics.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402
from tduality import borel, catalog, complexes, gysin, simplicial  # noqa: E402


def full_cohomology(facets):
    k = simplicial.from_facets(inputs.relabel(facets, random.Random(0)))
    cx = simplicial.cochain_complex_of(k)
    return [complexes.cohomology(cx, n).describe() for n in range(k.dim + 1)]


def cp_gysin(n):
    model = catalog.euler_model_from_label_coeffs(catalog.catalog_build("cp", (n,)), {"u": 3})
    top = gysin.total_space(model).total.top_degree
    return gysin.gysin_sequence(model, 0, top).exact


def multi_monopole(m):
    charges = inputs.signable_charges(m, True, random.Random(m))
    return borel.multi_monopole_dual(charges, 2).dual_euler


MAX_SECONDS = 30.0
LADDERS = (
    ("torus m x m", [(f"m={m}", full_cohomology, inputs.torus_grid(m, m)) for m in (4, 6, 8, 10)]),
    ("simplex boundary", [(f"d={d}", full_cohomology, inputs.simplex_boundary(d)) for d in (6, 8, 9)]),
    ("cross-polytope boundary", [(f"d={d}", full_cohomology, inputs.cross_polytope(d)) for d in (3, 4, 5)]),
    ("cp(N) Gysin, k=3", [(f"N={n}", cp_gysin, n) for n in (5, 20, 40)]),
    ("multi-monopole, N=2", [(f"m={m}", multi_monopole, m) for m in (2, 4, 6, 8, 10, 12)]),
)


def main() -> int:
    caches = workloads.PackageCaches()
    for ladder, rungs in LADDERS:
        last = 0.0
        for label, fn, arg in rungs:
            if last > MAX_SECONDS:
                print(f"{ladder:26s} {label:6s} skipped")
                continue
            caches.clear()
            start = perf_counter()
            fn(arg)
            last = perf_counter() - start
            print(f"{ladder:26s} {label:6s} {last:9.3f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
