#!/usr/bin/env python3
"""Scaling probe for the graphs/preorders instance: count isomorphism classes
of reflexive graphs and preorders per size, and time one reflection/product
per size step.  Useful for picking search bounds before a long run.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from finitopos import graphpre  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-vertices", type=int, default=4)
    ap.add_argument("--max-edges", type=int, default=6)
    ap.add_argument("--max-preorder", type=int, default=4)
    args = ap.parse_args()

    print("graphs per (vertices, extra edges):")
    for n in range(args.max_vertices + 1):
        row = []
        for e in range(args.max_edges + 1):
            row.append(sum(1 for _ in graphpre.graphs_of_size(n, e)))
        print(f"  n={n}: {row}  (total {sum(row)})")

    print("preorders per size:")
    for n in range(args.max_preorder + 1):
        t0 = time.time()
        cnt = sum(1 for _ in graphpre.preorders_of_size(n))
        print(f"  n={n}: {cnt}  ({time.time() - t0:.2f}s)")

    print("reflection timing on the densest graph per size:")
    for n in range(1, args.max_vertices + 1):
        G = graphpre.RefGraph.of(n, [(a, b) for a in range(n) for b in range(n)])
        t0 = time.time()
        L = graphpre.reflect(G.presheaf())
        print(f"  n={n}: |rel|={len(L.rel)}  ({time.time() - t0:.3f}s)")


if __name__ == "__main__":
    main()
