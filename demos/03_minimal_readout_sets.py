"""Exhaustive search for the smallest workable read-out sets.

Sixteen unknowns suggest four read-outs (4 x 4 equations + trace) might be
enough, but rank analysis says otherwise: the search proves five is the
minimum and lists every 5-set that works, ranked by conditioning.
"""

import math
import time

from tomoforge import (
    enumerate_minimal_sets,
    minimum_readout_count,
    rank_sets_by_conditioning,
    set_report,
)

t0 = time.perf_counter()
print("smallest full-rank read-out count:", minimum_readout_count())

print(f"(none of the {math.comb(18, 4)} four-read-out sets reaches rank 16: "
      f"{len(enumerate_minimal_sets(4))} survivors)")

reports = enumerate_minimal_sets(5)
print(f"\nfull-rank 5-sets: {len(reports)} of {math.comb(18, 5)}")
print("first and last in lexicographic order:")
print("  ", reports[0].ids, "...", reports[-1].ids)

ranked = rank_sets_by_conditioning(reports)[:8]
print("\nbest-conditioned 5-sets (largest smallest-eigenvalue first):")
for r in ranked:
    print(f"  {r.ids}: min eigenvalue {r.min_eigenvalue:.3f}")

full = set_report(range(1, 19))
print(f"\nfor reference, the full 18-read-out design has min eigenvalue "
      f"{full.min_eigenvalue:g} - redundancy buys conditioning.")
print(f"\ntotal scan time: {time.perf_counter() - t0:.2f} s")
