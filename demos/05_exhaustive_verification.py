"""Machine-check every proven inequality over all functions of a small arity.

The scan vectorizes the measure computations across the whole function space,
builds every transform construction for every single function with batch
kernels over the function axis, cross-checks both against the per-function
API on a subsample, and tracks extremal statistics.  A proven-statement failure would raise; the
empirical-constant ratios are only recorded.
"""

import time

from boolfn import exhaustive_scan, extremal_search

t0 = time.time()
report = exhaustive_scan(3)
print(f"arity 3, all 256 functions, {time.time() - t0:.2f}s")
print(report.to_text())

print("extremal search: largest gap between min-shift alternation and sensitivity")
for rec in extremal_search(3, "salt_minus_s", top=5):
    print(f"   {rec.value:>4}  {rec.function}")
print()
print("extremal search: sensitivity against sqrt of sparsity at arity 4")
for rec in extremal_search(4, "s_over_sqrt_sparsity", top=3):
    print(f"   {rec.value:>4}  {rec.function}")
print()
print("sampled mode is seeded and reproducible:")
for rec in extremal_search(8, "s_over_sqrt_sparsity", budget=500, seed=1, top=3):
    print(f"   {rec.value:.3f}  {rec.function[:40]}...")
