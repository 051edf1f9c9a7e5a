"""Function families and the measure gaps they witness.

The depth-k tree functions keep their alternation under every shift, so the
minimum-over-shifts alternation grows like 2**(k-2) while sensitivity stays
at k.  The grid-of-rows functions make block sensitivity quadratically larger
than sensitivity times alternation would suggest.  Feeding the tree family
through the chain transform yields functions whose sensitivity reaches the
square-root of their Fourier sparsity.  Composing Ambainis's sort function
with itself on disjoint blocks keeps sensitivity at 4 while alternation
reaches all 16 variables.
"""

import os

from boolfn import (
    TruthTable,
    alt_to_s_linear,
    alternation,
    block_sensitivity,
    real_degree,
    sensitivity,
    shift_invariant_alternation,
    sparsity,
)
from boolfn.families import compose, or_compose, rubinstein, rubinstein_row, tree_function

print("tree functions: min-over-shifts alternation vs sensitivity")
ks = (2, 3, 4) if os.environ.get("DEMO_LONG") else (2, 3)
for k in ks:
    f = tree_function(k)
    print(
        f"  k={k} ({f.n:>2} vars): salt = {shift_invariant_alternation(f):>2}"
        f"  (floor 2**(k-2) = {2 ** (k - 2)}),  s = {sensitivity(f)} <= {k}"
    )
print("  (set DEMO_LONG=1 to include k=4: salt of a 15-variable table, about 10 s)")
print()

print("row-detector grids")
h = rubinstein_row(6)
print(f"  single row on 6 bits: alt = {alternation(h)}")
f44 = rubinstein(4, 4)
print(
    f"  4x4 grid (16 vars): alt = {alternation(f44)} = 2n,"
    f"  bs at the zero input = {block_sensitivity(f44, at=0, limit=16)} = n^2/2,"
    f"  s = {sensitivity(f44)} <= n"
)
comp = or_compose([h, h])
print(f"  OR of two disjoint rows: alt = {alternation(comp)} (sums exactly)")
print()

print("sensitivity against sparsity through the chain transform")
for k in (2, 3, 4):
    f = tree_function(k)
    g = alt_to_s_linear(f).g
    s, sp = sensitivity(g), sparsity(g)
    print(
        f"  k={k}: s(g) = {s:>2}, sparsity = {sp:>3},"
        f"  sqrt(sparsity)/2 - 1 = {sp ** 0.5 / 2 - 1:.2f}"
    )
print()

print("block composition: sort4 composed with itself")
# sort4(x) = 1 iff x1..x4 is sorted up or down
sort4 = TruthTable(4, 0xD18B)
h = compose(sort4, [sort4] * 4)
print(
    f"  sort4 o sort4 ({h.n} vars): s = {sensitivity(h)}, deg = {real_degree(h)},"
    f"  sparsity = {sparsity(h)},  alt = {alternation(h)}"
)
print("  (salt is left out: its search visits 8,193 shifts, about 15 s)")
