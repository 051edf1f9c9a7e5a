"""Tour of the exact complexity measures on a few named functions.

Every value below is computed exactly (enumeration, dynamic programming, or
integer transforms), and each measure ships a witness you can check by hand: a
sensitive coordinate set, a disjoint block family, a fixing set, a maximal
chain, a monomial, or an optimal decision tree.
"""

from boolfn import measure_report
from boolfn.families import maj, parity, rubinstein, tree_function

import json


def show(title, f, limits=None):
    rep = measure_report(f, limits=limits)
    print(f"== {title}  ({rep.to_json_dict()['function']})")
    for name, value in rep.measures.items():
        print(f"   {name:<10} {value}")
    for skip in rep.skipped:
        print(f"   skipped    {skip['measure']}: {skip['reason']}")
    print()
    return rep


show("majority of 3", maj(3))
show("parity of 4", parity(4))
show("depth-2 decision tree (multiplexer)", tree_function(2))

print("witnesses are part of the report; for majority of 3:")
rep = measure_report(maj(3))
print(json.dumps(rep.to_json_dict()["witnesses"], indent=2))

print()
print("measures with a cost ceiling skip explicitly instead of approximating:")
show("4x4 grid of row detectors (16 variables)", rubinstein(4, 4))
print("pass explicit limits to unlock them, e.g. block sensitivity at 16 vars:")
from boolfn import block_sensitivity

print("   bs(grid, all-zero input) =", block_sensitivity(rubinstein(4, 4), at=0, limit=16))
