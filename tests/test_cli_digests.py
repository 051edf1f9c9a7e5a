"""Byte pins of the CLI's report and family-suite output in every format.

Each case is one ``cli.main`` call; its stdout is pinned by sha256, so a
changed value, witness, column, key order or skip line in any format
changes a digest.  The measures cases cover a pointwise report, one whose
bs, C, DT and pointwise values skip, the 0-variable function and a seeded
random table.
"""

import hashlib

import numpy as np
import pytest
from oracles import random_table

from boolfn import TruthTable, tt_serialize
from boolfn.cli import main

_RANDOM8 = tt_serialize(TruthTable(8, random_table(np.random.default_rng(8), 8)))

_MEASURES_CASES = {
    "maj5_at": ("fam:maj:n=5", "--at", "10101"),
    "and15_at_skips": ("fam:and:n=15", "--at", "0" * 15),
    "const0_at": ("tt:0:1", "--at", ""),
    "random8": (_RANDOM8,),
}

DIGESTS = {
    ("maj5_at", "json"):
        "1639960b3a4d80a672309112f57f7f709dba7f35e870e90ff5aa52adb8fa54df",
    ("maj5_at", "csv"):
        "94d5137373114a06905de319d81682f21f92b65c1928936010b46426199279b0",
    ("maj5_at", "text"):
        "000b982674112e2ced7360029c47b83edce74954b1af813c9ca0ba0210e4b19e",
    ("and15_at_skips", "json"):
        "ad8641746fa46a239eb1ab2306bffb3e629e2b4c867db5ae118edf7d45479390",
    ("and15_at_skips", "csv"):
        "58531f3785033bd9f2d9a57321d608851e182d3a2ae9128a227db1f25d48483e",
    ("and15_at_skips", "text"):
        "5bdcd1685469821d62cea2ac4fabbda0142316fa2688964462e16eb2555fab6f",
    ("const0_at", "json"):
        "68af8b91656884581ed54576d0d639bb0bbdbdd5e46f3c06fd0a6df8291abeef",
    ("const0_at", "csv"):
        "a84d577843ce5b4f67bea2856393ed28ccb357086f8d5b1ccc7d48e188c03fe2",
    ("const0_at", "text"):
        "8034dfe13356caff807603c2837eedae4e9a5b2d3b3e1d262f0aeaa8da64c184",
    ("random8", "json"):
        "edf1e57fcf2304a4d1a7ff2878ce77f7fed3e2849e1f58fabbc7414f96315017",
    ("random8", "csv"):
        "2aa7dea7d33ca0c1f0648d3e46d03d246caca64753cf79076b859d24d401cbcc",
    ("random8", "text"):
        "a9ece5c9cc70acde421adcab6a202ebc91660494c332bef412bbf717af012fd8",
    ("family_long", "json"):
        "01a301344d0a31a7cd835fe20fb58d97ee03e04644864884e2b07f94f43f142b",
    ("family_long", "csv"):
        "f052475f436648edd60bf3b46173ca74ff5b293f477d512f2159f461c8e3db28",
    ("family_long", "text"):
        "dc9ca867d7bcef10c3575dd233bc5c87772599e591e805bf6143418a367da05a",
}


def _digest(capsys, *argv) -> str:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("case", sorted(_MEASURES_CASES))
def test_measures_output_digest(capsys, case, fmt):
    assert _digest(capsys, "measures", *_MEASURES_CASES[case], "--format", fmt) == \
        DIGESTS[case, fmt]


@pytest.mark.long
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_family_long_output_digest(capsys, fmt):
    assert _digest(capsys, "check", "family", "--long", "--format", fmt) == \
        DIGESTS["family_long", fmt]
