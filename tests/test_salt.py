"""Shift-invariant alternation: the level-set kernel and the bulk arrays
against the brute-force oracles and the single-function alternation."""

import numpy as np

from boolfn import (
    TruthTable,
    alternation,
    alternation_under_shifts,
    shift,
    shift_invariant_alternation,
)
from boolfn._bulk import measure_arrays

from oracles import naive_salt, naive_shift_alternations, random_table


def _every_function(n):
    return [TruthTable(n, bits) for bits in range(2 ** (2**n))]


def test_salt_and_witness_match_oracles_exhaustive():
    for n in range(4):
        for f in _every_function(n):
            alts = naive_shift_alternations(f)
            val, b = shift_invariant_alternation(f, witness=True)
            assert val == naive_salt(f) == min(alts)
            assert b == alts.index(val)
            assert alternation_under_shifts(f).tolist() == alts


def test_alternation_under_shifts_matches_shifted_alternation():
    rng = np.random.default_rng(31)
    for k in range(64):
        n = 4 + k % 5
        f = TruthTable(n, random_table(rng, n))
        alts = alternation_under_shifts(f)
        assert alts.shape == (2**n,)
        for b in range(2**n):
            assert alts[b] == alternation(shift(f, b))
        val, b = shift_invariant_alternation(f, witness=True)
        assert (val, b) == (int(alts.min()), int(alts.argmin()))


def test_bulk_salt_matches_api_exhaustive():
    for n in range(4):
        a = measure_arrays(n, 0, 2 ** (2**n))
        for f in _every_function(n):
            val, b = shift_invariant_alternation(f, witness=True)
            assert (a["salt"][f.bits], a["salt_argmin"][f.bits]) == (val, b)
            assert a["alt"][f.bits] == alternation(f)
