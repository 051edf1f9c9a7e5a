import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def bulk_n4_rows():
    """The ``_bulk.measure_arrays`` entries of some 4-variable function ids,
    as {key: {id: value}}, computed one slice of ``_bulk._slices(4)`` at a
    time as the library's callers do, so no call holds every row at once."""
    from boolfn._bulk import _slices, measure_arrays

    def rows(ids) -> dict:
        out: dict = {}
        for lo, hi in _slices(4):
            a = measure_arrays(4, lo, hi)
            for fid in (int(i) for i in ids if lo <= i < hi):
                for key, values in a.items():
                    out.setdefault(key, {})[fid] = values[fid - lo]
            del a  # before the next slice is measured
        return out

    return rows
