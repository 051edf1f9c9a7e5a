import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def bulk_n4_rows():
    """The ``_bulk.measure_arrays`` entries of some 4-variable function ids,
    as {key: {id: value}}, from one call on the lanes of those ids."""
    from boolfn._bulk import measure_arrays
    from boolfn.measures import _lane

    def rows(ids) -> dict:
        a = measure_arrays(np.asarray(ids, dtype=_lane(4)), 4)
        return {key: {int(fid): values[r] for r, fid in enumerate(ids)}
                for key, values in a.items()}

    return rows
