"""The count, state, reservoir and coarsening oracles once more, on the numpy path.

Where a C compiler is present the counting, owner, state-run and
counted-stream oracles, the stream histogram's reservoir oracles and the
coarsening sweep's oracles run on the compiled kernel
(``repro.joins.native``).
This module collects the same tests again with the kernel swapped out, so
both paths are held to the same references in every run: the numpy code is
what counts wherever the kernel cannot be built, and the reference the
kernel itself is tested against (``tests/test_native_kernel.py``).  The
tests are the originals, imported; only the fixture below differs.
(A sticky worker is its own process and loads the kernel there.)
"""

from __future__ import annotations

import pytest

from repro.joins import native

from test_counted_streams import *  # noqa: F401,F403
from test_counting_oracle import *  # noqa: F401,F403
from test_owner_oracle import *  # noqa: F401,F403
from test_planner_oracle import (  # noqa: F401
    test_coarsen_matches_the_per_axis_search,
    test_the_kernel_sweeps_as_numpy_and_the_row_loop_do,
)
from test_sampling_oracle import (  # noqa: F401
    test_decayed_reservoir_add_batch_equals_the_per_key_loop,
    test_tied_priorities_break_by_counter,
)
from test_state_runs import *  # noqa: F401,F403


@pytest.fixture(autouse=True, scope="module")
def numpy_count_path():
    """Count, merge, offer and sweep without the kernel for every test of this module."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "KERNEL", None)
        patch.setattr(native, "COUNT_PATH", "numpy: swapped out by the test")
        yield


def test_this_module_counts_on_the_numpy_path():
    assert native.KERNEL is None and native.COUNT_PATH.startswith("numpy: ")
