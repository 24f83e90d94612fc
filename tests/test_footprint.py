"""Per-query fixed cost: a small query allocates what it touches.

The switch model provisions Table 2's capacity — a 4 MiB Bloom filter
per JOIN side, d = 4096-row matrices for DISTINCT, GROUP BY and TOP-N —
and ``resources()`` still reports it.  The Python state behind it is
sparse, so a 24-row reference run must not allocate that capacity.  A
dense register array anywhere on the path shows up here as megabytes
(JOIN alone was 8 MiB, TPC-H Q3 16 MiB).
"""

import tracemalloc

import pytest

from repro.cluster.simulation import build_scenario
from repro.db.planner import QueryPlanner

#: The scenario mix the serving workloads cycle through.
SERVED_SCENARIOS = ("distinct", "filter", "topn", "groupby_sum",
                    "having_sum", "join", "tpch_q3", "skyline")

PEAK_LIMIT_BYTES = 128 * 1024


def _traced_peak(query, tables):
    tracemalloc.start()
    try:
        QueryPlanner(seed=0).plan(query).run(tables)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scenario", SERVED_SCENARIOS)
def test_small_reference_run_allocates_what_it_touches(scenario):
    query, tables = build_scenario(scenario, rows=24)
    # A first run pays lazy imports and first-use caches.
    QueryPlanner(seed=0).plan(query).run(tables)
    peak = _traced_peak(query, tables)
    assert peak <= PEAK_LIMIT_BYTES, (
        f"{scenario}: traced peak {peak / 1024:.0f} KiB > "
        f"{PEAK_LIMIT_BYTES // 1024} KiB")
