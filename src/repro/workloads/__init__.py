"""Workload generators: synthetic Big Data benchmark and TPC-H subset.

The paper's datasets (AMPLab Big Data benchmark at 90M/775M rows, TPC-H
at default scale) are replaced by schema- and distribution-faithful
generators at configurable scale; pruning rates depend on distinct
counts, skew, and ordering, which the generators preserve.
"""

from repro.workloads.streams import (
    random_order_stream,
    zipf_keys,
    random_points,
)
from repro.workloads.bigdata import (
    BigDataGenerator,
    BENCHMARK_QUERIES,
    benchmark_query,
)
from repro.workloads.tpch import TPCHGenerator, tpch_q3_queries
from repro.workloads.traces import (
    ARRIVAL_PROCESSES,
    TRACE_VERSION,
    Trace,
    generate_trace,
    load_trace,
    parse_trace,
)

__all__ = [
    "random_order_stream",
    "zipf_keys",
    "random_points",
    "BigDataGenerator",
    "BENCHMARK_QUERIES",
    "benchmark_query",
    "TPCHGenerator",
    "tpch_q3_queries",
    "ARRIVAL_PROCESSES",
    "TRACE_VERSION",
    "Trace",
    "generate_trace",
    "load_trace",
    "parse_trace",
]
