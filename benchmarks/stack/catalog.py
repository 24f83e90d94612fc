"""What the ``stack`` benchmark runs and what it reports.

Pure data: the four workloads (with the reason each exists) and every
metric name with its unit, direction, regression bound, layer, source,
and the end-to-end metric it is expected to move.  ``BENCHMARK.json``
at the repo root restates the contract subset of this file (names,
units, directions, bounds); ``test_stack_smoke.py`` asserts the two
agree, so a metric cannot be renamed in one place only.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

#: Query ``n`` of every workload runs scenario ``MIX[n % 7]`` on dataset
#: seed ``S + n``.  Query counts are multiples of 7 so each percentile
#: sits inside one scenario class instead of on a class boundary.
MIX = ("distinct", "filter", "topn", "groupby_sum", "having_sum", "join",
       "tpch_q3")

#: The first queries of every server instance belong to ``setup_s``:
#: they pay lazy imports, struct caches and first-use allocations.
WARMUP_QUERIES = 14

#: Seconds one contract run measures (``BENCHMARK.json`` ``run_seconds``).
RUN_SECONDS = 15

#: Server instances set up per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: QoS classes the trace workload cycles its queries through.
PRIORITIES = ("interactive", "standard", "batch")

#: The trace workload's arrival process: Poisson with this mean gap, and
#: always the same arrival ticks.  ``--seed`` varies the datasets and
#: the channel RNG only: at this load (the three slots are busy most of
#: the time) redrawing the arrivals moves ``ticks_p95`` by a factor of
#: three between seeds, which no bound could hold.
TRACE_INTERARRIVAL = 75.0
TRACE_ARRIVAL_SEED = 0

#: Ticks between the last warm-up arrival and the first timed arrival
#: of the trace workload: the serving loop idles across the gap in one
#: step, so the warm-up queries are done before the timed trace starts.
TRACE_GAP_TICKS = 10_000


@dataclasses.dataclass(frozen=True)
class Workload:
    """One traffic mix: how queries are issued and what serves them."""

    name: str
    why: str
    #: ``closed`` (next submit after the previous result, per
    #: connection) or ``trace`` (every submission up front behind the
    #: server's hold barrier, released in ``arrival_tick`` order).
    mode: str
    connections: int
    rows: int
    #: Timed queries per ``--seconds`` second.  Sizing constant measured
    #: on the 2-core sandbox: the query count is a function of
    #: ``--seconds`` alone, never of how fast the host is, so the tick
    #: domain of a run depends only on ``(seed, seconds)``.
    queries_per_second: float
    #: ``repro.api.ServeConfig`` fields (seed is added per run).
    server: Dict[str, object]

    def timed_queries(self, seconds: float) -> int:
        """Timed query count for a run of ``seconds`` (a multiple of 7)."""
        return max(7, 7 * round(self.queries_per_second * seconds / 7))

    def server_config(self, seed: int) -> Dict:
        return dict(self.server, seed=seed)


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="small_closed",
        why="24-row queries, closed loop on 2 connections, no loss: "
            "per-query fixed cost (framing, submit, install, reference "
            "run, dispatch) dominates; kernels and transport idle.",
        mode="closed", connections=2, rows=24, queries_per_second=250.0,
        server={"slots": 4, "policy": "fifo", "shards": 1},
    ),
    Workload(
        name="bulk_solo",
        why="1600-row queries, one connection, no loss, 2 shards: the "
            "paper's query-completion-time case; per-entry cost (encode, "
            "wire, forwarder, offer_batch, master dedup) dominates.",
        mode="closed", connections=1, rows=1600, queries_per_second=20.0,
        server={"slots": 4, "policy": "fifo", "shards": 2},
    ),
    Workload(
        name="lossy_closed",
        why="240-row queries, 5% loss and reorder 2 under the fixed "
            "transport: ~280 ticks and ~10 transmissions per entry, so "
            "per-tick cost dominates and kernels see tiny batches.",
        mode="closed", connections=2, rows=240, queries_per_second=22.0,
        server={"slots": 4, "policy": "fifo", "shards": 2, "loss": 0.05,
                "reorder": 2, "congestion": "fixed"},
    ),
    Workload(
        name="trace_tiers_aimd",
        why="Poisson arrival trace behind the hold barrier, tiers policy "
            "on 3 slots, AIMD over a 4-packet ingress queue, 2% loss: "
            "backlog, preemption with suspend/resume and paced sending.",
        mode="trace", connections=2, rows=120, queries_per_second=48.0,
        server={"slots": 3, "policy": "tiers", "shards": 2, "loss": 0.02,
                "congestion": "aimd", "queue_capacity": 4},
    ),
)

WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


@dataclasses.dataclass(frozen=True)
class Metric:
    """One reported number."""

    name: str
    unit: str
    #: ``lower`` or ``higher``.
    better: str
    #: End-to-end only: share of the parent's median by which the
    #: metric may worsen before a change counts as a regression.
    bound: Optional[float] = None
    #: Per-layer only: the module the number belongs to.
    layer: str = ""
    #: Per-layer only: ``span`` (traced run), ``drive`` (kernel drive)
    #: or ``count`` (result frames, registry snapshot, final report).
    source: str = ""
    #: Per-layer only: the end-to-end metric and workload it should move.
    moves: str = ""


#: Wall-clock bounds are as wide as the contract allows: the shared
#: 2-core sandbox drifts by 10-20% over minutes, so ten-seed spreads of
#: the wall metrics ran from 2% to 19% on the same code.  RSS steps by
#: ~9% when a per-tick dict crosses a resize threshold between seeds.
#: Tick-domain bounds are three times the spread seen across ten seeds.
END_TO_END: Tuple[Metric, ...] = (
    Metric("query_p50_ms", "ms", "lower", 0.25),
    Metric("query_p95_ms", "ms", "lower", 0.25),
    Metric("entries_per_s", "1/s", "higher", 0.25),
    Metric("ticks_p50", "ticks", "lower", 0.15),
    Metric("ticks_p95", "ticks", "lower", 0.20),
    Metric("tx_per_entry", "tx/entry", "lower", 0.05),
    Metric("pruned_share", "share", "higher", 0.05),
    Metric("peak_rss_mb", "MB", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
)


def _layer(layer: str, moves: str, *metrics: Tuple[str, str, str, str]
           ) -> List[Metric]:
    return [Metric(f"{layer}.{suffix}", unit, better, layer=layer,
                   source=source, moves=moves)
            for suffix, unit, better, source in metrics]


PER_LAYER: Tuple[Metric, ...] = tuple(
    _layer("serving.protocol", "query_p50_ms on small_closed only",
           ("frames", "count", "lower", "count"),
           ("bytes", "bytes", "lower", "count"),
           ("codec_us_per_frame", "us", "lower", "drive"))
    + _layer("serving.server",
             "query_p50_ms and entries_per_s on small_closed",
             ("cpu_s", "s", "lower", "span"),
             ("cpu_ms_per_query", "ms", "lower", "span"),
             ("self_s", "s", "lower", "span"),
             ("accept_p50_ms", "ms", "lower", "count"),
             ("stats_rtt_ms", "ms", "lower", "count"))
    + _layer("cluster.scheduler",
             "entries_per_s on lossy_closed and trace_tiers_aimd; wait "
             "ticks move ticks_p95 on trace_tiers_aimd",
             ("submit_s", "s", "lower", "span"),
             ("submit_calls", "count", "lower", "span"),
             ("run_tick_s", "s", "lower", "span"),
             ("run_tick_self_s", "s", "lower", "span"),
             ("run_tick_calls", "count", "lower", "span"),
             ("run_tick_self_us", "us", "lower", "span"),
             ("self_s", "s", "lower", "span"),
             ("ticks", "ticks", "lower", "count"),
             ("wait_ticks_p50", "ticks", "lower", "count"),
             ("wait_ticks_p95", "ticks", "lower", "count"),
             ("preemptions", "count", "lower", "count"),
             ("resumes", "count", "lower", "count"),
             ("occupancy_mean", "slots", "higher", "count"))
    + _layer("cluster.simulation",
             "query_p50_ms on bulk_solo and small_closed",
             ("build_scenario_s", "s", "lower", "span"),
             ("begin_transfer_s", "s", "lower", "span"),
             ("step_s", "s", "lower", "span"),
             ("step_self_s", "s", "lower", "span"),
             ("step_calls", "count", "lower", "span"),
             ("self_s", "s", "lower", "span"))
    + _layer("cluster.worker",
             "query_p50_ms on bulk_solo and small_closed",
             ("encode_ns_per_entry", "ns", "lower", "drive"))
    + _layer("net.reliability",
             "tx_per_entry, ticks_p50 and entries_per_s on lossy_closed; "
             "no move on bulk_solo",
             ("worker_tick_s", "s", "lower", "span"),
             ("worker_tick_calls", "count", "lower", "span"),
             ("forwarder_self_s", "s", "lower", "span"),
             ("master_batch_s", "s", "lower", "span"),
             ("self_s", "s", "lower", "span"),
             ("retransmissions", "count", "lower", "count"),
             ("master_duplicates", "count", "lower", "count"),
             ("useful_tx_ratio", "share", "higher", "count"))
    + _layer("net.channel",
             "entries_per_s on lossy_closed",
             ("sent", "count", "lower", "count"),
             ("dropped", "count", "lower", "count"),
             ("tail_dropped", "count", "lower", "count"),
             ("send_drain_ns_per_packet", "ns", "lower", "drive"))
    + _layer("net.congestion",
             "tx_per_entry on trace_tiers_aimd (zero elsewhere)",
             ("queue_signals", "count", "lower", "count"),
             ("loss_events", "count", "lower", "count"),
             ("rate_mean", "pkt/tick", "higher", "count"))
    + _layer("net.wire", "entries_per_s on bulk_solo",
             ("encode_packet_ns", "ns", "lower", "drive"),
             ("decode_header_fields_ns", "ns", "lower", "drive"),
             ("decode_values_ns", "ns", "lower", "drive"),
             ("ack_codec_ns", "ns", "lower", "drive"))
    + _layer("switch",
             "install: query_p50_ms on small_closed; offer_batch: "
             "entries_per_s on bulk_solo; suspend/resume: "
             "trace_tiers_aimd only",
             ("install_s", "s", "lower", "span"),
             ("install_calls", "count", "lower", "span"),
             ("install_ms_per_query", "ms", "lower", "span"),
             ("offer_batch_s", "s", "lower", "span"),
             ("offer_batch_calls", "count", "lower", "span"),
             ("offer_batch_entries_per_s", "1/s", "higher", "span"),
             ("suspend_resume_s", "s", "lower", "span"),
             ("self_s", "s", "lower", "span"),
             ("offers", "count", "lower", "count"),
             ("prunes", "count", "higher", "count"))
    + [Metric(f"core.offer_batch_ns_per_entry.{scenario}", "ns", "lower",
              layer="core", source="drive",
              moves="entries_per_s on bulk_solo")
       for scenario in MIX]
    + _layer("db", "query_p50_ms on small_closed and bulk_solo",
             ("reference_run_s", "s", "lower", "span"),
             ("reference_run_ms_per_query", "ms", "lower", "span"))
    + _layer("obs", "entries_per_s on lossy_closed; ~0 on bulk_solo",
             ("on_service_tick_s", "s", "lower", "span"),
             ("share_of_run_tick", "share", "lower", "span"))
    + _layer("trace", "none: the cost of the measurement itself",
             ("overhead_ratio", "ratio", "lower", "span"),
             ("spans", "count", "lower", "span"),
             ("span_cost_ns", "ns", "lower", "drive"))
)

#: The traced run's ledger: these partition the server's CPU time over
#: the timed window (README, "Reading the ledger").  The reference run
#: and the obs poll have no wrapped callees, so their totals are their
#: self times.
LEDGER = ("serving.server.self_s", "cluster.scheduler.self_s",
          "cluster.simulation.self_s", "net.reliability.self_s",
          "switch.self_s", "db.reference_run_s", "obs.on_service_tick_s")


def benchmark_json() -> Dict:
    """The ``BENCHMARK.json`` this catalog implies."""
    return {
        "command": ["python3", "benchmarks/stack/run.py"],
        "paths": ["benchmarks/stack"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
