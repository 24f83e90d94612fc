"""Experiment result container, text-table rendering, and perf benches.

Besides the rendered text tables, this module emits machine-readable
``BENCH_<name>.json`` files (timings + pruning fractions) so the perf
trajectory can be tracked across PRs and asserted in CI:

* :func:`run_fig11_scale_bench` — the Figure 11 scale benchmark: every
  fig11 pruner over growing stream prefixes, timed per-packet vs
  batched, optionally sharded across K simulated switch pipelines
  (``--shards`` on the CLI), with decision-equivalence verified.
* :func:`run_fig5_bench` — one timed fig5 completion-time regeneration.
* :func:`run_e2e_bench` — the end-to-end scenario suite through the
  full ``ClusterSimulation`` stack (lossy channels + §7.2 protocol +
  sharded switch), pipelined vs. sequential switch dispatch, plus a
  loss-rate sweep; every run's result is checked against
  ``QueryPlan.run``.
* :func:`run_concurrency_bench` — multi-tenant serving through the
  ``QueryScheduler``: aggregate throughput vs. tenant count on shared
  switches, solo-vs-shared latency, with every tenant's result checked
  against its solo ``QueryPlan.run``.
* :func:`run_replay_bench` — trace-replay serving: Poisson, bursty,
  diurnal, and heavy-tailed Pareto arrival traces through the
  scheduler under a tight slot budget, reporting p50/p95/p99
  arrival-to-completion latency and slot occupancy from the per-tick
  telemetry probe.  Fully deterministic (tick-based metrics only), so
  CI asserts byte-identical payloads for the same seed.
* :func:`run_qos_bench` — the QoS subsystem's measured claim:
  interactive-class tail latency under saturating batch load with the
  ``tiers`` policy's slot preemption enabled vs. disabled, with every
  tenant (including the preempted ones) still identical to its solo
  ``QueryPlan.run``.  Deterministic for the same seed.
* :func:`run_chaos_bench` — the fault-injection benchmark: the same
  tenant set served with and without a seeded
  :class:`~repro.cluster.chaos.FailureSchedule` (shard kills with
  checkpointed query migration, a restart, worker window replays),
  reporting migrated-query counts, recovery ticks, and p99 inflation
  over the no-fault baseline — with every surviving tenant still
  byte-identical to its solo ``QueryPlan.run``.  Deterministic for the
  same seed.
* :func:`run_congestion_bench` — the transport benchmark: AIMD rate
  control (``docs/CONGESTION.md``) vs the fixed retransmission
  schedule across a loss × tenant-count × queue-capacity sweep, plus
  a deterministic weighted-fairness trial and a mixed-class serving
  run.  The headline: under finite switch ingress queues and loss,
  AIMD sustains at least the fixed schedule's goodput with a fraction
  of its retransmissions.  Deterministic for the same seed.
* :func:`run_load_bench` — the socket serving benchmark: a concurrent
  client swarm over real TCP connections against a live
  ``ReproServer`` (open-loop arrivals from the trace generators plus
  a closed-loop request/response phase), reporting wall-clock
  p50/p95/p99 alongside the tick-based percentiles.  The open-loop
  phase's ``tick_domain`` sub-object is byte-identical across runs
  (hold-barrier admission); the wall-clock numbers are not, by
  design.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from typing import Callable, Dict, List, Optional, Sequence


@dataclasses.dataclass
class ExperimentResult:
    """Rows of one regenerated table/figure."""

    experiment_id: str
    title: str
    rows: List[Dict]
    notes: str = ""

    def render(self) -> str:
        """The experiment as an aligned text table."""
        header = f"== {self.experiment_id}: {self.title} =="
        body = format_table(self.rows)
        parts = [header, body]
        if self.notes:
            parts.append(f"note: {self.notes}")
        return "\n".join(parts)


def format_table(rows: Sequence[Dict], float_digits: int = 4) -> str:
    """Align a list of dicts as a text table (column order = first row)."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())

    def fmt(value) -> str:
        if isinstance(value, float):
            if value != 0 and abs(value) < 10 ** -float_digits:
                return f"{value:.2e}"
            return f"{value:.{float_digits}f}"
        return str(value)

    rendered = [[fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered))
        for i, col in enumerate(columns)
    ]
    lines = [
        "  ".join(col.ljust(w) for col, w in zip(columns, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in rendered:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines)


@dataclasses.dataclass
class ConfidenceInterval:
    """Mean with a two-tailed Student-t 95% interval (the paper's §8.3
    methodology: five runs of each randomized algorithm)."""

    mean: float
    half_width: float
    runs: int

    @property
    def low(self) -> float:
        """Lower interval bound."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper interval bound."""
        return self.mean + self.half_width

    def __contains__(self, value: float) -> bool:
        return self.low <= value <= self.high


def repeat_with_ci(metric_fn, seeds: Sequence[int] = (0, 1, 2, 3, 4),
                   confidence: float = 0.95) -> ConfidenceInterval:
    """Run ``metric_fn(seed)`` per seed; return mean ± t-interval.

    Matches §8.3: "We ran each randomized algorithm five times and used
    two-tailed Student t-test to determine the 95% confidence intervals."
    """
    from scipy import stats

    values = [float(metric_fn(seed)) for seed in seeds]
    n = len(values)
    if n < 2:
        raise ValueError("need at least two runs for an interval")
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    t_crit = float(stats.t.ppf((1 + confidence) / 2, df=n - 1))
    half_width = t_crit * (variance / n) ** 0.5
    return ConfidenceInterval(mean=mean, half_width=half_width, runs=n)


def save_result(result: ExperimentResult,
                directory: Optional[str] = None) -> str:
    """Write the rendered experiment under ``results/`` and return the path."""
    directory = directory or os.environ.get("REPRO_RESULTS_DIR", "results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{result.experiment_id}.txt")
    with open(path, "w") as f:
        f.write(result.render() + "\n")
    return path


# ---------------------------------------------------------------------------
# Machine-readable benchmark emission (BENCH_<name>.json)
# ---------------------------------------------------------------------------

def emit_bench_json(name: str, payload: Dict,
                    directory: Optional[str] = None,
                    prefix: str = "BENCH") -> str:
    """Write ``payload`` as ``<prefix>_<name>.json`` under the results
    dir (``BENCH_<name>.json`` by default; ``repro profile`` passes
    ``prefix="PROFILE"``).

    The JSON is the cross-PR perf record: CI runs the benches on tiny
    inputs, uploads these files as artifacts, and asserts their shape.
    """
    directory = directory or os.environ.get("REPRO_RESULTS_DIR", "results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{prefix}_{name}.json")
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def _chunks(items: list, size: int):
    for start in range(0, len(items), size):
        yield items[start:start + size]


@dataclasses.dataclass
class _BenchCase:
    """One fig11 pruner workload: factory + stream + routing type."""

    name: str
    factory: Callable[[], object]
    stream: list
    query_type: Optional[str] = None
    two_pass: bool = False


def _fig11_cases(rows: int, seed: int) -> List[_BenchCase]:
    """The Figure 11 pruner configurations on their fig11-style streams."""
    from repro.core import (
        DistinctPruner,
        GroupByPruner,
        HavingPruner,
        JoinPruner,
        SkylinePruner,
        TopNRandomized,
    )
    from repro.core.join import JoinSide
    from repro.workloads.streams import (
        join_key_streams,
        keyed_value_stream,
        random_order_stream,
        random_points,
        value_stream,
    )

    keyed = keyed_value_stream(rows, max(1, rows // 40), seed=seed)
    half = rows // 2
    left, right = join_key_streams(half, half, overlap=0.25,
                                   key_space=1 << 22, seed=seed)
    join_stream = []
    for left_key, right_key in zip(left, right):
        join_stream.append((JoinSide.A, left_key))
        join_stream.append((JoinSide.B, right_key))
    total_mass = sum(value for _, value in keyed)
    return [
        _BenchCase("distinct", lambda: DistinctPruner(rows=4096, width=2,
                                                      seed=seed),
                   random_order_stream(rows, max(1, rows // 10), seed)),
        _BenchCase("skyline", lambda: SkylinePruner(dimensions=2, width=8),
                   random_points(max(1, rows // 3), dimensions=2,
                                 seed=seed)),
        _BenchCase("topn_rand", lambda: TopNRandomized(n=250, rows=4096,
                                                       width=8, seed=seed),
                   value_stream(rows, seed=seed)),
        _BenchCase("groupby", lambda: GroupByPruner(rows=4096, width=6,
                                                    seed=seed),
                   keyed, query_type="groupby"),
        _BenchCase("having", lambda: HavingPruner(
                       threshold=total_mass * 0.002, width=128, depth=3,
                       seed=seed),
                   keyed, query_type="having"),
        _BenchCase("join", lambda: JoinPruner(size_bits=256 * 1024 * 8,
                                              hashes=3, seed=seed),
                   join_stream, query_type="join", two_pass=True),
    ]


def _run_case_packet(pruner, stream, two_pass: bool):
    decisions = [pruner.offer(entry) for entry in stream]
    if two_pass:
        pruner.start_second_pass()
        decisions += [pruner.offer(entry) for entry in stream]
    return decisions


def _run_case_batched(pruner, stream, two_pass: bool, batch_size: int):
    decisions: List[bool] = []
    for chunk in _chunks(stream, batch_size):
        decisions += pruner.offer_batch(chunk)
    if two_pass:
        pruner.start_second_pass()
        for chunk in _chunks(stream, batch_size):
            decisions += pruner.offer_batch(chunk)
    return decisions


def _decision_fingerprint(decisions: Sequence[bool]) -> str:
    """A stable digest of a prune-decision vector (one byte per
    decision) — the deterministic projection CI compares run-to-run."""
    import hashlib

    return hashlib.sha256(bytes(bytearray(decisions))).hexdigest()


def run_fig11_scale_bench(rows: int = 60_000, shards: int = 1,
                          batch_size: int = 8192, seed: int = 0,
                          verify: bool = True) -> Dict:
    """The Figure 11 scale benchmark: per-packet vs batched dataplane.

    Runs every fig11 pruner over growing prefixes of its stream (three
    row counts up to ``rows``), once through the per-packet ``offer``
    path and once through the batched ``offer_batch`` path — both
    sharded across ``shards`` simulated switch pipelines when
    ``shards > 1`` — and records wall-clock timings, pruning fractions,
    speedups, and (with ``verify``) decision equivalence.

    Returns the payload for ``BENCH_fig11.json``; the headline
    ``overall_speedup_at_largest`` is total per-packet time over total
    batched time at the largest row count.  The ``decision_domain``
    sub-object holds only deterministic fields (per-prefix prune
    counts and decision digests) — wall clocks live outside it, so CI
    can assert byte-identical decisions across repeat runs.
    """
    from repro.cluster.runtime import make_sharded

    if rows < 40:
        raise ValueError(f"rows too small for the fig11 streams: {rows}")
    row_counts = sorted({max(10, rows // 4), max(10, rows // 2), rows})
    cases = _fig11_cases(rows, seed)
    algorithms: Dict[str, List[Dict]] = {}
    decision_domain: Dict[str, List[Dict]] = {}
    totals = {count: {"packet": 0.0, "batch": 0.0} for count in row_counts}
    for case in cases:
        series = []
        fingerprints = []
        for count in row_counts:
            prefix = case.stream[:max(1, round(len(case.stream)
                                               * count / rows))]
            packet_pruner = make_sharded(case.factory, shards,
                                         case.query_type, seed=seed)
            start = time.perf_counter()
            packet_decisions = _run_case_packet(packet_pruner, prefix,
                                                case.two_pass)
            packet_seconds = time.perf_counter() - start
            batch_pruner = make_sharded(case.factory, shards,
                                        case.query_type, seed=seed)
            start = time.perf_counter()
            batch_decisions = _run_case_batched(batch_pruner, prefix,
                                                case.two_pass, batch_size)
            batch_seconds = time.perf_counter() - start
            equivalent = (packet_decisions == batch_decisions
                          and packet_pruner.stats == batch_pruner.stats
                          ) if verify else None
            stats = batch_pruner.stats
            series.append({
                "rows": len(prefix),
                "packet_seconds": packet_seconds,
                "batch_seconds": batch_seconds,
                "speedup": (packet_seconds / batch_seconds
                            if batch_seconds > 0 else None),
                "unpruned_fraction": stats.unpruned_fraction,
                "pruned_fraction": stats.pruned_fraction,
                "equivalent": equivalent,
            })
            fingerprints.append({
                "rows": len(prefix),
                "offered": stats.offered,
                "pruned": stats.pruned,
                "decisions_sha256": _decision_fingerprint(batch_decisions),
                "equivalent": equivalent,
            })
            totals[count]["packet"] += packet_seconds
            totals[count]["batch"] += batch_seconds
        algorithms[case.name] = series
        decision_domain[case.name] = fingerprints
    largest = totals[row_counts[-1]]
    return {
        "benchmark": "fig11_scale",
        "rows": rows,
        "row_counts": row_counts,
        "shards": shards,
        "batch_size": batch_size,
        "seed": seed,
        "algorithms": algorithms,
        "decision_domain": decision_domain,
        "totals": {
            str(count): {
                "packet_seconds": value["packet"],
                "batch_seconds": value["batch"],
                "speedup": (value["packet"] / value["batch"]
                            if value["batch"] > 0 else None),
            }
            for count, value in totals.items()
        },
        "overall_speedup_at_largest": (largest["packet"] / largest["batch"]
                                       if largest["batch"] > 0 else None),
        "all_equivalent": (all(point["equivalent"]
                               for series in algorithms.values()
                               for point in series)
                           if verify else None),
    }


#: Scenarios the e2e bench drives at the configured loss rate.
E2E_BENCH_SCENARIOS = ("tpch_q3", "distinct", "groupby_sum", "join")
#: Loss rates swept with the sweep scenario (robustness trend).
E2E_LOSS_SWEEP = (0.0, 0.05, 0.15)


def run_e2e_bench(rows: int = 1200, shards: int = 2,
                  loss_rate: float = 0.05, reorder_window: int = 2,
                  seed: int = 0,
                  scenarios: Sequence[str] = E2E_BENCH_SCENARIOS,
                  loss_sweep: Sequence[float] = E2E_LOSS_SWEEP,
                  sweep_scenario: str = "distinct") -> Dict:
    """End-to-end pipeline benchmark over the full simulated cluster.

    Each scenario runs twice through :class:`ClusterSimulation` — once
    with the pipelined (batched ``offer_batch``) switch frontend, once
    with per-packet dispatch — under identical channel seeds, so the
    delivered streams are bit-identical and the timing delta is pure
    dispatch cost.  Every run is checked for result equivalence against
    the functional ``QueryPlan.run`` path.  A loss-rate sweep of
    ``sweep_scenario`` records how retransmissions and ticks grow with
    loss.  Returns the payload for ``BENCH_e2e.json``.
    """
    from repro.cluster.simulation import (
        ClusterSimulation,
        SimulationConfig,
        build_scenario,
    )

    def run_case(name: str, loss: float) -> Dict:
        query, tables = build_scenario(name, rows=rows, seed=seed)
        row: Dict = {"scenario": name, "loss_rate": loss}
        results = {}
        for mode, pipelined in (("pipelined", True), ("sequential", False)):
            config = SimulationConfig(
                loss_rate=loss, reorder_window=reorder_window,
                shards=shards, seed=seed, pipelined=pipelined,
            )
            report = ClusterSimulation(config).run(query, tables)
            results[mode] = report
            row[f"{mode}_seconds"] = report.wall_seconds
            row[f"{mode}_equivalent"] = report.equivalent
            row[f"{mode}_retransmissions"] = report.retransmissions
            row[f"{mode}_ticks"] = report.ticks
        row["speedup"] = (
            row["sequential_seconds"] / row["pipelined_seconds"]
            if row["pipelined_seconds"] > 0 else None
        )
        row["entries"] = results["pipelined"].entries
        row["delivered"] = results["pipelined"].delivered
        row["switch_pruned"] = results["pipelined"].switch_pruned
        row["packets_dropped"] = results["pipelined"].packets_dropped
        row["modes_match"] = (
            results["pipelined"].result == results["sequential"].result
            and results["pipelined"].passes == results["sequential"].passes
        )
        return row

    case_rows = [run_case(name, loss_rate) for name in scenarios]
    sweep_rows = [run_case(sweep_scenario, loss) for loss in loss_sweep]
    all_rows = case_rows + sweep_rows
    total_sequential = sum(r["sequential_seconds"] for r in all_rows)
    total_pipelined = sum(r["pipelined_seconds"] for r in all_rows)
    return {
        "benchmark": "e2e_pipeline",
        "rows": rows,
        "shards": shards,
        "loss_rate": loss_rate,
        "reorder_window": reorder_window,
        "seed": seed,
        "scenarios": case_rows,
        "loss_sweep": sweep_rows,
        "total_sequential_seconds": total_sequential,
        "total_pipelined_seconds": total_pipelined,
        "overall_speedup": (total_sequential / total_pipelined
                            if total_pipelined > 0 else None),
        "all_equivalent": all(
            r["pipelined_equivalent"] and r["sequential_equivalent"]
            and r["modes_match"] for r in all_rows
        ),
    }


def run_concurrency_bench(max_tenants: int = 8, rows: int = 240,
                          loss_rate: float = 0.05,
                          reorder_window: int = 1, shards: int = 1,
                          seed: int = 0,
                          scenario_mix: Optional[Sequence[str]] = None,
                          ) -> Dict:
    """Multi-tenant serving benchmark over shared simulated switches.

    For tenant counts 1, 2, 4, ... up to ``max_tenants`` the same mix
    of scenarios is served concurrently by the ``QueryScheduler`` (all
    slots open, so concurrency is bounded only by the fleet size), and
    the makespan is compared against the *sum of solo latencies* of the
    same tenants run back-to-back through ``ClusterSimulation`` under
    identical per-tenant configs.  Every tenant's result, solo and
    shared, is checked against ``QueryPlan.run``.

    Time is measured in event-loop **ticks**, the simulation's native
    clock (one tick = one protocol round: windows fill, the switch
    drains each flow's arrival batch, ACKs return).  N tenants' passes
    advance in the *same* global ticks, so the shared makespan is about
    the slowest tenant's solo latency rather than the sum — aggregate
    throughput (entries per tick) scales with tenant count while each
    tenant's own latency stays at its solo tick count.  That is the
    serving claim this benchmark pins down, and because ticks are
    deterministic (seeded channels), CI can assert it exactly; wall
    seconds are also recorded, but they only measure this process's
    Python time, which is serial across tenants.

    Returns the payload for ``BENCH_concurrency.json``; the headline
    ``throughput_scaling`` is entries-per-tick at ``max_tenants`` over
    entries-per-tick at one tenant.
    """
    from repro.cluster.scheduler import (
        DEFAULT_TENANT_MIX,
        QueryScheduler,
        SchedulerConfig,
        tenant_specs,
    )
    from repro.cluster.simulation import ClusterSimulation, build_scenario

    if max_tenants < 1:
        raise ValueError(f"max_tenants must be >= 1, got {max_tenants}")
    mix = tuple(scenario_mix or DEFAULT_TENANT_MIX)
    counts = [1]
    while counts[-1] * 2 <= max_tenants:
        counts.append(counts[-1] * 2)
    if counts[-1] != max_tenants:
        counts.append(max_tenants)

    def config_for(n: int) -> SchedulerConfig:
        return SchedulerConfig(slots=n, loss_rate=loss_rate,
                               reorder_window=reorder_window,
                               shards=shards, seed=seed)

    # Solo baselines: each tenant of the largest fleet, run alone under
    # exactly the config the scheduler would give it.
    specs = tenant_specs(max_tenants, rows=rows, seed=seed, mix=mix)
    solo_rows: List[Dict] = []
    full_config = config_for(max_tenants)
    for index, spec in enumerate(specs):
        query, tables = build_scenario(spec.scenario, rows=spec.rows,
                                       seed=spec.seed)
        sim = ClusterSimulation(full_config.tenant_simulation_config(index))
        report = sim.run(query, tables)
        solo_rows.append({
            "tenant": spec.tenant,
            "scenario": spec.scenario,
            "solo_ticks": report.ticks,
            "solo_seconds": report.wall_seconds,
            "entries": report.entries,
            "equivalent": report.equivalent,
        })

    runs: List[Dict] = []
    for n in counts:
        scheduler = QueryScheduler(config_for(n))
        report = scheduler.serve(tenant_specs(n, rows=rows, seed=seed,
                                              mix=mix))
        sum_solo_ticks = sum(row["solo_ticks"] for row in solo_rows[:n])
        served = report.served
        runs.append({
            "tenants": n,
            "served": len(served),
            "makespan_ticks": report.ticks,
            "makespan_seconds": report.wall_seconds,
            "entries": report.entries,
            "delivered": report.delivered,
            "throughput_entries_per_tick": (report.entries / report.ticks
                                            if report.ticks else None),
            "sum_solo_ticks": sum_solo_ticks,
            "consolidation_speedup": (sum_solo_ticks / report.ticks
                                      if report.ticks else None),
            "mean_service_ticks": (sum(t.service_ticks for t in served)
                                   / len(served) if served else None),
            "mean_wait_ticks": (sum(t.wait_ticks for t in served)
                                / len(served) if served else None),
            "all_equivalent": report.all_equivalent,
        })

    first, last = runs[0], runs[-1]
    scaling = None
    if (first["throughput_entries_per_tick"]
            and last["throughput_entries_per_tick"]):
        scaling = (last["throughput_entries_per_tick"]
                   / first["throughput_entries_per_tick"])
    return {
        "benchmark": "concurrency",
        "max_tenants": max_tenants,
        "tenant_counts": counts,
        "rows": rows,
        "loss_rate": loss_rate,
        "reorder_window": reorder_window,
        "shards": shards,
        "seed": seed,
        "scenario_mix": list(mix),
        "solo": solo_rows,
        "runs": runs,
        "throughput_scaling": scaling,
        "consolidation_speedup_at_max": last["consolidation_speedup"],
        "all_equivalent": (
            all(row["equivalent"] for row in solo_rows)
            and all(run["all_equivalent"] for run in runs)
        ),
    }


def run_replay_bench(queries: int = 8, rows: int = 100, slots: int = 2,
                     loss_rate: float = 0.02, reorder_window: int = 1,
                     shards: int = 1, seed: int = 0,
                     processes: Optional[Sequence[str]] = None,
                     scenario_mix: Optional[Sequence[str]] = None,
                     ) -> Dict:
    """Trace-replay benchmark: tail latency under arrival processes.

    For each arrival process (Poisson, bursty, diurnal by default) a
    ``queries``-query trace is generated deterministically from ``seed``
    and replayed through the :class:`QueryScheduler` under a tight
    ``slots`` budget, so queueing actually happens and the latency
    *tail* separates from the median — the serving behavior the
    back-to-back ``concurrency`` bench cannot expose.  The burst trace
    packs ``2 * slots`` arrivals into a single tick, guaranteeing queue
    pressure.  Every tenant's result is checked against its solo
    ``QueryPlan.run``.

    The payload (``BENCH_replay.json``) is **fully deterministic**: all
    metrics are tick-based (:meth:`ScheduleReport.to_payload` excludes
    wall-clock time), so CI asserts byte-identical output for the same
    seed.  Headline keys: ``p99_latency_ticks`` and ``peak_occupancy``
    per process.
    """
    from repro.cluster.scheduler import SchedulerConfig, replay_trace
    from repro.workloads.traces import (
        ARRIVAL_PROCESSES,
        DEFAULT_REPLAY_MIX,
        generate_trace,
    )

    if queries < 1:
        raise ValueError(f"queries must be >= 1, got {queries}")
    processes = tuple(processes or ARRIVAL_PROCESSES)
    mix = tuple(scenario_mix or DEFAULT_REPLAY_MIX)
    config = SchedulerConfig(slots=slots, loss_rate=loss_rate,
                             reorder_window=reorder_window,
                             shards=shards, seed=seed)
    runs: List[Dict] = []
    for process in processes:
        trace = generate_trace(process, queries=queries, rows=rows,
                               seed=seed, mix=mix,
                               burst_size=2 * slots)
        report = replay_trace(trace, config, apply_overrides=False)
        runs.append({
            "process": process,
            "queries": len(trace.queries),
            "trace_duration_ticks": trace.duration_ticks,
            **report.to_payload(),
        })
    return {
        "benchmark": "trace_replay",
        "queries": queries,
        "rows": rows,
        "slots": slots,
        "loss_rate": loss_rate,
        "reorder_window": reorder_window,
        "shards": shards,
        "seed": seed,
        "scenario_mix": list(mix),
        "processes": list(processes),
        "runs": runs,
        "p99_latency_ticks": {run["process"]: run["latency"]["p99_ticks"]
                              for run in runs},
        "peak_occupancy": {run["process"]: run["occupancy"]["peak"]
                           for run in runs},
        "all_equivalent": all(run["all_equivalent"] is True
                              for run in runs),
    }


#: Long-running scenarios the QoS bench uses as saturating batch load.
QOS_BATCH_MIX = ("groupby_sum", "skyline", "having_sum")
#: Short scenarios standing in for latency-sensitive interactive work.
QOS_INTERACTIVE_MIX = ("distinct", "filter")


def run_qos_bench(batch_tenants: int = 3, interactive_tenants: int = 4,
                  batch_rows: int = 260, interactive_rows: int = 60,
                  slots: int = 3, loss_rate: float = 0.02,
                  reorder_window: int = 1, shards: int = 1,
                  seed: int = 0, interactive_stride: int = 45,
                  first_interactive_tick: int = 15) -> Dict:
    """QoS benchmark: interactive p99 with vs. without slot preemption.

    ``batch_tenants`` long-running batch-class tenants arrive at tick 0
    and saturate the slot budget; ``interactive_tenants`` short
    interactive-class tenants then arrive every ``interactive_stride``
    ticks.  The same tenant set is served twice under the three-tier
    policy (``docs/QOS.md``) — once with preemption enabled
    (``tiers``), once disabled (``tiers-no-preempt``) — and the
    per-class latency percentiles from ``ScheduleReport`` are compared.
    The headline ``interactive_p99_improvement`` is the no-preemption
    p99 over the preemption p99 (> 1 means preemption helped), while
    ``all_equivalent`` certifies that every tenant — *including the
    preempted-and-resumed batch tenants* — still produced a result
    identical to its solo ``QueryPlan.run``.

    The payload (``BENCH_qos.json``) is fully deterministic for the
    same seed (tick-based metrics only); CI double-runs it and asserts
    byte identity plus the improvement factor.
    """
    from repro.cluster.qos import tiers_policy
    from repro.cluster.scheduler import (
        QueryScheduler,
        SchedulerConfig,
        TenantSpec,
    )

    if batch_tenants < 1 or interactive_tenants < 1:
        raise ValueError("the QoS bench needs at least one tenant of "
                         "each class")
    specs = [
        TenantSpec(tenant=f"batch-{i}",
                   scenario=QOS_BATCH_MIX[i % len(QOS_BATCH_MIX)],
                   rows=batch_rows, seed=seed + i, arrival_tick=0,
                   priority="batch")
        for i in range(batch_tenants)
    ] + [
        TenantSpec(tenant=f"interactive-{i}",
                   scenario=QOS_INTERACTIVE_MIX[
                       i % len(QOS_INTERACTIVE_MIX)],
                   rows=interactive_rows, seed=seed + 101 + i,
                   arrival_tick=first_interactive_tick
                   + i * interactive_stride,
                   priority="interactive")
        for i in range(interactive_tenants)
    ]
    runs: List[Dict] = []
    for policy in (tiers_policy(preemption=True),
                   tiers_policy(preemption=False)):
        config = SchedulerConfig(slots=slots, policy=policy,
                                 loss_rate=loss_rate,
                                 reorder_window=reorder_window,
                                 shards=shards, seed=seed)
        report = QueryScheduler(config).serve(specs)
        runs.append({
            "policy": policy.name,
            "preemption": policy.preemption,
            **report.to_payload(),
        })
    with_preempt, without = runs
    p99_on = with_preempt["classes"]["interactive"]["latency"]["p99_ticks"]
    p99_off = without["classes"]["interactive"]["latency"]["p99_ticks"]
    return {
        "benchmark": "qos",
        "batch_tenants": batch_tenants,
        "interactive_tenants": interactive_tenants,
        "batch_rows": batch_rows,
        "interactive_rows": interactive_rows,
        "slots": slots,
        "loss_rate": loss_rate,
        "reorder_window": reorder_window,
        "shards": shards,
        "seed": seed,
        "interactive_stride": interactive_stride,
        "runs": runs,
        "interactive_p99_ticks": {run["policy"]: run["classes"]
                                  ["interactive"]["latency"]["p99_ticks"]
                                  for run in runs},
        "batch_p99_ticks": {run["policy"]: run["classes"]
                            ["batch"]["latency"]["p99_ticks"]
                            for run in runs},
        # The timeline interleaves preempt and resume entries; count
        # only actual preemptions.
        "preemption_events": {
            run["policy"]: sum(event["kind"] == "preempt"
                               for event in run["preemptions"])
            for run in runs},
        "interactive_p99_improvement": (p99_off / p99_on
                                        if p99_on else None),
        "all_equivalent": all(run["all_equivalent"] is True
                              for run in runs),
    }


#: Scenario rotation for the chaos bench's tenants: long-running
#: sketchy state (group-by), two-pass (join), and register-file state
#: (distinct, having) so migrated checkpoints carry every pruner shape.
CHAOS_MIX = ("groupby_sum", "join", "distinct", "having_sum")


def run_chaos_bench(tenants: int = 4, rows: int = 260, slots: int = 4,
                    loss_rate: float = 0.02, reorder_window: int = 1,
                    shards: int = 3, seed: int = 0,
                    kills: int = 2) -> Dict:
    """Chaos benchmark: serving under seeded fault injection.

    The same ``tenants``-tenant set (rotating through
    :data:`CHAOS_MIX`) is served twice through the
    :class:`QueryScheduler`: once fault-free (the baseline), then with
    a :func:`~repro.cluster.chaos.generate_schedule` failure schedule
    sized to land inside the baseline's makespan — shard kills (whose
    installed queries are suspended via checkpoints and parked with
    survivors), restarts (which move the state home again), and worker
    kills (whose unacked §7.2 windows a survivor replays).  The
    headline claims: ``migrations`` queries were actually migrated
    mid-run, ``recovery_ticks`` measures outage length, and
    ``all_equivalent`` certifies that *every* tenant of *both* runs
    still produced a result identical to its solo ``QueryPlan.run`` —
    survivor equivalence under fire.  ``p99_inflation`` and
    ``makespan_inflation`` price the faults against the baseline.

    The payload (``BENCH_chaos.json``) is fully deterministic for the
    same seed (tick-based metrics only, schedule generation is pure);
    CI double-runs it, asserts byte identity, at least one migration,
    and the equivalence bit.
    """
    from repro.cluster.chaos import ChaosController, generate_schedule
    from repro.cluster.scheduler import (
        QueryScheduler,
        SchedulerConfig,
        tenant_specs,
    )

    if tenants < 1:
        raise ValueError(f"tenants must be >= 1, got {tenants}")
    if shards < 2:
        raise ValueError("the chaos bench kills switch pipelines: "
                         f"shards must be >= 2, got {shards}")
    if kills < 1:
        raise ValueError(f"kills must be >= 1, got {kills}")
    config = SchedulerConfig(slots=slots, loss_rate=loss_rate,
                             reorder_window=reorder_window,
                             shards=shards, seed=seed)
    specs = tenant_specs(tenants, rows=rows, seed=seed, mix=CHAOS_MIX)
    baseline = QueryScheduler(config).serve(specs)
    # Size the schedule inside the fault-free makespan so every kill
    # lands while queries are actually in flight.
    horizon = max(6, baseline.ticks * 2 // 3)
    schedule = generate_schedule(seed=seed, kills=kills, shards=shards,
                                 workers=config.workers,
                                 horizon=horizon)
    controller = ChaosController(schedule)
    chaos = QueryScheduler(config).serve(specs, chaos=controller)
    summary = controller.summary()
    baseline_payload = baseline.to_payload()
    chaos_payload = chaos.to_payload()
    base_p99 = baseline_payload["latency"]["p99_ticks"]
    chaos_p99 = chaos_payload["latency"]["p99_ticks"]
    return {
        "benchmark": "chaos",
        "tenants": tenants,
        "rows": rows,
        "slots": slots,
        "loss_rate": loss_rate,
        "reorder_window": reorder_window,
        "shards": shards,
        "seed": seed,
        "kills": kills,
        "scenario_mix": list(CHAOS_MIX),
        "schedule": [event.to_record() for event in schedule.events],
        "baseline": baseline_payload,
        "chaos": chaos_payload,
        "timeline": summary["timeline"],
        "events_applied": summary["applied"],
        "events_pending": summary["pending"],
        "migrations": summary["migrations"],
        "restored": summary["restored"],
        "replayed_packets": summary["replayed_packets"],
        "recovery_ticks": summary["recovery_ticks"],
        "p99_inflation": (chaos_p99 / base_p99 if base_p99 else None),
        "makespan_inflation": (chaos.ticks / baseline.ticks
                               if baseline.ticks else None),
        "all_equivalent": (baseline.all_equivalent is True
                           and chaos.all_equivalent is True),
    }


#: Weights of the synthetic shared-bottleneck fairness trial: the
#: ``tiers`` policy's class weights (interactive/standard/batch).
FAIRNESS_WEIGHTS = {"interactive": 4.0, "standard": 2.0, "batch": 1.0}


def _fairness_trial(weights: Dict[str, float], capacity: int = 8,
                    ticks: int = 400, cooldown: int = 8) -> Dict:
    """Weighted AIMD controllers sharing one deterministic bottleneck.

    Every tick each controller drains its token bucket into a shared
    queue of ``capacity`` slots; overflow is assigned back to senders
    proportionally (largest-remainder, name-ordered — deterministic),
    surviving packets are ACKed, and every controller sees the same
    queue signal.  This isolates the weighted-fairness claim of
    ``docs/CONGESTION.md`` from protocol noise: synchronized decreases
    scale every rate by ``beta`` while additive recovery runs at
    ``additive * weight``, so steady-state mean rates settle
    proportional to weight.  Returns per-name mean rates over the
    second half of the trial plus the normalized spread.
    """
    from repro.net.congestion import RateController

    controllers = {
        name: RateController(weight=weight, initial=2.0,
                             cooldown=cooldown)
        for name, weight in weights.items()
    }
    names = sorted(controllers)
    rate_sums = {name: 0.0 for name in names}
    delivered = {name: 0 for name in names}
    measured_from = ticks // 2
    for tick in range(ticks):
        sends = {}
        for name in names:
            ctrl = controllers[name]
            ctrl.advance()
            count = 0
            while ctrl.try_send():
                count += 1
            sends[name] = count
        total = sum(sends.values())
        overflow = max(0, total - capacity)
        drops = {name: 0 for name in names}
        if overflow and total:
            shares = {name: overflow * sends[name] / total
                      for name in names}
            drops = {name: int(shares[name]) for name in names}
            remainder = overflow - sum(drops.values())
            for name in sorted(names, key=lambda n: (-(shares[n]
                                                       - drops[n]), n)):
                if remainder <= 0:
                    break
                if drops[name] < sends[name]:
                    drops[name] += 1
                    remainder -= 1
        depth = min(total, capacity)
        for name in names:
            ctrl = controllers[name]
            acked = sends[name] - drops[name]
            delivered[name] += acked
            for _ in range(acked):
                ctrl.on_ack()
            ctrl.on_queue_signal(depth, capacity, drops[name])
        if tick >= measured_from:
            for name in names:
                rate_sums[name] += controllers[name].rate
    span = ticks - measured_from
    mean_rates = {name: rate_sums[name] / span for name in names}
    normalized = {name: mean_rates[name] / weights[name]
                  for name in names}
    spread = (max(normalized.values()) / min(normalized.values())
              if min(normalized.values()) > 0 else None)
    return {
        "capacity": capacity,
        "ticks": ticks,
        "weights": dict(weights),
        "mean_rates": {name: round(mean_rates[name], 4)
                       for name in names},
        "delivered": delivered,
        "normalized_rates": {name: round(normalized[name], 4)
                             for name in names},
        "normalized_spread": (round(spread, 4)
                              if spread is not None else None),
    }


def run_congestion_bench(rows: int = 200, workers: int = 4,
                         shards: int = 1, seed: int = 0,
                         slots: int = 4,
                         losses: Sequence[float] = (0.0, 0.02, 0.05),
                         tenant_counts: Sequence[int] = (1, 4),
                         capacities: Sequence[Optional[int]] = (4, None),
                         fairness_ticks: int = 400) -> Dict:
    """Congestion benchmark: AIMD rate control vs the fixed schedule.

    Three sections (``docs/CONGESTION.md``):

    * ``sweep`` — loss × tenant-count × queue-capacity cells, each
      served twice through the :class:`QueryScheduler` (``fixed`` then
      ``aimd``), recording makespan, goodput (delivered entries per
      tick), retransmission overhead (retransmissions per entry), and
      channel drops.  The headline ``congested_goodput_ratio_min`` is
      the worst aimd/fixed goodput ratio over the *congested* cells
      (finite capacity, loss >= 0.02) — the cells where the fixed
      schedule's retransmission storms sustain queue overflow; CI
      asserts it stays >= 1.  With unbounded queues the fixed schedule
      is already near-optimal and pacing can only add latency, which
      the uncongested cells document rather than hide.
    * ``fairness`` — the synthetic shared-bottleneck trial
      (:func:`_fairness_trial`): tiers-policy class weights mapped to
      controllers, steady-state mean rates proportional to weight.
    * ``serving`` — an end-to-end mixed-class run (tiers policy,
      interactive + batch tenants, finite queues) under both modes,
      recording per-class latency and transport goodput.

    Every tenant of every cell is checked against its solo
    ``QueryPlan.run`` (``all_equivalent``) — congestion control moves
    protocol accounting, never results.  The payload
    (``BENCH_congestion.json``) is fully deterministic for the same
    seed (tick-based metrics only); CI double-runs it and asserts byte
    identity.
    """
    from repro.cluster.scheduler import (
        QueryScheduler,
        SchedulerConfig,
        tenant_specs,
    )

    if rows < 20:
        raise ValueError(f"rows must be >= 20, got {rows}")
    if slots < 2:
        raise ValueError(f"slots must be >= 2, got {slots}")

    def _serve(mode: str, loss: float, tenants: int,
               capacity: Optional[int], policy: Optional[str] = None,
               priorities: Optional[Sequence[str]] = None) -> Dict:
        from repro.cluster.qos import parse_policy

        config = SchedulerConfig(
            slots=slots,
            policy=(parse_policy(policy) if policy
                    else SchedulerConfig().policy),
            workers=workers, loss_rate=loss, shards=shards, seed=seed,
            congestion=mode, queue_capacity=capacity)
        specs = tenant_specs(tenants, rows=rows, seed=seed,
                             mix=("distinct",), priorities=priorities)
        report = QueryScheduler(config).serve(specs)
        retransmissions = sum(p.retransmissions
                              for t in report.tenants
                              for p in t.passes)
        dropped = sum(p.packets_dropped
                      for t in report.tenants for p in t.passes)
        entries = report.entries
        return {
            "report": report,
            "ticks": report.ticks,
            "entries": entries,
            "delivered": report.delivered,
            "goodput_entries_per_tick": (
                round(report.delivered / report.ticks, 4)
                if report.ticks else None),
            "retransmissions": retransmissions,
            "retransmission_overhead": (
                round(retransmissions / entries, 4) if entries
                else None),
            "packets_dropped": dropped,
            "all_equivalent": report.all_equivalent,
        }

    def _strip(cell: Dict) -> Dict:
        return {key: value for key, value in cell.items()
                if key != "report"}

    sweep: List[Dict] = []
    all_equivalent = True
    for loss in losses:
        for tenants in tenant_counts:
            for capacity in capacities:
                fixed = _serve("fixed", loss, tenants, capacity)
                aimd = _serve("aimd", loss, tenants, capacity)
                all_equivalent = (all_equivalent
                                  and fixed["all_equivalent"] is True
                                  and aimd["all_equivalent"] is True)
                goodput_ratio = (
                    round(aimd["goodput_entries_per_tick"]
                          / fixed["goodput_entries_per_tick"], 4)
                    if fixed["goodput_entries_per_tick"] else None)
                retx_ratio = (
                    round(aimd["retransmission_overhead"]
                          / fixed["retransmission_overhead"], 4)
                    if fixed["retransmission_overhead"] else None)
                sweep.append({
                    "loss_rate": loss,
                    "tenants": tenants,
                    "queue_capacity": capacity,
                    "congested": capacity is not None and loss >= 0.02,
                    "fixed": _strip(fixed),
                    "aimd": _strip(aimd),
                    "goodput_ratio": goodput_ratio,
                    "retransmission_ratio": retx_ratio,
                })

    congested = [cell for cell in sweep
                 if cell["queue_capacity"] is not None
                 and cell["loss_rate"] >= 0.02]
    goodput_ratios = [cell["goodput_ratio"] for cell in congested
                      if cell["goodput_ratio"] is not None]
    retx_ratios = [cell["retransmission_ratio"] for cell in congested
                   if cell["retransmission_ratio"] is not None]

    fairness = _fairness_trial(FAIRNESS_WEIGHTS, ticks=fairness_ticks)

    serving: Dict[str, Dict] = {}
    for mode in ("fixed", "aimd"):
        cell = _serve(mode, 0.02, 4, 4, policy="tiers",
                      priorities=("interactive", "batch"))
        report = cell.pop("report")
        classes = {}
        for name, summary in report.class_summary().items():
            class_entries = sum(t.entries for t in report.tenants
                                if t.qos_class == name)
            class_service = sum(t.service_ticks or 0
                                for t in report.tenants
                                if t.qos_class == name)
            classes[name] = {
                "tenants": summary["tenants"],
                "latency": summary["latency"],
                "entries": class_entries,
                "service_ticks": class_service,
                "goodput_entries_per_tick": (
                    round(class_entries / class_service, 4)
                    if class_service else None),
            }
        all_equivalent = (all_equivalent
                          and cell["all_equivalent"] is True)
        serving[mode] = {**cell, "classes": classes}

    def _class_ratio(mode: str) -> Optional[float]:
        classes = serving[mode]["classes"]
        interactive = classes.get("interactive", {}).get(
            "goodput_entries_per_tick")
        batch = classes.get("batch", {}).get("goodput_entries_per_tick")
        if not interactive or not batch:
            return None
        return round(interactive / batch, 4)

    return {
        "benchmark": "congestion",
        "rows": rows,
        "workers": workers,
        "shards": shards,
        "seed": seed,
        "slots": slots,
        "losses": list(losses),
        "tenant_counts": list(tenant_counts),
        "capacities": list(capacities),
        "sweep": sweep,
        "fairness": fairness,
        "serving": serving,
        "interactive_batch_goodput_ratio": {
            mode: _class_ratio(mode) for mode in serving},
        "congested_goodput_ratio_min": (min(goodput_ratios)
                                        if goodput_ratios else None),
        "congested_goodput_ratio_mean": (
            round(sum(goodput_ratios) / len(goodput_ratios), 4)
            if goodput_ratios else None),
        "congested_retransmission_ratio_max": (max(retx_ratios)
                                               if retx_ratios else None),
        "all_equivalent": all_equivalent,
    }


def _schedule_fingerprint(report) -> str:
    """A stable digest of a ScheduleReport's decision domain: one row
    per tenant, tick-domain fields only (no wall clocks) — the sha256
    CI compares between an obs-off and an obs-on run."""
    import hashlib

    rows = [{
        "tenant": t.spec.tenant,
        "scenario": t.spec.scenario,
        "status": t.status,
        "admitted_tick": t.admitted_tick,
        "completed_tick": t.completed_tick,
        "entries": t.entries,
        "delivered": t.delivered,
        "preemptions": t.preemptions,
        "equivalent": t.equivalent,
    } for t in report.tenants]
    payload = json.dumps({"ticks": report.ticks, "tenants": rows},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_obs_bench(tenants: int = 4, rows: int = 240, slots: int = 4,
                  loss_rate: float = 0.05, reorder_window: int = 0,
                  shards: int = 2, seed: int = 0,
                  fig11_rows: int = 40_000, repeats: int = 3) -> Dict:
    """Observability overhead + invariants benchmark.

    Three claims of docs/OBSERVABILITY.md, measured so CI can gate
    them (the ``decision_domain`` sub-object is deterministic; wall
    clocks live outside it):

    * **Decisions are obs-invariant.**  The same seeded fleet is
      served with ``obs=None`` and with a full
      :class:`~repro.obs.Observability` (spans on); the tick-domain
      schedule fingerprints must be sha256-identical
      (``decisions_identical``).
    * **Exports are deterministic.**  Every obs-on repeat renders its
      OpenMetrics text and Chrome trace; all repeats must hash
      identically (``exports_identical``).
    * **Overhead is bounded.**  Interleaved obs-off/obs-on serving
      walls (median of ``repeats``) give ``serving.overhead_ratio``
      (recorded, not gated: on CI-sized serves the ~20ms baseline
      makes the ratio mostly polling constant-cost); a fig11-style
      batched kernel run bare vs. with per-batch counter publication
      gives ``fig11.overhead_ratio`` — the budget that the hot
      dataplane loop stays at uninstrumented cost.  CI asserts
      ``fig11.overhead_ratio <= 1.10``; ``overhead_ratio_max`` is
      the informational max of both measured ratios.
    """
    from repro.cluster.scheduler import (
        QueryScheduler,
        SchedulerConfig,
        tenant_specs,
    )
    from repro.obs import Observability
    import hashlib

    def config_for(obs) -> SchedulerConfig:
        return SchedulerConfig(slots=slots, loss_rate=loss_rate,
                               reorder_window=reorder_window,
                               shards=shards, seed=seed, obs=obs)

    def serve_once(obs):
        specs = tenant_specs(tenants, rows=rows, seed=seed)
        start = time.perf_counter()
        report = QueryScheduler(config_for(obs)).serve(specs)
        return report, time.perf_counter() - start

    off_walls: List[float] = []
    on_walls: List[float] = []
    off_prints: List[str] = []
    on_prints: List[str] = []
    metric_hashes: List[str] = []
    span_hashes: List[str] = []
    last_on = None
    for _ in range(repeats):
        report, wall = serve_once(None)
        off_walls.append(wall)
        off_prints.append(_schedule_fingerprint(report))
        obs = Observability(spans=True)
        report, wall = serve_once(obs)
        on_walls.append(wall)
        on_prints.append(_schedule_fingerprint(report))
        text = obs.registry.render_openmetrics(tick=report.ticks)
        metric_hashes.append(
            hashlib.sha256(text.encode("utf-8")).hexdigest())
        trace = json.dumps(obs.tracer.to_chrome_trace(),
                           sort_keys=True, separators=(",", ":"))
        span_hashes.append(
            hashlib.sha256(trace.encode("utf-8")).hexdigest())
        last_on = (report, obs)
    report, obs = last_on
    serving_off = sorted(off_walls)[len(off_walls) // 2]
    serving_on = sorted(on_walls)[len(on_walls) // 2]
    serving_ratio = serving_on / serving_off if serving_off > 0 else None

    # The fig11 kernel leg: the batched dataplane loop bare, then with
    # the per-batch counter publication instrumentation of that path
    # would cost.  offer_batch itself carries no hooks — this measures
    # (and pins) the price of keeping it that way.
    from repro.core.distinct import DistinctPruner
    from repro.workloads.streams import random_order_stream

    stream = random_order_stream(fig11_rows,
                                 max(1, fig11_rows // 10), seed)
    fig11_off: List[float] = []
    fig11_on: List[float] = []
    fig11_prints: List[str] = []
    for _ in range(repeats):
        pruner = DistinctPruner(rows=4096, width=2, seed=seed)
        start = time.perf_counter()
        decisions = _run_case_batched(pruner, stream, False, 8192)
        fig11_off.append(time.perf_counter() - start)
        fig11_prints.append(_decision_fingerprint(decisions))
        kernel_obs = Observability(spans=False)
        pruner = DistinctPruner(rows=4096, width=2, seed=seed)
        start = time.perf_counter()
        decisions = []
        for chunk in _chunks(stream, 8192):
            decisions += pruner.offer_batch(chunk)
            kernel_obs.switch_offers.set_total(pruner.stats.offered,
                                               tenant="fig11")
            kernel_obs.switch_prunes.set_total(pruner.stats.pruned,
                                               tenant="fig11")
        fig11_on.append(time.perf_counter() - start)
        fig11_prints.append(_decision_fingerprint(decisions))
    kernel_off = sorted(fig11_off)[len(fig11_off) // 2]
    kernel_on = sorted(fig11_on)[len(fig11_on) // 2]
    kernel_ratio = kernel_on / kernel_off if kernel_off > 0 else None

    decisions_identical = (len(set(off_prints + on_prints)) == 1
                           and len(set(fig11_prints)) == 1)
    exports_identical = (len(set(metric_hashes)) == 1
                         and len(set(span_hashes)) == 1)
    ratios = [r for r in (serving_ratio, kernel_ratio) if r is not None]
    return {
        "benchmark": "obs",
        "tenants": tenants,
        "rows": rows,
        "slots": slots,
        "loss_rate": loss_rate,
        "reorder_window": reorder_window,
        "shards": shards,
        "seed": seed,
        "repeats": repeats,
        "serving": {
            "obs_off_seconds": serving_off,
            "obs_on_seconds": serving_on,
            "overhead_ratio": serving_ratio,
            "walls": {"off": off_walls, "on": on_walls},
            "ticks": report.ticks,
            "served": len(report.served),
            "span_events": len(obs.tracer),
            "metric_names": len(obs.registry.snapshot()),
        },
        "fig11": {
            "rows": fig11_rows,
            "batch_size": 8192,
            "off_seconds": kernel_off,
            "on_seconds": kernel_on,
            "overhead_ratio": kernel_ratio,
            "walls": {"off": fig11_off, "on": fig11_on},
        },
        "decision_domain": {
            "schedule_sha256_off": off_prints,
            "schedule_sha256_on": on_prints,
            "fig11_decisions_sha256": fig11_prints,
            "metrics_export_sha256": metric_hashes,
            "spans_export_sha256": span_hashes,
        },
        "decisions_identical": decisions_identical,
        "exports_identical": exports_identical,
        "overhead_ratio_max": max(ratios) if ratios else None,
        "all_equivalent": report.all_equivalent,
    }


def run_fig5_bench(scale: float = 5e-4, seed: int = 1,
                   shards: int = 1) -> Dict:
    """One timed fig5 completion-time regeneration (smoke-sized in CI).

    Returns the payload for ``BENCH_fig5.json``: wall-clock time plus
    the completion-time rows (which carry the pruning fractions).
    """
    from repro.bench import experiments as ex

    start = time.perf_counter()
    result = ex.fig5_completion(scale=scale, seed=seed, shards=shards)
    wall_seconds = time.perf_counter() - start
    return {
        "benchmark": "fig5_completion",
        "scale": scale,
        "seed": seed,
        "shards": shards,
        "wall_seconds": wall_seconds,
        "rows": result.rows,
    }

#: QoS class names the load bench cycles tenants through.
LOAD_PRIORITY_MIX = ("interactive", "standard", "batch")


def _wall_stats(samples: Sequence[float]) -> Dict:
    """Nearest-rank percentiles of wall-clock latencies (seconds)."""
    import math

    ordered = sorted(samples)

    def pick(fraction: float) -> float:
        rank = max(1, math.ceil(fraction * len(ordered)))
        return ordered[rank - 1]

    return {
        "p50_seconds": pick(0.50),
        "p95_seconds": pick(0.95),
        "p99_seconds": pick(0.99),
        "mean_seconds": sum(ordered) / len(ordered),
        "max_seconds": ordered[-1],
    }


def run_load_bench(clients: int = 256, rows: int = 24, slots: int = 8,
                   loss_rate: float = 0.02, reorder_window: int = 0,
                   shards: int = 1, seed: int = 0,
                   policy: str = "tiers", process: str = "poisson",
                   closed_clients: int = 16,
                   closed_queries: int = 2) -> Dict:
    """Socket load benchmark: a client swarm against a live server.

    Two phases, both over real TCP connections to a
    :class:`~repro.serving.ReproServer`:

    * **Open loop** — ``clients`` concurrent connections, one query
      each, with arrival ticks drawn from the ``process`` generator
      (the same Poisson/burst/diurnal/Pareto machinery the replay
      bench uses) and QoS classes cycling through
      :data:`LOAD_PRIORITY_MIX`.  The server runs in *hold* mode: no
      tick executes until every submission is in, so the admission
      order — and with it the entire tick domain — is a pure function
      of the specs.  ``open_loop.tick_domain`` is therefore
      byte-identical across runs (CI asserts this), while the
      wall-clock latencies around it are genuinely nondeterministic.
    * **Closed loop** — ``closed_clients`` connections each issuing
      ``closed_queries`` queries back-to-back (submit, wait for the
      result, repeat) against a *live* server with no hold barrier.
      This measures the interactive request-response wall latency the
      open phase's batching hides; its tick metrics are reported but
      not deterministic (socket races decide admission order).

    Wall-clock p50/p95/p99 ride next to the tick-based percentiles in
    both phases — the comparison ``docs/RESULTS.md`` renders.
    """
    import asyncio

    return asyncio.run(_load_bench_async(
        clients=clients, rows=rows, slots=slots, loss_rate=loss_rate,
        reorder_window=reorder_window, shards=shards, seed=seed,
        policy=policy, process=process, closed_clients=closed_clients,
        closed_queries=closed_queries))


async def _load_bench_async(*, clients: int, rows: int, slots: int,
                            loss_rate: float, reorder_window: int,
                            shards: int, seed: int, policy: str,
                            process: str, closed_clients: int,
                            closed_queries: int) -> Dict:
    import asyncio

    from repro.api import ServeConfig
    from repro.serving import AsyncReproClient, ReproServer
    from repro.workloads.traces import generate_trace

    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if closed_clients < 0 or closed_queries < 0:
        raise ValueError("closed_clients/closed_queries must be >= 0")
    config = ServeConfig(slots=slots, loss=loss_rate,
                         reorder=reorder_window, shards=shards,
                         seed=seed, policy=policy)

    async def query_one(host, port, spec_kwargs):
        start = time.perf_counter()
        client = await AsyncReproClient.connect(host, port)
        result = await client.run(**spec_kwargs)
        await client.close()
        return time.perf_counter() - start, result

    # -- open loop: one connection per trace query, hold barrier --
    trace = generate_trace(process, queries=clients, rows=rows,
                           seed=seed, priorities=LOAD_PRIORITY_MIX)
    server = ReproServer(config, hold=len(trace.queries))
    await server.start()
    host, port = server.address
    wall_start = time.perf_counter()
    outcomes = await asyncio.gather(*(
        query_one(host, port, dict(
            scenario=q.scenario, tenant=q.tenant, rows=q.rows,
            seed=q.seed, priority=q.priority,
            arrival_tick=q.arrival_tick))
        for q in trace.queries))
    open_wall = time.perf_counter() - wall_start
    await server.stop()
    open_report = server.report()
    open_latencies = [wall for wall, _ in outcomes]
    open_frames = [frame for _, frame in outcomes]

    # -- closed loop: live server, back-to-back request/response --
    closed_latencies: List[float] = []
    closed_frames: List[Dict] = []
    closed_report = None
    if closed_clients and closed_queries:
        server = ReproServer(config)
        await server.start()
        host, port = server.address

        async def closed_one(index: int):
            client = await AsyncReproClient.connect(host, port)
            samples = []
            for turn in range(closed_queries):
                n = index * closed_queries + turn
                start = time.perf_counter()
                frame = await client.run(
                    trace.queries[n % clients].scenario,
                    tenant=f"c{index:03d}-{turn}", rows=rows,
                    seed=seed + n,
                    priority=LOAD_PRIORITY_MIX[n % 3])
                samples.append((time.perf_counter() - start, frame))
            await client.close()
            return samples

        per_client = await asyncio.gather(
            *(closed_one(i) for i in range(closed_clients)))
        await server.stop()
        closed_report = server.report()
        for samples in per_client:
            closed_latencies.extend(wall for wall, _ in samples)
            closed_frames.extend(frame for _, frame in samples)

    def phase_summary(frames, latencies, report, wall=None):
        payload = report.to_payload()
        summary = {
            "queries": len(frames),
            "served": sum(f["status"] == "served" for f in frames),
            "all_equivalent": all(f["equivalent"] is True
                                  for f in frames
                                  if f["status"] == "served"),
            "wall_latency": _wall_stats(latencies),
            "tick_latency": payload["latency"],
        }
        if wall is not None:
            summary["wall_seconds"] = wall
        return summary, payload

    open_summary, open_payload = phase_summary(
        open_frames, open_latencies, open_report, wall=open_wall)
    # The hold barrier makes the open phase's whole tick domain a pure
    # function of the trace — this is the sub-object CI asserts is
    # byte-identical across runs (wall-clock keys live outside it).
    open_summary["tick_domain"] = open_payload
    result = {
        "benchmark": "socket_load",
        "clients": clients,
        "rows": rows,
        "slots": slots,
        "loss_rate": loss_rate,
        "reorder_window": reorder_window,
        "shards": shards,
        "seed": seed,
        "policy": policy,
        "process": process,
        "priority_mix": list(LOAD_PRIORITY_MIX),
        "open_loop": open_summary,
        "all_equivalent": open_summary["all_equivalent"],
    }
    if closed_report is not None:
        closed_summary, _ = phase_summary(
            closed_frames, closed_latencies, closed_report)
        closed_summary["clients"] = closed_clients
        closed_summary["queries_per_client"] = closed_queries
        result["closed_loop"] = closed_summary
        result["all_equivalent"] = (open_summary["all_equivalent"]
                                    and closed_summary["all_equivalent"])
    return result
