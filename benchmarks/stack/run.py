#!/usr/bin/env python3
"""The ``stack`` benchmark: four socket workloads, measured from outside.

    python benchmarks/stack/run.py --seed S [--workload NAME]
        [--seconds N] [--trace 0|1] [--out FILE]
    python benchmarks/stack/run.py --compare A.json B.json

One workload (or all four) is driven over loopback TCP against a
``ReproServer`` child process.  ``--trace 0`` reports the end-to-end
metrics of an untraced run; ``--trace 1`` reports the per-layer ledger:
an untraced and a traced run of the same queries plus the kernel drive.
Every metric is printed by name with its unit, outputs are verified,
and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is non-zero on any failed or mismatched query.  See README.md.
"""

from __future__ import annotations

import argparse
import ast
import asyncio
import dataclasses
import json
import math
import os
import platform
import random
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import mean, median
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import catalog  # noqa: E402
import drive  # noqa: E402
import loadgen  # noqa: E402
from repro.cluster.simulation import build_scenario  # noqa: E402
from repro.db.planner import QueryPlanner  # noqa: E402

#: Share of the timed queries whose output the parent recomputes.
CHECK_SHARE = 0.05


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- one measured server session ------------------------------------------------

@dataclasses.dataclass
class Measured:
    """Everything one timed session produced."""

    workload: catalog.Workload
    session: loadgen.Session
    #: The child's shutdown summary (``child.py``).
    summary: Dict
    t0: float
    t1: float
    cpu_s: float
    #: Frames and bytes both ways on every connection, timed window only.
    frames: int
    bytes: int
    setups: List[float]

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0

    @property
    def rows(self) -> Dict[str, Dict]:
        """The final report's pass accounting of the timed tenants."""
        return {row["tenant"]: row for row in self.summary["tenants"]
                if row["tenant"].startswith("q")}

    @property
    def served(self) -> List[loadgen.QueryRecord]:
        return [r for r in self.session.timed
                if r.frame is not None and r.frame.get("status") == "served"]

    def failures(self, seed: int) -> set:
        """Timed queries that were rejected, failed, errored, went
        missing, were not equivalent to ``QueryPlan.run`` on the server,
        or disagree with the parent's own recomputation."""
        rows = self.rows
        bad = set(independent_mismatches(self, seed))
        for record in self.session.timed:
            name = record.submit["tenant"]
            frame = record.frame
            row = rows.get(name)
            if (frame is None or frame.get("type") != "result"
                    or frame.get("status") != "served"
                    or frame.get("equivalent") is not True
                    or row is None or row["equivalent"] is not True):
                bad.add(name)
        return bad


async def measure(workload: catalog.Workload, seed: int, timed: int, *,
                  setup_repeats: int = 1, trace: bool = False,
                  span_out: Optional[str] = None) -> Measured:
    """Set up ``setup_repeats`` servers, time the queries on the last."""
    setups = []
    for _ in range(setup_repeats - 1):
        spare = await loadgen.set_up(workload, seed, timed)
        setups.append(spare.setup_s)
        await spare.discard()
    session = await loadgen.set_up(workload, seed, timed, trace=trace,
                                   span_out=span_out)
    setups.append(session.setup_s)
    server = session.server
    try:
        frames = sum(conn.frames for conn in session.conns)
        wire_bytes = sum(conn.bytes for conn in session.conns)
        cpu0, t0 = server.cpu_seconds(), time.perf_counter()
        await loadgen.run_timed(workload, session)
        t1, cpu1 = time.perf_counter(), server.cpu_seconds()
        frames = sum(conn.frames for conn in session.conns) - frames
        wire_bytes = sum(conn.bytes for conn in session.conns) - wire_bytes
        for conn in session.conns:
            await conn.close()
        summary = server.stop(t0, t1)
    except BaseException:
        server.kill()
        raise
    return Measured(workload, session, summary, t0, t1, cpu1 - cpu0,
                    frames, wire_bytes, setups)


# -- metrics ---------------------------------------------------------------------

def end_to_end(m: Measured) -> Dict[str, float]:
    served = m.served
    if not served:
        raise RuntimeError(f"{m.workload.name}: no query was served")
    # A trace query's latency is its completion time since release:
    # the hold barrier admits by arrival tick, not by submission time.
    began = ((lambda r: m.t0) if m.workload.mode == "trace"
             else (lambda r: r.sent_at))
    latencies = [(r.done_at - began(r)) * 1e3 for r in served]
    by_scenario: Dict[str, List[float]] = {}
    for record, latency in zip(served, latencies):
        by_scenario.setdefault(record.submit["scenario"],
                               []).append(latency)
    ticks = [r.frame["latency_ticks"] for r in served]
    rows = m.rows.values()
    entries = sum(row["entries"] for row in rows)
    retransmissions = sum(row["retransmissions"] for row in rows)
    pruned = sum(row["pruned"] for row in rows)
    return {
        # Mean of the seven scenario classes' medians.  The mix's
        # overall median falls between the five cheap classes and the
        # two expensive ones, where few samples lie, so it swings by
        # 40% on a 15% change in host speed; each class's own median
        # sits in the bulk of its class.
        "query_p50_ms": mean(percentile(values, 0.50)
                             for values in by_scenario.values()),
        "query_p95_ms": percentile(latencies, 0.95),
        "entries_per_s": sum(r.frame["entries"] for r in served) / m.wall_s,
        "ticks_p50": percentile(ticks, 0.50),
        "ticks_p95": percentile(ticks, 0.95),
        "tx_per_entry": 1.0 + _ratio(retransmissions, entries),
        "pruned_share": _ratio(pruned, entries),
        "peak_rss_mb": m.summary["peak_rss_mb"],
        "setup_s": median(m.setups),
    }


def _registry_sum(m: Measured, name: str) -> float:
    """A registry counter summed over the timed tenants' samples."""
    return sum(sample["value"]
               for sample in m.summary["registry"][name]["samples"]
               if sample["labels"].get("tenant", "").startswith("q"))


def counts(m: Measured) -> Dict[str, float]:
    """Per-layer metrics read from result frames, the registry snapshot
    and the final report (no timing involved)."""
    timed = m.session.timed
    served = [r.frame for r in m.served]
    rows = m.rows.values()
    entries = sum(row["entries"] for row in rows)
    retransmissions = sum(row["retransmissions"] for row in rows)
    last_warm = max((r.frame.get("completed_tick") or 0
                     for r in m.session.warmup if r.frame), default=0)
    ticks = max(f["completed_tick"] for f in served) - last_warm
    waits = [f["wait_ticks"] for f in served]
    accepts = [(r.accepted_at - r.sent_at) * 1e3 for r in timed
               if r.accepted_at is not None]
    # Every query asks for one slot, so slot-ticks held = ticks in
    # service (suspended tenants hold none).
    slots_held = sum(f["service_ticks"] - f["suspended_ticks"]
                     for f in served)
    registry = m.summary["registry"]
    rates = [s["value"] for s in
             registry["cheetah_transport_rate_packets_per_tick"]["samples"]
             if s["labels"]["tenant"].startswith("q")]
    return {
        "serving.protocol.frames": m.frames,
        "serving.protocol.bytes": m.bytes,
        "serving.server.accept_p50_ms": percentile(accepts, 0.50),
        "serving.server.stats_rtt_ms": m.session.stats_rtt_ms,
        "cluster.scheduler.ticks": ticks,
        "cluster.scheduler.wait_ticks_p50": percentile(waits, 0.50),
        "cluster.scheduler.wait_ticks_p95": percentile(waits, 0.95),
        "cluster.scheduler.preemptions": sum(f["preemptions"]
                                             for f in served),
        # By QoS class in the registry, so this one covers the whole
        # session (warm-up included), not only the timed tenants.
        "cluster.scheduler.resumes": sum(
            s["value"] for s in
            registry["cheetah_scheduler_resumes_total"]["samples"]),
        "cluster.scheduler.occupancy_mean": _ratio(slots_held, ticks),
        "net.reliability.retransmissions": retransmissions,
        "net.reliability.master_duplicates": sum(
            row["master_duplicates"] for row in rows),
        "net.reliability.useful_tx_ratio": _ratio(
            entries, entries + retransmissions),
        "net.channel.sent": _registry_sum(m, "cheetah_channel_sent_total"),
        "net.channel.dropped": _registry_sum(
            m, "cheetah_channel_drops_total"),
        "net.channel.tail_dropped": _registry_sum(
            m, "cheetah_channel_tail_drops_total"),
        "net.congestion.queue_signals": _registry_sum(
            m, "cheetah_transport_queue_signals_total"),
        "net.congestion.loss_events": _registry_sum(
            m, "cheetah_transport_loss_events_total"),
        "net.congestion.rate_mean": _ratio(sum(rates), len(rates)),
        "switch.offers": sum(row["pruned"] + row["forwarded"]
                             for row in rows),
        "switch.prunes": sum(row["pruned"] for row in rows),
    }


def ledger(m: Measured, untraced_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics from the traced run's span totals."""
    spans = m.summary["spans"]
    queries = len(m.session.timed)
    entries = sum(row["entries"] for row in m.rows.values())

    def get(name: str, key: str) -> float:
        return spans["names"].get(name, {}).get(key, 0.0)

    def self_s(*names: str) -> float:
        return sum(get(name, "self_s") for name in names)

    switch = [f"switch.{op}" for op in
              ("install", "uninstall", "suspend", "resume", "offer_batch")]
    run_tick = "cluster.scheduler.run_tick"
    step = "cluster.simulation.step"
    return {
        "serving.server.cpu_s": m.cpu_s,
        "serving.server.cpu_ms_per_query": 1e3 * m.cpu_s / queries,
        "serving.server.self_s": m.cpu_s - spans["top_level_s"],
        "cluster.scheduler.submit_s": get("cluster.scheduler.submit", "s"),
        "cluster.scheduler.submit_calls":
            get("cluster.scheduler.submit", "calls"),
        "cluster.scheduler.run_tick_s": get(run_tick, "s"),
        "cluster.scheduler.run_tick_self_s": get(run_tick, "self_s"),
        "cluster.scheduler.run_tick_calls": get(run_tick, "calls"),
        "cluster.scheduler.run_tick_self_us": 1e6 * _ratio(
            get(run_tick, "self_s"), get(run_tick, "calls")),
        "cluster.scheduler.self_s": self_s("cluster.scheduler.submit",
                                           run_tick),
        "cluster.simulation.build_scenario_s":
            get("cluster.simulation.build_scenario", "s"),
        "cluster.simulation.begin_transfer_s":
            get("cluster.simulation.begin_transfer", "s"),
        "cluster.simulation.step_s": get(step, "s"),
        "cluster.simulation.step_self_s": get(step, "self_s"),
        "cluster.simulation.step_calls": get(step, "calls"),
        "cluster.simulation.self_s": self_s(
            "cluster.simulation.build_scenario",
            "cluster.simulation.begin_transfer", step),
        "net.reliability.worker_tick_s":
            get("net.reliability.worker_tick", "s"),
        "net.reliability.worker_tick_calls":
            get("net.reliability.worker_tick", "calls"),
        "net.reliability.forwarder_self_s":
            get("net.reliability.forwarder", "self_s"),
        "net.reliability.master_batch_s":
            get("net.reliability.master_batch", "s"),
        "net.reliability.self_s": self_s(
            "net.reliability.worker_tick", "net.reliability.forwarder",
            "net.reliability.master_batch"),
        "switch.install_s": get("switch.install", "s"),
        "switch.install_calls": get("switch.install", "calls"),
        "switch.install_ms_per_query":
            1e3 * get("switch.install", "s") / queries,
        "switch.offer_batch_s": get("switch.offer_batch", "s"),
        "switch.offer_batch_calls": get("switch.offer_batch", "calls"),
        "switch.offer_batch_entries_per_s": _ratio(
            entries, get("switch.offer_batch", "s")),
        "switch.suspend_resume_s": (get("switch.suspend", "s")
                                    + get("switch.resume", "s")),
        "switch.self_s": self_s(*switch),
        "db.reference_run_s": get("db.reference_run", "s"),
        "db.reference_run_ms_per_query":
            1e3 * get("db.reference_run", "s") / queries,
        "obs.on_service_tick_s": get("obs.on_service_tick", "s"),
        "obs.share_of_run_tick": _ratio(get("obs.on_service_tick", "s"),
                                        get(run_tick, "s")),
        "trace.overhead_ratio": m.wall_s / untraced_wall_s,
        "trace.spans": spans["spans"],
    }


# -- verification ----------------------------------------------------------------

_CONTAINERS = {"frozenset": frozenset, "set": set, "Counter": Counter}


def parse_output(text: str):
    """The value behind a result frame's ``output_repr``.

    Outputs are numbers, strings, tuples, lists, dicts, sets and
    ``frozenset``/``Counter`` calls; set and Counter reprs do not have a
    stable order, so texts cannot be compared — and text from a socket
    is never handed to ``eval``.  Anything else raises ``ValueError``.
    """
    def build(node):
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Tuple):
            return tuple(build(item) for item in node.elts)
        if isinstance(node, ast.List):
            return [build(item) for item in node.elts]
        if isinstance(node, ast.Set):
            return {build(item) for item in node.elts}
        if isinstance(node, ast.Dict):
            return {build(key): build(value)
                    for key, value in zip(node.keys, node.values)}
        if (isinstance(node, ast.UnaryOp)
                and isinstance(node.op, ast.USub)):
            return -build(node.operand)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _CONTAINERS and not node.keywords
                and len(node.args) <= 1):
            return _CONTAINERS[node.func.id](*map(build, node.args))
        raise ValueError(f"unexpected {type(node).__name__} in output")

    return build(ast.parse(text, mode="eval").body)


def independent_mismatches(m: Measured, seed: int) -> List[str]:
    """Recompute ``QueryPlan.run`` for a seeded sample of the timed
    queries and compare with the result frames' ``output_repr``."""
    records = [r for r in m.session.timed
               if r.frame is not None and r.frame.get("type") == "result"]
    if not records:
        return []
    sample = random.Random(seed).sample(
        records, max(1, round(CHECK_SHARE * len(records))))
    planner = QueryPlanner()
    bad = []
    for record in sample:
        submit = record.submit
        query, tables = build_scenario(submit["scenario"],
                                       rows=submit["rows"],
                                       seed=submit["seed"])
        output = planner.plan(query).run(tables).result.output
        try:
            served = parse_output(record.frame.get("output_repr") or "")
        except (ValueError, SyntaxError):
            bad.append(submit["tenant"])
            continue
        if served != output:
            bad.append(submit["tenant"])
    return bad


# -- one workload ----------------------------------------------------------------

def run_workload(workload: catalog.Workload, seed: int, seconds: float,
                 trace: bool, setup_repeats: int = catalog.SETUP_REPEATS,
                 span_out: Optional[str] = None) -> Dict:
    """Run one workload; returns ``metrics``, ``attempted``, ``failed``.

    Untraced: the end-to-end metrics of one timed session.  Traced: an
    untraced and a traced session over the same (half as many) queries,
    plus the kernel drive — the per-layer metrics and, because it costs
    nothing more, the untraced half's end-to-end metrics as well."""
    if not trace:
        m = asyncio.run(measure(workload, seed,
                                workload.timed_queries(seconds),
                                setup_repeats=setup_repeats))
        return {"end_to_end": end_to_end(m),
                "attempted": len(m.session.timed),
                "failed": len(m.failures(seed))}
    timed = workload.timed_queries(seconds / 2)
    plain = asyncio.run(measure(workload, seed, timed))
    traced = asyncio.run(measure(workload, seed, timed, trace=True,
                                 span_out=span_out))
    failed = len(plain.failures(seed)) + len(traced.failures(seed))
    warmup = traced.session.warmup
    per_layer = counts(traced)
    per_layer.update(ledger(traced, plain.wall_s))
    per_layer.update(drive.drive(
        workload, [r.submit for r in warmup],
        [r.frame for r in warmup if r.frame is not None], seed))
    return {"end_to_end": end_to_end(plain),
            "end_to_end_traced": end_to_end(traced),
            "per_layer": per_layer, "attempted": 2 * timed,
            "failed": failed}


def print_metrics(title: str, values: Dict[str, float],
                  metrics: Sequence[catalog.Metric]) -> None:
    print(f"== {title}")
    for metric in metrics:
        if metric.name in values:
            print(f"{metric.name:<46} {values[metric.name]:>16.6g} "
                  f"{metric.unit}")


def contract_metrics(values: Dict[str, float],
                     metrics: Sequence[catalog.Metric]) -> Dict:
    missing = [m.name for m in metrics if m.name not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {m.name: {"value": values[m.name], "unit": m.unit}
            for m in metrics}


# -- compare ---------------------------------------------------------------------

def compare(path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric: relative difference of B from A
    against the metric's bound.  Lists every pair beyond its bound;
    exits 1 when B is *worse* than A beyond a bound."""
    with open(path_a) as handle:
        a = json.load(handle)["workloads"]
    with open(path_b) as handle:
        b = json.load(handle)["workloads"]
    worse = 0
    for name in a:
        if name not in b:
            continue
        for metric in catalog.END_TO_END:
            old = a[name]["end_to_end"].get(metric.name)
            new = b[name]["end_to_end"].get(metric.name)
            if old is None or new is None:
                continue
            change = _ratio(new - old, abs(old))
            if metric.better == "higher":
                change = -change
            verdict = ""
            if abs(change) > metric.bound:
                verdict = "WORSE" if change > 0 else "better"
                worse += change > 0
            print(f"{name:<18} {metric.name:<14} {old:>14.6g} "
                  f"{new:>14.6g} {change:>+8.2%} (bound {metric.bound:.0%})"
                  f" {verdict}")
    print(f"{worse} pair(s) worse beyond their bound")
    return 1 if worse else 0


# -- command line ----------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(
        catalog.WORKLOAD_BY_NAME), help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every metric as JSON")
    parser.add_argument("--span-out", help="with --trace 1: directory "
                        "for the span files (default .stack_bench)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    names = ([args.workload] if args.workload
             else [w.name for w in catalog.WORKLOADS])
    span_dir = Path(args.span_out or ".stack_bench")
    results: Dict[str, Dict] = {}
    for name in names:
        span_out = None
        if args.trace:
            span_dir.mkdir(parents=True, exist_ok=True)
            span_out = str(span_dir / f"spans-{name}.npz")
        result = run_workload(catalog.WORKLOAD_BY_NAME[name], args.seed,
                              args.seconds, bool(args.trace),
                              span_out=span_out)
        results[name] = result
        print_metrics(f"{name}: end to end", result["end_to_end"],
                      catalog.END_TO_END)
        failed_share = result["failed"] / result["attempted"]
        print(f"{'failed_share':<46} {failed_share:>16.6g} share "
              f"({result['failed']} of {result['attempted']})")
        if args.trace:
            print_metrics(f"{name}: per layer", result["per_layer"],
                          catalog.PER_LAYER)
            print(f"span file: {span_out}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "nproc": os.cpu_count(),
                       "python": platform.python_version(),
                       "workloads": results}, handle, indent=1,
                      sort_keys=True)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    kind, metrics = (("per_layer", catalog.PER_LAYER) if args.trace
                     else ("end_to_end", catalog.END_TO_END))
    if args.workload:
        reported = contract_metrics(results[args.workload][kind], metrics)
    else:
        reported = {f"{name}.{key}": value for name, result in
                    results.items() for key, value in contract_metrics(
                        result[kind], metrics).items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
