"""Command-line entry point: regenerate any table/figure of the paper.

Usage::

    python -m repro list
    python -m repro run fig10a fig10b
    python -m repro run all --results-dir results
    python -m repro run tpch_q3 --loss 0.05 --reorder 2 --shards 2
    python -m repro sql "SELECT DISTINCT seller FROM Products" --demo-tables
    python -m repro serve --tenants 8 --loss 0.05 --shards 2
    python -m repro serve --tenants 6 --policy tiers \\
        --priorities interactive,batch --record-trace session.jsonl
    python -m repro replay --gen poisson --queries 12 --seed 0
    python -m repro replay --gen pareto --alpha 1.3 --queries 12
    python -m repro replay traces/diurnal.jsonl --slots 2
    python -m repro bench qos --slots 3
    python -m repro bench fig11 --rows 60000 --shards 4
    python -m repro bench fig5 --scale 2e-5
    python -m repro bench e2e --rows 1200 --loss 0.05 --shards 2
    python -m repro bench concurrency --tenants 8 --loss 0.05

``run`` executes the named experiments and writes their text tables both
to stdout and under ``--results-dir`` (default ``results/``).  With
``--loss``/``--reorder`` (or a scenario name from the end-to-end suite),
``run`` instead drives the named scenario through the full simulated
cluster — CWorker wire encoding, lossy channels under the §7.2
reliability protocol, the (optionally sharded) switch, and master
completion — and checks the result against ``QueryPlan.run``.  ``bench``
runs a perf benchmark (per-packet vs batched dataplane, optionally
sharded across ``--shards`` simulated switch pipelines; ``bench e2e``
times the pipelined vs sequential cluster drivers; ``bench
concurrency`` measures multi-tenant serving throughput vs tenant
count) and emits a machine-readable ``BENCH_<name>.json`` under the
results dir.  ``serve`` runs N concurrent tenants through the
multi-tenant ``QueryScheduler`` over shared simulated switches and
verifies every tenant against its solo ``QueryPlan.run``.  ``replay``
feeds a recorded (or ``--gen``-erated Poisson/bursty/diurnal) JSON-lines
arrival trace through the scheduler and reports p50/p95/p99
arrival-to-completion latency and slot occupancy from the per-tick
telemetry probe; ``bench replay`` sweeps all four arrival processes
(Poisson, bursty, diurnal, heavy-tailed Pareto) into
``BENCH_replay.json`` (fully deterministic: tick-based metrics only).
``serve``/``replay`` take ``--policy`` to serve under a QoS policy —
priority classes, weighted fair service, slot preemption (see
``docs/QOS.md``) — and ``bench qos`` measures the interactive-class
p99 with vs. without preemption into ``BENCH_qos.json``.  The trace
format (version 2: per-query ``priority``/``slots`` hints) is
specified in ``docs/TRACES.md``.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Callable, Dict, List

from repro.bench import experiments as ex
from repro.bench.runner import ExperimentResult, save_result

#: Experiment registry: id -> zero-argument callable.
EXPERIMENTS: Dict[str, Callable[[], object]] = {
    "table2": ex.table2_resources,
    "table3": ex.table3_hardware,
    "table4": ex.table4_summary,
    "fig5": ex.fig5_completion,
    "fig6": ex.fig6_scaling,
    "fig7": ex.fig7_netaccel,
    "fig8": ex.fig8_breakdown,
    "fig9": ex.fig9_master_latency,
    "fig10a": ex.fig10a_distinct,
    "fig10b": ex.fig10b_skyline,
    "fig10c": ex.fig10c_topn,
    "fig10d": ex.fig10d_groupby,
    "fig10e": ex.fig10e_join,
    "fig10f": ex.fig10f_having,
    "fig11": ex.fig11_scale,
    "fig12_13": ex.fig12_13_switchcpu,
    "tpch_q3": ex.tpch_q3_completion,
    "network_sweep": ex.network_rate_sweep,
}


def _run(names: List[str], results_dir: str, args=None) -> int:
    if args is not None and _wants_e2e(names, args):
        return _run_e2e(names, args)
    if "all" in names:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        from repro.cluster.simulation import SCENARIOS

        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(sorted(EXPERIMENTS))}",
              file=sys.stderr)
        print(f"e2e scenarios (with --loss/--reorder): "
              f"{', '.join(sorted(SCENARIOS))}", file=sys.stderr)
        return 2
    if args is not None and (args.metrics_out or args.span_out):
        print("note: --metrics-out/--span-out instrument e2e scenario "
              "runs (add --loss/--reorder); paper experiments are "
              "closed-form and export nothing", file=sys.stderr)
    for name in names:
        outcome = EXPERIMENTS[name]()
        results = outcome if isinstance(outcome, list) else [outcome]
        for result in results:
            print(result.render())
            print()
            path = save_result(result, results_dir)
            print(f"  -> saved {path}\n")
    _hint_e2e_overlap(names)
    return 0


def _hint_e2e_overlap(names: List[str]) -> None:
    """Names in both registries (e.g. tpch_q3) default to the legacy
    experiment; tell the user how to get the cluster scenario."""
    from repro.cluster.simulation import SCENARIOS

    overlap = [n for n in names if n in SCENARIOS]
    if overlap:
        print(f"note: {', '.join(overlap)} ran as paper experiment(s); "
              "add --loss/--reorder to drive the end-to-end cluster "
              "scenario of the same name", file=sys.stderr)


def _wants_e2e(names: List[str], args) -> bool:
    """The run subcommand doubles as the end-to-end scenario driver.

    Explicit ``--loss``/``--reorder`` always selects the simulated
    cluster; otherwise names that are scenarios (and not experiment ids)
    do, with the default 5% loss.
    """
    if args.loss is not None or args.reorder is not None:
        return True
    from repro.cluster.simulation import SCENARIOS

    return ("all" not in names
            and all(n in SCENARIOS and n not in EXPERIMENTS
                    for n in names))


def _run_e2e(names: List[str], args) -> int:
    """Drive named scenarios end-to-end via the stable facade
    (``repro.api.run_scenario``; direct ``ClusterSimulation``
    construction is deprecated)."""
    from repro.api import run_scenario
    from repro.cluster.simulation import SCENARIOS

    import os

    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(f"unknown e2e scenarios: {', '.join(unknown)}",
              file=sys.stderr)
        print(f"available: {', '.join(sorted(SCENARIOS))}",
              file=sys.stderr)
        return 2
    loss = 0.05 if args.loss is None else args.loss
    reorder = args.reorder or 0
    modes = (["pipelined", "sequential"] if args.mode == "both"
             else [args.mode])
    obs = _make_obs(args)
    last_tick = 0
    ok = True
    for name in names:
        for mode in modes:
            try:
                report = run_scenario(
                    name, rows=args.rows, seed=args.seed,
                    workers=args.workers, loss=loss, reorder=reorder,
                    shards=args.shards,
                    pipelined=(mode == "pipelined"),
                    congestion=args.congestion,
                    queue_capacity=args.queue_capacity)
            except ValueError as error:
                # SimulationConfig bounds, SimulationError (bad rows,
                # unsupported wire shapes, livelock): one-line
                # diagnostics, not a traceback.
                print(f"repro run: {error}", file=sys.stderr)
                return 2
            if obs is not None:
                # Solo runs drive their passes internally; metrics and
                # pass spans are reconstructed from the report, one
                # track per name/mode.
                obs.ingest_simulation_report(
                    report, track=f"{name}:{mode}")
                last_tick = max(last_tick, report.ticks)
            ok = ok and bool(report.equivalent)
            verdict = ("IDENTICAL to QueryPlan.run" if report.equivalent
                       else "MISMATCH vs QueryPlan.run")
            transport = (f" congestion={args.congestion} "
                         f"queue_capacity={args.queue_capacity}"
                         if args.congestion != "fixed"
                         or args.queue_capacity is not None else "")
            lines = [
                f"== e2e {name} [{mode}] ==",
                f"  loss={loss} reorder={reorder} "
                f"shards={args.shards} workers={args.workers}"
                f"{transport}",
                f"  result      : {verdict}",
                f"  wire        : {report.entries} entries offered, "
                f"{report.delivered} delivered to master, "
                f"{report.switch_pruned} packets pruned at the switch",
                f"  reliability : {report.retransmissions} "
                f"retransmissions, {report.packets_dropped} channel "
                f"drops, {report.ticks} ticks",
                f"  wall        : {report.wall_seconds:.3f}s over "
                f"{len(report.passes)} pass(es)",
            ]
            print("\n".join(lines))
            print()
            os.makedirs(args.results_dir, exist_ok=True)
            path = os.path.join(args.results_dir,
                                f"E2E_{name}_{mode}.txt")
            with open(path, "w") as f:
                f.write("\n".join(lines) + "\n")
            print(f"  -> saved {path}\n")
    _write_obs(obs, args, tick=last_tick)
    if not ok:
        print("e2e: at least one scenario diverged from QueryPlan.run",
              file=sys.stderr)
    return 0 if ok else 1


def _print_tenant_outcomes(report, served_detail) -> bool:
    """One line per tenant of a ScheduleReport (shared by ``serve`` and
    ``replay``); returns True when every served tenant matched its solo
    ``QueryPlan.run`` and none failed.  ``served_detail(tenant)``
    renders the command-specific middle columns of a served line."""
    ok = True
    for tenant in report.tenants:
        label = f"{tenant.spec.tenant:10s} {tenant.spec.scenario:12s}"
        if tenant.status == "served":
            verdict = ("IDENTICAL to QueryPlan.run" if tenant.equivalent
                       else "MISMATCH vs QueryPlan.run")
            ok = ok and bool(tenant.equivalent)
            print(f"  {label} served    {served_detail(tenant)} "
                  f"{verdict}")
        else:
            ok = ok and tenant.status == "rejected"
            print(f"  {label} {tenant.status}  ({tenant.reason})")
    return ok


def _print_qos_outcomes(report) -> None:
    """Per-class latency and preemption lines of a ScheduleReport
    (shared by ``serve`` and ``replay``; silent under a single-class
    policy with no preemptions)."""
    summary = report.class_summary()
    if len(summary) <= 1 and not report.preemption_count:
        return
    for name in sorted(summary):
        entry = summary[name]
        latency = entry["latency"]
        line = (f"  class {name:12s} served={entry['served']:<3d} "
                f"p50={latency['p50_ticks']} p99={latency['p99_ticks']}")
        if entry["preemptions"]:
            line += (f" preemptions={entry['preemptions']} "
                     f"(suspended {entry['suspended_ticks']} ticks)")
        print(line)
    if report.preemption_count:
        first = next(e for e in report.preemption_timeline
                     if e.kind == "preempt")
        print(f"  preemptions: {report.preemption_count} "
              f"(first: {first.tenant} by {first.by} at tick "
              f"{first.tick})")


def _announce_trace(args, config, path: str, version: int) -> None:
    """Print the recorded-trace line with its replay command.  The
    header pins loss/shards, but the remaining scheduler knobs must
    ride the replay command for the byte-identical round trip —
    include every non-default one, shell-quoted (custom policy specs
    contain ';')."""
    import shlex

    replay_cmd = (f"repro replay {shlex.quote(path)} "
                  f"--policy {shlex.quote(args.policy)} "
                  f"--slots {config.slots} --seed {args.seed}")
    if args.reorder:
        replay_cmd += f" --reorder {args.reorder}"
    if args.workers != 4:
        replay_cmd += f" --workers {args.workers}"
    if args.reject_when_full:
        replay_cmd += " --reject-when-full"
    print(f"  -> recorded trace {path} "
          f"(version {version}; replay with: {replay_cmd})")


def _serve_socket(args, config, policy, chaos=None) -> int:
    """``repro serve --listen``: the asyncio socket frontend."""
    import asyncio

    from repro.serving import ReproServer

    host, _, port_text = args.listen.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        print(f"repro serve: bad --listen {args.listen!r} "
              "(expected [HOST:]PORT)", file=sys.stderr)
        return 2
    if args.hold < 0:
        print(f"repro serve: --hold must be >= 0, got {args.hold}",
              file=sys.stderr)
        return 2
    if args.max_queries is not None and args.max_queries < 1:
        print(f"repro serve: --max-queries must be >= 1, got "
              f"{args.max_queries}", file=sys.stderr)
        return 2

    async def session() -> ReproServer:
        server = ReproServer(config, host=host, port=port,
                             hold=args.hold,
                             max_queries=args.max_queries,
                             chaos=chaos)
        await server.start()
        bound_host, bound_port = server.address
        print(f"== serve: listening on {bound_host}:{bound_port} "
              f"(proto/v1, policy={policy.name}, slots={config.slots}, "
              f"loss={config.loss_rate} reorder={config.reorder_window} "
              f"shards={config.shards}) ==", flush=True)
        if args.max_queries:
            await server.wait_finished()
        else:
            # Serve until interrupted.
            await asyncio.Event().wait()
        await server.stop()
        return server

    try:
        server = asyncio.run(session())
    except KeyboardInterrupt:
        print("serve: interrupted", file=sys.stderr)
        return 130
    report = server.report()
    if args.record_trace:
        server.write_trace(args.record_trace)
        from repro.workloads.traces import load_trace

        _announce_trace(args, config, args.record_trace,
                        load_trace(args.record_trace).version)
    ok = _print_tenant_outcomes(
        report, lambda t: f"wait={t.wait_ticks:<5d} "
                          f"service={t.service_ticks:<6d}")
    _print_qos_outcomes(report)
    _print_chaos_outcomes(chaos)
    print(f"  makespan    : {report.ticks} ticks, "
          f"{report.wall_seconds:.3f}s wall")
    print(f"  aggregate   : {report.entries} entries offered, "
          f"{report.delivered} delivered")
    # server.obs is config.obs when the CLI attached one, or the
    # server's own default (metrics-only, backing the `stats` frame).
    _write_obs(config.obs, args, tick=report.ticks)
    if not ok:
        print("serve: at least one tenant diverged or failed",
              file=sys.stderr)
    return 0 if ok else 1


def _serve(args) -> int:
    """Serve N concurrent tenants over shared simulated switches."""
    from repro.cluster.qos import parse_policy
    from repro.cluster.scheduler import (
        DEFAULT_TENANT_MIX,
        QueryScheduler,
        SchedulerConfig,
        tenant_specs,
    )
    from repro.cluster.simulation import SCENARIOS, SimulationError

    mix = (tuple(args.mix.split(",")) if args.mix
           else DEFAULT_TENANT_MIX)
    unknown = [name for name in mix if name not in SCENARIOS]
    if unknown:
        print(f"repro serve: unknown scenarios in --mix: "
              f"{', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(sorted(SCENARIOS))}",
              file=sys.stderr)
        return 2
    priorities = (tuple(args.priorities.split(","))
                  if args.priorities else None)
    try:
        policy = parse_policy(args.policy)
        config = SchedulerConfig(
            slots=(args.slots if args.slots is not None
                   else args.tenants),
            queue_when_full=not args.reject_when_full,
            policy=policy,
            workers=args.workers, loss_rate=args.loss,
            reorder_window=args.reorder, shards=args.shards,
            seed=args.seed,
            congestion=args.congestion,
            queue_capacity=args.queue_capacity,
            obs=_make_obs(args),
        )
    except ValueError as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 2
    chaos, code = _chaos_controller(args, "serve")
    if code is not None:
        return code
    if args.listen is not None:
        return _serve_socket(args, config, policy, chaos)
    try:
        specs = tenant_specs(args.tenants, rows=args.rows,
                             seed=args.seed, mix=mix,
                             arrival_stride=args.arrival_stride,
                             priorities=priorities)
        report = QueryScheduler(config).serve(specs, chaos=chaos)
    except (ValueError, SimulationError) as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 2
    if args.record_trace:
        from repro.workloads.traces import trace_from_specs

        trace = trace_from_specs(specs, seed=args.seed,
                                 loss_rate=args.loss,
                                 shards=args.shards)
        trace.save(args.record_trace)
        _announce_trace(args, config, args.record_trace, trace.version)
    print(f"== serve: {args.tenants} tenants, {config.slots} slots, "
          f"policy={policy.name}, loss={args.loss} "
          f"reorder={args.reorder} shards={args.shards} ==")
    ok = _print_tenant_outcomes(
        report, lambda t: f"wait={t.wait_ticks:<5d} "
                          f"service={t.service_ticks:<6d}")
    _print_qos_outcomes(report)
    _print_chaos_outcomes(chaos)
    throughput = report.throughput_entries_per_second
    print(f"  makespan    : {report.ticks} ticks, "
          f"{report.wall_seconds:.3f}s wall")
    print(f"  aggregate   : {report.entries} entries offered, "
          f"{report.delivered} delivered"
          + (f", {throughput:.0f} entries/s" if throughput else ""))
    _write_obs(config.obs, args, tick=report.ticks)
    if not ok:
        print("serve: at least one tenant diverged or failed",
              file=sys.stderr)
    return 0 if ok else 1


def _replay(args) -> int:
    """Replay a recorded/generated arrival trace through the scheduler."""
    from repro.cluster.qos import parse_policy
    from repro.cluster.scheduler import SchedulerConfig, replay_trace
    from repro.cluster.simulation import SCENARIOS, SimulationError
    from repro.workloads.traces import generate_trace, load_trace

    trace_file = args.trace_file or args.trace_opt
    if (trace_file and args.gen) or (args.trace_file and args.trace_opt):
        print("repro replay: give a trace file or --gen, not both",
              file=sys.stderr)
        return 2
    if not trace_file and not args.gen:
        print("repro replay: need a trace file or --gen "
              "poisson|burst|diurnal", file=sys.stderr)
        return 2
    mix = tuple(args.mix.split(",")) if args.mix else None
    if mix:
        unknown = [name for name in mix if name not in SCENARIOS]
        if unknown:
            print(f"repro replay: unknown scenarios in --mix: "
                  f"{', '.join(unknown)}", file=sys.stderr)
            print(f"available: {', '.join(sorted(SCENARIOS))}",
                  file=sys.stderr)
            return 2
    chaos, code = _chaos_controller(args, "replay")
    if code is not None:
        return code
    priorities = (tuple(args.priorities.split(","))
                  if args.priorities else None)
    if trace_file and priorities:
        # Silent no-op would be worse: a recorded trace carries its own
        # hints; --priorities only shapes generated traces.
        print("repro replay: --priorities applies to --gen traces only "
              "(a trace file keeps its recorded hints)", file=sys.stderr)
        return 2
    try:
        if trace_file:
            trace = load_trace(trace_file)
        else:
            from repro.workloads.traces import DEFAULT_REPLAY_MIX

            trace = generate_trace(
                args.gen, queries=args.queries, rows=args.rows,
                seed=args.seed, mix=mix or DEFAULT_REPLAY_MIX,
                interarrival=args.interarrival,
                burst_size=args.burst_size, burst_gap=args.burst_gap,
                period=args.period, alpha=args.alpha,
                priorities=priorities)
        if args.out:
            trace.save(args.out)
            print(f"  -> saved trace {args.out}")
        # Precedence: explicit CLI flag > trace header > default.  The
        # policy defaults to `tiers` when the trace carries *priority*
        # hints (so recorded classes actually take effect) and `fifo`
        # otherwise — slots-only v2 traces stay classless, since under
        # tiers their standard-class queries would be locked out of
        # small budgets by the reservation floors.
        hinted = any(q.priority is not None for q in trace.queries)
        policy = parse_policy(args.policy if args.policy is not None
                              else "tiers" if hinted else "fifo")
        loss = (args.loss if args.loss is not None
                else trace.loss_rate if trace.loss_rate is not None
                else 0.0)
        shards = (args.shards if args.shards is not None
                  else trace.shards if trace.shards is not None else 1)
        config = SchedulerConfig(
            slots=args.slots, queue_when_full=not args.reject_when_full,
            policy=policy, workers=args.workers, loss_rate=loss,
            reorder_window=args.reorder, shards=shards, seed=args.seed,
            congestion=args.congestion,
            queue_capacity=args.queue_capacity,
            obs=_make_obs(args))
        report = replay_trace(trace, config, apply_overrides=False,
                              chaos=chaos)
    except (OSError, ValueError, SimulationError) as error:
        print(f"repro replay: {error}", file=sys.stderr)
        return 2
    source = trace_file or f"generated {args.gen}"
    print(f"== replay: {source} ({len(trace.queries)} queries, "
          f"{config.slots} slots, policy={policy.name}, "
          f"loss={config.loss_rate} shards={config.shards}) ==")
    if not trace.queries:
        print("  empty trace: nothing to replay")
        return 0
    ok = _print_tenant_outcomes(
        report, lambda t: f"arrival={t.spec.arrival_tick:<6d} "
                          f"wait={t.wait_ticks:<5d} "
                          f"latency={t.latency_ticks:<6d}")
    _print_qos_outcomes(report)
    _print_chaos_outcomes(chaos)
    mean_occ = report.mean_occupancy
    latencies = report.latencies
    print(f"  makespan   : {report.ticks} ticks, "
          f"{report.wall_seconds:.3f}s wall")
    if latencies:
        mean_latency = sum(latencies) / len(latencies)
        print(f"  latency    : p50={report.latency_p50_ticks} "
              f"p95={report.latency_p95_ticks} "
              f"p99={report.latency_p99_ticks} ticks "
              f"(mean {mean_latency:.1f}, max {max(latencies)})")
    print(f"  occupancy  : mean {0.0 if mean_occ is None else mean_occ:.2f}"
          f"/{config.slots} slots, peak {report.peak_occupancy}, "
          f"peak queue depth {report.telemetry.peak_queue_depth}")
    if report.rejection_timeline:
        first = report.rejection_timeline[0]
        print(f"  rejections : {len(report.rejection_timeline)} "
              f"(first: {first.tenant} at tick {first.tick})")
    throughput = report.throughput_entries_per_tick
    print(f"  aggregate  : {report.entries} entries offered, "
          f"{report.delivered} delivered"
          + (f", {throughput:.2f} entries/tick" if throughput else ""))
    _write_obs(config.obs, args, tick=report.ticks)
    if not ok:
        print("replay: at least one tenant diverged or failed",
              file=sys.stderr)
    return 0 if ok else 1


def _chaos_controller(args, command: str):
    """Build the ``--schedule`` ChaosController for serve/replay/chaos.

    Returns ``(controller, None)`` or ``(None, exit_code)`` — the
    controller is ``None`` (no fault injection) when no schedule was
    requested.
    """
    if getattr(args, "schedule", None) is None:
        return None, None
    from repro.cluster.chaos import ChaosController, load_schedule

    try:
        schedule = load_schedule(args.schedule)
    except (OSError, ValueError) as error:
        print(f"repro {command}: {error}", file=sys.stderr)
        return None, 2
    return ChaosController(schedule), None


def _print_chaos_outcomes(controller) -> None:
    """One summary line per chaos run (serve/replay ``--schedule``)."""
    if controller is None:
        return
    summary = controller.summary()
    print(f"  chaos       : {summary['applied']}/{summary['events']} "
          f"events applied, {summary['migrations']} queries migrated, "
          f"{summary['restored']} restored, "
          f"{summary['replayed_packets']} packets replayed"
          + (f", recovery {summary['recovery_ticks']} ticks"
             if summary["restored"] else ""))


def _chaos(args) -> int:
    """Serve a scenario fleet under fault injection; verify survivors."""
    from repro.cluster.chaos import ChaosController, generate_schedule
    from repro.cluster.qos import parse_policy
    from repro.cluster.scheduler import (
        QueryScheduler,
        SchedulerConfig,
        tenant_specs,
    )
    from repro.cluster.simulation import SCENARIOS, SimulationError

    if args.scenario not in SCENARIOS:
        print(f"repro chaos: unknown scenario {args.scenario!r}",
              file=sys.stderr)
        print(f"available: {', '.join(sorted(SCENARIOS))}",
              file=sys.stderr)
        return 2
    if args.schedule and args.gen:
        print("repro chaos: give --schedule or --gen, not both",
              file=sys.stderr)
        return 2
    try:
        policy = parse_policy(args.policy)
        config = SchedulerConfig(
            slots=(args.slots if args.slots is not None
                   else args.tenants),
            policy=policy, workers=args.workers, loss_rate=args.loss,
            reorder_window=args.reorder, shards=args.shards,
            seed=args.seed,
            congestion=args.congestion,
            queue_capacity=args.queue_capacity)
    except ValueError as error:
        print(f"repro chaos: {error}", file=sys.stderr)
        return 2
    try:
        specs = tenant_specs(args.tenants, rows=args.rows,
                             seed=args.seed, mix=(args.scenario,))
        # The fault-free baseline: the equivalence reference and the
        # makespan that sizes a generated schedule.
        baseline = QueryScheduler(config).serve(specs)
    except (ValueError, SimulationError) as error:
        print(f"repro chaos: {error}", file=sys.stderr)
        return 2
    if args.schedule:
        controller, code = _chaos_controller(args, "chaos")
        if code is not None:
            return code
        schedule = controller.schedule
    else:
        try:
            schedule = generate_schedule(
                seed=args.seed, kills=args.kills, shards=config.shards,
                workers=config.workers,
                horizon=max(6, baseline.ticks * 2 // 3))
        except ValueError as error:
            print(f"repro chaos: {error}", file=sys.stderr)
            return 2
        controller = ChaosController(schedule)
    if args.out:
        schedule.save(args.out)
        print(f"  -> saved schedule {args.out}")
    # Instrument only the run under fault injection — the baseline is
    # the equivalence reference, not the run being observed.
    obs = _make_obs(args)
    if obs is not None:
        import dataclasses

        config = dataclasses.replace(config, obs=obs)
    try:
        report = QueryScheduler(config).serve(specs, chaos=controller)
    except (ValueError, SimulationError) as error:
        print(f"repro chaos: {error}", file=sys.stderr)
        return 2
    print(f"== chaos: {args.tenants}x {args.scenario}, "
          f"{config.slots} slots, shards={config.shards}, "
          f"loss={args.loss}, {len(schedule.events)} scheduled "
          f"events ==")
    for record in controller.applied:
        effect = {
            "kill_shard": lambda r: f"{r['migrated_queries']} queries "
                                    "migrated to survivors",
            "restart": lambda r: f"{r['restored_queries']} queries "
                                 "restored"
                                 + (f" after {r['recovery_ticks']} "
                                    "ticks down"
                                    if "recovery_ticks" in r else ""),
            "kill_worker": lambda r: f"{r['replayed_packets']} unacked "
                                     "packets replayed by survivors",
            "degrade_channel": lambda r: f"loss={r['loss_rate']} on "
                                         f"{r['tenants_degraded']} "
                                         "tenants",
        }[record["event"]](record)
        target = record.get("shard", record.get("worker", ""))
        print(f"  tick {record['applied_tick']:<4d} "
              f"{record['event']} {target}: {effect}")
    if controller.pending:
        print(f"  ({controller.pending} scheduled events never came "
              "due: run finished first)")
    ok = _print_tenant_outcomes(
        report, lambda t: f"wait={t.wait_ticks:<5d} "
                          f"service={t.service_ticks:<6d}")
    print(f"  baseline    : {baseline.ticks} ticks, "
          f"p99={baseline.latency_p99_ticks}")
    print(f"  under chaos : {report.ticks} ticks, "
          f"p99={report.latency_p99_ticks}")
    _write_obs(obs, args, tick=report.ticks)
    equivalent = (ok and baseline.all_equivalent is True
                  and report.all_equivalent is True)
    if equivalent:
        print("  survivor equivalence: OK (every tenant identical to "
              "its solo run)")
        return 0
    print("chaos: a surviving tenant diverged from its solo "
          "QueryPlan.run", file=sys.stderr)
    return 1


def _bench(args) -> int:
    from repro.bench.runner import (
        emit_bench_json,
        run_chaos_bench,
        run_concurrency_bench,
        run_congestion_bench,
        run_e2e_bench,
        run_fig5_bench,
        run_fig11_scale_bench,
        run_load_bench,
        run_obs_bench,
        run_qos_bench,
        run_replay_bench,
    )

    if args.shards < 1:
        print(f"repro bench: --shards must be >= 1, got {args.shards}",
              file=sys.stderr)
        return 2
    if args.batch_size < 1:
        print(f"repro bench: --batch-size must be >= 1, got "
              f"{args.batch_size}", file=sys.stderr)
        return 2
    if args.rows is None:
        args.rows = {"e2e": 1200, "concurrency": 240,
                     "replay": 100, "qos": 260, "chaos": 260,
                     "load": 24, "congestion": 200,
                     "obs": 240}.get(args.name, 60_000)
    if args.slots is None:
        # The QoS bench needs slack above the tiers policy's two
        # reserved slots; the replay bench wants a tight budget; the
        # load bench wants enough parallelism for a client swarm; the
        # chaos bench wants every tenant in flight when a kill lands;
        # the congestion bench wants its sweep tenants all concurrent
        # so they contend for the finite ingress queues.
        args.slots = {"qos": 3, "load": 8, "chaos": 4,
                      "congestion": 4, "obs": 4}.get(args.name, 2)
    if args.name == "fig11" and args.rows < 40:
        print(f"repro bench: --rows must be >= 40 for the fig11 streams, "
              f"got {args.rows}", file=sys.stderr)
        return 2
    if args.name == "e2e":
        if args.rows < 20:
            print(f"repro bench: --rows must be >= 20 for e2e, got "
                  f"{args.rows}", file=sys.stderr)
            return 2
        if not 0.0 <= args.loss < 1.0:
            print(f"repro bench: --loss must be in [0, 1), got "
                  f"{args.loss}", file=sys.stderr)
            return 2
        if args.reorder < 0:
            print(f"repro bench: --reorder must be >= 0, got "
                  f"{args.reorder}", file=sys.stderr)
            return 2
        payload = run_e2e_bench(rows=args.rows, shards=args.shards,
                                loss_rate=args.loss,
                                reorder_window=args.reorder,
                                seed=args.seed)
        path = emit_bench_json("e2e", payload, args.results_dir)
        print(f"e2e bench: rows={args.rows} shards={args.shards} "
              f"loss={args.loss} reorder={args.reorder}")
        for row in payload["scenarios"] + payload["loss_sweep"]:
            print(f"  {row['scenario']:12s} loss={row['loss_rate']:<5} "
                  f"seq={row['sequential_seconds']:.3f}s "
                  f"pipe={row['pipelined_seconds']:.3f}s "
                  f"speedup={row['speedup']:.2f}x "
                  f"equivalent={row['pipelined_equivalent']}")
        print(f"  overall pipelined speedup: "
              f"{payload['overall_speedup']:.2f}x")
        if payload["all_equivalent"] is not True:
            print("  ERROR: an e2e run diverged from QueryPlan.run",
                  file=sys.stderr)
            return 1
    elif args.name == "concurrency":
        if args.tenants < 1:
            print(f"repro bench: --tenants must be >= 1, got "
                  f"{args.tenants}", file=sys.stderr)
            return 2
        if args.rows < 20:
            print(f"repro bench: --rows must be >= 20 for concurrency, "
                  f"got {args.rows}", file=sys.stderr)
            return 2
        if not 0.0 <= args.loss < 1.0:
            print(f"repro bench: --loss must be in [0, 1), got "
                  f"{args.loss}", file=sys.stderr)
            return 2
        payload = run_concurrency_bench(max_tenants=args.tenants,
                                        rows=args.rows,
                                        loss_rate=args.loss,
                                        reorder_window=args.reorder,
                                        shards=args.shards,
                                        seed=args.seed)
        path = emit_bench_json("concurrency", payload, args.results_dir)
        print(f"concurrency bench: tenants up to {args.tenants} "
              f"rows={args.rows} loss={args.loss} shards={args.shards}")
        for row in payload["runs"]:
            print(f"  tenants={row['tenants']:<3d} "
                  f"makespan={row['makespan_ticks']} ticks "
                  f"throughput={row['throughput_entries_per_tick']:.2f} "
                  f"entries/tick "
                  f"consolidation={row['consolidation_speedup']:.2f}x "
                  f"equivalent={row['all_equivalent']}")
        print(f"  throughput scaling at {args.tenants} tenants: "
              f"{payload['throughput_scaling']:.2f}x")
        if payload["all_equivalent"] is not True:
            print("  ERROR: a tenant diverged from QueryPlan.run",
                  file=sys.stderr)
            return 1
    elif args.name == "replay":
        if args.queries < 1:
            print(f"repro bench: --queries must be >= 1, got "
                  f"{args.queries}", file=sys.stderr)
            return 2
        if args.rows < 20:
            print(f"repro bench: --rows must be >= 20 for replay, got "
                  f"{args.rows}", file=sys.stderr)
            return 2
        if not 0.0 <= args.loss < 1.0:
            print(f"repro bench: --loss must be in [0, 1), got "
                  f"{args.loss}", file=sys.stderr)
            return 2
        payload = run_replay_bench(queries=args.queries, rows=args.rows,
                                   slots=args.slots,
                                   loss_rate=args.loss,
                                   reorder_window=args.reorder,
                                   shards=args.shards, seed=args.seed)
        path = emit_bench_json("replay", payload, args.results_dir)
        print(f"replay bench: {args.queries} queries/trace "
              f"rows={args.rows} slots={args.slots} loss={args.loss} "
              f"shards={args.shards}")
        for run in payload["runs"]:
            latency = run["latency"]
            occupancy = run["occupancy"]
            print(f"  {run['process']:8s} served={run['served']:<3d} "
                  f"makespan={run['ticks']} ticks "
                  f"p50={latency['p50_ticks']} "
                  f"p95={latency['p95_ticks']} "
                  f"p99={latency['p99_ticks']} "
                  f"occ mean={occupancy['mean']:.2f} "
                  f"peak={occupancy['peak']} "
                  f"equivalent={run['all_equivalent']}")
        if payload["all_equivalent"] is not True:
            print("  ERROR: a replayed tenant diverged from "
                  "QueryPlan.run", file=sys.stderr)
            return 1
    elif args.name == "qos":
        if args.rows < 20:
            print(f"repro bench: --rows must be >= 20 for qos, got "
                  f"{args.rows}", file=sys.stderr)
            return 2
        if not 0.0 <= args.loss < 1.0:
            print(f"repro bench: --loss must be in [0, 1), got "
                  f"{args.loss}", file=sys.stderr)
            return 2
        try:
            payload = run_qos_bench(batch_rows=args.rows,
                                    slots=args.slots,
                                    loss_rate=args.loss,
                                    reorder_window=args.reorder,
                                    shards=args.shards, seed=args.seed)
        except ValueError as error:
            print(f"repro bench: {error}", file=sys.stderr)
            return 2
        path = emit_bench_json("qos", payload, args.results_dir)
        print(f"qos bench: {payload['batch_tenants']} batch + "
              f"{payload['interactive_tenants']} interactive tenants, "
              f"{args.slots} slots, batch rows={args.rows}, "
              f"loss={args.loss}")
        for run in payload["runs"]:
            classes = run["classes"]
            preempts = payload["preemption_events"][run["policy"]]
            print(f"  {run['policy']:17s} "
                  f"interactive p99="
                  f"{classes['interactive']['latency']['p99_ticks']} "
                  f"batch p99={classes['batch']['latency']['p99_ticks']} "
                  f"preemptions={preempts} "
                  f"equivalent={run['all_equivalent']}")
        improvement = payload["interactive_p99_improvement"]
        print(f"  interactive p99 improvement from preemption: "
              f"{improvement:.2f}x")
        if payload["all_equivalent"] is not True:
            print("  ERROR: a tenant diverged from QueryPlan.run "
                  "(preemption broke result identity?)",
                  file=sys.stderr)
            return 1
    elif args.name == "chaos":
        if args.rows < 20:
            print(f"repro bench: --rows must be >= 20 for chaos, got "
                  f"{args.rows}", file=sys.stderr)
            return 2
        if not 0.0 <= args.loss < 1.0:
            print(f"repro bench: --loss must be in [0, 1), got "
                  f"{args.loss}", file=sys.stderr)
            return 2
        shards = args.shards if args.shards > 1 else 3
        try:
            payload = run_chaos_bench(rows=args.rows, slots=args.slots,
                                      loss_rate=args.loss,
                                      reorder_window=args.reorder,
                                      shards=shards, seed=args.seed,
                                      kills=args.kills)
        except ValueError as error:
            print(f"repro bench: {error}", file=sys.stderr)
            return 2
        path = emit_bench_json("chaos", payload, args.results_dir)
        print(f"chaos bench: {payload['tenants']} tenants, "
              f"{args.slots} slots, shards={shards}, "
              f"loss={args.loss}, {args.kills} kills")
        for record in payload["timeline"]:
            effect = {
                "kill_shard": lambda r: f"{r['migrated_queries']} "
                                        "queries migrated",
                "restart": lambda r: f"{r['restored_queries']} restored"
                                     + (f" after {r['recovery_ticks']} "
                                        "ticks" if "recovery_ticks" in r
                                        else ""),
                "kill_worker": lambda r: f"{r['replayed_packets']} "
                                         "packets replayed",
                "degrade_channel": lambda r: f"loss={r['loss_rate']} on "
                                             f"{r['tenants_degraded']} "
                                             "tenants",
            }[record["event"]](record)
            target = record.get("shard", record.get("worker", ""))
            print(f"  tick {record['applied_tick']:<4d} "
                  f"{record['event']} {target}: {effect}")
        if payload["events_pending"]:
            print(f"  ({payload['events_pending']} scheduled events "
                  "never came due: run finished first)")
        print(f"  baseline: {payload['baseline']['ticks']} ticks "
              f"p99={payload['baseline']['latency']['p99_ticks']} | "
              f"chaos: {payload['chaos']['ticks']} ticks "
              f"p99={payload['chaos']['latency']['p99_ticks']}"
              + (f" (p99 inflation {payload['p99_inflation']:.2f}x)"
                 if payload["p99_inflation"] is not None else ""))
        print(f"  migrations={payload['migrations']} "
              f"restored={payload['restored']} "
              f"replayed_packets={payload['replayed_packets']} "
              f"recovery_ticks={payload['recovery_ticks']}")
        if payload["all_equivalent"] is not True:
            print("  ERROR: a surviving tenant diverged from "
                  "QueryPlan.run (migration broke result identity?)",
                  file=sys.stderr)
            return 1
        print("  survivor equivalence: OK (every tenant identical to "
              "its solo run)")
    elif args.name == "congestion":
        if args.rows < 20:
            print(f"repro bench: --rows must be >= 20 for congestion, "
                  f"got {args.rows}", file=sys.stderr)
            return 2
        try:
            payload = run_congestion_bench(rows=args.rows,
                                           shards=args.shards,
                                           seed=args.seed,
                                           slots=args.slots)
        except ValueError as error:
            print(f"repro bench: {error}", file=sys.stderr)
            return 2
        path = emit_bench_json("congestion", payload, args.results_dir)
        print(f"congestion bench: rows={args.rows} slots={args.slots} "
              f"losses={payload['losses']} "
              f"tenants={payload['tenant_counts']} "
              f"capacities={payload['capacities']}")
        for cell in payload["sweep"]:
            cap = cell["queue_capacity"]
            print(f"  loss={cell['loss_rate']:<5} "
                  f"tenants={cell['tenants']} "
                  f"cap={'inf' if cap is None else cap:>3}: "
                  f"goodput fixed="
                  f"{cell['fixed']['goodput_entries_per_tick']} "
                  f"aimd={cell['aimd']['goodput_entries_per_tick']} "
                  f"(ratio {cell['goodput_ratio']}) "
                  f"retx fixed={cell['fixed']['retransmissions']} "
                  f"aimd={cell['aimd']['retransmissions']}")
        fairness = payload["fairness"]
        print(f"  fairness: mean rates {fairness['mean_rates']} "
              f"(normalized spread {fairness['normalized_spread']})")
        print(f"  serving interactive/batch goodput ratio: "
              f"{payload['interactive_batch_goodput_ratio']}")
        print(f"  congested cells (finite queue, loss >= 0.02): "
              f"aimd/fixed goodput >= "
              f"{payload['congested_goodput_ratio_min']}, "
              f"retransmission overhead <= "
              f"{payload['congested_retransmission_ratio_max']}x")
        if payload["all_equivalent"] is not True:
            print("  ERROR: a tenant diverged from QueryPlan.run "
                  "(congestion control broke result identity?)",
                  file=sys.stderr)
            return 1
    elif args.name == "load":
        if args.clients < 1:
            print(f"repro bench: --clients must be >= 1, got "
                  f"{args.clients}", file=sys.stderr)
            return 2
        if args.rows < 20:
            print(f"repro bench: --rows must be >= 20 for load, got "
                  f"{args.rows}", file=sys.stderr)
            return 2
        if not 0.0 <= args.loss < 1.0:
            print(f"repro bench: --loss must be in [0, 1), got "
                  f"{args.loss}", file=sys.stderr)
            return 2
        policy = args.policy if args.policy is not None else "tiers"
        try:
            payload = run_load_bench(
                clients=args.clients, rows=args.rows,
                slots=args.slots, loss_rate=args.loss,
                reorder_window=args.reorder, shards=args.shards,
                seed=args.seed, policy=policy, process=args.process,
                closed_clients=args.closed_clients,
                closed_queries=args.closed_queries)
        except ValueError as error:
            print(f"repro bench: {error}", file=sys.stderr)
            return 2
        path = emit_bench_json("load", payload, args.results_dir)
        print(f"load bench: {args.clients} open-loop socket clients "
              f"({args.process} arrivals), slots={args.slots}, "
              f"policy={policy}, loss={args.loss}")

        def _phase_line(label, phase):
            wall = phase["wall_latency"]
            tick = phase["tick_latency"]
            print(f"  {label}: served={phase['served']}"
                  f"/{phase['queries']} "
                  f"wall p50={wall['p50_seconds'] * 1e3:.1f}ms "
                  f"p99={wall['p99_seconds'] * 1e3:.1f}ms | "
                  f"tick p50={tick['p50_ticks']} "
                  f"p99={tick['p99_ticks']} "
                  f"equivalent={phase['all_equivalent']}")

        _phase_line("open loop  ", payload["open_loop"])
        if "closed_loop" in payload:
            _phase_line("closed loop", payload["closed_loop"])
        if payload["all_equivalent"] is not True:
            print("  ERROR: a socket-served tenant diverged from "
                  "QueryPlan.run", file=sys.stderr)
            return 1
    elif args.name == "obs":
        if args.tenants < 1:
            print(f"repro bench: --tenants must be >= 1, got "
                  f"{args.tenants}", file=sys.stderr)
            return 2
        if args.rows < 20:
            print(f"repro bench: --rows must be >= 20 for obs, got "
                  f"{args.rows}", file=sys.stderr)
            return 2
        if not 0.0 <= args.loss < 1.0:
            print(f"repro bench: --loss must be in [0, 1), got "
                  f"{args.loss}", file=sys.stderr)
            return 2
        shards = args.shards if args.shards > 1 else 2
        payload = run_obs_bench(tenants=args.tenants, rows=args.rows,
                                slots=args.slots, loss_rate=args.loss,
                                reorder_window=args.reorder,
                                shards=shards, seed=args.seed)
        path = emit_bench_json("obs", payload, args.results_dir)
        serving = payload["serving"]
        fig11 = payload["fig11"]
        print(f"obs bench: {args.tenants} tenants rows={args.rows} "
              f"slots={args.slots} shards={shards} loss={args.loss}")
        print(f"  serving: off={serving['obs_off_seconds']:.3f}s "
              f"on={serving['obs_on_seconds']:.3f}s "
              f"overhead={serving['overhead_ratio']:.3f}x "
              f"({serving['span_events']} span events, "
              f"{serving['metric_names']} metrics)")
        print(f"  fig11 kernel: off={fig11['off_seconds']:.3f}s "
              f"on={fig11['on_seconds']:.3f}s "
              f"overhead={fig11['overhead_ratio']:.3f}x "
              f"({fig11['rows']} rows)")
        print(f"  decisions identical : {payload['decisions_identical']}")
        print(f"  exports identical   : {payload['exports_identical']}")
        if payload["decisions_identical"] is not True:
            print("  ERROR: obs-on decisions diverged from obs-off",
                  file=sys.stderr)
            return 1
        if payload["exports_identical"] is not True:
            print("  ERROR: repeated runs exported different bytes",
                  file=sys.stderr)
            return 1
        if payload["all_equivalent"] is not True:
            print("  ERROR: a tenant diverged from QueryPlan.run",
                  file=sys.stderr)
            return 1
    elif args.name == "fig11":
        payload = run_fig11_scale_bench(rows=args.rows, shards=args.shards,
                                        batch_size=args.batch_size,
                                        seed=args.seed)
        path = emit_bench_json("fig11", payload, args.results_dir)
        largest = payload["row_counts"][-1]
        print(f"fig11 scale bench: rows={largest} shards={args.shards}")
        for name, series in sorted(payload["algorithms"].items()):
            point = series[-1]
            print(f"  {name:10s} packet={point['packet_seconds']:.3f}s "
                  f"batch={point['batch_seconds']:.3f}s "
                  f"speedup={point['speedup']:.1f}x "
                  f"equivalent={point['equivalent']}")
        print(f"  overall speedup at largest row count: "
              f"{payload['overall_speedup_at_largest']:.1f}x")
        if payload["all_equivalent"] is False:
            print("  ERROR: batched decisions diverged from per-packet",
                  file=sys.stderr)
            return 1
    else:
        payload = run_fig5_bench(scale=args.scale, seed=args.seed,
                                 shards=args.shards)
        path = emit_bench_json("fig5", payload, args.results_dir)
        print(f"fig5 bench: scale={args.scale} shards={args.shards} "
              f"wall={payload['wall_seconds']:.2f}s "
              f"({len(payload['rows'])} query rows)")
    print(f"  -> saved {path}")
    return 0


def _profile(args) -> int:
    """``repro profile``: deterministic hot-path profile -> JSON."""
    from repro.bench.profile import run_hotpath_profile
    from repro.bench.runner import emit_bench_json
    from repro.obs import names

    try:
        payload = run_hotpath_profile(
            rows=args.rows, shards=args.shards,
            batch_size=args.batch_size, seed=args.seed,
            tenants=args.tenants, serve_rows=args.serve_rows)
    except ValueError as error:
        print(f"repro profile: {error}", file=sys.stderr)
        return 2
    path = emit_bench_json("hotpath", payload, args.results_dir,
                           prefix="PROFILE")
    codec = payload["codec_pipeline"]
    sched = payload["scheduler_loop"]
    print(f"hotpath profile: rows={payload['rows']} "
          f"shards={payload['shards']} "
          f"batch_size={payload['batch_size']}")
    print(f"  codec: {codec['packets']} packets, "
          f"{codec['bytes_on_wire']} wire bytes")
    for key in names.PROFILE_KERNEL_KEYS:
        kernel = codec[key]
        speedup = kernel.get("bulk_speedup", kernel.get("batched_speedup"))
        print(f"    {key:14s} stream/batched speedup={speedup:.2f}x")
    print(f"  scheduler: {sched['ticks']} ticks, {sched['entries']} "
          f"entries, {sched['served']} tenants served "
          f"(equivalent={sched['all_equivalent']})")
    for label, loop in (("codec", codec), ("scheduler", sched)):
        print(f"  top {label} hotspots (cumulative):")
        for row in loop["hotspots"][:4]:
            print(f"    {row['cumtime_seconds']:8.3f}s "
                  f"{row['calls']:>9} calls  {row['function']}")
    print(f"  -> saved {path}")
    return 0


def _sql_demo(statement: str) -> int:
    from repro.db import QueryPlanner, Table, execute, parse_sql

    products = Table.from_rows("Products", [
        {"name": "Burger", "seller": "McCheetah", "price": 4},
        {"name": "Pizza", "seller": "Papizza", "price": 7},
        {"name": "Fries", "seller": "McCheetah", "price": 2},
        {"name": "Jello", "seller": "JellyFish", "price": 5},
    ])
    ratings = Table.from_rows("Ratings", [
        {"name": "Pizza", "taste": 7, "texture": 5},
        {"name": "Cheetos", "taste": 8, "texture": 6},
        {"name": "Jello", "taste": 9, "texture": 4},
        {"name": "Burger", "taste": 5, "texture": 7},
        {"name": "Fries", "taste": 3, "texture": 3},
    ])
    tables = {"Products": products, "Ratings": ratings}
    query = parse_sql(statement)
    source = (tables if query.query_type == "join"
              else tables["Ratings" if "Ratings" in statement
                          else "Products"])
    run = QueryPlanner().plan(query).run(source)
    ground = execute(query, source)
    print(f"query type : {query.query_type}")
    print(f"forwarded  : {run.traffic.forwarded_entries}"
          f"/{run.traffic.first_pass_entries}")
    print(f"result     : {run.result.output}")
    print(f"matches direct execution: {run.result == ground}")
    return 0


def _serving_flags(loss=None, shards=None, slots=None, policy=None,
                   seed=0, slots_help="serving slots / QueryPack "
                   "budget") -> argparse.ArgumentParser:
    """The shared ``--loss/--shards/--slots/--policy/--seed`` parent.

    One definition point so the flags spell and behave identically
    across ``serve``/``replay``/``bench`` (the matrix of per-command
    defaults is documented in README.md).  A fresh parser per
    subcommand, because argparse ``parents=`` shares action objects —
    one subcommand's default would otherwise leak into the others.
    ``None`` defaults mean "resolved by the command" (e.g. replay
    falls back to the trace header).
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--loss", type=float, default=loss,
                        help="per-channel loss probability in [0, 1)")
    parent.add_argument("--shards", type=int, default=shards,
                        help="simulated switch pipelines to "
                        "hash-partition entries across")
    parent.add_argument("--slots", type=int, default=slots,
                        help=slots_help)
    parent.add_argument("--policy", default=policy,
                        help="QoS policy: fifo, tiers, "
                        "tiers-no-preempt, or a custom class spec "
                        "(see docs/QOS.md)")
    parent.add_argument("--seed", type=int, default=seed,
                        help="deterministic master seed")
    parent.add_argument("--congestion", choices=["fixed", "aimd"],
                        default="fixed",
                        help="transport mode: fixed retransmission "
                        "schedule (default) or AIMD rate control "
                        "(docs/CONGESTION.md)")
    parent.add_argument("--queue-capacity", type=int, default=None,
                        metavar="N",
                        help="switch ingress-queue slots per pipeline "
                        "(default: unbounded); finite queues tail-drop "
                        "and emit the AIMD congestion signal")
    return parent


def _obs_flags() -> argparse.ArgumentParser:
    """The shared observability parent: ``--metrics-out``,
    ``--span-out``, ``--log-level`` on run/serve/replay/chaos
    (docs/OBSERVABILITY.md).  Fresh parser per subcommand, same
    rationale as :func:`_serving_flags`."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="export the run's metrics as OpenMetrics "
                        "text (tick-domain timestamps; byte-identical "
                        "across identical seeded runs)")
    parent.add_argument("--span-out", default=None, metavar="PATH",
                        help="export per-query spans as Chrome "
                        "trace-event JSON (load in Perfetto / "
                        "chrome://tracing)")
    parent.add_argument("--log-level", default=None,
                        choices=["debug", "info", "warning", "error"],
                        help="attach a stderr handler to the repro.* "
                        "loggers at this level (default: silent)")
    return parent


def _configure_logging(args) -> None:
    """``--log-level``: one stderr handler on the package root.

    Without the flag the library's NullHandler keeps stderr clean
    (tests assert a default run emits nothing)."""
    level = getattr(args, "log_level", None)
    if level is None:
        return
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter(
        "%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger("repro")
    root.addHandler(handler)
    root.setLevel(getattr(logging, level.upper()))


def _make_obs(args):
    """Build the :class:`~repro.obs.Observability` a command should
    attach, or ``None`` when no export was requested (hooks then cost
    one ``is not None`` test per site)."""
    if args.metrics_out is None and args.span_out is None:
        return None
    from repro.obs import Observability

    return Observability(spans=args.span_out is not None)


def _write_obs(obs, args, tick=None) -> None:
    """Write the requested ``--metrics-out``/``--span-out`` files."""
    if obs is None:
        return
    if args.metrics_out:
        obs.write_metrics(args.metrics_out, tick=tick)
        print(f"  -> wrote metrics {args.metrics_out}")
    if args.span_out:
        obs.write_spans(args.span_out)
        print(f"  -> wrote spans {args.span_out}")


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser, every subcommand included."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cheetah reproduction: regenerate the paper's "
                    "tables and figures, or run a demo query.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser(
        "run", parents=[_obs_flags()],
        help="run experiments, or drive an end-to-end scenario "
        "through the simulated cluster (with --loss/--reorder)")
    run_parser.add_argument("names", nargs="+",
                            help="experiment ids, 'all', or e2e scenario "
                            "names (e.g. tpch_q3, distinct, join)")
    run_parser.add_argument("--results-dir", default="results")
    run_parser.add_argument("--loss", type=float, default=None,
                            help="e2e: per-channel loss probability in "
                            "[0, 1); selects the ClusterSimulation path")
    run_parser.add_argument("--reorder", type=int, default=None,
                            help="e2e: channel reorder window (bounded "
                            "displacement)")
    run_parser.add_argument("--shards", type=int, default=1,
                            help="e2e: simulated switch pipelines")
    run_parser.add_argument("--workers", type=int, default=4,
                            help="e2e: CWorker partitions per table")
    run_parser.add_argument("--rows", type=int, default=1200,
                            help="e2e: scenario input size")
    run_parser.add_argument("--mode",
                            choices=["pipelined", "sequential", "both"],
                            default="pipelined",
                            help="e2e: switch dispatch mode")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--congestion",
                            choices=["fixed", "aimd"], default="fixed",
                            help="e2e: transport mode "
                            "(docs/CONGESTION.md)")
    run_parser.add_argument("--queue-capacity", type=int, default=None,
                            metavar="N",
                            help="e2e: switch ingress-queue slots per "
                            "pipeline (default: unbounded)")

    sql_parser = sub.add_parser("sql", help="run a demo SQL query "
                                "through the Cheetah flow")
    sql_parser.add_argument("statement")
    sql_parser.add_argument("--demo-tables", action="store_true",
                            help="use the paper's Table 1 data")

    serve_parser = sub.add_parser(
        "serve",
        parents=[_serving_flags(
            loss=0.05, shards=1, policy="fifo",
            slots_help="serving slots / QueryPack budget "
                       "(default: one per tenant)"), _obs_flags()],
        help="serve N concurrent tenants through the multi-tenant "
        "QueryScheduler over shared simulated switches, or (with "
        "--listen) over a real asyncio TCP frontend speaking proto/v1")
    serve_parser.add_argument("--tenants", type=int, default=4,
                              help="number of concurrent tenants "
                              "(in-process mode; also the default "
                              "--slots)")
    serve_parser.add_argument("--listen", default=None,
                              metavar="[HOST:]PORT",
                              help="serve over TCP: accept proto/v1 "
                              "connections instead of generating "
                              "in-process tenants (port 0 = ephemeral)")
    serve_parser.add_argument("--max-queries", type=int, default=None,
                              help="socket mode: exit after this many "
                              "results (default: serve until "
                              "interrupted)")
    serve_parser.add_argument("--hold", type=int, default=0,
                              help="socket mode: batch the first N "
                              "submissions before admitting any, for "
                              "a deterministic tick domain under "
                              "racing clients")
    serve_parser.add_argument("--reorder", type=int, default=0,
                              help="channel reorder window")
    serve_parser.add_argument("--workers", type=int, default=4,
                              help="CWorker partitions per tenant table")
    serve_parser.add_argument("--rows", type=int, default=240,
                              help="rows per tenant scenario")
    serve_parser.add_argument("--mix", default=None,
                              help="comma-separated scenario names "
                              "tenants cycle through")
    serve_parser.add_argument("--arrival-stride", type=int, default=0,
                              help="ticks between tenant arrivals "
                              "(0 = all at start)")
    serve_parser.add_argument("--reject-when-full", action="store_true",
                              help="reject tenants arriving with no "
                              "free slot instead of queueing them")
    serve_parser.add_argument("--priorities", default=None,
                              help="comma-separated QoS class names "
                              "tenants cycle through (e.g. "
                              "interactive,batch)")
    serve_parser.add_argument("--record-trace", default=None,
                              metavar="PATH",
                              help="record the session's admissions as "
                              "a replayable v2 arrival trace")
    serve_parser.add_argument("--schedule", default=None, metavar="PATH",
                              help="inject faults from this JSON-lines "
                              "failure schedule (docs/CHAOS.md); works "
                              "in socket mode too")

    chaos_parser = sub.add_parser(
        "chaos",
        parents=[_serving_flags(
            loss=0.02, shards=3, policy="fifo",
            slots_help="serving slots (default: one per tenant)"),
            _obs_flags()],
        help="serve a tenant fleet under a seeded failure schedule "
        "(shard kills with checkpointed query migration, worker kills "
        "with window replay, channel degradation) and verify every "
        "survivor's result against its solo run (docs/CHAOS.md)")
    chaos_parser.add_argument("scenario",
                              help="scenario every tenant runs "
                              "(e.g. distinct, join, groupby_sum)")
    chaos_parser.add_argument("--tenants", type=int, default=4,
                              help="number of concurrent tenants")
    chaos_parser.add_argument("--rows", type=int, default=200,
                              help="rows per tenant scenario")
    chaos_parser.add_argument("--schedule", default=None, metavar="PATH",
                              help="JSON-lines failure schedule to "
                              "apply (alternative to generating one)")
    chaos_parser.add_argument("--gen", action="store_true",
                              help="synthesize a seeded schedule (the "
                              "default when no --schedule is given)")
    chaos_parser.add_argument("--kills", type=int, default=2,
                              help="generated schedule: kill events "
                              "(even kills hit shards, odd hit workers)")
    chaos_parser.add_argument("--out", default=None, metavar="PATH",
                              help="also save the applied schedule")
    chaos_parser.add_argument("--reorder", type=int, default=0,
                              help="channel reorder window")
    chaos_parser.add_argument("--workers", type=int, default=4,
                              help="CWorker partitions per tenant table")

    replay_parser = sub.add_parser(
        "replay",
        parents=[_serving_flags(slots=4), _obs_flags()],
        help="replay a recorded (or generated) JSON-lines "
        "query-arrival trace through the multi-tenant scheduler and "
        "report tail latency + slot occupancy (format: docs/TRACES.md; "
        "--loss/--shards/--policy default to the trace header / its "
        "priority hints)")
    replay_parser.add_argument("trace_file", nargs="?", default=None,
                               help="path to a JSON-lines trace "
                               "(alternative to --gen)")
    replay_parser.add_argument("--trace", dest="trace_opt", default=None,
                               help="path to a JSON-lines trace "
                               "(same as the positional)")
    replay_parser.add_argument("--gen",
                               choices=["poisson", "burst", "diurnal",
                                        "pareto"],
                               default=None,
                               help="synthesize a trace under this "
                               "arrival process instead of reading one")
    replay_parser.add_argument("--queries", type=int, default=8,
                               help="generated trace length")
    replay_parser.add_argument("--rows", type=int, default=120,
                               help="rows per generated query")
    replay_parser.add_argument("--mix", default=None,
                               help="comma-separated scenario names "
                               "generated queries cycle through")
    replay_parser.add_argument("--interarrival", type=float, default=30.0,
                               help="poisson/diurnal: mean gap between "
                               "arrivals in ticks")
    replay_parser.add_argument("--burst-size", type=int, default=4,
                               help="burst: simultaneous arrivals per "
                               "burst")
    replay_parser.add_argument("--burst-gap", type=int, default=120,
                               help="burst: ticks between bursts")
    replay_parser.add_argument("--period", type=int, default=240,
                               help="diurnal: ticks per rate cycle")
    replay_parser.add_argument("--alpha", type=float, default=1.5,
                               help="pareto: tail index (> 1; smaller "
                               "= heavier tail)")
    replay_parser.add_argument("--priorities", default=None,
                               help="comma-separated QoS class names "
                               "generated queries cycle through "
                               "(makes the trace version 2)")
    replay_parser.add_argument("--out", default=None,
                               help="also save the (generated) trace "
                               "to this path")
    replay_parser.add_argument("--reorder", type=int, default=0,
                               help="channel reorder window")
    replay_parser.add_argument("--workers", type=int, default=4,
                               help="CWorker partitions per tenant table")
    replay_parser.add_argument("--reject-when-full", action="store_true",
                               help="reject arrivals with no free slot "
                               "instead of queueing them")
    replay_parser.add_argument("--schedule", default=None,
                               metavar="PATH",
                               help="inject faults from this JSON-lines "
                               "failure schedule (docs/CHAOS.md)")

    bench_parser = sub.add_parser(
        "bench",
        parents=[_serving_flags(
            loss=0.05, shards=1,
            slots_help="serving-slot budget (replay: default 2; "
                       "qos: 3; load: 8)")],
        help="run a perf benchmark (batched vs per-packet "
        "dataplane; 'e2e' times the full simulated cluster; "
        "'concurrency' measures multi-tenant serving; 'replay' measures "
        "tail latency under trace-replay arrivals; 'qos' measures "
        "interactive p99 with vs without slot preemption; 'chaos' "
        "measures serving under seeded fault injection; 'load' "
        "drives a concurrent client swarm against a live socket "
        "server; 'obs' measures observability overhead and asserts "
        "obs-on decisions are bit-identical to obs-off) and emit "
        "BENCH_<name>.json")
    bench_parser.add_argument("name", choices=["fig5", "fig11", "e2e",
                                               "concurrency", "replay",
                                               "qos", "chaos", "load",
                                               "congestion", "obs"])
    bench_parser.add_argument("--rows", type=int, default=None,
                              help="largest stream length (fig11: "
                              "default 60000) or scenario size (e2e: "
                              "default 1200; concurrency: default 240; "
                              "qos: batch-tenant rows, default 260)")
    bench_parser.add_argument("--tenants", type=int, default=8,
                              help="concurrency: largest tenant count")
    bench_parser.add_argument("--queries", type=int, default=8,
                              help="replay: queries per generated trace")
    bench_parser.add_argument("--clients", type=int, default=256,
                              help="load: open-loop socket clients")
    bench_parser.add_argument("--process",
                              choices=["poisson", "burst", "diurnal",
                                       "pareto"],
                              default="poisson",
                              help="load: open-loop arrival process")
    bench_parser.add_argument("--closed-clients", type=int, default=16,
                              help="load: closed-loop connections "
                              "(0 skips the closed-loop phase)")
    bench_parser.add_argument("--closed-queries", type=int, default=2,
                              help="load: back-to-back queries per "
                              "closed-loop connection")
    bench_parser.add_argument("--kills", type=int, default=2,
                              help="chaos: kill events in the "
                              "generated failure schedule")
    bench_parser.add_argument("--reorder", type=int, default=2,
                              help="e2e/load: channel reorder window")
    bench_parser.add_argument("--batch-size", type=int, default=8192,
                              help="entries per batch on the batched path")
    bench_parser.add_argument("--scale", type=float, default=5e-4,
                              help="workload sampling scale (fig5)")
    bench_parser.add_argument("--results-dir", default=None,
                              help="output dir (default: results/)")

    profile_parser = sub.add_parser(
        "profile",
        help="profile the two serving hot loops (codec+offer_batch "
        "pipeline, scheduler tick loop) under cProfile with fixed "
        "seeds and emit PROFILE_hotpath.json "
        "(docs/PERFORMANCE.md)")
    profile_parser.add_argument("--rows", type=int, default=200_000,
                                help="packets through the codec+offer "
                                "pipeline")
    profile_parser.add_argument("--shards", type=int, default=4,
                                help="simulated switch pipelines")
    profile_parser.add_argument("--batch-size", type=int, default=8192,
                                help="entries per offer_batch call")
    profile_parser.add_argument("--seed", type=int, default=0,
                                help="deterministic master seed")
    profile_parser.add_argument("--tenants", type=int, default=4,
                                help="scheduler loop: concurrent "
                                "tenants")
    profile_parser.add_argument("--serve-rows", type=int, default=240,
                                help="scheduler loop: rows per tenant")
    profile_parser.add_argument("--results-dir", default=None,
                                help="output dir (default: results/)")

    p4_parser = sub.add_parser("p4", help="emit P4-style source for a "
                               "query type at its Table 2 defaults")
    p4_parser.add_argument("query_type",
                           choices=["distinct", "topn_det", "topn_rand",
                                    "groupby", "join", "having",
                                    "skyline", "filter"])

    obs_parser = sub.add_parser(
        "obs", help="inspect observability exports "
        "(docs/OBSERVABILITY.md)")
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    dump_parser = obs_sub.add_parser(
        "dump", help="summarize a --metrics-out OpenMetrics file or a "
        "--span-out Chrome trace on stdout")
    dump_parser.add_argument("file", help="path to a .prom exposition "
                             "or a trace-event JSON")
    return parser


def main(argv: List[str] = None) -> int:
    """CLI dispatch."""
    args = build_parser().parse_args(argv)
    _configure_logging(args)
    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            doc = (EXPERIMENTS[name].__doc__ or "").strip().splitlines()[0]
            print(f"{name:10s} {doc}")
        return 0
    if args.command == "run":
        return _run(args.names, args.results_dir, args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "replay":
        return _replay(args)
    if args.command == "chaos":
        return _chaos(args)
    if args.command == "bench":
        return _bench(args)
    if args.command == "profile":
        return _profile(args)
    if args.command == "sql":
        return _sql_demo(args.statement)
    if args.command == "p4":
        return _p4_demo(args.query_type)
    if args.command == "obs":
        return _obs_dump(args.file)
    return 2  # pragma: no cover


def _obs_dump(path: str) -> int:
    """``repro obs dump``: human summary of an observability export.

    Recognizes both file kinds by content, not extension: a Chrome
    trace (JSON object with ``traceEvents``) gets a per-track span
    summary, an OpenMetrics exposition gets its non-zero samples
    grouped by metric family.
    """
    import json

    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as error:
        print(f"repro obs: {error}", file=sys.stderr)
        return 2
    try:
        trace = json.loads(text)
    except ValueError:
        trace = None
    if isinstance(trace, dict) and "traceEvents" in trace:
        return _dump_trace(path, trace)
    if "# EOF" not in text:
        print(f"repro obs: {path} is neither a Chrome trace nor an "
              "OpenMetrics exposition", file=sys.stderr)
        return 2
    return _dump_openmetrics(path, text)


def _dump_trace(path: str, trace: Dict) -> int:
    events = trace["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    counters = [e for e in events if e.get("ph") == "C"]
    tracks = {e["tid"]: e["args"]["name"] for e in events
              if e.get("ph") == "M" and e.get("name") == "thread_name"}
    print(f"== trace {path}: {len(events)} events "
          f"({len(spans)} spans, {len(counters)} counter samples, "
          f"{len(tracks)} tracks) ==")
    by_track: Dict[str, List[Dict]] = {}
    for span in spans:
        by_track.setdefault(tracks.get(span["tid"], "?"),
                            []).append(span)
    for track in sorted(by_track):
        rows = by_track[track]
        last = max(e["ts"] + e["dur"] for e in rows)
        kinds: Dict[str, int] = {}
        for span in rows:
            kinds[span["name"]] = kinds.get(span["name"], 0) + 1
        detail = ", ".join(f"{name} x{count}" for name, count
                           in sorted(kinds.items()))
        print(f"  {track:12s} {len(rows):3d} spans through tick "
              f"{last}: {detail}")
    return 0


def _dump_openmetrics(path: str, text: str) -> int:
    families: Dict[str, List[str]] = {}
    types: Dict[str, str] = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            types[name] = kind
        elif line and not line.startswith("#"):
            name = line.split("{", 1)[0].split(" ", 1)[0]
            family = name
            for suffix in ("_bucket", "_sum", "_count"):
                base = name[:-len(suffix)] if name.endswith(suffix) else None
                if base and base in types:
                    family = base
                    break
            value = line.split(" ")[1]
            if value == "+Inf" or float(value) != 0.0:
                families.setdefault(family, []).append(line)
            else:
                families.setdefault(family, [])
    print(f"== metrics {path}: {len(types)} metrics, "
          f"{sum(len(v) for v in families.values())} non-zero "
          "samples ==")
    for family in sorted(types):
        samples = families.get(family, [])
        if not samples:
            continue
        print(f"  {family} ({types[family]})")
        for sample in samples:
            print(f"    {sample}")
    return 0


def _p4_demo(query_type: str) -> int:
    from repro.core.distinct import DistinctPruner
    from repro.core.expr import Col
    from repro.core.filtering import FilterPruner
    from repro.core.groupby import GroupByPruner
    from repro.core.having import HavingPruner
    from repro.core.join import JoinPruner
    from repro.core.skyline import SkylinePruner
    from repro.core.topn import TopNDeterministic, TopNRandomized
    from repro.switch.p4gen import generate_p4

    defaults = {
        "distinct": lambda: DistinctPruner(rows=4096, width=2),
        "topn_det": lambda: TopNDeterministic(n=250, thresholds=4),
        "topn_rand": lambda: TopNRandomized(n=250, rows=4096, width=4),
        "groupby": lambda: GroupByPruner(rows=4096, width=8),
        "join": lambda: JoinPruner(),
        "having": lambda: HavingPruner(threshold=1e6, width=1024, depth=3),
        "skyline": lambda: SkylinePruner(dimensions=2, width=10),
        "filter": lambda: FilterPruner(Col("c") > 0),
    }
    print(generate_p4(defaults[query_type]()))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
