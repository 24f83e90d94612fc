"""The :class:`Observability` facade the serving stack hooks into.

One instance bundles a :class:`~repro.obs.metrics.MetricsRegistry` and
(optionally) a :class:`~repro.obs.spans.SpanTracer`, pre-registers the
full metric catalog from :mod:`repro.obs.names`, and exposes the small
set of hook methods :class:`~repro.cluster.scheduler.ServingLoop`
calls.  Attach it via ``SchedulerConfig(obs=...)``; when the field is
``None`` (the default) every hook site is a single ``is not None``
test, so the instrumented loop and the bare loop run the same code.

Two invariants keep the §acceptance gates honest:

* **Read-only hooks.** No hook mutates scheduler, transport, or
  switch state, draws randomness, or reads a wall clock — so obs-on
  decisions are bit-identical to obs-off (CI sha256-compares them)
  and two identical seeded runs export byte-identical files.
* **Push on pass end, collect on read.**  Each wire pass builds a
  fresh :class:`~repro.cluster.simulation.ActiveTransfer` (fresh
  channels, workers, forwarder), so subsystem counters reset per
  pass.  ``ServingLoop`` calls :meth:`Observability.on_pass_end` as
  each pass finishes, which folds its totals into a per-tenant base
  (plain integers, no metric writes).  Everything that moves every
  tick — live transport and channel counters, channel-depth and rate
  gauges, shard stats, loop gauges — is computed only when the
  registry is read: a collector publishes ``base + live`` through
  :meth:`Counter.set_total`, so cumulative counters stay monotone
  across passes and the per-tick hook is a few integer additions.
"""

from __future__ import annotations

import logging
import weakref
from typing import Dict, List, Optional, Tuple

from . import names
from .metrics import MetricsRegistry
from .spans import SpanTracer

logger = logging.getLogger(__name__)

#: The three lossy channels of one wire pass, in publish order.
_CHANNELS = ("up", "down", "acks")


def _transfer_totals(transfer) -> Dict[str, int]:
    """Cumulative counters of one (possibly live) wire pass."""
    workers = transfer.workers.values()
    controllers = transfer.controllers.values()
    totals = {
        "retransmissions": sum(w.retransmissions for w in workers),
        "timer_scans": sum(w.timer_scans for w in workers),
        "queue_signals": sum(c.queue_signals for c in controllers),
        "loss_events": sum(c.loss_events for c in controllers),
        "switch_offers": transfer.switch.pruned + transfer.switch.forwarded,
        "switch_prunes": transfer.switch.pruned,
        "duplicates": transfer.master.duplicates,
    }
    for channel_name in _CHANNELS:
        channel = getattr(transfer, channel_name)
        totals[f"{channel_name}_sent"] = channel.sent
        totals[f"{channel_name}_dropped"] = channel.dropped
        totals[f"{channel_name}_tail_dropped"] = channel.tail_dropped
    return totals


def _transfer_gauges(transfer) -> Tuple[Dict[str, int], Dict]:
    """Channel depths and per-flow ``(rate, peak rate)`` of a pass."""
    depth = {name: getattr(transfer, name).pending() for name in _CHANNELS}
    rates = {fid: (controller.rate, controller.peak_rate)
             for fid, controller in transfer.controllers.items()}
    return depth, rates


class Observability:
    """Metrics + spans for one serving run (``SchedulerConfig.obs``).

    ``spans=False`` keeps only the metrics registry — span bookkeeping
    (one event per pass and per lifecycle transition, plus two counter
    samples per tick) is the more voluminous half.
    """

    def __init__(self, metrics: bool = True, spans: bool = False):
        if not metrics:
            raise ValueError("the metrics registry is not optional; "
                             "disable observability by passing obs=None")
        self.registry = MetricsRegistry()
        self.tracer: Optional[SpanTracer] = SpanTracer() if spans else None
        #: tenant index -> folded pass state of each admitted tenant
        #: still in service (see module docstring); dropped when the
        #: tenant completes or fails.
        self._state: Dict[int, Dict] = {}
        #: QoS class -> DRR service steps, published on read.
        self._service: Dict[str, int] = {}
        #: Weak reference to the
        #: :class:`~repro.cluster.scheduler.ServingLoop` the collector
        #: reads (set by :meth:`attach`).  Weak, so the registry does
        #: not keep a finished loop alive: :meth:`finalize` collects
        #: its last state, which later reads keep showing.
        self._loop = lambda: None
        self._finalized = False
        self._register()
        self.registry.register_collector(self._collect)

    def _register(self) -> None:
        """Pre-register the full catalog (docs/OBSERVABILITY.md), so
        the exported metric *names* are identical for every run — a
        scenario that never preempts still exports the preemption
        counter's HELP/TYPE header."""
        r = self.registry
        self.sched_tick = r.gauge(
            names.SCHED_TICK, "Serving-loop tick at export time.")
        self.sched_occupancy = r.gauge(
            names.SCHED_OCCUPANCY, "Slots held by admitted tenants.")
        self.sched_queue_depth = r.gauge(
            names.SCHED_QUEUE_DEPTH, "Tenants queued for admission.")
        self.sched_suspended = r.gauge(
            names.SCHED_SUSPENDED, "Tenants preempted and suspended.")
        self.sched_active = r.gauge(
            names.SCHED_ACTIVE, "Tenants in service.")
        self.sched_admissions = r.counter(
            names.SCHED_ADMISSIONS, "Tenants admitted.", ("qos_class",))
        self.sched_completions = r.counter(
            names.SCHED_COMPLETIONS, "Tenants served to completion.",
            ("qos_class",))
        self.sched_rejections = r.counter(
            names.SCHED_REJECTIONS, "Tenants rejected at admission.",
            ("qos_class",))
        self.sched_preemptions = r.counter(
            names.SCHED_PREEMPTIONS, "Tenants preempted (suspended).",
            ("qos_class",))
        self.sched_resumes = r.counter(
            names.SCHED_RESUMES, "Suspended tenants resumed.",
            ("qos_class",))
        self.sched_service = r.counter(
            names.SCHED_SERVICE,
            "DRR service steps (tenant-ticks advanced).", ("qos_class",))
        self.query_latency = r.histogram(
            names.QUERY_LATENCY,
            "Arrival-to-completion latency in ticks.", ("qos_class",))
        self.query_wait = r.histogram(
            names.QUERY_WAIT,
            "Arrival-to-admission wait in ticks.", ("qos_class",))
        self.transport_retransmissions = r.counter(
            names.TRANSPORT_RETRANSMISSIONS,
            "Worker retransmissions (timeout-driven resends).",
            ("tenant",))
        self.transport_timer_scans = r.counter(
            names.TRANSPORT_TIMER_SCANS,
            "Retransmission-timer scans.", ("tenant",))
        self.transport_queue_signals = r.counter(
            names.TRANSPORT_QUEUE_SIGNALS,
            "AIMD multiplicative decreases (queue feedback).",
            ("tenant",))
        self.transport_loss_events = r.counter(
            names.TRANSPORT_LOSS_EVENTS,
            "AIMD loss events (timeout feedback).", ("tenant",))
        self.transport_rate = r.gauge(
            names.TRANSPORT_RATE,
            "AIMD send rate per flow (packets/tick).",
            ("tenant", "fid"))
        self.transport_rate_peak = r.gauge(
            names.TRANSPORT_RATE_PEAK,
            "Peak AIMD send rate per flow (packets/tick).",
            ("tenant", "fid"))
        self.channel_depth = r.gauge(
            names.CHANNEL_DEPTH, "In-flight packets queued per channel.",
            ("tenant", "channel"))
        self.channel_sent = r.counter(
            names.CHANNEL_SENT, "Packets accepted per channel.",
            ("tenant", "channel"))
        self.channel_drops = r.counter(
            names.CHANNEL_DROPS, "Packets lost per channel.",
            ("tenant", "channel"))
        self.channel_tail_drops = r.counter(
            names.CHANNEL_TAIL_DROPS,
            "Packets tail-dropped by finite ingress queues.",
            ("tenant", "channel"))
        self.switch_offers = r.counter(
            names.SWITCH_OFFERS,
            "Entries offered to the switch stage.", ("tenant",))
        self.switch_prunes = r.counter(
            names.SWITCH_PRUNES,
            "Entries pruned (switch-ACKed) in the data plane.",
            ("tenant",))
        self.switch_shard_offered = r.gauge(
            names.SWITCH_SHARD_OFFERED,
            "Entries offered per physical shard.", ("shard",))
        self.switch_shard_pruned = r.gauge(
            names.SWITCH_SHARD_PRUNED,
            "Entries pruned per physical shard.", ("shard",))
        self.switch_installed = r.gauge(
            names.SWITCH_INSTALLED,
            "Queries installed on the shared data plane.")
        self.switch_live_shards = r.gauge(
            names.SWITCH_LIVE_SHARDS,
            "Physical pipelines currently serving.")
        self.chaos_events = r.counter(
            names.CHAOS_EVENTS, "Chaos events applied.", ("event",))
        self.chaos_migrations = r.counter(
            names.CHAOS_MIGRATIONS,
            "Queries migrated off killed shards.")
        self.chaos_restored = r.counter(
            names.CHAOS_RESTORED,
            "Refugee queries restored to restarted shards.")
        self.chaos_replayed = r.counter(
            names.CHAOS_REPLAYED_PACKETS,
            "Unacked window packets replayed after worker kills.")
        self.chaos_recovery = r.counter(
            names.CHAOS_RECOVERY_TICKS,
            "Ticks spent in worker-kill recovery.")

    # -- lifecycle hooks (called by ServingLoop) -------------------------------
    def attach(self, loop) -> None:
        """Read ``loop`` whenever the registry is read (the serving
        loop attaches itself at construction)."""
        self._loop = weakref.ref(loop)

    def on_admit(self, run, tick: int) -> None:
        cls = run.qos_class.name
        self.sched_admissions.inc(qos_class=cls)
        wait = tick - run.spec.arrival_tick
        self.query_wait.observe(wait, qos_class=cls)
        if run.current is not None:
            self._state[run.index] = {
                "run": run, "base": {}, "depth": {}, "rates": {},
                "pass_start": tick, "pass_no": 1}
        if self.tracer is None:
            return
        tenant = run.spec.tenant
        if wait > 0:
            self.tracer.record(
                names.SPAN_QUEUE, run.spec.arrival_tick, tick,
                track=tenant, cat=names.CAT_SCHEDULER,
                tenant=tenant, qos_class=cls)
        self.tracer.begin(
            ("service", run.index), names.SPAN_SERVICE, tick,
            track=tenant, cat=names.CAT_SCHEDULER, tenant=tenant,
            qos_class=cls, slots=run.spec.slots,
            scenario=run.spec.scenario)

    def on_complete(self, run, tick: int) -> None:
        cls = run.qos_class.name
        self.sched_completions.inc(qos_class=cls)
        self.query_latency.observe(tick - run.spec.arrival_tick,
                                   qos_class=cls)
        self._retire(run)
        if self.tracer is not None:
            self.tracer.end(("service", run.index), tick,
                            passes=len(run.passes))

    def on_fail(self, run, tick: int) -> None:
        self._retire(run)
        if self.tracer is not None:
            self.tracer.end(("service", run.index), tick,
                            passes=len(run.passes), failed=True)

    def on_reject(self, run, tick: int) -> None:
        self.sched_rejections.inc(qos_class=run.qos_class.name)
        if self.tracer is not None:
            self.tracer.instant(
                names.SPAN_REJECT, tick, track=run.spec.tenant,
                cat=names.CAT_SCHEDULER, tenant=run.spec.tenant,
                qos_class=run.qos_class.name, reason=run.reason)

    def on_preempt(self, victim, tick: int, by=None) -> None:
        self.sched_preemptions.inc(qos_class=victim.qos_class.name)
        if self.tracer is not None:
            self.tracer.begin(
                ("suspend", victim.index), names.SPAN_SUSPEND, tick,
                track=victim.spec.tenant, cat=names.CAT_SCHEDULER,
                tenant=victim.spec.tenant,
                preempted_by="" if by is None else by.spec.tenant)

    def on_resume(self, run, tick: int) -> None:
        self.sched_resumes.inc(qos_class=run.qos_class.name)
        if self.tracer is not None:
            self.tracer.end(("suspend", run.index), tick)

    def on_chaos(self, records: List[Dict], tick: int,
                 controller) -> None:
        for record in records:
            event = str(record.get("event", "unknown"))
            self.chaos_events.inc(event=event)
            logger.info("chaos event %s at tick %d", event, tick)
            if self.tracer is not None:
                args = {}
                for key, value in sorted(record.items()):
                    if key in ("name", "tick", "track", "cat"):
                        key = f"event_{key}"  # instant() params
                    if isinstance(value, (bool, int, float, str)):
                        args[key] = value
                    elif isinstance(value, (list, tuple, dict, set)):
                        args[key] = len(value)
                self.tracer.instant(event, tick, track="chaos",
                                    cat=names.CAT_CHAOS, **args)
        # The controller's totals only move while events apply.
        self.chaos_migrations.set_total(controller.migrations)
        self.chaos_restored.set_total(controller.restored)
        self.chaos_replayed.set_total(controller.replayed_packets)
        self.chaos_recovery.set_total(controller.recovery_ticks)

    def on_pass_end(self, run, tick: int) -> None:
        """Fold the pass ``run`` just finished (``run.current``, before
        the next pass begins) into the tenant's base, keep
        its final depth and rate readings, and (with spans on) record
        its ``pass:`` span.  Plain integer work: no metric writes."""
        state = self._state[run.index]
        transfer = run.current
        totals = _transfer_totals(transfer)
        base = state["base"]
        for key, value in totals.items():
            base[key] = base.get(key, 0) + value
        state["depth"], rates = _transfer_gauges(transfer)
        state["rates"].update(rates)
        if self.tracer is not None:
            self._record_pass(state, transfer, totals, tick)
        state["pass_start"] = tick
        state["pass_no"] += 1

    def on_service_tick(self, loop, tick: int, stepped) -> None:
        """End-of-tick hook: count DRR service steps per class and,
        with spans on, sample the occupancy and queue-depth tracks.
        Everything else is read by the collector on demand."""
        service = self._service
        for run in stepped:
            name = run.qos_class.name
            service[name] = service.get(name, 0) + 1
        if self.tracer is not None:
            self.tracer.counter(
                names.COUNTER_OCCUPANCY, tick,
                {"slots": sum(run.spec.slots for run in loop.active)})
            self.tracer.counter(names.COUNTER_QUEUE_DEPTH, tick,
                                {"tenants": len(loop.waiting)})

    # -- collect on read -------------------------------------------------------
    def _collect(self) -> None:
        """Registry collector: publish the attached loop as it is now."""
        loop = self._loop()
        if loop is None:
            return
        self.sched_tick.set(loop.tick)
        self.sched_occupancy.set(sum(run.spec.slots
                                     for run in loop.active))
        self.sched_queue_depth.set(len(loop.waiting))
        self.sched_suspended.set(len(loop.suspended))
        self.sched_active.set(len(loop.active))
        for name, steps in self._service.items():
            self.sched_service.set_total(steps, qos_class=name)
        for state in self._state.values():
            self._publish(state, state["run"].current)
        self._collect_frontend(loop.frontend)

    def _retire(self, run) -> None:
        """Publish a finished tenant's final totals and drop its state."""
        state = self._state.pop(run.index, None)
        if state is not None:
            self._publish(state, None)

    def _publish(self, state: Dict, live) -> None:
        """Publish one tenant's folded totals plus those of ``live``
        (its in-flight pass, or ``None``), and its channel-depth and
        rate gauges: the live pass's, over the last finished pass's."""
        tenant = state["run"].spec.tenant
        totals = dict(state["base"])
        depth, rates = state["depth"], state["rates"]
        if live is not None:
            for key, value in _transfer_totals(live).items():
                totals[key] = totals.get(key, 0) + value
            depth, live_rates = _transfer_gauges(live)
            rates = {**rates, **live_rates}

        def total(key: str) -> int:
            return totals.get(key, 0)

        self.transport_retransmissions.set_total(
            total("retransmissions"), tenant=tenant)
        self.transport_timer_scans.set_total(
            total("timer_scans"), tenant=tenant)
        self.transport_queue_signals.set_total(
            total("queue_signals"), tenant=tenant)
        self.transport_loss_events.set_total(
            total("loss_events"), tenant=tenant)
        self.switch_offers.set_total(total("switch_offers"),
                                     tenant=tenant)
        self.switch_prunes.set_total(total("switch_prunes"),
                                     tenant=tenant)
        for channel_name in _CHANNELS:
            self.channel_sent.set_total(
                total(f"{channel_name}_sent"),
                tenant=tenant, channel=channel_name)
            self.channel_drops.set_total(
                total(f"{channel_name}_dropped"),
                tenant=tenant, channel=channel_name)
            self.channel_tail_drops.set_total(
                total(f"{channel_name}_tail_dropped"),
                tenant=tenant, channel=channel_name)
        for channel_name, pending in depth.items():
            self.channel_depth.set(pending, tenant=tenant,
                                   channel=channel_name)
        for fid, (rate, peak) in rates.items():
            self.transport_rate.set(rate, tenant=tenant, fid=fid)
            self.transport_rate_peak.set(peak, tenant=tenant, fid=fid)

    def _record_pass(self, state: Dict, transfer, totals: Dict[str, int],
                     tick: int, **extra) -> None:
        """The ``pass:`` span of ``transfer``, from the tick it began."""
        run = state["run"]
        request = transfer.request
        self.tracer.record(
            names.SPAN_PASS_PREFIX + request.name,
            state["pass_start"], tick,
            track=run.spec.tenant, cat=names.CAT_TRANSPORT,
            tenant=run.spec.tenant, pass_no=state["pass_no"],
            fids=len(transfer.workers),
            entries=sum(len(s) for s in request.streams.values()),
            ticks=transfer.ticks,
            retransmissions=totals["retransmissions"],
            tail_drops=sum(totals[f"{c}_tail_dropped"]
                           for c in _CHANNELS),
            drops=sum(totals[f"{c}_dropped"] for c in _CHANNELS),
            pruned=totals["switch_prunes"],
            offered=totals["switch_offers"],
            duplicates=totals["duplicates"], **extra)

    def _collect_frontend(self, frontend) -> None:
        self.switch_installed.set(len(frontend.installed_queries()))
        per_shard_stats = getattr(frontend, "per_shard_stats", None)
        if per_shard_stats is None:
            self.switch_live_shards.set(1)
            return
        for shard, stats in enumerate(per_shard_stats()):
            self.switch_shard_offered.set(stats.offered, shard=shard)
            self.switch_shard_pruned.set(stats.pruned, shard=shard)
        self.switch_live_shards.set(len(frontend.live_shards))

    # -- end of run ------------------------------------------------------------
    def finalize(self, loop) -> None:
        """Close open spans (a pass still in flight gets a truncated
        ``pass:`` span) and publish the loop's final state.
        Idempotent — the socket server and the synchronous
        ``QueryScheduler.serve`` may both reach it."""
        if self._finalized:
            return
        tick = loop.tick
        if self.tracer is not None:
            for state in self._state.values():
                transfer = state["run"].current
                if transfer is not None:
                    self._record_pass(state, transfer,
                                      _transfer_totals(transfer), tick,
                                      truncated=True)
            self.tracer.finalize(tick)
        self.registry.collect()
        self._finalized = True
        logger.debug("observability finalized at tick %d", tick)

    # -- post-hoc ingestion (solo `repro run` / e2e path) ----------------------
    def ingest_simulation_report(self, report, track: str = "run") -> None:
        """Populate metrics and pass spans from a finished solo
        :class:`~repro.cluster.simulation.SimulationReport`.

        The solo ``ClusterSimulation`` drives each pass to completion
        internally (no shared tick loop to hook), so ``repro run``
        exports are reconstructed from the per-pass accounting; pass
        spans lay out back-to-back on the summed tick axis, and
        channel counters (aggregated across the three channels in
        :class:`PassStats`) use the ``all`` channel label.
        """
        cursor = 0
        for index, stats in enumerate(report.passes):
            start = cursor
            cursor += stats.ticks
            self.transport_retransmissions.inc(stats.retransmissions,
                                               tenant=track)
            self.switch_offers.inc(
                stats.switch_pruned + stats.switch_forwarded,
                tenant=track)
            self.switch_prunes.inc(stats.switch_pruned, tenant=track)
            self.channel_sent.inc(stats.packets_sent,
                                  tenant=track, channel="all")
            self.channel_drops.inc(stats.packets_dropped,
                                   tenant=track, channel="all")
            if self.tracer is not None:
                self.tracer.record(
                    names.SPAN_PASS_PREFIX + stats.name, start, cursor,
                    track=track, cat=names.CAT_TRANSPORT,
                    tenant=track, pass_no=index + 1,
                    entries=stats.entries, delivered=stats.delivered,
                    ticks=stats.ticks,
                    retransmissions=stats.retransmissions,
                    pruned=stats.switch_pruned,
                    duplicates=stats.master_duplicates,
                    drops=stats.packets_dropped)
        self.sched_tick.set(cursor)
        if self.tracer is not None:
            self.tracer.finalize(cursor)

    # -- exports ---------------------------------------------------------------
    def write_metrics(self, path: str,
                      tick: Optional[int] = None) -> None:
        self.registry.write(path, tick=tick)

    def write_spans(self, path: str) -> None:
        if self.tracer is None:
            logger.warning(
                "span output %s requested but span tracing is off", path)
            return
        self.tracer.write(path)


__all__ = ["Observability"]
