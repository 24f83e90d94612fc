"""Multi-tenant concurrent query serving over shared switches.

The §6 multi-query machinery (the :class:`~repro.core.multiquery.QueryPack`
slot model) exists because reprogramming a Tofino takes upwards of a
minute: many queries must share the scarce PISA pipeline concurrently.
This module drives that machinery at cluster scale.
:class:`QueryScheduler` admits N simultaneous tenants (each a named
scenario from the end-to-end suite), packs their compiled queries into
one *shared* switch frontend, and interleaves their packet streams
through a single event loop under loss and reordering — with every
tenant's result still identical to its solo ``QueryPlan.run``.

Scheduling model (specified in ``docs/SCHEDULER.md``):

* **Admission** — a tenant arrives at ``spec.arrival_tick`` and is
  admitted when a serving slot is free; with ``queue_when_full=False``
  it is rejected on arrival instead of waiting.  A tenant whose
  compiled query cannot be packed into the shared switch at all
  (``ResourceExhausted`` / ``CompilationError`` on its first install)
  is rejected with the packer's reason.
* **Resource arbitration** — every admitted tenant installs its query
  into the shared :class:`~repro.switch.controlplane.ControlPlane` (or
  :class:`~repro.cluster.runtime.ShardedSwitchFrontend`).  The pack
  validates the packed §6 footprint (stages max-combine; ALU, SRAM,
  TCAM, and metadata add) *and* the slot budget (``slots``, forwarded
  as the frontend's ``max_slots``) on each install; drivers uninstall
  the moment a pass group completes, releasing the slot to waiting
  tenants.
* **QoS** (``docs/QOS.md``) — every admission and service decision
  consults the configured :class:`~repro.cluster.qos.QosPolicy`:
  waiting tenants are admitted highest class priority first, slot
  *reservations* hold floors per class, and (when enabled) an arriving
  strictly-higher-priority tenant may *preempt* a preemptible tenant
  mid-pass — the victim's installed queries are checkpointed out of
  the data plane with their pruner state intact and resumed later with
  a byte-identical final result.
* **Fairness** — each global tick, deficit round robin
  (:class:`~repro.cluster.qos.DeficitRoundRobin`) picks which active
  tenants' in-flight passes advance one protocol tick, proportional to
  class weight (uniform weights = everyone, the pre-QoS behavior), and
  the service order *rotates* so no tenant systematically reaches the
  switch's ``offer_batch`` first.

Why interleaving is safe: every tenant's pruner state lives behind its
own flow id inside the pack (stateful queries never observe other
flows' packets), so the shared switch makes the same decisions it would
make solo; superset safety plus the §7.2 reliability protocol then give
result identity with the functional path regardless of loss, reorder,
shard count, or how tenants' batches interleave.  This is
property-tested in ``tests/test_scheduler.py`` and exercised by
``repro serve`` / ``repro bench concurrency``.

Every ``serve`` run additionally collects :class:`SchedulerTelemetry`
— a per-tick probe of slot occupancy, queue depth, and admission
outcomes — from which :class:`ScheduleReport` derives p50/p95/p99
arrival-to-completion latency, mean/peak occupancy, and the rejection
timeline.  :func:`replay_trace` feeds a recorded arrival trace
(``repro.workloads.traces``, see ``docs/TRACES.md``) through the same
loop: that is the ``repro replay`` / ``repro bench replay`` surface,
where tail latency under Poisson, bursty, and diurnal arrivals is the
measured claim.
"""

from __future__ import annotations

import bisect
import dataclasses
import logging
import math
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.cluster.qos import (
    DeficitRoundRobin,
    PriorityClass,
    QosPolicy,
    fifo_policy,
    plan_preemption,
)
from repro.cluster.runtime import ShardedSwitchFrontend
from repro.cluster.simulation import (
    MAX_TICKS,
    TRANSPORT_FIELDS,
    ActiveTransfer,
    ClusterSimulation,
    PassStats,
    SimulationConfig,
    SimulationError,
    TransportConfig,
    build_scenario,
)
from repro.db.executor import ExecutionResult
from repro.switch.compiler import CompilationError
from repro.switch.controlplane import ControlPlane
from repro.switch.resources import (
    ResourceExhausted,
    SwitchModel,
    TOFINO_MODEL,
)
from repro.workloads.traces import DEFAULT_MIX, TenantSpec

logger = logging.getLogger(__name__)

#: Seed stride between tenants, decorrelating their channel RNG draws.
_TENANT_SEED_STRIDE = 1009


@dataclasses.dataclass
class SchedulerConfig(TransportConfig):
    """Knobs of one multi-tenant serving run: the shared transport
    (:class:`~repro.cluster.simulation.TransportConfig`, applied to
    every tenant) plus the serving knobs.

    ``slots`` is the concurrent-tenant budget, enforced twice: the
    scheduler never admits more tenants than slots, and the shared
    frontend's ``max_slots`` makes the data plane itself reject
    over-admission.  ``queue_when_full=False`` turns slot contention
    into admission rejection instead of queueing.  ``policy`` is the
    QoS policy the scheduler consults at every admission and service
    decision (default :func:`~repro.cluster.qos.fifo_policy`, which is
    byte-identical to the pre-QoS scheduler); its slot reservations
    must fit within ``slots``.  Under ``congestion="aimd"`` each
    tenant's streams are paced by
    :class:`~repro.net.congestion.RateController` instances weighted
    by the tenant's resolved QoS class, so interactive tenants
    converge to proportionally higher goodput under contention.
    """

    slots: int = 4
    queue_when_full: bool = True
    policy: QosPolicy = dataclasses.field(default_factory=fifo_policy)
    switch: SwitchModel = TOFINO_MODEL
    #: Optional :class:`~repro.obs.Observability` sink.  When set, the
    #: serving loop reports lifecycle events and pass ends to it, and
    #: it reads transport / data-plane counters off the loop whenever
    #: its registry is read (docs/OBSERVABILITY.md).
    #: Strictly read-only with respect to scheduling state: obs-on
    #: decisions are bit-identical to the default ``None`` (no-op).
    obs: Optional[Any] = dataclasses.field(default=None, repr=False,
                                           compare=False)

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots}")
        self.policy.validate_slots(self.slots)
        super().__post_init__()

    def tenant_simulation_config(self, index: int,
                                 rate_weight: float = 1.0
                                 ) -> SimulationConfig:
        """The :class:`SimulationConfig` tenant ``index`` runs under.

        The transport fields carry over unchanged, except that each
        tenant gets a decorrelated channel seed and a disjoint flow-id
        range (``fid_base``), so concurrent flows are globally
        distinguishable on the wire.  ``rate_weight`` is the tenant's
        resolved QoS-class weight, mapped onto its streams' AIMD
        controllers when ``congestion == "aimd"`` (ignored under the
        fixed schedule).  ``repro bench concurrency`` uses the same
        configs for its solo baselines, making solo-vs-shared
        latencies directly comparable.
        """
        transport = {name: getattr(self, name) for name in TRANSPORT_FIELDS}
        transport["seed"] = self.seed + _TENANT_SEED_STRIDE * index
        return SimulationConfig(
            **transport,
            fid_base=index * (self.workers + self.shards),
            rate_weight=rate_weight,
        )


def _percentile(values: Sequence[int], fraction: float) -> int:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


@dataclasses.dataclass(frozen=True)
class TelemetrySample:
    """One per-tick probe of the serving loop.

    ``occupancy`` counts the serving slots held by admitted tenants
    during this tick (a tenant's ``spec.slots``, summed);
    ``serviced`` the tenants whose in-flight passes the loop actually
    stepped — under the default single-class policy every slot holder
    steps every tick, so the two only diverge when DRR weights skip a
    slot-holding tenant; ``queue_depth`` the tenants waiting for a
    slot.  The event counters record events stamped with *exactly*
    this tick, so they correlate one-to-one with
    ``TenantReport.admitted_tick`` / ``completed_tick`` and
    ``RejectionEvent.tick`` (admissions happen between service steps:
    a tenant admitted at tick ``t`` first advances — and is first
    counted in ``occupancy`` — at ``t + 1``).  Ticks where nothing
    happened (the scheduler idling toward a far-future arrival)
    produce no sample; their occupancy is zero by construction.
    """

    tick: int
    occupancy: int
    queue_depth: int
    admitted: int
    completed: int
    rejected: int
    #: Tenants whose passes advanced this tick (DRR-selected).
    serviced: int = 0
    #: Tenants sitting preempted (checkpointed, slotless) this tick.
    suspended: int = 0
    #: Preemptions / resumes stamped with exactly this tick.
    preempted: int = 0
    resumed: int = 0


@dataclasses.dataclass(frozen=True)
class RejectionEvent:
    """One admission rejection: when, who, and the packer's reason."""

    tick: int
    tenant: str
    reason: str


@dataclasses.dataclass(frozen=True)
class PreemptionEvent:
    """One preemption-state transition on the QoS timeline.

    ``kind`` is ``"preempt"`` (``tenant`` was suspended to make room
    for the arriving ``by``) or ``"resume"`` (``tenant`` re-entered
    service; ``by`` is empty).
    """

    tick: int
    tenant: str
    by: str
    kind: str


@dataclasses.dataclass
class SchedulerTelemetry:
    """Per-tick probe data collected by :meth:`QueryScheduler.serve`.

    The samples are the raw occupancy/queue/admission time series;
    :class:`ScheduleReport` derives the headline latency percentiles
    and occupancy statistics from them.  ``occupancy_timeline``
    downsamples the series into a bounded number of buckets for
    rendering (bench JSON, ``docs/RESULTS.md``).
    """

    slots: int
    samples: List[TelemetrySample] = dataclasses.field(
        default_factory=list)
    rejections: List[RejectionEvent] = dataclasses.field(
        default_factory=list)
    preemptions: List[PreemptionEvent] = dataclasses.field(
        default_factory=list)

    @property
    def peak_occupancy(self) -> int:
        """Most slots simultaneously held during any sampled tick."""
        return max((s.occupancy for s in self.samples), default=0)

    @property
    def peak_queue_depth(self) -> int:
        """Deepest the admission queue ever got."""
        return max((s.queue_depth for s in self.samples), default=0)

    def occupancy_integral(self) -> int:
        """Sum of occupancy over sampled ticks (slot-ticks of service).
        Unsampled (idle) ticks contribute zero, so dividing by the
        makespan gives the time-weighted mean occupancy."""
        return sum(s.occupancy for s in self.samples)

    def occupancy_timeline(self, buckets: int = 24) -> List[Dict]:
        """The occupancy series downsampled to at most ``buckets``
        equal-width tick ranges: per bucket the mean/max occupancy and
        max queue depth.  Deterministic; empty when nothing ran."""
        if not self.samples or buckets < 1:
            return []
        span = self.samples[-1].tick
        width = max(1, math.ceil(span / buckets))
        timeline: List[Dict] = []
        grouped: Dict[int, List[TelemetrySample]] = {}
        for sample in self.samples:
            grouped.setdefault(max(sample.tick - 1, 0) // width,
                               []).append(sample)
        for index in sorted(grouped):
            bucket = grouped[index]
            # Mean over the *bucket width*: unsampled ticks are idle.
            ticks_in_bucket = min(width, span - index * width)
            timeline.append({
                "until_tick": min((index + 1) * width, span),
                "mean_occupancy": round(
                    sum(s.occupancy for s in bucket)
                    / max(ticks_in_bucket, 1), 4),
                "max_occupancy": max(s.occupancy for s in bucket),
                "max_queue_depth": max(s.queue_depth for s in bucket),
            })
        return timeline


@dataclasses.dataclass
class TenantReport:
    """Outcome of one tenant's stay in the scheduler."""

    spec: TenantSpec
    #: ``served`` | ``rejected`` | ``failed`` (mid-run install error).
    status: str
    reason: str = ""
    result: Optional[ExecutionResult] = None
    #: ``result == QueryPlan.run(...)``; None when unchecked/unserved.
    equivalent: Optional[bool] = None
    admitted_tick: Optional[int] = None
    completed_tick: Optional[int] = None
    passes: List[PassStats] = dataclasses.field(default_factory=list)
    #: Resolved QoS class name (the policy default when unhinted).
    qos_class: str = ""
    #: Times this tenant was preempted (suspended mid-pass).
    preemptions: int = 0
    #: Global ticks spent suspended between preemption and resume.
    suspended_ticks: int = 0

    @property
    def wait_ticks(self) -> Optional[int]:
        """Ticks spent queued between arrival and admission."""
        if self.admitted_tick is None:
            return None
        return self.admitted_tick - self.spec.arrival_tick

    @property
    def service_ticks(self) -> Optional[int]:
        """Ticks between admission and completion."""
        if self.completed_tick is None or self.admitted_tick is None:
            return None
        return self.completed_tick - self.admitted_tick

    @property
    def latency_ticks(self) -> Optional[int]:
        """End-to-end latency the tenant observed: arrival (not
        admission) to completion, so queueing delay is included."""
        if self.completed_tick is None or self.status != "served":
            return None
        return self.completed_tick - self.spec.arrival_tick

    @property
    def entries(self) -> int:
        """Unique entries this tenant offered to the wire."""
        return sum(p.entries for p in self.passes)

    @property
    def delivered(self) -> int:
        """Entries of this tenant that reached the master."""
        return sum(p.delivered for p in self.passes)


@dataclasses.dataclass
class ScheduleReport:
    """Outcome of one :meth:`QueryScheduler.serve` run."""

    tenants: List[TenantReport]
    ticks: int
    wall_seconds: float
    slots: int
    shards: int
    loss_rate: float
    reorder_window: int
    telemetry: Optional[SchedulerTelemetry] = None
    #: Name of the QoS policy the run was served under.
    policy: str = "fifo"

    @property
    def served(self) -> List[TenantReport]:
        """Tenants that completed service."""
        return [t for t in self.tenants if t.status == "served"]

    @property
    def rejected(self) -> List[TenantReport]:
        """Tenants turned away at admission."""
        return [t for t in self.tenants if t.status == "rejected"]

    @property
    def all_equivalent(self) -> Optional[bool]:
        """Every served tenant matched its solo ``QueryPlan.run``
        (None when serving ran with ``check=False``)."""
        verdicts = [t.equivalent for t in self.served]
        if not verdicts or any(v is None for v in verdicts):
            return None
        return all(verdicts)

    @property
    def entries(self) -> int:
        """Unique entries offered to the wire across served tenants."""
        return sum(t.entries for t in self.served)

    @property
    def delivered(self) -> int:
        """Entries delivered to masters across served tenants."""
        return sum(t.delivered for t in self.served)

    @property
    def throughput_entries_per_second(self) -> Optional[float]:
        """Aggregate serving throughput: offered entries / makespan.
        ``None`` when nothing was served (empty trace, every tenant
        rejected) or the clock recorded no elapsed time — a replay with
        zero served ticks must not divide by zero."""
        if self.wall_seconds <= 0 or not self.served:
            return None
        return self.entries / self.wall_seconds

    @property
    def throughput_entries_per_tick(self) -> Optional[float]:
        """Deterministic throughput: offered entries / makespan ticks
        (``None`` when the replay served zero ticks)."""
        if self.ticks <= 0 or not self.served:
            return None
        return self.entries / self.ticks

    @property
    def latencies(self) -> List[int]:
        """Per-tenant arrival-to-completion latencies (served only),
        in report order."""
        return [t.latency_ticks for t in self.served
                if t.latency_ticks is not None]

    def latency_percentile(self, fraction: float) -> Optional[int]:
        """Nearest-rank latency percentile in ticks; ``None`` when no
        tenant was served (never a division by zero)."""
        values = self.latencies
        if not values:
            return None
        return _percentile(values, fraction)

    @property
    def latency_p50_ticks(self) -> Optional[int]:
        """Median arrival-to-completion latency."""
        return self.latency_percentile(0.50)

    @property
    def latency_p95_ticks(self) -> Optional[int]:
        """95th-percentile arrival-to-completion latency."""
        return self.latency_percentile(0.95)

    @property
    def latency_p99_ticks(self) -> Optional[int]:
        """99th-percentile (tail) arrival-to-completion latency."""
        return self.latency_percentile(0.99)

    @property
    def mean_occupancy(self) -> Optional[float]:
        """Time-weighted mean slot occupancy over the makespan
        (idle ticks count as zero); ``None`` without telemetry or when
        zero ticks were served."""
        if self.telemetry is None or self.ticks <= 0:
            return None
        return self.telemetry.occupancy_integral() / self.ticks

    @property
    def peak_occupancy(self) -> Optional[int]:
        """Most slots simultaneously held; ``None`` without telemetry."""
        if self.telemetry is None:
            return None
        return self.telemetry.peak_occupancy

    @property
    def rejection_timeline(self) -> List[RejectionEvent]:
        """Admission rejections in tick order (empty without
        telemetry)."""
        if self.telemetry is None:
            return []
        return list(self.telemetry.rejections)

    @property
    def preemption_timeline(self) -> List[PreemptionEvent]:
        """Preempt/resume transitions in tick order (empty without
        telemetry or under a no-preemption policy)."""
        if self.telemetry is None:
            return []
        return list(self.telemetry.preemptions)

    @property
    def preemption_count(self) -> int:
        """Total preemptions across served tenants."""
        return sum(t.preemptions for t in self.tenants)

    def class_latencies(self, qos_class: str) -> List[int]:
        """Arrival-to-completion latencies of one QoS class's served
        tenants, in report order."""
        return [t.latency_ticks for t in self.served
                if t.qos_class == qos_class and t.latency_ticks is not None]

    def class_latency_percentile(self, qos_class: str,
                                 fraction: float) -> Optional[int]:
        """Nearest-rank latency percentile within one class (``None``
        when the class served nothing)."""
        values = self.class_latencies(qos_class)
        if not values:
            return None
        return _percentile(values, fraction)

    def class_summary(self) -> Dict[str, Dict]:
        """Per-class serving outcomes: counts, latency percentiles,
        and preemption totals, keyed by class name (only classes that
        appear among this run's tenants)."""
        summary: Dict[str, Dict] = {}
        for tenant in self.tenants:
            name = tenant.qos_class or "standard"
            entry = summary.setdefault(name, {
                "tenants": 0, "served": 0, "rejected": 0,
                "preemptions": 0, "suspended_ticks": 0,
            })
            entry["tenants"] += 1
            entry["preemptions"] += tenant.preemptions
            entry["suspended_ticks"] += tenant.suspended_ticks
            if tenant.status == "served":
                entry["served"] += 1
            elif tenant.status == "rejected":
                entry["rejected"] += 1
        for name, entry in summary.items():
            values = self.class_latencies(name)
            entry["latency"] = {
                "p50_ticks": _percentile(values, 0.50) if values else None,
                "p95_ticks": _percentile(values, 0.95) if values else None,
                "p99_ticks": _percentile(values, 0.99) if values else None,
                "mean_ticks": (sum(values) / len(values)
                               if values else None),
                "max_ticks": max(values) if values else None,
            }
        return summary

    def to_payload(self) -> Dict:
        """The report as a deterministic, JSON-serializable dict.

        Everything here is a pure function of the tenant specs, the
        config, and the seeds — wall-clock time is deliberately
        excluded, so replaying the same trace with the same seed yields
        a byte-identical ``json.dumps(report.to_payload(),
        sort_keys=True)``.  ``repro bench replay`` and the determinism
        property test both rely on this.
        """
        mean_occupancy = self.mean_occupancy
        return {
            "slots": self.slots,
            "policy": self.policy,
            "shards": self.shards,
            "loss_rate": self.loss_rate,
            "reorder_window": self.reorder_window,
            "ticks": self.ticks,
            "served": len(self.served),
            "rejected": len(self.rejected),
            "all_equivalent": self.all_equivalent,
            "entries": self.entries,
            "delivered": self.delivered,
            "throughput_entries_per_tick":
                self.throughput_entries_per_tick,
            "latency": {
                "p50_ticks": self.latency_p50_ticks,
                "p95_ticks": self.latency_p95_ticks,
                "p99_ticks": self.latency_p99_ticks,
                "mean_ticks": (sum(self.latencies) / len(self.latencies)
                               if self.latencies else None),
                "max_ticks": (max(self.latencies)
                              if self.latencies else None),
            },
            "occupancy": {
                "mean": (None if mean_occupancy is None
                         else round(mean_occupancy, 4)),
                "peak": self.peak_occupancy,
                "peak_queue_depth": (None if self.telemetry is None
                                     else self.telemetry.peak_queue_depth),
                "timeline": ([] if self.telemetry is None
                             else self.telemetry.occupancy_timeline()),
            },
            "rejections": [
                {"tick": event.tick, "tenant": event.tenant,
                 "reason": event.reason}
                for event in self.rejection_timeline
            ],
            "classes": self.class_summary(),
            "preemptions": [
                {"tick": event.tick, "tenant": event.tenant,
                 "by": event.by, "kind": event.kind}
                for event in self.preemption_timeline
            ],
            "tenants": [
                {
                    "tenant": t.spec.tenant,
                    "scenario": t.spec.scenario,
                    "rows": t.spec.rows,
                    "seed": t.spec.seed,
                    "arrival_tick": t.spec.arrival_tick,
                    "qos_class": t.qos_class,
                    "slots": t.spec.slots,
                    "status": t.status,
                    "reason": t.reason,
                    "admitted_tick": t.admitted_tick,
                    "completed_tick": t.completed_tick,
                    "wait_ticks": t.wait_ticks,
                    "service_ticks": t.service_ticks,
                    "latency_ticks": t.latency_ticks,
                    "preemptions": t.preemptions,
                    "suspended_ticks": t.suspended_ticks,
                    "entries": t.entries,
                    "delivered": t.delivered,
                    "equivalent": t.equivalent,
                }
                for t in self.tenants
            ],
        }


class _TenantFrontend:
    """Per-tenant view of the shared switch frontend.

    Tracks which flow ids the tenant currently has installed, so the
    scheduler can checkpoint them all on preemption
    (``suspend_query``) and restore them byte-identically on resume —
    the tenant's drivers keep calling the usual control-plane surface
    and never notice the round trip.
    """

    def __init__(self, shared: Any):
        self._shared = shared
        self.fids: set = set()

    def install_query(self, spec, fid=None):
        installation = self._shared.install_query(spec, fid=fid)
        self.fids.add(installation.fid)
        return installation

    def uninstall_query(self, fid: int) -> None:
        self._shared.uninstall_query(fid)
        self.fids.discard(fid)

    def offer(self, fid: int, entry):
        return self._shared.offer(fid, entry)

    def offer_batch(self, fid: int, entries):
        return self._shared.offer_batch(fid, entries)

    def pruner_for(self, fid: int):
        return self._shared.pruner_for(fid)

    def suspend(self) -> List[Any]:
        """Checkpoint every installed query (state-preserving).  A fid
        whose transfer already FIN-drained suspends to ``None`` (there
        is nothing left to checkpoint) and is filtered out."""
        checkpoints = [self._shared.suspend_query(fid)
                       for fid in sorted(self.fids)]
        return [ckpt for ckpt in checkpoints if ckpt is not None]

    def resume(self, checkpoints: List[Any]) -> None:
        """Re-install the suspended queries under their original fids.

        Consumes ``checkpoints`` in place as each re-install lands, so
        a mid-list ``ResourceExhausted`` leaves exactly the
        not-yet-restored checkpoints behind — a retry resumes the
        remainder instead of double-installing a fid.
        """
        while checkpoints:
            self._shared.resume_query(checkpoints[0])
            checkpoints.pop(0)


class _TenantRun:
    """Internal per-tenant state machine (spec -> driver -> report)."""

    def __init__(self, spec: TenantSpec, index: int,
                 config: SchedulerConfig, frontend: Any):
        self.spec = spec
        self.index = index
        self.status = "queued"
        self.reason = ""
        self.result: Optional[ExecutionResult] = None
        self.reference: Optional[ExecutionResult] = None
        self.equivalent: Optional[bool] = None
        self.admitted_tick: Optional[int] = None
        self.completed_tick: Optional[int] = None
        self.passes: List[PassStats] = []
        self.current: Optional[ActiveTransfer] = None
        self._delivered = None
        self.qos_class: PriorityClass = config.policy.resolve(
            spec.priority)
        self.preemptions = 0
        self.suspended_ticks = 0
        self._suspend_tick: Optional[int] = None
        self._checkpoints: Optional[List[Any]] = None
        self.frontend = _TenantFrontend(frontend)
        self.sim = ClusterSimulation(
            config.tenant_simulation_config(
                index, rate_weight=self.qos_class.weight),
            frontend_factory=lambda: self.frontend,
        )
        self.gen = None
        self.query = None
        self.tables = None

    def prepare(self) -> None:
        """Materialize the tenant's scenario.  Runs before the serving
        clock starts, so dataset construction is not billed to the
        makespan (the solo baselines exclude it the same way)."""
        self.query, self.tables = build_scenario(self.spec.scenario,
                                                 rows=self.spec.rows,
                                                 seed=self.spec.seed)

    def admit(self, tick: int) -> None:
        """Start the tenant's driver (installing its query — this is
        where ``ResourceExhausted`` surfaces as admission rejection)."""
        self.gen = self.sim.query_generator(self.query, self.tables)
        self._advance(None)
        self.status = "admitted"
        self.admitted_tick = tick

    def _advance(self, value) -> bool:
        """Resume the driver; start its next pass or capture the result."""
        try:
            request = self.gen.send(value)
        except StopIteration as stop:
            self.result = stop.value
            self.current = None
            return False
        self.current = self.sim.begin_transfer(request)
        return True

    def finish_pass(self) -> None:
        """Record the completed pass and stash its delivered entries."""
        self.passes.append(self.current.stats())
        self._delivered = self.current.delivered()

    def advance(self) -> bool:
        """Feed the finished pass back to the driver; True while the
        tenant still has wire passes to run."""
        delivered, self._delivered = self._delivered, None
        return self._advance(delivered)

    def complete(self, tick: int) -> None:
        self.status = "served"
        self.completed_tick = tick

    def suspend(self, tick: int) -> None:
        """Preempt mid-pass: checkpoint every installed query out of
        the shared data plane (pruner state preserved) and freeze the
        in-flight :class:`ActiveTransfer` — nothing about the pass
        advances while suspended, so the resumed run is byte-identical
        to an uninterrupted one."""
        self._checkpoints = self.frontend.suspend()
        self.status = "suspended"
        self._suspend_tick = tick
        self.preemptions += 1

    def resume(self, tick: int) -> None:
        """Re-install the checkpointed queries and rejoin the active
        set.  Raises ``ResourceExhausted`` (checkpoint no longer fits
        alongside the current pack) without losing the not-yet-restored
        checkpoints — ``_TenantFrontend.resume`` consumes the list as
        installs land — so the scheduler can retry later."""
        if self._checkpoints:
            self.frontend.resume(self._checkpoints)
        self._checkpoints = None
        self.status = "admitted"
        if self._suspend_tick is not None:
            self.suspended_ticks += tick - self._suspend_tick
            self._suspend_tick = None

    def evaluate(self) -> None:
        """Compare against the functional ``QueryPlan.run`` reference.
        Runs after the serving clock stops — verification work must not
        skew the reported makespan (the solo ``ClusterSimulation.run``
        likewise keeps its reference outside ``wall_seconds``).
        Idempotent: the socket server evaluates at completion time so
        results stream back verified, and the final report must not
        redo the comparison."""
        if self.status != "served" or self.equivalent is not None:
            return
        self.reference = (self.sim.planner.plan(self.query)
                          .run(self.tables).result)
        self.equivalent = self.result == self.reference

    def reject(self, reason: str) -> None:
        self.status = "rejected"
        self.reason = reason

    def fail(self, reason: str, tick: int) -> None:
        self.status = "failed"
        self.reason = reason
        self.completed_tick = tick

    def report(self) -> TenantReport:
        return TenantReport(
            spec=self.spec, status=self.status, reason=self.reason,
            result=self.result, equivalent=self.equivalent,
            admitted_tick=self.admitted_tick,
            completed_tick=self.completed_tick, passes=self.passes,
            qos_class=self.qos_class.name,
            preemptions=self.preemptions,
            suspended_ticks=self.suspended_ticks,
        )


def _build_frontend(cfg: SchedulerConfig):
    """The shared data plane every tenant installs into."""
    if cfg.shards > 1:
        return ShardedSwitchFrontend(cfg.switch, cfg.shards,
                                     seed=cfg.seed,
                                     max_slots=cfg.slots)
    return ControlPlane(cfg.switch, seed=cfg.seed,
                        max_slots=cfg.slots)


class ServingLoop:
    """Resumable admission + interleaving core of the scheduler.

    One instance owns the shared frontend, the QoS/DRR state, and the
    per-tick telemetry of a serving session, and exposes the loop *one
    iteration at a time*: :meth:`submit` may be called between
    :meth:`run_tick` calls.  That is what lets the asyncio socket
    frontend (:class:`repro.serving.server.ReproServer`) admit tenants
    from live connections while the tick domain stays a pure function
    of the admitted specs — a recorded trace of a socket session
    replays byte-identically through :meth:`QueryScheduler.serve`,
    which drives this same core to exhaustion in a plain ``while``
    loop.

    The one rule late submissions must obey: once an admission phase
    has executed at tick ``t``, a new spec's ``arrival_tick`` must be
    at least :attr:`arrival_floor` (``t + 1``).  An arrival stamped at
    or below an already-executed phase would have been admitted
    *earlier* in a replay (where all specs are known up front),
    breaking tick-domain determinism; :meth:`submit` enforces this.
    """

    def __init__(self, config: Optional[SchedulerConfig] = None,
                 chaos: Optional[Any] = None):
        self.config = config or SchedulerConfig()
        self.frontend = _build_frontend(self.config)
        #: Optional :class:`~repro.cluster.chaos.ChaosController`: its
        #: due failure events are injected at the top of every
        #: :meth:`run_tick` (see ``docs/CHAOS.md``).
        self.chaos = chaos
        #: Optional :class:`~repro.obs.Observability` sink (from the
        #: config); ``None`` keeps every hook site a no-op.
        self.obs = self.config.obs
        if self.obs is not None:
            self.obs.attach(self)
        self.tick = 0
        self.pending: List[_TenantRun] = []
        self.waiting: List[_TenantRun] = []
        self.suspended: List[_TenantRun] = []
        self.active: List[_TenantRun] = []
        self.finished: List[_TenantRun] = []
        self.drr = DeficitRoundRobin()
        self.telemetry = SchedulerTelemetry(slots=self.config.slots)
        # Per-tick probe bookkeeping, keyed by the *exact* tick each
        # event is stamped with (admissions happen between service
        # steps, so an iteration's admission events and its service
        # step carry different ticks): tick -> [admitted, completed,
        # rejected, preempted, resumed], tick -> (occupancy, serviced,
        # queue_depth, suspended), tick -> (queue depth, suspended)
        # after an admission phase.
        self._counts: Dict[int, List[int]] = {}
        self._service: Dict[int, tuple] = {}
        self._queue_at: Dict[int, tuple] = {}
        self._next_index = 0
        self._names: set = set()
        #: The admission log: every accepted spec, in submission order
        #: — what :func:`~repro.workloads.traces.trace_from_specs`
        #: records as a replayable trace of this session.
        self.submitted: List[TenantSpec] = []
        self._last_stamp = 0
        # Tick of the most recently executed admission phase (-1 =
        # none yet, so arrivals at tick 0 are still admissible).
        self._phase_tick = -1

    @property
    def has_work(self) -> bool:
        """True while any tenant is pending, queued, suspended, or
        mid-service — the sync serve loop's continuation condition."""
        return bool(self.pending or self.waiting or self.suspended
                    or self.active)

    @property
    def arrival_floor(self) -> int:
        """Lowest ``arrival_tick`` a new submission may carry.

        Every admission phase at or before :attr:`_phase_tick` has
        already run without seeing the submission, so stamping below
        the floor would admit it earlier under replay; :meth:`stamp`
        never goes below it."""
        return self._phase_tick + 1

    def stamp(self, requested: int) -> int:
        """The arrival tick a live submission asking for ``requested``
        gets: never before :attr:`arrival_floor`, never before an
        earlier submission's arrival.  Stamps are therefore monotone
        in submission order, so a recorded trace's stable
        sort-by-arrival keeps submission order — tenant indices (and
        hence per-tenant seeds and flow-id ranges) match under
        replay."""
        return max(requested, self.arrival_floor, self._last_stamp)

    def submit(self, spec: TenantSpec) -> _TenantRun:
        """Enqueue one tenant (dataset built now, before its ticks).

        Raises ``ValueError`` for duplicate tenant names, unknown
        priority hints (surfaced by class resolution in the run
        constructor), or an ``arrival_tick`` below
        :attr:`arrival_floor`."""
        if spec.tenant in self._names:
            raise ValueError(
                f"tenant names must be unique, got a second "
                f"{spec.tenant!r}")
        if spec.arrival_tick < self.arrival_floor:
            raise ValueError(
                f"arrival_tick {spec.arrival_tick} is below the "
                f"serving loop's arrival floor {self.arrival_floor} "
                "(that admission phase already ran)")
        # Construct and prepare before mutating any loop state: a
        # submission that fails (unknown priority class, bad scenario
        # rows) must not consume an index or a name, or live serving
        # would drift from the recorded trace's index assignment.
        run = _TenantRun(spec, self._next_index, self.config,
                         self.frontend)
        run.prepare()
        self._next_index += 1
        self._names.add(spec.tenant)
        self.submitted.append(spec)
        self._last_stamp = max(self._last_stamp, spec.arrival_tick)
        # Keep pending sorted by (arrival_tick, index); submissions
        # carry monotone indices, so bisect on arrival alone is stable.
        at = bisect.bisect_right(
            [p.spec.arrival_tick for p in self.pending],
            spec.arrival_tick)
        self.pending.insert(at, run)
        return run

    def _bump(self, at: int, slot: int) -> None:
        self._counts.setdefault(at, [0, 0, 0, 0, 0])[slot] += 1

    def _in_service(self) -> Dict[str, int]:
        held: Dict[str, int] = {}
        for run in self.active:
            name = run.qos_class.name
            held[name] = held.get(name, 0) + run.spec.slots
        return held

    def _reject(self, run: _TenantRun, reason: str, at: int) -> None:
        run.reject(reason)
        self.telemetry.rejections.append(RejectionEvent(
            at, run.spec.tenant, run.reason))
        self._bump(at, 2)
        logger.info("rejected tenant %s at tick %d: %s",
                    run.spec.tenant, at, reason)
        if self.obs is not None:
            self.obs.on_reject(run, at)
        self.finished.append(run)

    def run_tick(self) -> List[_TenantRun]:
        """One iteration of the serving loop: pull arrivals, run the
        admission/resume phase at the current tick, then either advance
        the in-flight passes one protocol tick or idle toward the next
        arrival.  Returns the runs that reached a terminal state
        (served, rejected, failed) during this call; when the loop is
        completely idle the call is a pure no-op.
        """
        cfg = self.config
        policy = cfg.policy
        waiting, suspended = self.waiting, self.suspended
        active, finished = self.active, self.finished
        done_before = len(finished)
        tick = self.tick
        if self.chaos is not None:
            # Inject due failure events before this iteration's
            # admission phase and service step, in schedule order —
            # deterministic: the same schedule and specs reproduce the
            # same kill/migrate/restart sequence tick for tick.
            applied = self.chaos.apply_due(tick, self)
            if self.obs is not None and applied:
                self.obs.on_chaos(applied, tick, self.chaos)
        while self.pending and self.pending[0].spec.arrival_tick <= tick:
            waiting.append(self.pending.pop(0))
        # Admission & resume, highest class priority first (FIFO
        # within a class: arrival tick, then spec order).
        candidates = sorted(
            waiting + suspended,
            key=lambda r: (-r.qos_class.priority,
                           r.spec.arrival_tick, r.index))
        for run in candidates:
            cls = run.qos_class
            need = run.spec.slots
            if (run.status == "queued"
                    and need > policy.best_case_slots(cls, cfg.slots)):
                waiting.remove(run)
                self._reject(
                    run, f"needs {need} slot(s) but class "
                         f"{cls.name!r} can use at most "
                         f"{policy.best_case_slots(cls, cfg.slots)}"
                         f" of {cfg.slots} (reserved for other "
                         "classes)", tick)
                continue
            held = self._in_service()
            free = cfg.slots - sum(held.values())
            available = policy.available_to(cls, free, held)
            if available < need and run.status == "queued":
                # A strictly-higher-priority arrival may suspend
                # preemptible lower classes (never below their
                # reservation floors) to make room.
                victims = plan_preemption(
                    policy, cls, need, need - available,
                    [(victim, victim.qos_class, victim.spec.slots)
                     for victim in sorted(
                         active,
                         key=lambda v: (v.qos_class.priority,
                                        -(v.admitted_tick or 0),
                                        -v.index))],
                    held)
                if victims:
                    for victim in victims:
                        victim.suspend(tick)
                        active.remove(victim)
                        suspended.append(victim)
                        self.drr.forget(victim.index)
                        self.telemetry.preemptions.append(PreemptionEvent(
                            tick, victim.spec.tenant,
                            run.spec.tenant, "preempt"))
                        self._bump(tick, 3)
                        logger.info(
                            "preempted tenant %s for %s at tick %d",
                            victim.spec.tenant, run.spec.tenant, tick)
                        if self.obs is not None:
                            self.obs.on_preempt(victim, tick, by=run)
                    held = self._in_service()
                    free = cfg.slots - sum(held.values())
                    available = policy.available_to(cls, free, held)
            if available < need:
                if run.status == "queued" and not cfg.queue_when_full:
                    waiting.remove(run)
                    if free >= need:
                        self._reject(
                            run, f"no unreserved slot: class "
                                 f"{cls.name!r} is locked out by "
                                 "other classes' reservations at "
                                 "arrival", tick)
                    else:
                        self._reject(
                            run, f"no free slot: all {cfg.slots} "
                                 "serving slots busy at arrival",
                            tick)
                continue  # queued/suspended: wait for a slot
            if run.status == "suspended":
                try:
                    run.resume(tick)
                except (ResourceExhausted, CompilationError):
                    continue  # checkpoint does not fit yet; retry
                suspended.remove(run)
                active.append(run)
                self.drr.admit(run.index)
                self.telemetry.preemptions.append(PreemptionEvent(
                    tick, run.spec.tenant, "", "resume"))
                self._bump(tick, 4)
                logger.info("resumed tenant %s at tick %d",
                            run.spec.tenant, tick)
                if self.obs is not None:
                    self.obs.on_resume(run, tick)
                continue
            waiting.remove(run)
            try:
                run.admit(tick)
            except (ResourceExhausted, CompilationError) as error:
                self._reject(run, str(error), tick)
                continue
            self._bump(tick, 0)
            logger.debug("admitted tenant %s at tick %d",
                         run.spec.tenant, tick)
            if self.obs is not None:
                self.obs.on_admit(run, tick)
            if run.current is None:
                run.complete(tick)
                self._bump(tick, 1)
                if self.obs is not None:
                    self.obs.on_complete(run, tick)
                finished.append(run)
            else:
                active.append(run)
                self.drr.admit(run.index)
        self._phase_tick = tick
        if tick in self._counts:
            self._queue_at[tick] = (len(waiting), len(suspended))
        if not active:
            if suspended:
                # Resume retries next tick (slots are free now).
                self.tick = tick + 1
            elif self.pending:
                # Idle until the next arrival.
                self.tick = max(tick + 1,
                                self.pending[0].spec.arrival_tick)
            # Fully idle: tick stays put; the call was a no-op.
            return finished[done_before:]
        tick += 1
        if tick > MAX_TICKS:
            raise SimulationError(
                f"serving did not complete within {MAX_TICKS} "
                "global ticks (protocol livelock?)"
            )
        # Weighted fair service (deficit round robin): which active
        # tenants' passes advance this tick is set by class weight;
        # with uniform weights every tenant steps every tick.  The
        # service order still rotates so no tenant systematically
        # reaches the switch's offer_batch first.
        ready = set(self.drr.serviced({run.index: run.qos_class.weight
                                       for run in active}))
        stepped = [run for run in active if run.index in ready]
        offset = tick % len(stepped)
        done_runs: List[_TenantRun] = []
        for run in stepped[offset:] + stepped[:offset]:
            run.current.step()
            if not run.current.done:
                continue
            run.finish_pass()
            if self.obs is not None:
                self.obs.on_pass_end(run, tick)
            try:
                more = run.advance()
            except (ResourceExhausted, CompilationError) as error:
                run.fail(f"mid-run install failed: {error}", tick)
                if self.obs is not None:
                    self.obs.on_fail(run, tick)
                done_runs.append(run)
                continue
            if not more:
                run.complete(tick)
                self._bump(tick, 1)
                logger.debug("completed tenant %s at tick %d",
                             run.spec.tenant, tick)
                if self.obs is not None:
                    self.obs.on_complete(run, tick)
                done_runs.append(run)
        # Occupancy = slots held this tick (slot-weighted), which
        # equals the serviced count under uniform DRR weights.
        self._service[tick] = (sum(run.spec.slots for run in active),
                               len(stepped), len(waiting),
                               len(suspended))
        if self.obs is not None:
            self.obs.on_service_tick(self, tick, stepped)
        for run in done_runs:
            active.remove(run)
            self.drr.forget(run.index)
            finished.append(run)
        self.tick = tick
        return finished[done_before:]

    def report(self, check: bool = True,
               wall_seconds: float = 0.0) -> ScheduleReport:
        """Assemble the session's :class:`ScheduleReport`.

        Rebuilds the telemetry samples from the probe dicts (so calling
        it twice is safe) and — with ``check=True`` — evaluates every
        served tenant against its solo ``QueryPlan.run`` reference
        (idempotent per tenant: the socket server may have evaluated
        some at completion time already)."""
        cfg = self.config
        self.telemetry.samples = []
        for sample_tick in sorted(set(self._counts) | set(self._service)):
            occupancy, serviced, queue_depth, idle_suspended = \
                self._service.get(
                    sample_tick,
                    (0, 0) + self._queue_at.get(sample_tick, (0, 0)))
            admitted, completed, rejected, preempted, resumed = \
                self._counts.get(sample_tick, (0, 0, 0, 0, 0))
            self.telemetry.samples.append(TelemetrySample(
                tick=sample_tick, occupancy=occupancy,
                queue_depth=queue_depth, admitted=admitted,
                completed=completed, rejected=rejected,
                serviced=serviced, suspended=idle_suspended,
                preempted=preempted, resumed=resumed))
        if check:
            for run in self.finished:
                run.evaluate()
        ordered = sorted(self.finished, key=lambda r: r.index)
        return ScheduleReport(
            tenants=[run.report() for run in ordered],
            ticks=self.tick,
            wall_seconds=wall_seconds,
            slots=cfg.slots,
            shards=cfg.shards,
            loss_rate=cfg.loss_rate,
            reorder_window=cfg.reorder_window,
            telemetry=self.telemetry,
            policy=cfg.policy.name,
        )


class QueryScheduler:
    """Serve many concurrent tenants through one shared switch frontend.

    ``serve(tenants)`` runs the admission + interleaving loop described
    in the module docstring and returns a :class:`ScheduleReport` whose
    per-tenant results are (by construction, and checked when
    ``check=True``) identical to each tenant's solo ``QueryPlan.run``.
    The loop itself lives in :class:`ServingLoop`; this wrapper drives
    it synchronously to exhaustion, which is also the reference
    semantics the asyncio socket frontend must (and does) reproduce.
    """

    def __init__(self, config: Optional[SchedulerConfig] = None):
        self.config = config or SchedulerConfig()

    def _build_frontend(self):
        """The shared data plane every tenant installs into."""
        return _build_frontend(self.config)

    def serve(self, tenants: Sequence[TenantSpec],
              check: bool = True,
              chaos: Optional[Any] = None) -> ScheduleReport:
        """Admit, arbitrate, and interleave ``tenants`` to completion.

        With ``check=True`` (default) each tenant's scenario is also
        executed functionally via ``QueryPlan.run`` and compared;
        ``TenantReport.equivalent`` records the verdict.  ``chaos`` is
        an optional :class:`~repro.cluster.chaos.ChaosController` whose
        seeded failure schedule is injected into the serving loop
        (``docs/CHAOS.md``) — result identity must hold regardless.
        """
        if not tenants:
            raise ValueError("serve needs at least one tenant")
        names = [spec.tenant for spec in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        loop = ServingLoop(self.config, chaos=chaos)
        # Submitting (and thus resolving every tenant's class) up front
        # surfaces unknown priority hints as a serve-time ValueError,
        # not a mid-run one; dataset construction also lands here,
        # before the serving clock starts.
        for spec in tenants:
            loop.submit(spec)
        logger.info("serving %d tenant(s) on %d slot(s), policy %s",
                    len(tenants), self.config.slots,
                    self.config.policy.name)
        start = time.perf_counter()
        while loop.has_work:
            loop.run_tick()
        wall = time.perf_counter() - start
        if loop.obs is not None:
            loop.obs.finalize(loop)
        return loop.report(check=check, wall_seconds=wall)


def tenant_specs(count: int, rows: int = 240, seed: int = 0,
                 mix: Sequence[str] = DEFAULT_MIX,
                 arrival_stride: int = 0,
                 priorities: Optional[Sequence[str]] = None,
                 ) -> List[TenantSpec]:
    """``count`` tenant specs cycling through ``mix``; tenant ``i``
    arrives at ``i * arrival_stride`` (0 = everyone at start) and — when
    ``priorities`` is given — carries the ``i % len(priorities)``-th
    QoS class hint.  Shared by ``repro serve`` and the concurrency and
    QoS benchmarks."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not mix:
        raise ValueError("scenario mix must not be empty")
    if priorities is not None and not priorities:
        raise ValueError("priorities must not be empty when given")
    return [
        TenantSpec(tenant=f"tenant-{i}", scenario=mix[i % len(mix)],
                   rows=rows, seed=seed + i,
                   arrival_tick=i * arrival_stride,
                   priority=(None if priorities is None
                             else priorities[i % len(priorities)]))
        for i in range(count)
    ]


def replay_trace(trace, config: Optional[SchedulerConfig] = None,
                 check: bool = True,
                 apply_overrides: bool = True,
                 chaos: Optional[Any] = None) -> ScheduleReport:
    """Replay a recorded arrival trace through the scheduler.

    ``trace`` is a :class:`repro.workloads.traces.Trace` (from
    :func:`~repro.workloads.traces.load_trace` or
    :func:`~repro.workloads.traces.generate_trace`).  With
    ``apply_overrides=True`` (default) the trace header's
    ``loss_rate``/``shards`` replace the config's values — a recorded
    trace pins its network conditions; pass ``False`` when the caller
    (e.g. an explicit CLI flag) has already resolved them.

    An empty trace is a valid replay: the result is a zero-tick
    :class:`ScheduleReport` with no tenants, ``None`` latency
    percentiles and throughput, and empty telemetry — never a division
    by zero.
    """
    config = config or SchedulerConfig()
    if apply_overrides:
        overrides = {}
        if trace.loss_rate is not None:
            overrides["loss_rate"] = trace.loss_rate
        if trace.shards is not None:
            overrides["shards"] = trace.shards
        if overrides:
            config = dataclasses.replace(config, **overrides)
    if not trace.queries:
        return ScheduleReport(
            tenants=[], ticks=0, wall_seconds=0.0, slots=config.slots,
            shards=config.shards, loss_rate=config.loss_rate,
            reorder_window=config.reorder_window,
            telemetry=SchedulerTelemetry(slots=config.slots),
            policy=config.policy.name,
        )
    return QueryScheduler(config).serve(trace.queries, check=check,
                                        chaos=chaos)
