"""The stable, versioned public API of the reproduction.

Everything else in the package is implementation detail that may move
between PRs; the names exported here — and the ``proto/v1`` wire
protocol (``docs/PROTOCOL.md``) — are the two surfaces with a
compatibility promise.  Both the in-process path and the socket
server speak in these terms:

* :class:`ServeConfig` — plain-typed serving knobs (``policy`` is a
  string spec, not a ``QosPolicy`` object), convertible to the
  internal :class:`~repro.cluster.scheduler.SchedulerConfig`.  The
  CLI, :class:`Session`, and :class:`~repro.serving.ReproServer` all
  accept it.
* :class:`Session` — in-process serving: submit scenarios, drive the
  deterministic tick loop, collect :class:`QueryResult`\\ s.  It wraps
  the same :class:`~repro.cluster.scheduler.ServingLoop` the socket
  server's reactor owns, with the same monotone arrival stamping —
  so an in-process session and a socket session submitting the same
  scenarios produce the same tick domain.
* :func:`submit` — the one-shot convenience (one scenario, one
  result).
* :class:`QueryResult` — the per-tenant outcome, constructible from
  an in-process :class:`~repro.cluster.scheduler.TenantReport` or a
  ``proto/v1`` ``result`` frame, so callers handle both transports
  with one type.
* :func:`run_scenario` — a single-tenant end-to-end run through the
  simulated cluster (the ``repro run <scenario> --loss`` path),
  without constructing :class:`ClusterSimulation` drivers directly.
* :func:`connect` / :func:`connect_async` — socket clients to a
  running ``repro serve --listen``.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, List, Optional

from repro.cluster.qos import parse_policy
from repro.cluster.scheduler import (
    ScheduleReport,
    SchedulerConfig,
    ServingLoop,
    TenantReport,
    TenantSpec,
)

#: The facade's own version, independent of the package version:
#: bumped only when a name exported here changes incompatibly.
API_VERSION = 1


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Serving knobs, in the CLI's vocabulary.

    Field names deliberately match the shared CLI flags
    (``--loss/--shards/--slots/--policy/--seed``; see the flag matrix
    in README.md), and ``policy`` is a string spec accepted by
    :func:`~repro.cluster.qos.parse_policy` (``fifo``, ``tiers``,
    ``tiers-no-preempt``, or a custom class spec) — the facade never
    asks callers to build internal policy objects.  ``congestion``
    (``"fixed"`` or ``"aimd"``) and ``queue_capacity`` select the
    transport mode, mirroring ``--congestion``/``--queue-capacity``
    (``docs/CONGESTION.md``).
    """

    slots: int = 4
    loss: float = 0.0
    shards: int = 1
    policy: str = "fifo"
    seed: int = 0
    workers: int = 4
    reorder: int = 0
    queue_when_full: bool = True
    congestion: str = "fixed"
    queue_capacity: Optional[int] = None

    def scheduler_config(self) -> SchedulerConfig:
        """The internal :class:`SchedulerConfig` this resolves to."""
        return SchedulerConfig(
            slots=self.slots,
            queue_when_full=self.queue_when_full,
            policy=parse_policy(self.policy),
            workers=self.workers,
            loss_rate=self.loss,
            reorder_window=self.reorder,
            shards=self.shards,
            seed=self.seed,
            congestion=self.congestion,
            queue_capacity=self.queue_capacity,
        )


@dataclasses.dataclass(frozen=True)
class QueryResult:
    """One tenant's outcome, transport-independent.

    ``output`` is the actual result object on the in-process path and
    ``None`` over the socket (JSON cannot round-trip the executor's
    tuples and integer keys); ``output_repr`` is populated on both
    paths, and ``equivalent`` records the server-side comparison
    against the functional ``QueryPlan.run`` reference either way.
    """

    tenant: str
    scenario: str
    status: str
    reason: str
    qos_class: str
    equivalent: Optional[bool]
    arrival_tick: int
    admitted_tick: Optional[int]
    completed_tick: Optional[int]
    wait_ticks: Optional[int]
    service_ticks: Optional[int]
    latency_ticks: Optional[int]
    preemptions: int
    suspended_ticks: int
    entries: int
    delivered: int
    output: Optional[Any] = None
    output_repr: Optional[str] = None

    @property
    def served(self) -> bool:
        return self.status == "served"

    @classmethod
    def from_report(cls, report: TenantReport) -> "QueryResult":
        """Build from an in-process :class:`TenantReport`."""
        output = (report.result.output if report.result is not None
                  else None)
        return cls(
            tenant=report.spec.tenant,
            scenario=report.spec.scenario,
            status=report.status,
            reason=report.reason,
            qos_class=report.qos_class,
            equivalent=report.equivalent,
            arrival_tick=report.spec.arrival_tick,
            admitted_tick=report.admitted_tick,
            completed_tick=report.completed_tick,
            wait_ticks=report.wait_ticks,
            service_ticks=report.service_ticks,
            latency_ticks=report.latency_ticks,
            preemptions=report.preemptions,
            suspended_ticks=report.suspended_ticks,
            entries=report.entries,
            delivered=report.delivered,
            output=output,
            output_repr=repr(output) if output is not None else None,
        )

    @classmethod
    def from_frame(cls, frame: Dict) -> "QueryResult":
        """Build from a ``proto/v1`` ``result`` frame."""
        return cls(
            tenant=frame["tenant"],
            scenario=frame.get("scenario", ""),
            status=frame["status"],
            reason=frame.get("reason", ""),
            qos_class=frame.get("qos_class", ""),
            equivalent=frame.get("equivalent"),
            arrival_tick=frame.get("arrival_tick", 0),
            admitted_tick=frame.get("admitted_tick"),
            completed_tick=frame.get("completed_tick"),
            wait_ticks=frame.get("wait_ticks"),
            service_ticks=frame.get("service_ticks"),
            latency_ticks=frame.get("latency_ticks"),
            preemptions=frame.get("preemptions", 0),
            suspended_ticks=frame.get("suspended_ticks", 0),
            entries=frame.get("entries", 0),
            delivered=frame.get("delivered", 0),
            output=None,
            output_repr=frame.get("output_repr"),
        )


class Session:
    """An in-process serving session with a stable surface.

    >>> session = Session(ServeConfig(slots=2))
    >>> name = session.submit("topn", rows=40)
    >>> results = session.run()
    >>> results[0].served and results[0].equivalent
    True

    Submissions after :meth:`run` are fine — the underlying
    :class:`ServingLoop` is resumable, and arrival stamps stay
    monotone exactly like the socket server's, so an interleaved
    submit/run session still records a replayable trace.
    """

    def __init__(self, config: Optional[ServeConfig] = None, *,
                 check: bool = True):
        self.config = config if config is not None else ServeConfig()
        self._core = ServingLoop(self.config.scheduler_config())
        self._check = check
        self._results: List[QueryResult] = []
        self._last_stamp = 0
        self._auto = 0
        self._wall = 0.0
        #: Submitted specs with final stamps, in submission order.
        self.submitted_specs: List[TenantSpec] = []

    def submit(self, scenario: str, *, tenant: Optional[str] = None,
               rows: int = 240, seed: int = 0,
               priority: Optional[str] = None, slots: int = 1,
               arrival_tick: Optional[int] = None) -> str:
        """Queue one tenant; returns its (possibly generated) name.

        ``arrival_tick=None`` means "now": the next tick whose
        admission phase has not run yet.  An explicit earlier tick is
        clamped forward — stamps are monotone in submission order, the
        invariant that keeps recorded sessions replay-identical.
        """
        if tenant is None:
            tenant = f"q{self._auto}"
            self._auto += 1
        stamp = max(arrival_tick if arrival_tick is not None else 0,
                    self._core.arrival_floor, self._last_stamp)
        spec = TenantSpec(tenant=tenant, scenario=scenario, rows=rows,
                          seed=seed, arrival_tick=stamp,
                          priority=priority, slots=slots)
        self._core.submit(spec)
        self._last_stamp = stamp
        self.submitted_specs.append(spec)
        return tenant

    def run(self) -> List[QueryResult]:
        """Drive the loop until idle; returns the *newly* finished
        results (in completion order)."""
        fresh: List[QueryResult] = []
        start = time.perf_counter()
        while self._core.has_work:
            for done in self._core.run_tick():
                if self._check:
                    done.evaluate()
                fresh.append(QueryResult.from_report(done.report()))
        self._wall += time.perf_counter() - start
        self._results.extend(fresh)
        return fresh

    def results(self) -> List[QueryResult]:
        """Every result collected so far (completion order)."""
        return list(self._results)

    def result(self, tenant: str) -> QueryResult:
        """A finished tenant's result (runs the loop if needed)."""
        for res in self._results:
            if res.tenant == tenant:
                return res
        self.run()
        for res in self._results:
            if res.tenant == tenant:
                return res
        raise KeyError(f"no result for tenant {tenant!r}")

    def report(self) -> ScheduleReport:
        """The session's full :class:`ScheduleReport` (same payload
        contract as ``repro serve``/``replay``)."""
        return self._core.report(check=self._check,
                                 wall_seconds=self._wall)

    def write_trace(self, path: str) -> None:
        """Record the session as a replayable v2 arrival trace."""
        from repro.workloads.traces import trace_from_specs

        trace = trace_from_specs(self.submitted_specs,
                                 seed=self.config.seed,
                                 loss_rate=self.config.loss,
                                 shards=self.config.shards)
        trace.save(path)


def submit(scenario: str, *, config: Optional[ServeConfig] = None,
           **kwargs) -> QueryResult:
    """One-shot serving: run a single scenario, return its result."""
    session = Session(config)
    name = session.submit(scenario, **kwargs)
    session.run()
    return session.result(name)


def run_scenario(name: str, *, rows: int = 1200, seed: int = 0,
                 workers: int = 4, loss: float = 0.05,
                 reorder: int = 0, shards: int = 1,
                 pipelined: bool = True, check: bool = True,
                 congestion: str = "fixed",
                 queue_capacity: Optional[int] = None):
    """One scenario end-to-end through the simulated cluster.

    This is the facade over single-tenant
    :class:`~repro.cluster.simulation.ClusterSimulation` runs (the
    ``repro run <scenario> --loss`` path); returns its
    :class:`~repro.cluster.simulation.SimulationReport`.
    ``congestion``/``queue_capacity`` select the transport mode
    (``docs/CONGESTION.md``); results are byte-identical either way,
    only the protocol accounting moves.
    """
    from repro.cluster.simulation import (
        ClusterSimulation,
        SimulationConfig,
        build_scenario,
    )

    query, tables = build_scenario(name, rows=rows, seed=seed)
    config = SimulationConfig(workers=workers, loss_rate=loss,
                              reorder_window=reorder, shards=shards,
                              seed=seed, pipelined=pipelined,
                              congestion=congestion,
                              queue_capacity=queue_capacity)
    return ClusterSimulation(config).run(query, tables, check=check)


def connect(host: str, port: int, client: str = "repro-client"):
    """A blocking :class:`~repro.serving.ReproClient` to a running
    ``repro serve --listen`` server."""
    from repro.serving import ReproClient

    return ReproClient(host, port, client=client)


async def connect_async(host: str, port: int,
                        client: str = "repro-client"):
    """An :class:`~repro.serving.AsyncReproClient` (coroutine path)."""
    from repro.serving import AsyncReproClient

    return await AsyncReproClient.connect(host, port, client=client)


__all__ = [
    "API_VERSION",
    "ServeConfig",
    "Session",
    "QueryResult",
    "submit",
    "run_scenario",
    "connect",
    "connect_async",
]
