""":class:`ReproServer`: the asyncio reactor behind ``repro serve --listen``.

One event loop hosts two kinds of tasks:

* a **connection handler** per accepted socket, which speaks
  ``proto/v1`` (handshake, frame validation, error answers) and turns
  well-formed ``submit`` frames into inbox entries, and
* a single **reactor task**, which owns the
  :class:`~repro.cluster.scheduler.ServingLoop` outright.  Only the
  reactor stamps arrivals, admits tenants, and runs ticks — handlers
  never touch the scheduler, so the tick domain is single-writer by
  construction even with hundreds of concurrent connections.

Determinism across the socket boundary comes from the stamping rule
(:meth:`ServingLoop.stamp`): a live submission is assigned
``max(requested, arrival_floor, last accepted stamp)``, where
``arrival_floor`` is the first tick whose admission phase has not
executed yet.  Stamps are therefore monotone in submission order,
which makes the recorded trace's stable sort-by-arrival preserve
submission order — tenant indices, and hence per-tenant seeds and
flow-id ranges, match between the live session and its ``repro
replay``, and the replayed ``ScheduleReport.to_payload()`` is
byte-identical to the live one.

``hold`` batches the first N submissions before any of them is
admitted (sorted by ``(arrival_tick, tenant)``), collapsing socket
arrival races into a pure function of the specs — this is what lets
``repro bench load`` assert byte-identical tick-domain output across
runs while clients connect in nondeterministic order.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import time
from typing import Dict, List, Optional, Tuple

from repro.cluster.scheduler import (
    SchedulerConfig,
    ScheduleReport,
    ServingLoop,
    TenantSpec,
)
from repro.cluster.simulation import SCENARIOS, SimulationError
from repro.obs import Observability
from repro.serving import protocol

logger = logging.getLogger(__name__)


class _Connection:
    """Per-socket bookkeeping shared by the handler and the reactor."""

    def __init__(self, conn_id: int, writer: asyncio.StreamWriter):
        self.id = conn_id
        self.writer = writer
        self.version: Optional[int] = None
        self.closed = False

    def send(self, message: Dict) -> None:
        """Queue one frame on the socket buffer (never raises: a peer
        that vanished mid-session just stops receiving results)."""
        if not self.closed:
            self.write(protocol.encode_frame(message))

    def write(self, frame: bytes) -> None:
        """Queue one already-encoded frame (same contract as
        :meth:`send`)."""
        if self.closed:
            return
        try:
            self.writer.write(frame)
        except (ConnectionError, RuntimeError):
            self.closed = True


class ReproServer:
    """A ``proto/v1`` TCP frontend over one :class:`ServingLoop`.

    Usage::

        server = ReproServer(SchedulerConfig(slots=8))
        await server.start()          # listening; server.address is set
        ...clients connect, submit, read results...
        await server.stop()           # drain remaining work, close
        report = server.report()      # the same ScheduleReport serve() returns

    ``hold`` > 0 defers admission until that many submissions have
    arrived, then releases them in ``(arrival_tick, tenant)`` order —
    the deterministic open-loop mode ``repro bench load`` uses.
    ``max_queries`` arms :meth:`wait_finished`, which resolves once
    that many results have been dispatched (the CLI's bounded
    ``serve --listen`` sessions).
    """

    def __init__(self, config: Optional[SchedulerConfig] = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 check: bool = True, hold: int = 0,
                 max_queries: Optional[int] = None, chaos=None):
        if hold < 0:
            raise ValueError(f"hold must be >= 0, got {hold}")
        if max_queries is not None and max_queries < 1:
            raise ValueError(
                f"max_queries must be >= 1, got {max_queries}")
        if config is None:
            config = SchedulerConfig()
        elif hasattr(config, "scheduler_config"):
            # The stable facade's ServeConfig (repro.api) — resolve it
            # here so both paths accept either type.
            config = config.scheduler_config()
        self.config = config
        self.host = host
        self.port = port
        self.check = check
        self.hold = hold
        self.max_queries = max_queries
        #: Optional fault injector (``repro serve --schedule``): due
        #: failure events fire inside the reactor's ticks, so socket
        #: sessions survive shard kills exactly like in-process runs.
        self.chaos = chaos
        #: The live metrics sink behind the proto/v1 ``stats`` reply.
        #: Callers may pass their own via ``config.obs`` (e.g. with
        #: span tracing on); otherwise the server runs a metrics-only
        #: instance, so ``stats`` always answers with real counters.
        if self.config.obs is None:
            self.obs = Observability(spans=False)
            self.config = dataclasses.replace(self.config, obs=self.obs)
        else:
            self.obs = self.config.obs
        self._core = ServingLoop(self.config, chaos=chaos)
        self._inbox: List[Tuple[Dict, _Connection]] = []
        self._held: List[Tuple[TenantSpec, _Connection]] = []
        self._owners: Dict[str, _Connection] = {}
        self._wake = asyncio.Event()
        self._finished = asyncio.Event()
        self._stopping = False
        self._results_sent = 0
        self._next_conn = 0
        self._anon = 0
        self._wall_start: Optional[float] = None
        self._wall_seconds = 0.0
        self._server: Optional[asyncio.AbstractServer] = None
        self._reactor_task: Optional[asyncio.Task] = None
        self._conns: set = set()
        self._handlers: set = set()

    # -- lifecycle -------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (port 0 resolves here)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        name = sock.getsockname()
        return name[0], name[1]

    async def start(self) -> "ReproServer":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self._reactor_task = asyncio.ensure_future(self._reactor())
        logger.info("listening on %s:%d", *self.address)
        return self

    async def stop(self) -> None:
        """Stop accepting, drain every queued submission and pending
        tick, and close the listener.  The final report is available
        afterwards via :meth:`report`."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._stopping = True
        self._wake.set()
        if self._reactor_task is not None:
            await self._reactor_task
            self._reactor_task = None
        # Unblock handlers still parked in read_frame, then wait for
        # them — leaving them to the event loop's teardown would spray
        # CancelledError tracebacks through the stream callbacks.
        for conn in list(self._conns):
            conn.closed = True
            conn.writer.close()
        if self._handlers:
            await asyncio.gather(*self._handlers,
                                 return_exceptions=True)
        self.obs.finalize(self._core)
        logger.info("stopped after %d result(s), tick %d",
                    self._results_sent, self._core.tick)

    async def wait_finished(self) -> None:
        """Resolve once ``max_queries`` results have been dispatched
        (immediately when no bound was set and the loop is idle)."""
        if self.max_queries is None:
            return
        await self._finished.wait()

    def report(self, check: Optional[bool] = None) -> ScheduleReport:
        """The session's :class:`ScheduleReport` — same payload
        contract as the in-process ``QueryScheduler.serve``."""
        effective = self.check if check is None else check
        return self._core.report(check=effective,
                                 wall_seconds=self._wall_seconds)

    def write_trace(self, path):
        """Record this session as an arrival trace that ``repro
        replay`` reproduces byte-identically; returns the trace."""
        from repro.workloads.traces import trace_from_specs

        trace = trace_from_specs(self._core.submitted, self.config)
        trace.save(path)
        return trace

    # -- connection handler ----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        conn = _Connection(self._next_conn, writer)
        self._next_conn += 1
        self._conns.add(conn)
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            if not await self._handshake(reader, conn):
                return
            while True:
                try:
                    message = await protocol.read_frame(reader)
                except protocol.ProtocolError as err:
                    conn.send(protocol.error(err.code, str(err)))
                    break
                if message is None:
                    break
                try:
                    kind = protocol.validate_message(message)
                except protocol.ProtocolError as err:
                    conn.send(protocol.error(err.code, str(err)))
                    if err.fatal:
                        break
                    await writer.drain()
                    continue
                if kind == "submit":
                    self._enqueue_submit(message, conn)
                elif kind == "stats":
                    conn.write(self._telemetry_frame())
                elif kind == "bye":
                    conn.send({"type": "goodbye"})
                    break
                else:
                    conn.send(protocol.error(
                        "bad-message",
                        f"unexpected {kind} after the handshake"))
                await writer.drain()
        finally:
            conn.closed = True
            self._conns.discard(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            if task is not None:
                self._handlers.discard(task)

    async def _handshake(self, reader: asyncio.StreamReader,
                         conn: _Connection) -> bool:
        try:
            first = await protocol.read_frame(reader)
            if first is None:
                return False
            kind = protocol.validate_message(first)
            if kind != "hello":
                raise protocol.ProtocolError(
                    "bad-message",
                    f"the first frame must be hello, got {kind}")
            conn.version = protocol.negotiate_version(first["versions"])
        except protocol.ProtocolError as err:
            conn.send(protocol.error(err.code, str(err)))
            await conn.writer.drain()
            return False
        conn.send(protocol.welcome(
            conn.version, sorted(SCENARIOS),
            self.config.policy.name, self.config.slots))
        await conn.writer.drain()
        return True

    def _enqueue_submit(self, message: Dict, conn: _Connection) -> None:
        """Validate field types, then hand the request to the reactor.

        Type errors are protocol errors (``error`` frame); semantic
        failures — unknown scenario, duplicate tenant name, admission
        rejection — come back as ``rejected`` frames from the reactor.
        """
        for field, kinds in (("tenant", str), ("scenario", str),
                             ("priority", str), ("rows", int),
                             ("seed", int), ("slots", int),
                             ("arrival_tick", int)):
            value = message.get(field)
            if value is not None and (not isinstance(value, kinds)
                                      or isinstance(value, bool)):
                conn.send(protocol.error(
                    "bad-field",
                    f"submit field {field!r} must be "
                    f"{kinds.__name__}, got {type(value).__name__}"))
                return
        if message.get("tenant") is None:
            message = dict(message, tenant=f"anon-{self._anon:04d}")
            self._anon += 1
        self._inbox.append((message, conn))
        self._wake.set()

    def _telemetry_frame(self) -> bytes:
        """The encoded ``stats`` reply: the quick loop summary plus the
        full metrics snapshot (docs/PROTOCOL.md §4).  The ``metrics``
        field rides on proto/v1's must-ignore-unknown-fields rule, so
        v1 clients that predate it keep working unchanged.  The
        snapshot grows with every tenant ever admitted; once it no
        longer fits a frame the reply carries the summary alone,
        marked ``metrics_truncated``, instead of killing the
        connection that asked."""
        core = self._core
        summary = {
            "type": "telemetry",
            "tick": core.tick,
            "active": len(core.active),
            "waiting": len(core.waiting),
            "suspended": len(core.suspended),
            "pending": len(core.pending),
            "finished": len(core.finished),
            "occupancy": sum(run.spec.slots for run in core.active),
            "slots": self.config.slots,
            "policy": self.config.policy.name,
        }
        try:
            return protocol.encode_frame(
                dict(summary, metrics=self.obs.registry.snapshot()))
        except protocol.ProtocolError:
            return protocol.encode_frame(
                dict(summary, metrics_truncated=True))

    # -- reactor ---------------------------------------------------------------

    def _admit(self, spec: TenantSpec, conn: _Connection) -> None:
        try:
            self._core.submit(spec)
        except (ValueError, SimulationError) as err:
            conn.send({"type": "rejected", "tenant": spec.tenant,
                       "reason": str(err)})
            return
        self._owners[spec.tenant] = conn
        conn.send({"type": "accepted", "tenant": spec.tenant,
                   "arrival_tick": spec.arrival_tick})

    def _drain_inbox(self) -> None:
        inbox, self._inbox = self._inbox, []
        for message, conn in inbox:
            scenario = message["scenario"]
            tenant = message["tenant"]
            if scenario not in SCENARIOS:
                conn.send({
                    "type": "rejected", "tenant": tenant,
                    "reason": f"unknown scenario {scenario!r} "
                              f"(available: "
                              f"{', '.join(sorted(SCENARIOS))})"})
                continue
            try:
                spec = TenantSpec(
                    tenant=tenant, scenario=scenario,
                    rows=message.get("rows", 240),
                    seed=message.get("seed", 0),
                    arrival_tick=max(0, message.get("arrival_tick", 0)),
                    priority=message.get("priority"),
                    slots=message.get("slots", 1))
            except ValueError as err:
                conn.send({"type": "rejected", "tenant": tenant,
                           "reason": str(err)})
                continue
            if self._held is not None and len(self._held) < self.hold:
                self._held.append((spec, conn))
                if len(self._held) == self.hold:
                    self._release_held()
                continue
            spec = self._restamped(spec)
            self._admit(spec, conn)

    def _restamped(self, spec: TenantSpec) -> TenantSpec:
        stamp = self._core.stamp(spec.arrival_tick)
        if stamp == spec.arrival_tick:
            return spec
        return dataclasses.replace(spec, arrival_tick=stamp)

    def _release_held(self) -> None:
        """Admit the hold batch in ``(arrival_tick, tenant)`` order —
        the order is a pure function of the specs, so the resulting
        tick domain is identical no matter how the sockets raced."""
        held, self._held = self._held, None
        for spec, conn in sorted(
                held, key=lambda item: (item[0].arrival_tick,
                                        item[0].tenant)):
            self._admit(self._restamped(spec), conn)

    def _dispatch(self, run) -> None:
        if self.check:
            run.evaluate()
        report = run.report()
        output_repr = (repr(report.result.output)
                       if report.result is not None else None)
        conn = self._owners.pop(run.spec.tenant, None)
        if conn is not None:
            conn.send(protocol.result_message(report, output_repr))
        self._results_sent += 1
        if (self.max_queries is not None
                and self._results_sent >= self.max_queries):
            self._finished.set()

    def _holding(self) -> bool:
        return (self._held is not None and len(self._held) > 0
                and len(self._held) < self.hold)

    async def _reactor(self) -> None:
        while True:
            self._wake.clear()
            if self._inbox:
                self._drain_inbox()
            if self._holding() and not self._stopping:
                await self._wake.wait()
                continue
            if self._stopping and self._held:
                # Session ended short of the hold target: release what
                # arrived so no submission is silently dropped.
                self._release_held()
            if self._core.has_work:
                if self._wall_start is None:
                    self._wall_start = time.perf_counter()
                finished = self._core.run_tick()
                self._wall_seconds = (time.perf_counter()
                                      - self._wall_start)
                for run in finished:
                    self._dispatch(run)
                # Yield so handlers can accept frames between ticks.
                await asyncio.sleep(0)
            elif self._inbox:
                continue
            elif self._stopping:
                break
            else:
                await self._wake.wait()


__all__ = ["ReproServer"]
