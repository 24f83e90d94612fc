"""End-to-end cluster simulation: every layer engaged on one query.

:class:`ClusterSimulation` is the driver that turns the repository's
layers into one runnable distributed system (the paper's Figure 1):

1. tables are partitioned across :class:`~repro.cluster.worker.CWorker`
   instances, which serialize each row's relevant columns to 64-bit wire
   words (:func:`~repro.cluster.worker.encode_value`);
2. entries travel as :class:`~repro.net.packet.CheetahPacket` bytes over
   :class:`~repro.net.channel.LossyChannel` instances under the §7.2
   reliability protocol (worker retransmission windows, switch sequence
   tracking, switch ACKs for pruned packets);
3. the switch — a single :class:`~repro.switch.controlplane.ControlPlane`
   or a :class:`~repro.cluster.runtime.ShardedSwitchFrontend` across K
   simulated pipelines — makes the prune decision per entry;
4. the master collects the survivors and completes the unchanged query,
   and the report is checked against the functional ``QueryPlan.run``.

**Late materialization** (§2, §3): each data packet carries the entry's
*global row identifier* next to the encoded relevant columns.  The
switch decides on the encoded values; the master only needs the
surviving row ids — it fetches those rows (the Spark shuffle) and
completes the query on original values, exactly what ``QueryPlan.run``
does with ``table.take(keep)``.  That is why results are *identical*,
not merely approximate, despite the fixed-point wire encoding.

**Drive modes.**  With ``pipelined=True`` (default) the event loop
drains each tick's arrival batch and the switch decides the whole batch
with one ``offer_batch`` call
(:class:`~repro.net.reliability.BatchedSwitchForwarder`), reusing the
vectorized dataplane; workers keep producing — bounded by the
retransmission window — while the switch consumes.  With
``pipelined=False`` every packet dispatches individually through
:class:`~repro.net.reliability.SwitchForwarder`.  Both modes make
bit-identical prune decisions and identical channel RNG draws, so their
delivered streams match exactly; the wall-clock difference (recorded by
``repro bench e2e``) is pure dispatch overhead.

**Driver structure.**  Every per-query driver is a *generator*: it
yields :class:`TransferRequest` objects describing one reliable wire
pass and is resumed with the delivered entries.  ``ClusterSimulation``
satisfies each request synchronously (one pass at a time);
:class:`~repro.cluster.scheduler.QueryScheduler` steps many tenants'
drivers concurrently, interleaving their active passes through one
shared event loop and one shared switch frontend — see
``docs/SCHEDULER.md``.

**Quantization caveat** (documented in ``docs/WIRE_FORMAT.md``): numeric
columns ride the wire as Q43.20 biased fixed point.  Values that are
exact in 20 fractional bits (all integers, and e.g. ``2.5``) round-trip
losslessly; sub-quantum distinctions (< 2**-20) can collapse at the
switch.  Pruning stays *sound* for order-based operators (the encoding
is monotone and pruners use strict comparisons), but DISTINCT keys and
SKYLINE points closer than one quantum may be over-pruned, and SUM
aggregates of non-representable floats accumulate rounding.  The
scenario suite and the equivalence tests use representable values.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cluster.runtime import (
    ShardedSwitchFrontend,
    ingress_capacity,
    shard_of,
)
from repro.cluster.worker import CWorker, decode_numeric, encode_value
from repro.core.expr import Col
from repro.core.groupby import GroupBySumAggregator
from repro.db.column import ColumnType
from repro.db.executor import ExecutionResult, execute
from repro.db.planner import QueryPlan, QueryPlanner, resolve_table
from repro.db.queries import (
    CompoundQuery,
    DistinctQuery,
    FilterQuery,
    GroupByQuery,
    HavingQuery,
    JoinQuery,
    Query,
    SkylineQuery,
    SortOrder,
    TopNQuery,
)
from repro.db.table import Table
from repro.net.channel import LossyChannel
from repro.net.congestion import RateController
from repro.net.reliability import (
    BatchedSwitchForwarder,
    MasterEndpoint,
    ReliableWorker,
    SwitchForwarder,
)
from repro.net.wire import unpack_ack
from repro.switch.controlplane import ControlPlane

TableSet = Union[Table, Mapping[str, Table]]


class SimulationError(ValueError):
    """The query cannot be driven over the wire as configured."""


@dataclasses.dataclass
class SimulationConfig:
    """Knobs of one end-to-end run.

    ``window`` bounds each worker's unACKed packets in flight, which is
    also the per-flow bound on the batch the pipelined switch drains per
    tick.  ``pipelined`` selects the batched switch frontend; the
    per-packet path is the reference.  ``fid_base`` offsets every flow
    id this simulation stamps on the wire — the multi-tenant scheduler
    gives each tenant a disjoint fid range so concurrent tenants' flows
    are globally distinguishable.

    **Transport knobs** (``docs/CONGESTION.md``): ``congestion``
    selects the send schedule — ``"fixed"`` (the historical
    fill-the-window-every-tick behaviour, bit-identical to before the
    knob existed) or ``"aimd"`` (per-stream
    :class:`~repro.net.congestion.RateController` pacing).
    ``queue_capacity`` bounds each switch pipeline's ingress queue
    (``None`` = unbounded); the worker→switch channel tail-drops past
    the aggregate bound and feeds queue-depth signals back to AIMD
    senders.  ``rate_weight`` scales the AIMD additive increment —
    the scheduler maps each tenant's QoS-class weight here, so
    "interactive beats batch" holds at the transport layer too.
    Results are unchanged by all three knobs: the §7.2 protocol
    delivers every entry for any loss < 1, so only ticks and
    retransmission counts move.
    """

    workers: int = 4
    loss_rate: float = 0.0
    reorder_window: int = 0
    shards: int = 1
    seed: int = 0
    window: int = 32
    timeout_ticks: int = 8
    pipelined: bool = True
    max_ticks: int = 2_000_000
    fid_base: int = 0
    congestion: str = "fixed"
    queue_capacity: Optional[int] = None
    rate_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not 0 <= self.fid_base < (1 << 16):
            raise ValueError(
                f"fid_base must fit the 16-bit wire fid, got {self.fid_base}"
            )
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(
                f"loss_rate must be in [0, 1), got {self.loss_rate}"
            )
        if self.reorder_window < 0:
            raise ValueError(
                f"reorder_window must be >= 0, got {self.reorder_window}"
            )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.congestion not in ("fixed", "aimd"):
            raise ValueError(
                f"congestion must be 'fixed' or 'aimd', "
                f"got {self.congestion!r}")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1 (or None for unbounded), "
                f"got {self.queue_capacity}")
        if self.rate_weight <= 0:
            raise ValueError(
                f"rate_weight must be > 0, got {self.rate_weight}")


@dataclasses.dataclass
class PassStats:
    """Protocol accounting for one wire pass."""

    name: str
    entries: int
    delivered: int
    ticks: int
    retransmissions: int
    switch_pruned: int
    switch_forwarded: int
    master_duplicates: int
    packets_sent: int
    packets_dropped: int


@dataclasses.dataclass
class SimulationReport:
    """Outcome of one end-to-end simulated execution."""

    result: ExecutionResult
    passes: List[PassStats]
    wall_seconds: float
    mode: str
    shards: int
    loss_rate: float
    reorder_window: int
    #: ``result == QueryPlan.run(...)``; ``None`` when ``check=False``.
    equivalent: Optional[bool] = None
    reference: Optional[ExecutionResult] = None

    @property
    def ticks(self) -> int:
        """Event-loop ticks summed over passes."""
        return sum(p.ticks for p in self.passes)

    @property
    def retransmissions(self) -> int:
        """Worker retransmissions summed over passes."""
        return sum(p.retransmissions for p in self.passes)

    @property
    def entries(self) -> int:
        """Unique entries offered to the wire across passes."""
        return sum(p.entries for p in self.passes)

    @property
    def delivered(self) -> int:
        """Entries that reached the master across passes."""
        return sum(p.delivered for p in self.passes)

    @property
    def switch_pruned(self) -> int:
        """Packets pruned (switch-ACKed) across passes."""
        return sum(p.switch_pruned for p in self.passes)

    @property
    def packets_dropped(self) -> int:
        """Channel-level drops across passes (loss events)."""
        return sum(p.packets_dropped for p in self.passes)


@dataclasses.dataclass
class TransferRequest:
    """Declarative description of one reliable wire pass.

    The per-query drivers are generators: instead of running a pass
    themselves they ``yield`` one of these and are resumed with the
    delivered entries per flow.  The solo :class:`ClusterSimulation`
    satisfies a request by stepping it to completion immediately; the
    multi-tenant :class:`~repro.cluster.scheduler.QueryScheduler`
    interleaves many tenants' active requests through one shared event
    loop, one tick per tenant per global tick.
    """

    name: str
    streams: Dict[int, List[Tuple[int, ...]]]
    entry_width: int
    scalar_fn: Callable
    batch_fn: Callable


class ActiveTransfer:
    """One in-flight wire pass, advanced one event-loop tick at a time.

    Bundles the per-pass protocol state — the three lossy channels, the
    reliable workers, the (batched) switch forwarder, and the master
    endpoint — behind a ``step()``/``done`` surface so the same
    machinery serves both drive styles: ``ClusterSimulation`` steps a
    single transfer until it completes, while the scheduler steps many
    concurrently, rotating the service order across tenants for
    fairness.
    """

    def __init__(self, request: TransferRequest, config: SimulationConfig,
                 salt: int):
        self.request = request
        self.config = config
        cfg = config
        # The worker->switch channel doubles as the (aggregate) switch
        # ingress queue: finite capacity tail-drops, and its depth is
        # the ECN-style signal fed back to AIMD senders each tick.
        self._ingress_bound = ingress_capacity(cfg.queue_capacity,
                                               cfg.shards)
        self.up = LossyChannel(cfg.loss_rate, cfg.reorder_window,
                               seed=salt + 1,
                               name=f"{request.name}:worker->switch",
                               capacity=self._ingress_bound)
        self.down = LossyChannel(cfg.loss_rate, cfg.reorder_window,
                                 seed=salt + 2,
                                 name=f"{request.name}:switch->master")
        self.acks = LossyChannel(cfg.loss_rate, cfg.reorder_window,
                                 seed=salt + 3, name=f"{request.name}:acks")
        self.controllers: Dict[int, RateController] = {}
        if cfg.congestion == "aimd":
            # Start at a quarter window per tick (the multiplicative
            # decreases find the queue's drain rate from above, like
            # slow-start overshoot) and recover one packet/tick per
            # acked window.
            self.controllers = {
                fid: RateController(weight=cfg.rate_weight,
                                    initial=max(1.0, cfg.window / 4),
                                    additive=1.0,
                                    cooldown=cfg.timeout_ticks)
                for fid in request.streams
            }
        self.workers = {
            fid: ReliableWorker(fid, entries,
                                timeout_ticks=cfg.timeout_ticks,
                                window=cfg.window,
                                controller=self.controllers.get(fid))
            for fid, entries in request.streams.items()
        }
        self._tail_drop_mark = 0
        if cfg.pipelined:
            self.switch = BatchedSwitchForwarder(
                request.scalar_fn, request.batch_fn,
                values_per_entry=request.entry_width)
        else:
            self.switch = SwitchForwarder(
                request.scalar_fn, values_per_entry=request.entry_width)
        self.master = MasterEndpoint()
        self.ticks = 0

    @property
    def done(self) -> bool:
        """All flows (including their FINs) are fully acknowledged."""
        return all(worker.done for worker in self.workers.values())

    def step(self) -> None:
        """Advance one tick: every worker retransmits timed-out packets
        and fills its window, the switch consumes the tick's arrivals
        (one ``offer_batch`` in pipelined mode, per-packet otherwise),
        the master ACKs, and ACKs drain back.  Loss and reordering apply
        independently on the worker->switch, switch->master, and ACK
        channels."""
        self.ticks += 1
        tick = self.ticks
        for worker in self.workers.values():
            worker.tick(tick, self.up)
        if self.controllers:
            # ECN-style feedback: observe the ingress queue after this
            # tick's sends, before the switch drains it.
            depth = self.up.pending()
            drops = self.up.tail_dropped - self._tail_drop_mark
            self._tail_drop_mark = self.up.tail_dropped
            for controller in self.controllers.values():
                controller.on_queue_signal(depth, self._ingress_bound,
                                           drops)
        arrivals = self.up.drain()
        if self.config.pipelined:
            self.switch.process_batch(arrivals, self.down, self.acks)
            self.master.process_batch(self.down.drain(), self.acks)
        else:
            for data in arrivals:
                self.switch.process(data, self.down, self.acks)
            for data in self.down.drain():
                self.master.process(data, self.acks)
        workers = self.workers
        for data in self.acks.drain():
            fid, seq, _ = unpack_ack(data)
            worker = workers.get(fid)
            if worker is not None:
                worker.on_ack_seq(seq)

    def degrade(self, loss_rate: float) -> None:
        """Chaos hook (``docs/CHAOS.md``): change the live channels'
        loss rate mid-pass.  The §7.2 protocol guarantees delivery for
        any loss < 1, so results are unchanged — only retransmissions
        and completion ticks move."""
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(
                f"loss_rate must be in [0, 1), got {loss_rate}")
        for channel in (self.up, self.down, self.acks):
            channel.loss_rate = loss_rate

    def delivered(self) -> Dict[int, List[Tuple[int, ...]]]:
        """Entries that reached the master, per flow, in sequence order."""
        return {fid: self.master.received(fid)
                for fid in self.request.streams}

    def stats(self) -> PassStats:
        """Protocol accounting for the (completed) pass."""
        return PassStats(
            name=self.request.name,
            entries=sum(len(s) for s in self.request.streams.values()),
            delivered=sum(self.master.received_count(fid)
                          for fid in self.request.streams),
            ticks=self.ticks,
            retransmissions=sum(w.retransmissions
                                for w in self.workers.values()),
            switch_pruned=self.switch.pruned,
            switch_forwarded=self.switch.forwarded,
            master_duplicates=self.master.duplicates,
            packets_sent=self.up.sent + self.down.sent + self.acks.sent,
            packets_dropped=(self.up.dropped + self.down.dropped
                             + self.acks.dropped),
        )


def _surviving_ids(delivered: Dict[int, List[Tuple[int, ...]]],
                   index: int = 0) -> List[int]:
    """Sorted global row ids extracted from delivered entries."""
    ids = {int(values[index]) for flow in delivered.values()
           for values in flow}
    return sorted(ids)


_JOIN_SIDE = {0: "A", 1: "B"}


class ClusterSimulation:
    """Execute a planned query end-to-end through the real layers.

    ``run(query, tables)`` plans the query, drives it over the simulated
    cluster under this simulation's :class:`SimulationConfig`, and (by
    default) checks the result against the functional ``QueryPlan.run``
    path — the two must be *identical* for every supported query shape.

    Wire restrictions (each raises :class:`SimulationError` with the
    reason): string columns may only appear where a 64-bit fingerprint
    suffices — DISTINCT keys, GROUP BY / HAVING keys, and JOIN keys.
    FILTER predicates, ordering columns, SKYLINE dimensions, and SUM
    values must be numeric, because the switch has to parse them back
    from the fixed-point field; SUM/COUNT GROUP BY additionally needs a
    numeric key (the master must invert the key words to name the output
    groups).
    """

    def __init__(self, config: Optional[SimulationConfig] = None,
                 planner: Optional[QueryPlanner] = None,
                 frontend_factory: Optional[Callable[[], Any]] = None):
        self.config = config or SimulationConfig()
        self.planner = planner or QueryPlanner(seed=self.config.seed)
        #: When set, every driver uses this instead of building a fresh
        #: frontend — the multi-tenant scheduler injects a factory that
        #: returns the *shared* switch frontend, so concurrent tenants'
        #: queries pack into one data plane (§6).
        self.frontend_factory = frontend_factory
        self._pass_salt = 0

    # -- public entry ---------------------------------------------------------
    def run(self, query: Query, tables: TableSet,
            check: bool = True) -> SimulationReport:
        """Drive ``query`` over the simulated cluster.

        With ``check=True`` (default) the same plan is also executed
        functionally via ``QueryPlan.run`` and the two results compared;
        ``report.equivalent`` records the verdict.
        """
        self._pass_salt = 0
        plan = self.planner.plan(query)
        passes: List[PassStats] = []
        start = time.perf_counter()
        result = self._execute(plan, query, tables, passes)
        wall = time.perf_counter() - start
        equivalent = reference = None
        if check:
            reference = plan.run(tables)
            equivalent = result == reference.result
        return SimulationReport(
            result=result,
            passes=passes,
            wall_seconds=wall,
            mode="pipelined" if self.config.pipelined else "sequential",
            shards=self.config.shards,
            loss_rate=self.config.loss_rate,
            reorder_window=self.config.reorder_window,
            equivalent=equivalent,
            reference=None if reference is None else reference.result,
        )

    async def run_async(self, query: Query, tables: TableSet,
                        check: bool = True,
                        yield_every: int = 32) -> SimulationReport:
        """Asyncio-friendly :meth:`run`: identical results, same seeds.

        The transfer loop yields control to the event loop every
        ``yield_every`` protocol ticks (``await asyncio.sleep(0)``), so
        a long pass cannot starve other coroutines — this is the drive
        mode embedders (and :mod:`repro.serving`'s reactor pattern) use
        when a solo query must run inside a live event loop.  The tick
        domain is untouched: the report is byte-for-byte the one
        :meth:`run` returns, because yielding happens *between* ticks.
        """
        import asyncio

        if yield_every < 1:
            raise ValueError(
                f"yield_every must be >= 1, got {yield_every}")
        self._pass_salt = 0
        plan = self.planner.plan(query)
        passes: List[PassStats] = []
        gen = self._query_generator(plan, query, tables)
        start = time.perf_counter()
        value = None
        while True:
            try:
                request = gen.send(value)
            except StopIteration as stop:
                result = stop.value
                break
            active = self.begin_transfer(request)
            since_yield = 0
            while not active.done:
                if active.ticks >= self.config.max_ticks:
                    raise SimulationError(
                        f"pass {request.name!r} did not complete within "
                        f"{self.config.max_ticks} ticks (protocol "
                        "livelock?)"
                    )
                active.step()
                since_yield += 1
                if since_yield >= yield_every:
                    since_yield = 0
                    await asyncio.sleep(0)
            passes.append(active.stats())
            value = active.delivered()
        wall = time.perf_counter() - start
        equivalent = reference = None
        if check:
            reference = plan.run(tables)
            equivalent = result == reference.result
        return SimulationReport(
            result=result,
            passes=passes,
            wall_seconds=wall,
            mode="pipelined" if self.config.pipelined else "sequential",
            shards=self.config.shards,
            loss_rate=self.config.loss_rate,
            reorder_window=self.config.reorder_window,
            equivalent=equivalent,
            reference=None if reference is None else reference.result,
        )

    # -- dispatch -------------------------------------------------------------
    def _execute(self, plan: QueryPlan, query: Query, tables: TableSet,
                 passes: List[PassStats]) -> ExecutionResult:
        return self._drive(self._query_generator(plan, query, tables),
                           passes)

    def query_generator(self, query: Query, tables: TableSet):
        """Plan ``query`` and return its driver generator.

        The generator yields :class:`TransferRequest` objects and
        expects each pass's delivered entries sent back in; its return
        value (``StopIteration.value``) is the final
        :class:`~repro.db.executor.ExecutionResult`.  This is the
        scheduler-facing surface: ``QueryScheduler`` steps many of
        these concurrently over one shared switch frontend.
        """
        plan = self.planner.plan(query)
        return self._query_generator(plan, query, tables)

    def _query_generator(self, plan: QueryPlan, query: Query,
                         tables: TableSet):
        if isinstance(query, CompoundQuery):
            outputs = []
            for part in query.parts:
                part_plan = self.planner.plan(part)
                result = yield from self._query_generator(part_plan, part,
                                                          tables)
                outputs.append(result.output)
            return ExecutionResult(query=query, output=tuple(outputs))
        handler = _SIM_HANDLERS.get(type(query))
        if handler is None:
            raise SimulationError(
                f"no end-to-end driver for {type(query).__name__}"
            )
        return (yield from handler(self, plan, query, tables))

    def begin_transfer(self, request: TransferRequest) -> ActiveTransfer:
        """Fresh channels (deterministically re-salted per pass) and
        protocol state for ``request``; the caller steps it."""
        self._pass_salt += 1
        salt = self.config.seed * 7919 + self._pass_salt * 104729
        return ActiveTransfer(request, self.config, salt)

    def _drive(self, gen, passes: List[PassStats]) -> ExecutionResult:
        """Satisfy a driver generator's transfer requests synchronously."""
        value = None
        while True:
            try:
                request = gen.send(value)
            except StopIteration as stop:
                return stop.value
            value = self._run_transfer(request, passes)

    def _run_transfer(self, request: TransferRequest,
                      passes: List[PassStats],
                      ) -> Dict[int, List[Tuple[int, ...]]]:
        """Run one requested pass to completion (the solo drive mode)."""
        active = self.begin_transfer(request)
        while not active.done:
            if active.ticks >= self.config.max_ticks:
                raise SimulationError(
                    f"pass {request.name!r} did not complete within "
                    f"{self.config.max_ticks} ticks (protocol livelock?)"
                )
            active.step()
        passes.append(active.stats())
        return active.delivered()

    # -- shared plumbing ------------------------------------------------------
    def _frontend(self):
        """The switch frontend for one query driver: the shared one when
        a scheduler injected a factory, else a fresh control plane (or K
        sharded planes)."""
        if self.frontend_factory is not None:
            return self.frontend_factory()
        if self.config.shards > 1:
            return ShardedSwitchFrontend(self.planner.switch,
                                         self.config.shards,
                                         seed=self.planner.seed)
        return ControlPlane(self.planner.switch, seed=self.planner.seed)

    def _cworkers(self, table: Table) -> List[Tuple[CWorker, int]]:
        """CWorkers over contiguous partitions, with global row offsets.

        Flow ids start at ``config.fid_base`` so concurrent tenants
        (which get disjoint bases from the scheduler) never collide on
        the wire."""
        out = []
        base = 0
        fid_base = self.config.fid_base
        for i, part in enumerate(table.partition(self.config.workers)):
            out.append((CWorker(i, part, fid=fid_base + i), base))
            base += len(part)
        return out

    def _require_numeric(self, table: Table, columns: Sequence[str],
                         context: str) -> None:
        for column in columns:
            if table.column(column).ctype is ColumnType.STR:
                raise SimulationError(
                    f"{context}: column {column!r} is a string column and "
                    "cannot be decoded from its 64-bit fingerprint at the "
                    "switch (only DISTINCT keys, GROUP BY/HAVING keys, "
                    "and JOIN keys may be strings on the wire)"
                )

    def _prune_adapters(self, frontend, fid: int,
                        to_entry: Callable[[Tuple[int, ...]], Any]):
        """(scalar, batch) prune functions mapping wire values to the
        installed pruner's entry shape."""
        def scalar(values):
            return frontend.offer(fid, to_entry(values))

        def batch(batch_values):
            return frontend.offer_batch(
                fid, [to_entry(values) for values in batch_values])

        return scalar, batch

    def _absorb_adapters(self, frontend, fid: int,
                         to_entry: Callable[[Tuple[int, ...]], Any]):
        """Adapters for passes the switch consumes entirely (JOIN pass 1:
        offer builds the filters, then the packet is switch-ACKed)."""
        def scalar(values):
            frontend.offer(fid, to_entry(values))
            return True

        def batch(batch_values):
            frontend.offer_batch(
                fid, [to_entry(values) for values in batch_values])
            return [True] * len(batch_values)

        return scalar, batch

    @staticmethod
    def _never_prune_adapters():
        return (lambda values: False,
                lambda batch_values: [False] * len(batch_values))

    def _transfer(self, name: str,
                  streams: Dict[int, List[Tuple[int, ...]]],
                  entry_width: int,
                  scalar_fn, batch_fn):
        """Yield one wire pass; the generator is resumed with the
        delivered entries per flow (see :class:`TransferRequest`)."""
        delivered = yield TransferRequest(
            name=name, streams=streams, entry_width=entry_width,
            scalar_fn=scalar_fn, batch_fn=batch_fn)
        return delivered

    def _single_pass(self, name: str, plan: QueryPlan,
                     table: Table, columns: Sequence[str],
                     to_entry: Callable[[Tuple[int, ...]], Any],
                     transforms: Optional[Mapping] = None):
        """The common single-pass flow: stream ``(row_id, columns...)``
        entries through the switch, return the surviving row ids.  The
        query's rules are uninstalled as soon as the pass completes,
        releasing its pack slot to concurrently served tenants."""
        frontend = self._frontend()
        installation = frontend.install_query(plan.spec)
        streams = {
            worker.fid: worker.indexed_entries(columns, base=base,
                                               transforms=transforms)
            for worker, base in self._cworkers(table)
        }
        scalar, batch = self._prune_adapters(frontend, installation.fid,
                                             to_entry)
        delivered = yield from self._transfer(name, streams,
                                              1 + len(columns),
                                              scalar, batch)
        frontend.uninstall_query(installation.fid)
        return _surviving_ids(delivered)

    # -- per-query drivers (generators; see TransferRequest) ------------------
    def _sim_filter(self, plan, query: FilterQuery, tables):
        table = resolve_table(tables, query.table)
        columns = list(query.relevant_columns())
        self._require_numeric(table, columns, "FILTER predicate")

        def to_row(values):
            return {column: decode_numeric(word)
                    for column, word in zip(columns, values[1:])}

        ids = yield from self._single_pass("filter", plan, table, columns,
                                           to_row)
        return execute(query, table.take(ids))

    def _sim_distinct(self, plan, query: DistinctQuery, tables):
        table = resolve_table(tables, query.table)
        columns = list(query.key_columns)
        if len(columns) == 1:
            def to_key(values):
                return values[1]
        else:
            def to_key(values):
                return tuple(values[1:])
        ids = yield from self._single_pass("distinct", plan, table,
                                           columns, to_key)
        return execute(query, table.take(ids))

    def _sim_topn(self, plan, query: TopNQuery, tables):
        table = resolve_table(tables, query.table)
        column = query.order_column
        self._require_numeric(table, [column], "TOP-N ordering")
        transforms = None
        if query.order is SortOrder.ASC:
            # The switch registers keep "largest seen"; ascending order
            # negates at the CWorker so the same program applies.
            transforms = {column: lambda value: -value}

        def to_value(values):
            return decode_numeric(values[1])

        ids = yield from self._single_pass("topn", plan, table, [column],
                                           to_value,
                                           transforms=transforms)
        return execute(query, table.take(ids))

    def _sim_skyline(self, plan, query: SkylineQuery, tables):
        table = resolve_table(tables, query.table)
        dimensions = list(query.dimensions)
        self._require_numeric(table, dimensions, "SKYLINE dimensions")

        def to_point(values):
            return tuple(decode_numeric(word) for word in values[1:])

        ids = yield from self._single_pass("skyline", plan, table,
                                           dimensions, to_point)
        return execute(query, table.take(ids))

    def _sim_groupby(self, plan, query: GroupByQuery, tables):
        if not query.switch_offloadable:
            return (yield from self._sim_groupby_sum(plan, query, tables))
        table = resolve_table(tables, query.table)
        self._require_numeric(table, [query.value_column],
                              "GROUP BY value")

        def to_entry(values):
            return (values[1], decode_numeric(values[2]))

        ids = yield from self._single_pass(
            "groupby", plan, table,
            [query.key_column, query.value_column], to_entry)
        return execute(query, table.take(ids))

    def _sim_groupby_sum(self, plan, query: GroupByQuery, tables):
        """SUM/COUNT GROUP BY: in-switch partial aggregation (§6).

        Every data packet is absorbed at the switch (and switch-ACKed,
        like a pruned packet).  Evicted partials go to a per-shard
        outbox that is merged by key, and a FIN-time *drain pass* —
        itself reliable, flow-per-shard — ships ``(key, partial)``
        entries to the master, which reconstructs the exact aggregate.
        Staging evictions in the outbox (rather than racing them down
        the lossy channel inside the victim packet) is what makes the
        aggregate loss-proof: a partial only leaves the switch under the
        ACK protocol.
        """
        table = resolve_table(tables, query.table)
        count_mode = query.aggregate == "count"
        self._require_numeric(table, [query.key_column],
                              "SUM/COUNT GROUP BY key")
        columns = [query.key_column]
        if not count_mode:
            self._require_numeric(table, [query.value_column],
                                  "GROUP BY SUM value")
            columns.append(query.value_column)
        shards = self.config.shards
        aggregators = [
            GroupBySumAggregator(rows=self.planner.scaled(4096, floor=1),
                                 width=8, count_mode=count_mode,
                                 seed=self.planner.seed)
            for _ in range(shards)
        ]
        outbox: List[Dict[Any, float]] = [{} for _ in range(shards)]
        route_seed = self.planner.seed

        def absorb(values) -> bool:
            key = values[1]
            amount = 1 if count_mode else decode_numeric(values[2])
            shard = 0 if shards == 1 else shard_of(key, shards, route_seed)
            evicted = aggregators[shard].offer(key, amount)
            if evicted is not None:
                evicted_key, partial = evicted
                box = outbox[shard]
                box[evicted_key] = box.get(evicted_key, 0) + partial
            return True

        streams = {
            worker.fid: worker.indexed_entries(columns, base=base)
            for worker, base in self._cworkers(table)
        }
        yield from self._transfer("groupby_sum", streams, 1 + len(columns),
                                  absorb, lambda vs: [absorb(v) for v in vs])
        # FIN-time drain: one reliable flow per shard streams the merged
        # partials (outbox + live matrix) to the master.
        drain_streams: Dict[int, List[Tuple[int, ...]]] = {}
        for shard in range(shards):
            merged = dict(outbox[shard])
            for key, partial in aggregators[shard].drain():
                merged[key] = merged.get(key, 0) + partial
            drain_streams[self.config.fid_base + shard] = [
                (key, encode_value(partial))
                for key, partial in merged.items()
            ]
        scalar, batch = self._never_prune_adapters()
        delivered = yield from self._transfer("groupby_sum:drain",
                                              drain_streams, 2,
                                              scalar, batch)
        totals: Dict[int, float] = {}
        for flow in delivered.values():
            for key_word, partial_word in flow:
                totals[key_word] = (totals.get(key_word, 0)
                                    + decode_numeric(partial_word))
        output = {
            decode_numeric(key_word): (int(total) if count_mode else total)
            for key_word, total in totals.items()
        }
        return ExecutionResult(query=query, output=output)

    def _sim_join(self, plan, query: JoinQuery, tables):
        if isinstance(tables, Table):
            raise SimulationError(
                "JOIN needs a mapping of table name -> Table")
        left = tables[query.left_table]
        right = tables[query.right_table]
        frontend = self._frontend()
        installation = frontend.install_query(plan.spec)
        fid = installation.fid
        sides = ((0, query.left_table, left, query.left_key),
                 (1, query.right_table, right, query.right_key))
        # Pass 1: stream both key columns to build the Bloom filters;
        # the switch consumes (and switch-ACKs) every packet.
        scalar, batch = self._absorb_adapters(
            frontend, fid, lambda values: (_JOIN_SIDE[values[0]],
                                           values[1]))
        for tag, table_name, table, key_column in sides:
            streams = self._join_streams(table, key_column, tag,
                                         with_ids=False)
            yield from self._transfer(f"join:pass1:{table_name}", streams,
                                      2, scalar, batch)
        frontend.pruner_for(fid).start_second_pass()
        # Pass 2: re-stream the prunable sides with row ids; survivors'
        # ids select the pruned tables (an OUTER side ships whole).
        scalar, batch = self._prune_adapters(
            frontend, fid, lambda values: (_JOIN_SIDE[values[0]],
                                           values[2]))
        prunable = query.prunable_sides
        kept: Dict[str, List[int]] = {}
        for tag, table_name, table, key_column in sides:
            if table_name not in prunable:
                kept[table_name] = list(range(len(table)))
                continue
            streams = self._join_streams(table, key_column, tag,
                                         with_ids=True)
            delivered = yield from self._transfer(
                f"join:pass2:{table_name}", streams, 3, scalar, batch)
            kept[table_name] = _surviving_ids(delivered, index=1)
        frontend.uninstall_query(fid)
        pruned = {
            query.left_table: left.take(kept[query.left_table]),
            query.right_table: right.take(kept[query.right_table]),
        }
        return execute(query, pruned)

    def _join_streams(self, table: Table, key_column: str, tag: int,
                      with_ids: bool) -> Dict[int, List[Tuple[int, ...]]]:
        streams = {}
        for worker, base in self._cworkers(table):
            column = worker.partition.column(key_column)
            if with_ids:
                streams[worker.fid] = [
                    (tag, base + i, encode_value(column[i]))
                    for i in range(len(worker.partition))
                ]
            else:
                streams[worker.fid] = [
                    (tag, encode_value(column[i]))
                    for i in range(len(worker.partition))
                ]
        return streams

    def _sim_having(self, plan, query: HavingQuery, tables):
        table = resolve_table(tables, query.table)
        frontend = self._frontend()
        installation = frontend.install_query(plan.spec)
        count_mode = query.aggregate == "count"
        value_is_str = (table.column(query.value_column).ctype
                        is ColumnType.STR)
        if count_mode and value_is_str:
            # COUNT never reads the value; ship the key word alone.
            columns = [query.key_column]

            def to_entry(values):
                return (values[1], 0)
        else:
            self._require_numeric(table, [query.value_column],
                                  "HAVING value")
            columns = [query.key_column, query.value_column]

            def to_entry(values):
                return (values[1], decode_numeric(values[2]))

        streams = {
            worker.fid: worker.indexed_entries(columns, base=base)
            for worker, base in self._cworkers(table)
        }
        scalar, batch = self._prune_adapters(frontend, installation.fid,
                                             to_entry)
        delivered = yield from self._transfer("having:pass1", streams,
                                              1 + len(columns), scalar,
                                              batch)
        if query.aggregate in ("max", "min"):
            # Witness forwarding is exact: complete on the survivors.
            frontend.uninstall_query(installation.fid)
            return execute(query, table.take(_surviving_ids(delivered)))
        # SUM/COUNT: the switch sketch yields a candidate-key superset;
        # the partial second pass (§4.3) streams only those keys' rows
        # (matched by key word at the CWorker), unpruned, and the master
        # computes the exact aggregates on the fetched rows.
        candidates = frontend.pruner_for(installation.fid).candidate_keys()
        frontend.uninstall_query(installation.fid)
        second_streams: Dict[int, List[Tuple[int, ...]]] = {}
        for worker, base in self._cworkers(table):
            column = worker.partition.column(query.key_column)
            second_streams[worker.fid] = [
                (base + i,)
                for i in range(len(worker.partition))
                if encode_value(column[i]) in candidates
            ]
        scalar, batch = self._never_prune_adapters()
        delivered = yield from self._transfer("having:pass2",
                                              second_streams, 1,
                                              scalar, batch)
        return execute(query, table.take(_surviving_ids(delivered)))


_SIM_HANDLERS = {
    FilterQuery: ClusterSimulation._sim_filter,
    DistinctQuery: ClusterSimulation._sim_distinct,
    TopNQuery: ClusterSimulation._sim_topn,
    SkylineQuery: ClusterSimulation._sim_skyline,
    GroupByQuery: ClusterSimulation._sim_groupby,
    JoinQuery: ClusterSimulation._sim_join,
    HavingQuery: ClusterSimulation._sim_having,
}


# ---------------------------------------------------------------------------
# Scenario suite (CLI `repro run <scenario> --loss ...` and `bench e2e`)
# ---------------------------------------------------------------------------

def _synthetic_table(rows: int, seed: int, keys: Optional[int] = None,
                     value_hi: Optional[int] = None) -> Table:
    rng = random.Random(seed)
    keys = keys or max(2, rows // 20)
    value_hi = value_hi or max(4, rows)
    return Table.from_rows("T", [
        {"k": rng.randrange(keys), "v": rng.randrange(1, value_hi)}
        for _ in range(rows)
    ])


def _scenario_distinct(rows: int, seed: int):
    return (DistinctQuery(key_columns=("k",)),
            _synthetic_table(rows, seed))


def _scenario_filter(rows: int, seed: int):
    return (FilterQuery(predicate=Col("v") > max(2, rows // 2)),
            _synthetic_table(rows, seed))


def _scenario_topn(rows: int, seed: int):
    return (TopNQuery(n=10, order_column="v"),
            _synthetic_table(rows, seed, value_hi=1 << 18))


def _scenario_skyline(rows: int, seed: int):
    rng = random.Random(seed ^ 0x51)
    table = Table.from_rows("P", [
        {"x": rng.randrange(1000), "y": rng.randrange(1000)}
        for _ in range(rows)
    ])
    return SkylineQuery(dimensions=("x", "y")), table


def _scenario_groupby_max(rows: int, seed: int):
    return (GroupByQuery(key_column="k", value_column="v",
                         aggregate="max"),
            _synthetic_table(rows, seed))


def _scenario_groupby_sum(rows: int, seed: int):
    return (GroupByQuery(key_column="k", value_column="v",
                         aggregate="sum"),
            _synthetic_table(rows, seed, value_hi=100))


def _scenario_having_sum(rows: int, seed: int):
    table = _synthetic_table(rows, seed, value_hi=100)
    total = sum(table.column("v"))
    keys = max(2, rows // 20)
    # ~2x the mean per-key mass: a handful of keys qualify.
    threshold = 2.0 * total / keys
    return (HavingQuery(key_column="k", value_column="v",
                        threshold=threshold, aggregate="sum"),
            table)


def _scenario_join(rows: int, seed: int):
    rng = random.Random(seed ^ 0x10)
    key_space = max(4, rows // 2)
    left = Table.from_rows("L", [
        {"lk": rng.randrange(key_space), "lv": rng.randrange(1000)}
        for _ in range(rows)
    ])
    right = Table.from_rows("R", [
        {"rk": rng.randrange(2 * key_space), "rv": rng.randrange(1000)}
        for _ in range(max(2, rows // 2))
    ])
    query = JoinQuery(left_table="L", right_table="R",
                      left_key="lk", right_key="rk")
    return query, {"L": left, "R": right}


def _scenario_tpch_q3(rows: int, seed: int):
    """The TPC-H Q3 offload (§8.2): both joins over the filtered inputs,
    packed as one compound query; ``rows`` sizes the lineitem table."""
    from repro.workloads.tpch import (
        SF1_LINEITEMS,
        TPCHGenerator,
        q3_filtered_inputs,
        tpch_q3_queries,
    )

    scale = max(rows, 60) / SF1_LINEITEMS
    tables = q3_filtered_inputs(TPCHGenerator(scale=scale, seed=seed)
                                .tables())
    join_co, join_ol, _ = tpch_q3_queries()
    return CompoundQuery(parts=(join_co, join_ol)), tables


def _bigdata_tables(rows: int, seed: int):
    from repro.workloads.bigdata import BigDataGenerator, SAMPLE_USERVISITS_ROWS

    scale = max(rows, 20) / SAMPLE_USERVISITS_ROWS
    return BigDataGenerator(scale=scale, seed=seed).tables()


def _scenario_bigdata_q1(rows: int, seed: int):
    from repro.workloads.bigdata import benchmark_query

    return benchmark_query(1), _bigdata_tables(rows, seed)


def _scenario_bigdata_q2(rows: int, seed: int):
    from repro.workloads.bigdata import benchmark_query

    return benchmark_query(2), _bigdata_tables(rows, seed)


def _scenario_bigdata_q4(rows: int, seed: int):
    from repro.workloads.bigdata import benchmark_query

    return benchmark_query(4), _bigdata_tables(rows, seed)


#: Named end-to-end scenarios: name -> builder(rows, seed) -> (query,
#: tables).  ``repro run <name> --loss R --reorder W --shards K`` drives
#: any of these through the full stack.
SCENARIOS: Dict[str, Callable[[int, int], Tuple[Query, TableSet]]] = {
    "distinct": _scenario_distinct,
    "filter": _scenario_filter,
    "topn": _scenario_topn,
    "skyline": _scenario_skyline,
    "groupby_max": _scenario_groupby_max,
    "groupby_sum": _scenario_groupby_sum,
    "having_sum": _scenario_having_sum,
    "join": _scenario_join,
    "tpch_q3": _scenario_tpch_q3,
    "bigdata_q1": _scenario_bigdata_q1,
    "bigdata_q2": _scenario_bigdata_q2,
    "bigdata_q4": _scenario_bigdata_q4,
}


def build_scenario(name: str, rows: int = 1200,
                   seed: int = 0) -> Tuple[Query, TableSet]:
    """Instantiate a named scenario at roughly ``rows`` input rows."""
    try:
        builder = SCENARIOS[name]
    except KeyError:
        raise SimulationError(
            f"unknown scenario {name!r} "
            f"(available: {', '.join(sorted(SCENARIOS))})"
        ) from None
    if rows < 20:
        raise SimulationError(f"scenario needs rows >= 20, got {rows}")
    return builder(rows, seed)
