"""Seeded fault injection: failure schedules and live query migration.

The serving stack has every primitive the paper's §6/§7.2 design
implies for fault tolerance — checkpointed ``suspend_query`` /
``resume_query``, sharded switch frontends, the reliability protocol
over lossy channels — and this module is the harness that actually
kills things.  Failures come from a seeded, *replayable*
:class:`FailureSchedule` (versioned JSON lines, framed by the same
``repro.workloads.records`` codec as arrival traces), so every chaos
run is a deterministic regression test rather than a flake generator
(the FATE/DESTINI fault-injection-as-testing discipline).  The format
and the migration state machine are specified normatively in
``docs/CHAOS.md``.

Format summary (one JSON object per line):

* line 1 — the **header**: ``{"kind": "cheetah-chaos", "version": 1,
  ...}`` with provenance fields ``seed`` and the ``shards``/``workers``
  the generator assumed (informational);
* every following line — one **event record**: ``tick``
  (non-decreasing) plus ``event`` and its operand:

  - ``kill_shard`` (``shard``) — crash one physical switch pipeline;
    its installed queries are suspended via checkpoints and re-homed to
    survivors (:meth:`ShardedSwitchFrontend.kill_shard` — K logical
    shards on K−1 physical pipelines, results byte-identical);
  - ``restart`` (``shard``) — bring a crashed pipeline back, moving
    the migrated state home (K−1→K live);
  - ``kill_worker`` (``worker``) — crash one CWorker mid-pass; a
    survivor replays its unacked §7.2 window
    (:meth:`~repro.net.reliability.ReliableWorker.replay_window`);
  - ``degrade_channel`` (``loss_rate``) — degrade every live and
    future channel to the given loss rate.

:func:`parse_schedule` validates everything and raises
:class:`ValueError` naming the offending ``source:line``;
:func:`generate_schedule` is pure (same seed, same schedule, byte for
byte).  A :class:`ChaosController` injects due events into a
:class:`~repro.cluster.scheduler.ServingLoop` at the top of each tick;
``repro chaos``, ``repro bench chaos``, and the ``--schedule`` flag of
``repro serve`` / ``repro replay`` are the CLI surfaces.

>>> schedule = generate_schedule(seed=7, kills=2, shards=3, horizon=200)
>>> schedule == parse_schedule(schedule.to_jsonl())
True
>>> schedule.shard_kills >= 1
True
>>> parse_schedule('{"kind": "cheetah-chaos", "version": 99}')
Traceback (most recent call last):
    ...
ValueError: <schedule>:1: unsupported schedule version 99 (this parser reads version 1)
"""

from __future__ import annotations

import dataclasses
import logging
import random
from typing import Dict, List, Optional

from repro.workloads import records

logger = logging.getLogger(__name__)

#: Newest format version this module writes and reads.
CHAOS_VERSION = 1

#: Versions :func:`parse_schedule` accepts.
SUPPORTED_VERSIONS = (1,)

#: The header's ``kind`` discriminator.
CHAOS_KIND = "cheetah-chaos"

#: Event kinds a schedule may carry, with their required operand field.
EVENT_OPERANDS = {
    "kill_shard": "shard",
    "restart": "shard",
    "kill_worker": "worker",
    "degrade_channel": "loss_rate",
}

#: Header keys the parser accepts (anything else is a format error).
_HEADER_KEYS = frozenset({"kind", "version", "seed", "shards", "workers"})

#: Event-record keys the parser accepts (per-kind operand rules apply).
_EVENT_KEYS = frozenset({"tick", "event", "shard", "worker", "loss_rate"})


class ChaosError(ValueError):
    """A failure schedule cannot be applied to this serving run."""


@dataclasses.dataclass(frozen=True)
class FailureEvent:
    """One timed failure: when, what, and the operand.

    Exactly one operand is set, matching the event kind (see
    :data:`EVENT_OPERANDS`); the others stay ``None`` and are omitted
    from the serialized record.
    """

    tick: int
    event: str
    shard: Optional[int] = None
    worker: Optional[int] = None
    loss_rate: Optional[float] = None

    def to_record(self) -> Dict:
        """The event as its JSON-lines record (plain dict)."""
        record: Dict = {"tick": self.tick, "event": self.event}
        if self.shard is not None:
            record["shard"] = self.shard
        if self.worker is not None:
            record["worker"] = self.worker
        if self.loss_rate is not None:
            record["loss_rate"] = self.loss_rate
        return record


@dataclasses.dataclass(frozen=True)
class FailureSchedule:
    """A parsed (or generated) failure schedule.

    ``seed`` is generator provenance; ``shards``/``workers`` record the
    topology the generator assumed (informational — the applying run's
    config is authoritative, and :class:`ChaosController` rejects
    events that don't fit it).
    """

    events: tuple
    seed: int = 0
    shards: Optional[int] = None
    workers: Optional[int] = None

    @property
    def kills(self) -> int:
        """Kill events (shard or worker) in the schedule."""
        return sum(1 for e in self.events
                   if e.event in ("kill_shard", "kill_worker"))

    @property
    def shard_kills(self) -> int:
        """``kill_shard`` events in the schedule."""
        return sum(1 for e in self.events if e.event == "kill_shard")

    @property
    def duration_ticks(self) -> int:
        """Tick of the last event (0 for an empty schedule)."""
        if not self.events:
            return 0
        return self.events[-1].tick

    def header(self) -> Dict:
        """The schedule's header record (plain dict)."""
        record: Dict = {
            "kind": CHAOS_KIND,
            "version": CHAOS_VERSION,
            "seed": self.seed,
        }
        if self.shards is not None:
            record["shards"] = self.shards
        if self.workers is not None:
            record["workers"] = self.workers
        return record

    def to_jsonl(self) -> str:
        """The schedule serialized as JSON lines (header first)."""
        return records.dump(self.header(),
                            (e.to_record() for e in self.events))

    def save(self, path: str) -> str:
        """Write the schedule to ``path`` and return it."""
        return records.save(path, self.to_jsonl())


def _parse_header(record: Dict, source: str, line_no: int):
    seed = records.require_int(record, "seed", source, line_no, minimum=0,
                               default=0)
    shards = record.get("shards")
    if shards is not None:
        shards = records.require_int(record, "shards", source, line_no,
                                     minimum=1)
    workers = record.get("workers")
    if workers is not None:
        workers = records.require_int(record, "workers", source, line_no,
                                      minimum=1)
    return seed, shards, workers


def _parse_event(record: Dict, source: str, line_no: int,
                 last_tick: int, dead: set) -> FailureEvent:
    unknown = sorted(set(record) - _EVENT_KEYS)
    if unknown:
        records.fail(source, line_no,
                     f"unknown event field(s): {', '.join(unknown)}")
    kind = record.get("event")
    if kind not in EVENT_OPERANDS:
        records.fail(source, line_no,
                     f"unknown event kind {kind!r} (expected one of: "
                     f"{', '.join(sorted(EVENT_OPERANDS))})")
    tick = records.require_int(record, "tick", source, line_no, minimum=0)
    if tick < last_tick:
        records.fail(source, line_no,
                     f"event ticks must be non-decreasing: {tick} after "
                     f"{last_tick} (sort the schedule by tick)")
    operand = EVENT_OPERANDS[kind]
    extra = sorted((set(record) & {"shard", "worker", "loss_rate"})
                   - {operand})
    if extra:
        records.fail(
            source, line_no,
            f"{', '.join(repr(f) for f in extra)} "
            f"{'is not a field' if len(extra) == 1 else 'are not fields'}"
            f" of {kind!r} events (which take {operand!r})")
    if operand not in record:
        records.fail(source, line_no,
                     f"{kind!r} events need a {operand!r} field")
    shard = worker = loss_rate = None
    if operand == "shard":
        shard = records.require_int(record, "shard", source, line_no,
                                    minimum=0)
        if kind == "kill_shard":
            if shard in dead:
                records.fail(source, line_no,
                             f"shard {shard} is already dead here (restart "
                             "it before killing it again)")
            dead.add(shard)
        else:  # restart
            if shard not in dead:
                records.fail(source, line_no,
                             f"shard {shard} is not dead here (restart "
                             "must follow its kill_shard)")
            dead.discard(shard)
    elif operand == "worker":
        worker = records.require_int(record, "worker", source, line_no,
                                     minimum=0)
    else:
        loss_rate = records.require_rate(record, "loss_rate", source,
                                         line_no)
    return FailureEvent(tick=tick, event=kind, shard=shard,
                        worker=worker, loss_rate=loss_rate)


def parse_schedule(text: str,
                   source: str = "<schedule>") -> FailureSchedule:
    """Parse and validate JSON-lines failure schedule ``text``.

    The framing (``source:line`` diagnostics, blank lines, the header's
    kind/version checks) is :func:`repro.workloads.records.read`'s;
    this adds the event field rules and cross-event consistency:
    non-decreasing ticks, and killing an already-dead shard or
    restarting a shard that was never killed is a format error.
    """
    lines = records.read(text, source, noun="schedule", kind=CHAOS_KIND,
                         versions=SUPPORTED_VERSIONS,
                         header_keys=_HEADER_KEYS)
    line_no, header = next(lines)
    seed, shards, workers = _parse_header(header, source, line_no)
    events: List[FailureEvent] = []
    last_tick = 0
    dead: set = set()
    for line_no, record in lines:
        event = _parse_event(record, source, line_no,
                             last_tick=last_tick, dead=dead)
        last_tick = event.tick
        events.append(event)
    return FailureSchedule(events=tuple(events), seed=seed,
                           shards=shards, workers=workers)


def load_schedule(path: str) -> FailureSchedule:
    """Read and validate the JSON-lines failure schedule at ``path``."""
    return records.load(path, parse_schedule)


def generate_schedule(seed: int = 0, kills: int = 1, *,
                      shards: int = 2, workers: int = 4,
                      horizon: int = 240, restart: bool = True,
                      degrade_loss: Optional[float] = None,
                      ) -> FailureSchedule:
    """Synthesize a seeded ``kills``-event failure schedule.

    Kill events are spread across ``horizon`` ticks (size it to the
    run's expected makespan so kills land mid-query).  Even-numbered
    kills crash a live switch shard — so any schedule with
    ``kills >= 1`` and ``shards >= 2`` injects at least one shard kill
    — and are followed by a ``restart`` before the next kill (unless
    ``restart=False``, which leaves the pipeline down); odd-numbered
    kills crash a worker.  ``degrade_loss`` prepends a
    ``degrade_channel`` event.  Generation is deterministic: same
    arguments, same schedule, byte for byte.
    """
    if kills < 0:
        raise ValueError(f"kills must be >= 0, got {kills}")
    if seed < 0:
        # The format forbids negative seeds, so a negative seed here
        # would generate a schedule our own parser rejects.
        raise ValueError(f"seed must be >= 0, got {seed}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if degrade_loss is not None and not 0.0 <= degrade_loss < 1.0:
        raise ValueError(
            f"degrade_loss must be in [0, 1), got {degrade_loss}")
    # Decorrelate from the trace generators with a *stable* salt (never
    # hash(): string hashing is randomized per interpreter run).
    salt = sum(ord(ch) * 131 ** i for i, ch in enumerate("chaos"))
    rng = random.Random((seed * 2654435761 + salt) % (1 << 62))
    events: List[FailureEvent] = []
    clock = 0
    if degrade_loss is not None:
        clock = max(1, horizon // 20)
        events.append(FailureEvent(tick=clock, event="degrade_channel",
                                   loss_rate=degrade_loss))
    stride = max(3, horizon // (kills + 1))
    for index in range(kills):
        clock += max(2, stride // 2) + rng.randrange(max(1, stride // 2))
        if index % 2 == 0 and shards > 1:
            victim = rng.randrange(shards)
            events.append(FailureEvent(tick=clock, event="kill_shard",
                                       shard=victim))
            if restart:
                # Recovery strictly before the next kill can land.
                recovery = 1 + rng.randrange(max(1, stride // 3))
                events.append(FailureEvent(tick=clock + recovery,
                                           event="restart",
                                           shard=victim))
        else:
            events.append(FailureEvent(tick=clock, event="kill_worker",
                                       worker=rng.randrange(workers)))
    return FailureSchedule(events=tuple(events), seed=seed,
                           shards=shards, workers=workers)


class ChaosController:
    """Applies a :class:`FailureSchedule` to a live serving loop.

    The :class:`~repro.cluster.scheduler.ServingLoop` calls
    :meth:`apply_due` at the top of every tick; events whose tick has
    arrived are applied exactly once, in schedule order, against the
    loop's shared frontend and active transfers.  Application is a
    deterministic function of the schedule and the admitted specs —
    chaos runs replay tick for tick.  Telemetry (migrations, recovery
    ticks, replayed packets) accumulates on the controller and is
    summarized by :meth:`summary` for ``repro chaos`` and
    ``repro bench chaos``.

    A schedule that does not fit the run raises :class:`ChaosError`:
    ``kill_shard`` against an unsharded frontend or an out-of-range /
    already-dead / last-live shard, ``kill_worker`` beyond the config's
    worker count.
    """

    def __init__(self, schedule: FailureSchedule):
        self.schedule = schedule
        self._pending: List[FailureEvent] = list(schedule.events)
        #: Applied-event records (schedule fields + effect counters).
        self.applied: List[Dict] = []
        self.migrations = 0
        self.restored = 0
        self.replayed_packets = 0
        self.recovery_ticks = 0
        self._kill_ticks: Dict[int, int] = {}

    @property
    def pending(self) -> int:
        """Events whose tick has not arrived yet."""
        return len(self._pending)

    def apply_due(self, tick: int, loop) -> List[Dict]:
        """Apply every event with ``event.tick <= tick``, in order."""
        applied: List[Dict] = []
        while self._pending and self._pending[0].tick <= tick:
            event = self._pending.pop(0)
            applied.append(self._apply(event, tick, loop))
        return applied

    def _sharded(self, loop, event: FailureEvent):
        frontend = loop.frontend
        if not hasattr(frontend, "kill_shard"):
            raise ChaosError(
                f"{event.event} at tick {event.tick} needs a sharded "
                "frontend: run with shards >= 2")
        return frontend

    def _apply(self, event: FailureEvent, tick: int, loop) -> Dict:
        record = dict(event.to_record())
        record["applied_tick"] = tick
        if event.event == "kill_shard":
            frontend = self._sharded(loop, event)
            try:
                migrated = frontend.kill_shard(event.shard)
            except ValueError as error:
                raise ChaosError(
                    f"cannot apply kill_shard at tick {tick}: {error}"
                ) from None
            self.migrations += migrated
            self._kill_ticks[event.shard] = tick
            record["migrated_queries"] = migrated
        elif event.event == "restart":
            frontend = self._sharded(loop, event)
            try:
                restored = frontend.restart_shard(event.shard)
            except ValueError as error:
                raise ChaosError(
                    f"cannot apply restart at tick {tick}: {error}"
                ) from None
            self.restored += restored
            killed_at = self._kill_ticks.pop(event.shard, None)
            if killed_at is not None:
                record["recovery_ticks"] = tick - killed_at
                self.recovery_ticks += tick - killed_at
            record["restored_queries"] = restored
        elif event.event == "kill_worker":
            if event.worker >= loop.config.workers:
                raise ChaosError(
                    f"kill_worker at tick {tick} names worker "
                    f"{event.worker} but the run has only "
                    f"{loop.config.workers} workers")
            replayed = 0
            for run in loop.active:
                transfer = run.current
                if transfer is None or not transfer.workers:
                    continue
                # Map the dead worker index onto this transfer's flows
                # (a drain pass may carry fewer flows than workers).
                fids = sorted(transfer.workers)
                fid = fids[event.worker % len(fids)]
                replayed += transfer.workers[fid].replay_window()
            self.replayed_packets += replayed
            record["replayed_packets"] = replayed
        else:  # degrade_channel
            touched = 0
            for run in (loop.pending + loop.waiting
                        + loop.suspended + loop.active):
                run.sim.config.loss_rate = event.loss_rate
                touched += 1
                transfer = run.current
                if transfer is not None:
                    transfer.degrade(event.loss_rate)
            record["tenants_degraded"] = touched
        self.applied.append(record)
        logger.info("applied %s at tick %d", event.event, tick)
        return record

    def summary(self) -> Dict:
        """Deterministic, JSON-serializable telemetry of the run."""
        return {
            "events": len(self.schedule.events),
            "applied": len(self.applied),
            "pending": self.pending,
            "migrations": self.migrations,
            "restored": self.restored,
            "replayed_packets": self.replayed_packets,
            "recovery_ticks": self.recovery_ticks,
            "timeline": list(self.applied),
        }
