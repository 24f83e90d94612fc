"""Trace-replay workloads: recorded query arrival traces for the scheduler.

Synthetic back-to-back load (``repro serve``/``repro bench concurrency``)
measures makespan and aggregate throughput, but it cannot expose *tail*
behavior: p99 latency and slot-occupancy spikes only appear under
realistic arrival processes.  This module defines the versioned
JSON-lines trace format that ``repro replay`` feeds through the
multi-tenant :class:`~repro.cluster.scheduler.QueryScheduler`, plus
deterministic generators for three arrival processes (Poisson, bursty,
diurnal).  The format is specified normatively in ``docs/TRACES.md``.

Format summary (one JSON object per line):

* line 1 — the **header**: ``{"kind": "cheetah-trace", "version": 1,
  ...}`` with optional trace-wide ``loss_rate`` and ``shards``
  overrides (applied to the replaying scheduler's config) plus
  provenance fields ``process`` and ``seed`` (which knobs generated
  the trace — informational, not applied at replay);
* every following line — one **query record**: ``scenario`` (a name
  from the end-to-end suite), ``arrival_tick`` (non-decreasing),
  optional ``tenant`` name, ``rows`` (table scale), and ``seed``.
  **Version 2** additionally allows per-query QoS hints: ``priority``
  (a class name of the replaying scheduler's
  :class:`~repro.cluster.qos.QosPolicy`) and ``slots`` (serving-slot
  ask, >= 1).  Version-1 traces parse unchanged, and a v1 trace using
  a v2 field fails with a version-gating diagnostic; the writer emits
  the lowest version that can represent the trace.

Each query record is a :class:`TenantSpec`, the same record the
scheduler serves.  The line framing is shared with failure schedules
(:mod:`repro.workloads.records`).  :func:`parse_trace` validates
everything and raises :class:`ValueError` naming the offending
``source:line``; :func:`load_trace` reads a file.
Generation is pure: the same process, knobs, and seed always produce a
byte-identical trace.  :func:`trace_from_specs` records a live serve
session's tenants as a replayable trace (``repro serve
--record-trace``).

>>> trace = generate_trace("poisson", queries=3, rows=40, seed=7)
>>> [q.arrival_tick for q in trace.queries] == \\
...     [q.arrival_tick for q in generate_trace("poisson", queries=3,
...                                             rows=40, seed=7).queries]
True
>>> parse_trace(trace.to_jsonl()) == trace
True
>>> trace.header()["version"]        # no QoS hints -> version 1
1
>>> generate_trace("pareto", queries=2, rows=40, seed=7,
...                priorities=("interactive", "batch")).header()["version"]
2
>>> parse_trace('{"kind": "cheetah-trace", "version": 99}')
Traceback (most recent call last):
    ...
ValueError: <trace>:1: unsupported trace version 99 (this parser reads versions 1-2)
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Dict, List, Optional, Sequence

from repro.workloads import records

#: Newest format version this module writes and reads.  The writer
#: emits version 1 whenever a trace uses no v2 feature, so pre-QoS
#: consumers keep reading recorded traces that don't need the hints.
TRACE_VERSION = 2

#: Versions :func:`parse_trace` accepts.
SUPPORTED_VERSIONS = (1, 2)

#: The header's ``kind`` discriminator.
TRACE_KIND = "cheetah-trace"

#: Arrival processes :func:`generate_trace` knows how to synthesize.
ARRIVAL_PROCESSES = ("poisson", "burst", "diurnal", "pareto")

#: Scenario mix (all from the e2e suite) that generated traces,
#: ``repro serve`` and ``repro bench concurrency`` cycle through.
DEFAULT_MIX = (
    "distinct", "filter", "topn", "groupby_max",
    "having_sum", "groupby_sum", "skyline", "join",
)

#: Header keys the parser accepts (anything else is a format error).
_HEADER_KEYS = frozenset(
    {"kind", "version", "process", "seed", "loss_rate", "shards"}
)

#: Query-record keys the parser accepts in a version-1 trace.
_QUERY_KEYS = frozenset(
    {"tenant", "scenario", "rows", "seed", "arrival_tick"}
)

#: Additional query-record keys a version-2 trace may carry.
_QUERY_KEYS_V2 = frozenset({"priority", "slots"})


@dataclasses.dataclass(frozen=True)
class TenantSpec:
    """One tenant's request: a named scenario plus arrival time.

    This is both what the scheduler serves and one query record of an
    arrival trace.  ``priority`` names a class of the serving policy
    (:class:`~repro.cluster.qos.QosPolicy`; ``None`` = the policy's
    default class) and ``slots`` is the tenant's serving-slot ask —
    the version-2 QoS hints.  Their defaults (``None`` / ``1``) mean
    the record needs only trace version 1.
    """

    tenant: str
    scenario: str
    rows: int = 240
    seed: int = 0
    #: Global scheduler tick at which the tenant shows up (0 = start).
    arrival_tick: int = 0
    #: QoS class hint (a policy class name; None = policy default).
    priority: Optional[str] = None
    #: Serving slots this tenant occupies while admitted.
    slots: int = 1

    def __post_init__(self) -> None:
        if self.arrival_tick < 0:
            raise ValueError(
                f"arrival_tick must be >= 0, got {self.arrival_tick}"
            )
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots}")


def needs_v2(spec: TenantSpec) -> bool:
    """Does serializing ``spec`` require trace format version 2?"""
    return spec.priority is not None or spec.slots != 1


def to_record(spec: TenantSpec) -> Dict:
    """``spec`` as its JSON-lines query record (plain dict).  The v2
    hints are only emitted when set, so hint-free traces remain
    byte-identical to their version-1 serialization."""
    record = {
        "tenant": spec.tenant,
        "scenario": spec.scenario,
        "rows": spec.rows,
        "seed": spec.seed,
        "arrival_tick": spec.arrival_tick,
    }
    if spec.priority is not None:
        record["priority"] = spec.priority
    if spec.slots != 1:
        record["slots"] = spec.slots
    return record


@dataclasses.dataclass(frozen=True)
class Trace:
    """A parsed (or generated) arrival trace of :class:`TenantSpec`\\ s.

    ``loss_rate``/``shards`` are trace-wide scheduler overrides from the
    header; ``None`` means the replaying config's value applies.
    """

    queries: tuple
    process: str = "custom"
    seed: int = 0
    loss_rate: Optional[float] = None
    shards: Optional[int] = None

    @property
    def duration_ticks(self) -> int:
        """Arrival tick of the last query (0 for an empty trace)."""
        if not self.queries:
            return 0
        return self.queries[-1].arrival_tick

    @property
    def version(self) -> int:
        """Lowest format version that can represent this trace."""
        return 2 if any(needs_v2(q) for q in self.queries) else 1

    def header(self) -> Dict:
        """The trace's header record (plain dict)."""
        record = {
            "kind": TRACE_KIND,
            "version": self.version,
            "process": self.process,
            "seed": self.seed,
        }
        if self.loss_rate is not None:
            record["loss_rate"] = self.loss_rate
        if self.shards is not None:
            record["shards"] = self.shards
        return record

    def to_jsonl(self) -> str:
        """The trace serialized as JSON lines (header first)."""
        return records.dump(self.header(), map(to_record, self.queries))

    def save(self, path: str) -> str:
        """Write the trace to ``path`` and return it."""
        return records.save(path, self.to_jsonl())


def _parse_header(record: Dict, source: str, line_no: int):
    process = record.get("process", "custom")
    if process != "custom" and process not in ARRIVAL_PROCESSES:
        records.fail(source, line_no,
                     f"unknown arrival process {process!r} (expected one "
                     f"of: {', '.join(ARRIVAL_PROCESSES)}, or custom)")
    seed = records.require_int(record, "seed", source, line_no, minimum=0,
                               default=0)
    loss_rate = None
    if record.get("loss_rate") is not None:
        loss_rate = records.require_rate(record, "loss_rate", source,
                                         line_no)
    shards = record.get("shards")
    if shards is not None:
        shards = records.require_int(record, "shards", source, line_no,
                                     minimum=1)
    return process, seed, loss_rate, shards


def _parse_query(record: Dict, source: str, line_no: int,
                 index: int, scenarios, last_arrival: int,
                 seen_tenants: set, version: int) -> TenantSpec:
    allowed = _QUERY_KEYS if version < 2 else _QUERY_KEYS | _QUERY_KEYS_V2
    unknown = sorted(set(record) - allowed)
    if unknown:
        gated = sorted(set(unknown) & _QUERY_KEYS_V2)
        if gated:
            records.fail(
                source, line_no,
                f"{', '.join(repr(g) for g in gated)} "
                f"{'is a' if len(gated) == 1 else 'are'} version-2 "
                f"field{'s' if len(gated) > 1 else ''} but the header "
                f"declares version {version}")
        records.fail(source, line_no,
                     f"unknown query field(s): {', '.join(unknown)}")
    scenario = record.get("scenario")
    if not isinstance(scenario, str):
        records.fail(source, line_no, "query record needs a \"scenario\" "
                                      f"name, got {scenario!r}")
    if scenario not in scenarios:
        records.fail(source, line_no,
                     f"unknown scenario {scenario!r} (available: "
                     f"{', '.join(sorted(scenarios))})")
    arrival = records.require_int(record, "arrival_tick", source, line_no,
                                  minimum=0, default=0)
    if arrival < last_arrival:
        records.fail(source, line_no,
                     f"arrival ticks must be non-decreasing: {arrival} "
                     f"after {last_arrival} (sort the trace by "
                     f"arrival_tick)")
    rows = records.require_int(record, "rows", source, line_no,
                               minimum=20, default=240)
    seed = records.require_int(record, "seed", source, line_no, minimum=0,
                               default=0)
    tenant = record.get("tenant", f"q{index}")
    if not isinstance(tenant, str) or not tenant:
        records.fail(source, line_no, f"\"tenant\" must be a non-empty "
                                      f"string, got {tenant!r}")
    if tenant in seen_tenants:
        records.fail(source, line_no, f"duplicate tenant name {tenant!r}")
    seen_tenants.add(tenant)
    priority = record.get("priority")
    if priority is not None and (not isinstance(priority, str)
                                 or not priority):
        records.fail(source, line_no, f"\"priority\" must be a non-empty "
                                      f"QoS class name, got {priority!r}")
    slots = records.require_int(record, "slots", source, line_no,
                                minimum=1, default=1)
    return TenantSpec(tenant=tenant, scenario=scenario, rows=rows,
                      seed=seed, arrival_tick=arrival,
                      priority=priority, slots=slots)


def parse_trace(text: str, source: str = "<trace>") -> Trace:
    """Parse and validate JSON-lines trace ``text``.

    The framing (``source:line`` diagnostics, blank lines, the header's
    kind/version checks) is :func:`repro.workloads.records.read`'s;
    this adds the trace's field rules, non-decreasing arrivals and
    unique tenant names.
    """
    from repro.cluster.simulation import SCENARIOS

    lines = records.read(text, source, noun="trace", kind=TRACE_KIND,
                         versions=SUPPORTED_VERSIONS,
                         header_keys=_HEADER_KEYS)
    line_no, header = next(lines)
    process, seed, loss_rate, shards = _parse_header(header, source,
                                                     line_no)
    queries: List[TenantSpec] = []
    last_arrival = 0
    seen_tenants: set = set()
    for line_no, record in lines:
        query = _parse_query(record, source, line_no, index=len(queries),
                             scenarios=SCENARIOS,
                             last_arrival=last_arrival,
                             seen_tenants=seen_tenants,
                             version=header["version"])
        last_arrival = query.arrival_tick
        queries.append(query)
    return Trace(queries=tuple(queries), process=process, seed=seed,
                 loss_rate=loss_rate, shards=shards)


def load_trace(path: str) -> Trace:
    """Read and validate the JSON-lines trace at ``path``."""
    return records.load(path, parse_trace)


# ---------------------------------------------------------------------------
# Deterministic arrival-process generators
# ---------------------------------------------------------------------------

def _poisson_draw(rng: random.Random, lam: float) -> int:
    """One Poisson(lam) variate (Knuth's product method; lam is small)."""
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


def _poisson_arrivals(rng: random.Random, queries: int,
                      interarrival: float) -> List[int]:
    """Poisson process: exponential gaps with mean ``interarrival``."""
    arrivals = []
    clock = 0.0
    for _ in range(queries):
        clock += rng.expovariate(1.0 / interarrival)
        arrivals.append(int(clock))
    return arrivals


def _burst_arrivals(rng: random.Random, queries: int, burst_size: int,
                    burst_gap: int) -> List[int]:
    """Bursty process: ``burst_size`` simultaneous arrivals every
    ``burst_gap`` ticks (the open/closed-loop pattern that overflows a
    slot budget in a single tick)."""
    return [(i // burst_size) * burst_gap for i in range(queries)]


def _pareto_arrivals(rng: random.Random, queries: int,
                     interarrival: float, alpha: float) -> List[int]:
    """Heavy-tailed process: Pareto(alpha) inter-arrival gaps scaled so
    the mean gap is ``interarrival`` ticks (finite only for
    ``alpha > 1``).  Small ``alpha`` means occasional huge gaps between
    dense clumps — the flash-crowd pattern Poisson cannot produce."""
    scale = interarrival * (alpha - 1.0) / alpha
    arrivals = []
    clock = 0.0
    for _ in range(queries):
        # random.paretovariate(alpha) = U^(-1/alpha), mean a/(a-1).
        clock += scale * rng.paretovariate(alpha)
        arrivals.append(int(clock))
    return arrivals


def _diurnal_arrivals(rng: random.Random, queries: int,
                      interarrival: float, period: int,
                      amplitude: float) -> List[int]:
    """Diurnal process: per-tick Poisson thinning with a sinusoidal
    rate, peaking once per ``period`` ticks."""
    arrivals: List[int] = []
    tick = 0
    base_rate = 1.0 / interarrival
    while len(arrivals) < queries:
        rate = base_rate * (1.0 + amplitude
                            * math.sin(2.0 * math.pi * tick / period))
        count = _poisson_draw(rng, max(rate, 0.0))
        arrivals.extend([tick] * min(count, queries - len(arrivals)))
        tick += 1
    return arrivals


def generate_trace(process: str, queries: int, *, rows: int = 240,
                   seed: int = 0,
                   mix: Sequence[str] = DEFAULT_MIX,
                   interarrival: float = 30.0, burst_size: int = 4,
                   burst_gap: int = 120, period: int = 240,
                   amplitude: float = 0.9, alpha: float = 1.5,
                   priorities: Optional[Sequence[str]] = None,
                   loss_rate: Optional[float] = None,
                   shards: Optional[int] = None) -> Trace:
    """Synthesize a ``queries``-query trace under an arrival process.

    ``process`` is one of :data:`ARRIVAL_PROCESSES`: ``poisson``
    (exponential inter-arrival gaps with mean ``interarrival`` ticks),
    ``burst`` (``burst_size`` simultaneous arrivals every ``burst_gap``
    ticks), ``diurnal`` (a sinusoidally modulated Poisson rate with
    one peak per ``period`` ticks, swing set by ``amplitude``), or
    ``pareto`` (heavy-tailed Pareto(``alpha``) inter-arrival gaps with
    mean ``interarrival`` — flash crowds separated by long lulls;
    requires ``alpha > 1`` for the mean to exist).  Scenarios cycle
    through ``mix``; query ``i`` uses dataset seed ``seed + i`` and —
    when ``priorities`` is given — carries the ``i``-th (cycled) QoS
    class hint, making the trace format version 2.  Generation is
    deterministic: same arguments, same trace, byte for byte.
    """
    if process not in ARRIVAL_PROCESSES:
        raise ValueError(
            f"unknown arrival process {process!r} (expected one of: "
            f"{', '.join(ARRIVAL_PROCESSES)})"
        )
    if queries < 0:
        raise ValueError(f"queries must be >= 0, got {queries}")
    if seed < 0:
        # The format forbids negative seeds, so a negative seed here
        # would generate a trace our own parser rejects (breaking the
        # to_jsonl/parse_trace round-trip contract).
        raise ValueError(f"seed must be >= 0, got {seed}")
    if rows < 20:
        raise ValueError(f"rows must be >= 20, got {rows}")
    if not mix:
        raise ValueError("scenario mix must not be empty")
    if interarrival <= 0:
        raise ValueError(f"interarrival must be > 0, got {interarrival}")
    if burst_size < 1:
        raise ValueError(f"burst_size must be >= 1, got {burst_size}")
    if burst_gap < 1:
        raise ValueError(f"burst_gap must be >= 1, got {burst_gap}")
    if period < 2:
        raise ValueError(f"period must be >= 2, got {period}")
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError(f"amplitude must be in [0, 1], got {amplitude}")
    if alpha <= 1.0:
        raise ValueError(
            f"alpha must be > 1 (a Pareto tail index <= 1 has no finite "
            f"mean inter-arrival), got {alpha}"
        )
    if priorities is not None and not priorities:
        raise ValueError("priorities must not be empty when given")
    # Decorrelate the processes' draws with a *stable* per-process salt
    # (never hash(): string hashing is randomized per interpreter run).
    salt = sum(ord(ch) * 131 ** i for i, ch in enumerate(process))
    rng = random.Random((seed * 2654435761 + salt) % (1 << 62))
    if process == "poisson":
        arrivals = _poisson_arrivals(rng, queries, interarrival)
    elif process == "burst":
        arrivals = _burst_arrivals(rng, queries, burst_size, burst_gap)
    elif process == "pareto":
        arrivals = _pareto_arrivals(rng, queries, interarrival, alpha)
    else:
        arrivals = _diurnal_arrivals(rng, queries, interarrival, period,
                                     amplitude)
    trace_queries = tuple(
        TenantSpec(tenant=f"q{i}", scenario=mix[i % len(mix)], rows=rows,
                   seed=seed + i, arrival_tick=arrival,
                   priority=(None if priorities is None
                             else priorities[i % len(priorities)]))
        for i, arrival in enumerate(arrivals)
    )
    return Trace(queries=trace_queries, process=process, seed=seed,
                 loss_rate=loss_rate, shards=shards)


def trace_from_specs(specs: Sequence[TenantSpec], config) -> Trace:
    """Record served ``specs`` as a replayable trace.

    This is how every recorded session is written (``Session``,
    ``ReproServer`` and ``repro serve --record-trace``): the specs
    (tenant, scenario, rows, seed, arrival tick, and the v2 QoS hints)
    become a trace whose replay under the same ``config`` (a
    :class:`~repro.cluster.scheduler.SchedulerConfig`) reproduces the
    serve run byte-identically (``ScheduleReport.to_payload``).  The
    header pins the config's network conditions via
    ``loss_rate``/``shards`` and records its seed as provenance;
    queries are sorted by arrival tick (stable), satisfying the
    format's non-decreasing-arrival rule.
    """
    return Trace(queries=tuple(sorted(specs, key=lambda s: s.arrival_tick)),
                 seed=config.seed, loss_rate=config.loss_rate,
                 shards=config.shards)
