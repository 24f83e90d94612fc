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

:func:`parse_trace` validates everything and raises :class:`ValueError`
naming the offending ``source:line``; :func:`load_trace` reads a file.
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
import json
import math
import random
from typing import Dict, List, Optional, Sequence

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
class TraceQuery:
    """One recorded query arrival: what runs, how big, and when.

    ``priority`` and ``slots`` are the version-2 QoS hints: the name of
    a priority class of the replaying scheduler's policy, and the
    serving-slot ask.  Their defaults (``None`` / ``1``) mean the query
    needs only version 1 on the wire.
    """

    tenant: str
    scenario: str
    rows: int = 240
    seed: int = 0
    arrival_tick: int = 0
    priority: Optional[str] = None
    slots: int = 1

    @property
    def needs_v2(self) -> bool:
        """Does serializing this query require format version 2?"""
        return self.priority is not None or self.slots != 1

    def to_record(self) -> Dict:
        """The query as its JSON-lines record (plain dict).  The v2
        hints are only emitted when set, so hint-free traces remain
        byte-identical to their version-1 serialization."""
        record = {
            "tenant": self.tenant,
            "scenario": self.scenario,
            "rows": self.rows,
            "seed": self.seed,
            "arrival_tick": self.arrival_tick,
        }
        if self.priority is not None:
            record["priority"] = self.priority
        if self.slots != 1:
            record["slots"] = self.slots
        return record


@dataclasses.dataclass(frozen=True)
class Trace:
    """A parsed (or generated) arrival trace.

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
        return 2 if any(q.needs_v2 for q in self.queries) else 1

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
        lines = [json.dumps(self.header(), sort_keys=True)]
        lines += [json.dumps(q.to_record(), sort_keys=True)
                  for q in self.queries]
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> str:
        """Write the trace to ``path`` and return it."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_jsonl())
        return path

    def tenant_specs(self) -> List:
        """The trace's queries as scheduler :class:`TenantSpec`s."""
        from repro.cluster.scheduler import TenantSpec

        return [
            TenantSpec(tenant=q.tenant, scenario=q.scenario, rows=q.rows,
                       seed=q.seed, arrival_tick=q.arrival_tick,
                       priority=q.priority, slots=q.slots)
            for q in self.queries
        ]


def _fail(source: str, line_no: int, message: str) -> None:
    raise ValueError(f"{source}:{line_no}: {message}")


def _require_int(record: Dict, key: str, source: str, line_no: int,
                 minimum: int, default: Optional[int] = None) -> int:
    value = record.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(source, line_no, f"{key!r} must be an integer, "
                               f"got {value!r}")
    if value < minimum:
        _fail(source, line_no, f"{key!r} must be >= {minimum}, "
                               f"got {value}")
    return value


def _parse_header(record: Dict, source: str, line_no: int):
    if record.get("kind") != TRACE_KIND:
        _fail(source, line_no,
              f"first line must be the trace header with "
              f"\"kind\": \"{TRACE_KIND}\", got kind={record.get('kind')!r}")
    version = record.get("version")
    if not isinstance(version, int) or isinstance(version, bool):
        _fail(source, line_no, f"\"version\" must be an integer, "
                               f"got {version!r}")
    if version not in SUPPORTED_VERSIONS:
        _fail(source, line_no,
              f"unsupported trace version {version} (this parser reads "
              f"versions {SUPPORTED_VERSIONS[0]}-{SUPPORTED_VERSIONS[-1]})")
    unknown = sorted(set(record) - _HEADER_KEYS)
    if unknown:
        _fail(source, line_no,
              f"unknown header field(s): {', '.join(unknown)}")
    process = record.get("process", "custom")
    if process != "custom" and process not in ARRIVAL_PROCESSES:
        _fail(source, line_no,
              f"unknown arrival process {process!r} (expected one of: "
              f"{', '.join(ARRIVAL_PROCESSES)}, or custom)")
    seed = _require_int(record, "seed", source, line_no, minimum=0,
                        default=0)
    loss_rate = record.get("loss_rate")
    if loss_rate is not None:
        if not isinstance(loss_rate, (int, float)) \
                or isinstance(loss_rate, bool) \
                or not 0.0 <= loss_rate < 1.0:
            _fail(source, line_no, f"\"loss_rate\" must be a number in "
                                   f"[0, 1), got {loss_rate!r}")
        loss_rate = float(loss_rate)
    shards = record.get("shards")
    if shards is not None:
        shards = _require_int(record, "shards", source, line_no,
                              minimum=1)
    return version, process, seed, loss_rate, shards


def _parse_query(record: Dict, source: str, line_no: int,
                 index: int, scenarios, last_arrival: int,
                 seen_tenants: set, version: int) -> TraceQuery:
    allowed = _QUERY_KEYS if version < 2 else _QUERY_KEYS | _QUERY_KEYS_V2
    unknown = sorted(set(record) - allowed)
    if unknown:
        gated = sorted(set(unknown) & _QUERY_KEYS_V2)
        if gated:
            _fail(source, line_no,
                  f"{', '.join(repr(g) for g in gated)} "
                  f"{'is a' if len(gated) == 1 else 'are'} version-2 "
                  f"field{'s' if len(gated) > 1 else ''} but the header "
                  f"declares version {version}")
        _fail(source, line_no,
              f"unknown query field(s): {', '.join(unknown)}")
    scenario = record.get("scenario")
    if not isinstance(scenario, str):
        _fail(source, line_no, "query record needs a \"scenario\" name, "
                               f"got {scenario!r}")
    if scenario not in scenarios:
        _fail(source, line_no,
              f"unknown scenario {scenario!r} (available: "
              f"{', '.join(sorted(scenarios))})")
    arrival = _require_int(record, "arrival_tick", source, line_no,
                           minimum=0, default=0)
    if arrival < last_arrival:
        _fail(source, line_no,
              f"arrival ticks must be non-decreasing: {arrival} after "
              f"{last_arrival} (sort the trace by arrival_tick)")
    rows = _require_int(record, "rows", source, line_no, minimum=20,
                        default=240)
    seed = _require_int(record, "seed", source, line_no, minimum=0,
                        default=0)
    tenant = record.get("tenant", f"q{index}")
    if not isinstance(tenant, str) or not tenant:
        _fail(source, line_no, f"\"tenant\" must be a non-empty string, "
                               f"got {tenant!r}")
    if tenant in seen_tenants:
        _fail(source, line_no, f"duplicate tenant name {tenant!r}")
    seen_tenants.add(tenant)
    priority = record.get("priority")
    if priority is not None and (not isinstance(priority, str)
                                 or not priority):
        _fail(source, line_no, f"\"priority\" must be a non-empty QoS "
                               f"class name, got {priority!r}")
    slots = _require_int(record, "slots", source, line_no, minimum=1,
                         default=1)
    return TraceQuery(tenant=tenant, scenario=scenario, rows=rows,
                      seed=seed, arrival_tick=arrival,
                      priority=priority, slots=slots)


def parse_trace(text: str, source: str = "<trace>") -> Trace:
    """Parse and validate JSON-lines trace ``text``.

    Every diagnostic is a :class:`ValueError` whose message starts with
    ``source:line`` so a bad line in a recorded trace is directly
    addressable.  Blank lines are permitted (and keep their line
    numbers); the header must be the first non-blank line.
    """
    from repro.cluster.simulation import SCENARIOS

    header = None
    queries: List[TraceQuery] = []
    last_arrival = 0
    seen_tenants: set = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            _fail(source, line_no, f"malformed JSON ({error.msg} at "
                                   f"column {error.colno})")
        if not isinstance(record, dict):
            _fail(source, line_no, "every trace line must be a JSON "
                                   f"object, got {type(record).__name__}")
        if header is None:
            header = _parse_header(record, source, line_no)
            continue
        query = _parse_query(record, source, line_no, index=len(queries),
                             scenarios=SCENARIOS,
                             last_arrival=last_arrival,
                             seen_tenants=seen_tenants,
                             version=header[0])
        last_arrival = query.arrival_tick
        queries.append(query)
    if header is None:
        _fail(source, 1, "empty trace: expected a header line "
                         f"({{\"kind\": \"{TRACE_KIND}\", \"version\": "
                         f"{TRACE_VERSION}}})")
    _version, process, seed, loss_rate, shards = header
    return Trace(queries=tuple(queries), process=process, seed=seed,
                 loss_rate=loss_rate, shards=shards)


def load_trace(path: str) -> Trace:
    """Read and validate the JSON-lines trace at ``path``."""
    with open(path, encoding="utf-8") as f:
        return parse_trace(f.read(), source=path)


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
        TraceQuery(tenant=f"q{i}", scenario=mix[i % len(mix)], rows=rows,
                   seed=seed + i, arrival_tick=arrival,
                   priority=(None if priorities is None
                             else priorities[i % len(priorities)]))
        for i, arrival in enumerate(arrivals)
    )
    return Trace(queries=trace_queries, process=process, seed=seed,
                 loss_rate=loss_rate, shards=shards)


def trace_from_specs(specs: Sequence, seed: int = 0,
                     loss_rate: Optional[float] = None,
                     shards: Optional[int] = None) -> Trace:
    """Record scheduler ``TenantSpec``\\ s as a replayable trace.

    This is the ``repro serve --record-trace`` surface: the serve
    session's admissions (tenant, scenario, rows, seed, arrival tick,
    and the v2 QoS hints) become a trace whose replay under the same
    :class:`~repro.cluster.scheduler.SchedulerConfig` reproduces the
    serve run byte-identically (``ScheduleReport.to_payload``).  The
    header pins the session's network conditions via
    ``loss_rate``/``shards`` and records the scheduler seed as
    provenance; queries are sorted by arrival tick (stable), satisfying
    the format's non-decreasing-arrival rule.
    """
    ordered = sorted(specs, key=lambda s: s.arrival_tick)
    return Trace(
        queries=tuple(
            TraceQuery(tenant=spec.tenant, scenario=spec.scenario,
                       rows=spec.rows, seed=spec.seed,
                       arrival_tick=spec.arrival_tick,
                       priority=spec.priority, slots=spec.slots)
            for spec in ordered
        ),
        process="custom", seed=seed, loss_rate=loss_rate, shards=shards,
    )
