"""Load generator: one server child, a single-threaded asyncio client.

The parent process drives the ``ReproServer`` child over loopback TCP
with at most ``nproc`` connections, speaking ``proto/v1`` through the
public codec functions of :mod:`repro.serving.protocol`.  Every frame
is counted and every result frame is time-stamped as it is read.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import struct
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional

from catalog import (MIX, PRIORITIES, TRACE_ARRIVAL_SEED, TRACE_GAP_TICKS,
                     TRACE_INTERARRIVAL, WARMUP_QUERIES, Workload)
from repro.serving import protocol
from repro.workloads.traces import generate_trace

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: Seconds any single wait may take before the run is declared broken;
#: keeps a wedged server inside the contract's 180 s ceiling.
WAIT_LIMIT = 120.0

_LENGTH = struct.Struct("!I")

#: glibc malloc thresholds the server child runs with.  Left to adapt
#: themselves, they flip the server between two regimes for hundreds of
#: queries at a time: one where every query install gets its Bloom and
#: cache-matrix arrays from fresh ``mmap``/``brk`` pages and gives them
#: back on free (page faults on every install: ``join`` 9.7 ms,
#: ``tpch_q3`` 19 ms on ``small_closed``), one where the heap keeps and
#: reuses them (4.3 ms, 8.1 ms).  Which regime a query meets depends on
#: heap history, so identical runs differed by +-10% in CPU time and
#: class medians jumped.  Pinned: blocks under 32 MB (the largest value
#: glibc accepts) come from the heap, and the heap is never trimmed.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(2_000_000_000)}


class ServerProcess:
    """The server child (``child.py``) and its three-line protocol."""

    def __init__(self, server: Dict, hold: int = 0, trace: bool = False,
                 span_out: Optional[str] = None):
        spec = {"server": server, "hold": hold, "trace": trace,
                "span_out": span_out}
        env = dict(os.environ, **MALLOC_ENV)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.kill()
            raise RuntimeError("server child exited before listening")
        self.port: int = json.loads(line)["port"]

    def cpu_seconds(self) -> float:
        """User + system CPU the child has used so far (``/proc``)."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self, t0: float, t1: float) -> Dict:
        """Send the timed window, let the server drain, read its summary."""
        try:
            out, _ = self.proc.communicate(
                json.dumps({"t0": t0, "t1": t1}) + "\n", timeout=WAIT_LIMIT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"server child exited with code {self.proc.returncode}")
        return json.loads(out)

    def kill(self) -> None:
        """End a child whose summary is not wanted (set-up repeats)."""
        self.proc.kill()
        self.proc.communicate()


class Connection:
    """One ``proto/v1`` connection with frame and byte counters."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.frames = 0
        self.bytes = 0

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        conn = cls(reader, writer)
        conn.send(protocol.hello("stack-bench"))
        welcome = await conn.read()
        if welcome.get("type") != "welcome":
            raise RuntimeError(f"expected welcome, got {welcome}")
        return conn

    def send(self, message: Dict) -> None:
        data = protocol.encode_frame(message)
        self.frames += 1
        self.bytes += len(data)
        self.writer.write(data)

    async def read(self) -> Dict:
        header = await asyncio.wait_for(
            self.reader.readexactly(_LENGTH.size), WAIT_LIMIT)
        (length,) = _LENGTH.unpack(header)
        payload = await asyncio.wait_for(
            self.reader.readexactly(length), WAIT_LIMIT)
        self.frames += 1
        self.bytes += _LENGTH.size + length
        return protocol.decode_payload(payload)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@dataclasses.dataclass
class QueryRecord:
    """One query as the client saw it."""

    submit: Dict
    sent_at: float = 0.0
    accepted_at: Optional[float] = None
    done_at: Optional[float] = None
    #: The ``result`` frame, or the ``rejected``/``error`` frame that
    #: ended the query, or ``None`` when nothing came back.
    frame: Optional[Dict] = None


def query_specs(workload: Workload, seed: int, timed: int) -> List[Dict]:
    """Submit messages for the warm-up queries followed by ``timed``
    timed ones.  Query ``n`` runs ``MIX[n % 7]`` on dataset seed
    ``seed + n``; warm-up tenants are named ``w…``, timed ones ``q…``."""
    total = WARMUP_QUERIES + timed
    if workload.mode == "trace":
        trace = generate_trace("poisson", queries=total,
                               rows=workload.rows, seed=TRACE_ARRIVAL_SEED,
                               interarrival=TRACE_INTERARRIVAL)
        arrivals = [q.arrival_tick for q in trace.queries]
        gap = arrivals[WARMUP_QUERIES - 1] + TRACE_GAP_TICKS
    specs = []
    for n in range(total):
        warm = n < WARMUP_QUERIES
        extra = {}
        if workload.mode == "trace":
            extra = {"priority": PRIORITIES[n % len(PRIORITIES)],
                     "arrival_tick": arrivals[n] + (0 if warm else gap)}
        specs.append(protocol.submit(
            MIX[n % len(MIX)], rows=workload.rows, seed=seed + n,
            tenant=f"w{n:05d}" if warm else f"q{n - WARMUP_QUERIES:05d}",
            **extra))
    return specs


async def _closed_loop(conns: List[Connection],
                       records: List[QueryRecord]) -> None:
    """Each connection sends its next query only after the previous
    one's result; a free connection takes the next unsent query."""
    pending = iter(records)

    async def client(conn: Connection) -> None:
        for record in pending:
            record.sent_at = time.perf_counter()
            conn.send(record.submit)
            frame = await conn.read()
            if frame.get("type") == "accepted":
                record.accepted_at = time.perf_counter()
                frame = await conn.read()
            record.done_at = time.perf_counter()
            record.frame = frame

    await asyncio.gather(*(client(conn) for conn in conns))


async def _read_results(conn: Connection, records: Dict[str, QueryRecord],
                        on_done: Callable[[QueryRecord], None]) -> None:
    """Time-stamp frames until every query of ``records`` has ended."""
    open_queries = len(records)
    while open_queries:
        frame = await conn.read()
        now = time.perf_counter()
        record = records.get(frame.get("tenant"))
        if record is None:
            raise RuntimeError(f"unexpected frame {frame}")
        if frame.get("type") == "accepted":
            record.accepted_at = now
            continue
        record.done_at = now
        record.frame = frame
        open_queries -= 1
        on_done(record)


@dataclasses.dataclass
class Session:
    """A set-up server with its connections and warm-up records."""

    server: ServerProcess
    conns: List[Connection]
    warmup: List[QueryRecord]
    timed: List[QueryRecord]
    #: Trace mode only: reader tasks already collecting timed results.
    readers: List[asyncio.Task]
    stats_rtt_ms: float
    setup_s: float

    async def discard(self) -> None:
        """End a session whose server summary is not wanted."""
        for task in self.readers:
            task.cancel()
        self.server.kill()
        for conn in self.conns:
            await conn.close()


async def set_up(workload: Workload, seed: int, timed: int, *,
                 trace: bool = False,
                 span_out: Optional[str] = None) -> Session:
    """Spawn a server, connect, and run the warm-up queries.

    ``setup_s`` covers process spawn → ``welcome`` on every connection →
    one ``stats`` round trip → warm-up results read.  In trace mode it
    also covers trace generation and submitting the whole trace: the
    hold barrier admits nothing until every submission is in, so the
    server builds every dataset before the first warm-up tick."""
    began = time.perf_counter()
    specs = query_specs(workload, seed, timed)
    records = [QueryRecord(spec) for spec in specs]
    warmup, rest = records[:WARMUP_QUERIES], records[WARMUP_QUERIES:]
    server = ServerProcess(
        workload.server_config(seed),
        hold=len(specs) if workload.mode == "trace" else 0,
        trace=trace, span_out=span_out)
    readers: List[asyncio.Task] = []
    try:
        conns = [await Connection.open(server.port)
                 for _ in range(workload.connections)]
        rtt = await stats_rtt_ms(conns[0])
        if workload.mode == "trace":
            by_conn: List[Dict[str, QueryRecord]] = [{} for _ in conns]
            now = time.perf_counter()
            for n, record in enumerate(records):
                record.sent_at = now
                conns[n % len(conns)].send(record.submit)
                by_conn[n % len(conns)][record.submit["tenant"]] = record
            warm_left = len(warmup)
            warm_done = asyncio.Event()

            def on_done(record: QueryRecord) -> None:
                nonlocal warm_left
                warm_left -= record.submit["tenant"].startswith("w")
                if not warm_left:
                    warm_done.set()

            readers = [asyncio.ensure_future(
                _read_results(conn, mine, on_done))
                for conn, mine in zip(conns, by_conn)]
            waiter = asyncio.ensure_future(warm_done.wait())
            done, _ = await asyncio.wait([waiter, *readers],
                                         return_when=asyncio.FIRST_COMPLETED)
            waiter.cancel()
            for task in done - {waiter}:
                task.result()  # a reader that ended early raises here
        else:
            await _closed_loop(conns, warmup)
    except BaseException:
        for task in readers:
            task.cancel()
        server.kill()
        raise
    return Session(server, conns, warmup, rest, readers, rtt,
                   time.perf_counter() - began)


async def run_timed(workload: Workload, session: Session) -> None:
    """Drive the timed queries to completion (results land in
    ``session.timed``)."""
    if workload.mode == "trace":
        await asyncio.gather(*session.readers)
    else:
        await _closed_loop(session.conns, session.timed)


async def stats_rtt_ms(conn: Connection, repeats: int = 5) -> float:
    """Median round trip of a ``stats`` request, in milliseconds."""
    samples = []
    for _ in range(repeats):
        began = time.perf_counter()
        conn.send({"type": "stats"})
        frame = await conn.read()
        if frame.get("type") != "telemetry":
            raise RuntimeError(f"expected telemetry, got {frame}")
        samples.append((time.perf_counter() - began) * 1e3)
    return median(samples)
