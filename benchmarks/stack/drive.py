"""Kernel drive: time the per-packet kernels on the workload's own data.

The traced run wraps nothing that is called per packet, so the codec,
channel, worker-encode and prune kernels get their numbers here: the
warm-up queries' packet and frame streams are rebuilt through public
APIs only, each kernel is called directly over them (median of
:data:`REPEATS` repeats), and every result is asserted equal to the
scalar reference before its time is reported.
"""

from __future__ import annotations

import time
from collections import Counter
from statistics import median
from typing import Callable, Dict, List, Sequence, Tuple

from catalog import Workload
from repro.cluster.simulation import (ClusterSimulation, SimulationConfig,
                                      build_scenario)
from repro.cluster.worker import CWorker, encode_value
from repro.db.table import Table
from repro.net import wire
from repro.net.channel import LossyChannel
from repro.net.packet import FIN_FLAG, Ack, AckKind, CheetahPacket
from repro.serving import protocol
from spans import SpanRecorder

REPEATS = 5

#: ``SimulationConfig`` defaults the scheduler serves every tenant with.
WORKERS = 4
WINDOW = 32


def _median_seconds(fn: Callable[[], object]) -> Tuple[float, object]:
    """Median wall time of ``fn`` over the repeats, and its last result."""
    samples = []
    for _ in range(REPEATS):
        began = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - began)
    return median(samples), result


def _tick_batches(streams: Dict[int, List[Tuple[int, ...]]]
                  ) -> List[List[Tuple[int, Tuple[int, ...]]]]:
    """``(fid, entry)`` arrivals per tick of a loss-free pass: every
    flow sends one window per tick and is fully acknowledged within it."""
    longest = max(len(entries) for entries in streams.values())
    return [[(fid, entry) for fid, entries in streams.items()
             for entry in entries[at:at + WINDOW]]
            for at in range(0, longest, WINDOW)]


def _drive_query(workload: Workload, submit: Dict, batched: bool):
    """Run one query's passes against a fresh data plane, loss-free.

    Returns ``(decisions, prune_seconds, entries, streams)``: the prune
    decision of every entry in arrival order, the time spent inside the
    pass's prune function, and each pass's per-flow entry streams."""
    query, tables = build_scenario(submit["scenario"], rows=submit["rows"],
                                   seed=submit["seed"])
    sim = ClusterSimulation(SimulationConfig(
        workers=WORKERS, shards=workload.server["shards"],
        seed=submit["seed"]))
    gen = sim.query_generator(query, tables)
    decisions: List[bool] = []
    all_streams = []
    seconds = 0.0
    entries = 0
    delivered = None
    while True:
        try:
            request = gen.send(delivered)
        except StopIteration:
            return decisions, seconds, entries, all_streams
        all_streams.append(request.streams)
        delivered = {fid: [] for fid in request.streams}
        for batch in _tick_batches(request.streams):
            values = [entry for _, entry in batch]
            began = time.perf_counter()
            if batched:
                pruned = request.batch_fn(values)
            else:
                pruned = [request.scalar_fn(entry) for entry in values]
            seconds += time.perf_counter() - began
            entries += len(values)
            decisions.extend(bool(p) for p in pruned)
            for (fid, entry), gone in zip(batch, pruned):
                if not gone:
                    delivered[fid].append(entry)


def drive_core(workload: Workload, submits: Sequence[Dict]) -> Tuple[
        Dict[str, float], List[Dict[int, List[Tuple[int, ...]]]]]:
    """``offer_batch`` ns per entry for each scenario of the warm-up
    mix, on the installed pruner behind the pass's batch prune function;
    also returns every pass's entry streams for the wire drives."""
    per_scenario: Dict[str, List[Tuple[float, int]]] = {}
    streams = []
    for submit in submits:
        reference, _, _, query_streams = _drive_query(
            workload, submit, batched=False)
        streams.extend(query_streams)
        samples = []
        for _ in range(REPEATS):
            decisions, seconds, entries, _ = _drive_query(
                workload, submit, batched=True)
            if decisions != reference:
                raise AssertionError(
                    f"{submit['scenario']}: batched prune decisions "
                    "differ from the scalar reference")
            samples.append(seconds)
        per_scenario.setdefault(submit["scenario"], []).append(
            (median(samples), entries))
    return ({
        f"core.offer_batch_ns_per_entry.{scenario}":
            1e9 * sum(s for s, _ in runs) / sum(n for _, n in runs)
        for scenario, runs in per_scenario.items()
    }, streams)


def drive_wire(streams) -> Tuple[Dict[str, float], List[List[bytes]]]:
    """Per-packet codec kernels over the passes' own packet streams;
    also returns the frames in tick-sized batches for the channel drive."""
    packets = []
    for pass_streams in streams:
        for fid, entries in pass_streams.items():
            packets.extend(CheetahPacket(fid=fid, seq=seq, values=entry)
                           for seq, entry in enumerate(entries))
            packets.append(CheetahPacket(fid=fid, seq=len(entries),
                                         flags=FIN_FLAG))
    count = len(packets)
    encode_s, frames = _median_seconds(
        lambda: [wire.encode_packet(p) for p in packets])
    if [wire.decode_packet(f) for f in frames] != packets:
        raise AssertionError("encode_packet does not round-trip")
    batches = [frames[at:at + WORKERS * WINDOW]
               for at in range(0, count, WORKERS * WINDOW)]
    header_s, columns = _median_seconds(
        lambda: [wire.decode_header_fields(batch) for batch in batches])
    headers = [row for cols in columns for row in zip(*cols)]
    if headers != [wire.decode_header(f) for f in frames]:
        raise AssertionError("decode_header_fields differs from "
                             "decode_header")
    counts = [n for _, _, n, _ in headers]
    values_s, values = _median_seconds(
        lambda: [wire.decode_values(f, n) for f, n in zip(frames, counts)])
    if values != [p.values for p in packets]:
        raise AssertionError("decode_values differs from the packets")
    acks = [Ack(fid=p.fid, seq=p.seq, kind=AckKind.SWITCH)
            for p in packets]
    ack_s, echoed = _median_seconds(
        lambda: [wire.decode_ack(wire.encode_ack(a)) for a in acks])
    if echoed != acks:
        raise AssertionError("ACK codec does not round-trip")
    return {
        "net.wire.encode_packet_ns": 1e9 * encode_s / count,
        "net.wire.decode_header_fields_ns": 1e9 * header_s / count,
        "net.wire.decode_values_ns": 1e9 * values_s / count,
        "net.wire.ack_codec_ns": 1e9 * ack_s / count,
    }, batches


def drive_channel(workload: Workload, batches, seed: int) -> Dict[str, float]:
    """``LossyChannel.send`` + ``drain`` per packet, one tick's arrivals
    at a time, at the workload's loss and reorder settings."""
    loss = workload.server.get("loss", 0.0)
    reorder = workload.server.get("reorder", 0)
    count = sum(len(batch) for batch in batches)

    def run():
        channel = LossyChannel(loss, reorder, seed=seed)
        out = []
        for batch in batches:
            for frame in batch:
                channel.send(frame)
            out.extend(channel.drain())
        return channel, out

    seconds, (channel, out) = _median_seconds(run)
    flat = [frame for batch in batches for frame in batch]
    if channel.sent != count or len(out) + channel.dropped != count:
        raise AssertionError("channel lost count of its packets")
    if Counter(out) - Counter(flat):
        raise AssertionError("channel delivered packets it was not sent")
    if not loss and not reorder and out != flat:
        raise AssertionError("loss-free channel changed its packets")
    return {"net.channel.send_drain_ns_per_packet": 1e9 * seconds / count}


def drive_worker(submits: Sequence[Dict]) -> Dict[str, float]:
    """``CWorker.indexed_entries`` per entry over the scenarios' tables."""
    jobs = []
    for submit in submits:
        _, tables = build_scenario(submit["scenario"], rows=submit["rows"],
                                   seed=submit["seed"])
        for table in ([tables] if isinstance(tables, Table)
                      else tables.values()):
            base = 0
            for index, part in enumerate(table.partition(WORKERS)):
                jobs.append((CWorker(index, part), table.column_names,
                             base))
                base += len(part)
    seconds, encoded = _median_seconds(
        lambda: [worker.indexed_entries(columns, base=base)
                 for worker, columns, base in jobs])
    for (worker, columns, base), entries in zip(jobs, encoded):
        cols = [worker.partition.column(c) for c in columns]
        reference = [(base + i,) + tuple(encode_value(col[i])
                                         for col in cols)
                     for i in range(len(worker.partition))]
        if entries != reference:
            raise AssertionError("indexed_entries differs from "
                                 "encode_value per cell")
    count = sum(len(entries) for entries in encoded)
    return {"cluster.worker.encode_ns_per_entry": 1e9 * seconds / count}


def drive_protocol(messages: Sequence[Dict]) -> Dict[str, float]:
    """Frame codec per frame: ``encode_frame`` + ``decode_payload`` +
    ``validate_message`` over the warm-up queries' own frames."""
    def run():
        out = []
        for message in messages:
            frame = protocol.encode_frame(message)
            decoded = protocol.decode_payload(frame[4:])
            protocol.validate_message(decoded)
            out.append(decoded)
        return out

    seconds, decoded = _median_seconds(run)
    if decoded != list(messages):
        raise AssertionError("frame codec does not round-trip")
    return {"serving.protocol.codec_us_per_frame":
            1e6 * seconds / len(messages)}


def drive_span_cost(calls: int = 20_000) -> Dict[str, float]:
    """What one span costs: a wrapped no-op against the bare no-op.
    ``trace.spans`` times this is the traced run's systematic overhead,
    which on a noisy host ``trace.overhead_ratio`` cannot resolve."""
    def noop() -> None:
        return None

    def call(fn: Callable[[], None]) -> None:
        for _ in range(calls):
            fn()

    recorder = SpanRecorder()
    traced = recorder.wrap(noop, "noop")
    bare_s, _ = _median_seconds(lambda: call(noop))
    traced_s, _ = _median_seconds(lambda: call(traced))
    if len(recorder) != calls * REPEATS:
        raise AssertionError("span recorder lost spans")
    return {"trace.span_cost_ns": 1e9 * (traced_s - bare_s) / calls}


def drive(workload: Workload, submits: Sequence[Dict],
          frames: Sequence[Dict], seed: int) -> Dict[str, float]:
    """Every drive metric for one workload."""
    metrics, streams = drive_core(workload, submits)
    wire_metrics, batches = drive_wire(streams)
    metrics.update(wire_metrics)
    metrics.update(drive_channel(workload, batches, seed))
    metrics.update(drive_worker(submits))
    metrics.update(drive_protocol(list(submits) + list(frames)))
    metrics.update(drive_span_cost())
    return metrics
