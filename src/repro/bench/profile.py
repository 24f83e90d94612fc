"""Deterministic profiling of the two serving hot loops (PR 9).

The ROADMAP's "native-speed hot path" work needs a repeatable answer
to *where the time goes*:

* the **codec + pipeline** loop — packet encode / header decode /
  value decode / ACK round trip / ``offer_batch`` over a seeded packet
  stream (the per-arrival work of ``switch/pipeline.py`` +
  ``net/wire.py``), per-packet reference tier vs the stream tier the
  production transport runs;
* the **scheduler tick** loop — ``ServingLoop.run_tick`` driving a
  seeded multi-tenant serve (admission, DRR service, transfer steps).

``run_hotpath_profile`` drives both under ``cProfile`` with fixed
seeds and emits the payload for ``results/PROFILE_hotpath.json``: the
*workload counters* (packets, ticks, entries, per-function call
counts) are deterministic run-to-run; the wall-clock columns beside
them are measurements.  ``repro profile`` and
``scripts/profile_hotpath.py`` are the entry points; the workflow is
documented in ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from typing import Dict, List, Optional

from repro.obs import names

#: Top-N in-repo functions recorded per profiled loop.
_HOTSPOT_LIMIT = 12


def _hotspots(profile: cProfile.Profile,
              limit: int = _HOTSPOT_LIMIT) -> List[Dict]:
    """The repo's own functions, by cumulative time.

    Call counts are deterministic for a seeded workload; the time
    columns are wall measurements.  Frames outside ``repro`` (stdlib,
    numpy internals) are folded away — the point is to rank *our* hot
    loops, not to audit the interpreter.
    """
    stats = pstats.Stats(profile)
    rows = []
    for (filename, line, name), (cc, ncalls, tottime, cumtime,
                                 _callers) in stats.stats.items():
        marker = "/repro/"
        index = filename.rfind(marker)
        if index < 0:
            continue
        rows.append({
            "function": f"{filename[index + len(marker):]}:{line}:{name}",
            "calls": ncalls,
            "primitive_calls": cc,
            "tottime_seconds": tottime,
            "cumtime_seconds": cumtime,
        })
    rows.sort(key=lambda row: (-row["cumtime_seconds"], row["function"]))
    return rows[:limit]


def _profile_codec_pipeline(rows: int, shards: int, batch_size: int,
                            seed: int) -> Dict:
    """Profile pack/unpack + ``offer_batch``: per-packet vs stream tier.

    The workload is the fig11 DISTINCT stream encoded onto the wire;
    every timing covers the identical seeded packet vector.  The
    per-packet column is the reference tier, one validated dataclass
    per packet or ACK included; the ``bulk`` column is the stream tier
    the production transport calls.
    """
    from repro.cluster.runtime import make_sharded
    from repro.core.distinct import DistinctPruner
    from repro.net.packet import Ack, AckKind, CheetahPacket
    from repro.net import wire
    from repro.workloads.streams import random_order_stream

    def timed(fn):
        start = time.perf_counter()
        result = fn()
        return time.perf_counter() - start, result

    stream = random_order_stream(rows, max(1, rows // 10), seed)
    stream_entries = [(value,) for value in stream]
    count = len(stream_entries)

    encode_packet_seconds, frames_scalar = timed(lambda: [
        wire.encode_packet(CheetahPacket(fid=1, seq=index, values=entry))
        for index, entry in enumerate(stream_entries)])
    encode_stream_seconds, frames = timed(
        lambda: wire.encode_stream(1, stream_entries))
    frames.pop()    # the FIN: the per-packet column frames data only
    assert frames == frames_scalar

    header_packet_seconds, headers_scalar = timed(
        lambda: [wire.decode_header(frame) for frame in frames])
    header_fields_seconds, columns = timed(
        lambda: wire.decode_header_fields(frames))
    assert list(zip(*columns)) == headers_scalar

    counts = columns[2]
    values_packet_seconds, values_scalar = timed(lambda: [
        wire.decode_values(frame, n) for frame, n in zip(frames, counts)])
    values_run_seconds, values = timed(lambda: [
        decoded for index in range(0, count, batch_size)
        for decoded in wire.decode_values_run(
            frames[index:index + batch_size],
            counts[index:index + batch_size])])
    assert values == values_scalar

    ack_object_seconds, acks_scalar = timed(lambda: [
        wire.decode_ack(wire.encode_ack(
            Ack(fid=1, seq=index, kind=AckKind.SWITCH)))
        for index in range(count)])
    ack_int_seconds, acks = timed(lambda: [
        wire.unpack_ack(wire.pack_ack(1, index, wire.ACK_SWITCH))
        for index in range(count)])
    assert acks == [(ack.fid, ack.seq, wire.ACK_SWITCH)
                    for ack in acks_scalar]

    entries = [value[0] for value in values]

    def offer_batched() -> List[bool]:
        pruner = make_sharded(
            lambda: DistinctPruner(rows=4096, width=2, seed=seed),
            shards, None, seed=seed)
        decisions: List[bool] = []
        for index in range(0, len(entries), batch_size):
            decisions += pruner.offer_batch(entries[index:index
                                                    + batch_size])
        return decisions

    pruner = make_sharded(
        lambda: DistinctPruner(rows=4096, width=2, seed=seed),
        shards, None, seed=seed)
    offer_packet_seconds, packet_decisions = timed(
        lambda: [pruner.offer(entry) for entry in entries])
    offer_batch_seconds, batch_decisions = timed(offer_batched)
    assert batch_decisions == packet_decisions

    # Second, profiled pass (same seeds, fresh pruner: identical work).
    profile = cProfile.Profile()
    profile.enable()
    profiled_decisions = offer_batched()
    profile.disable()
    assert profiled_decisions == batch_decisions

    def ratio(slow: float, fast: float) -> Optional[float]:
        return slow / fast if fast > 0 else None

    def tiers(per_packet: float, bulk: float) -> Dict:
        return {"per_packet_seconds": per_packet, "bulk_seconds": bulk,
                "bulk_speedup": ratio(per_packet, bulk)}

    # Kernel entries are keyed by the profiled function's real name
    # (repro.obs.names.PROFILE_KERNEL_KEYS); pre-PR-10 payloads used
    # abbreviations — renderers map those via LEGACY_KERNEL_KEYS.
    return {
        "packets": len(frames),
        "bytes_on_wire": sum(len(frame) for frame in frames),
        names.KERNEL_ENCODE: tiers(encode_packet_seconds,
                                   encode_stream_seconds),
        names.KERNEL_DECODE_HEADER: tiers(header_packet_seconds,
                                          header_fields_seconds),
        names.KERNEL_DECODE_VALUES: tiers(values_packet_seconds,
                                          values_run_seconds),
        names.KERNEL_ACK: tiers(ack_object_seconds, ack_int_seconds),
        names.KERNEL_OFFER: {
            "per_packet_seconds": offer_packet_seconds,
            "batched_seconds": offer_batch_seconds,
            "batched_speedup": ratio(offer_packet_seconds,
                                     offer_batch_seconds),
        },
        "hotspots": _hotspots(profile),
    }


def _profile_scheduler_loop(tenants: int, rows: int, shards: int,
                            seed: int) -> Dict:
    """Profile the per-tick scheduler service loop under a seeded
    multi-tenant serve (the ``ServingLoop.run_tick`` hot loop)."""
    from repro.cluster.scheduler import (
        QueryScheduler,
        SchedulerConfig,
        tenant_specs,
    )

    config = SchedulerConfig(slots=tenants, loss_rate=0.05,
                             reorder_window=2, shards=shards, seed=seed)
    scheduler = QueryScheduler(config)
    specs = tenant_specs(tenants, rows=rows, seed=seed)
    profile = cProfile.Profile()
    profile.enable()
    report = scheduler.serve(specs)
    profile.disable()
    return {
        "tenants": tenants,
        "rows_per_tenant": rows,
        "ticks": report.ticks,
        "entries": report.entries,
        "served": len(report.served),
        "all_equivalent": report.all_equivalent,
        "wall_seconds": report.wall_seconds,
        "entries_per_second": (report.entries / report.wall_seconds
                               if report.wall_seconds else None),
        "hotspots": _hotspots(profile),
    }


def run_hotpath_profile(rows: int = 200_000, shards: int = 4,
                        batch_size: int = 8192, seed: int = 0,
                        tenants: int = 4,
                        serve_rows: int = 240) -> Dict:
    """Profile both hot loops; returns the ``PROFILE_hotpath.json``
    payload.

    Deterministic given its arguments: the packet stream, tenant mix,
    channel faults, and therefore every *count* in the payload are
    seed-fixed; only the ``*_seconds`` fields vary with the host.
    """
    if rows < 40:
        raise ValueError(f"rows must be >= 40, got {rows}")
    if tenants < 1:
        raise ValueError(f"tenants must be >= 1, got {tenants}")
    return {
        "benchmark": "hotpath_profile",
        "rows": rows,
        "shards": shards,
        "batch_size": batch_size,
        "seed": seed,
        "codec_pipeline": _profile_codec_pipeline(rows, shards,
                                                  batch_size, seed),
        "scheduler_loop": _profile_scheduler_loop(tenants, serve_rows,
                                                  shards, seed),
    }
