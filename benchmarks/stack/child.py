"""The benchmark's server process: one ``ReproServer`` on loopback.

Started by ``loadgen.ServerProcess`` as
``python child.py '<json spec>'``.  Speaks a three-line protocol on its
standard streams, nothing else:

1. prints ``{"port": N}`` once the server is listening;
2. reads one line from stdin — ``{"t0": .., "t1": ..}``, the parent's
   timed window on the shared monotonic clock (``perf_counter`` is
   ``CLOCK_MONOTONIC`` on Linux, the same in both processes);
3. stops the server (draining queued work) and prints one summary line:
   per-tenant pass accounting from the final ``ScheduleReport``, the
   metrics registry snapshot, peak RSS and — when tracing — the span
   totals inside the window.

With ``"trace": true`` the span wrappers are installed before the
server is built; ``"span_out"`` additionally saves every span.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys


def _tenant_rows(report) -> list:
    rows = []
    for tenant in report.tenants:
        passes = tenant.passes
        rows.append({
            "tenant": tenant.spec.tenant,
            "status": tenant.status,
            "equivalent": tenant.equivalent,
            "entries": tenant.entries,
            "retransmissions": sum(p.retransmissions for p in passes),
            "pruned": sum(p.switch_pruned for p in passes),
            "forwarded": sum(p.switch_forwarded for p in passes),
            "master_duplicates": sum(p.master_duplicates for p in passes),
            "packets_sent": sum(p.packets_sent for p in passes),
            "packets_dropped": sum(p.packets_dropped for p in passes),
        })
    return rows


async def _serve(spec: dict) -> dict:
    from repro.api import ServeConfig
    from repro.serving import ReproServer

    recorder = None
    if spec.get("trace"):
        from spans import SpanRecorder, install
        recorder = SpanRecorder()
        install(recorder)
    server = ReproServer(ServeConfig(**spec["server"]), check=True,
                         hold=spec.get("hold", 0))
    await server.start()
    print(json.dumps({"port": server.address[1]}), flush=True)
    line = await asyncio.get_running_loop().run_in_executor(
        None, sys.stdin.readline)
    window = json.loads(line) if line.strip() else {}
    await server.stop()
    # Read before the summary is built: what serving needed, not what
    # reporting on it needs.  Linux reports ru_maxrss in KiB.
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = server.report()
    summary = {
        "tenants": _tenant_rows(report),
        "registry": server.obs.registry.snapshot(),
        "peak_rss_mb": peak_rss_mb,
    }
    if recorder is not None:
        summary["spans"] = recorder.aggregate(
            window.get("t0", float("-inf")), window.get("t1", float("inf")))
        if spec.get("span_out"):
            recorder.save(spec["span_out"])
    return summary


def main() -> int:
    summary = asyncio.run(_serve(json.loads(sys.argv[1])))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
