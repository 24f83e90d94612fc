"""Per-query span tracing with Chrome trace-event export.

Spans mark lifecycle stages of a tenant query — queue wait, DRR
service, preemption windows, wire passes — on one track per tenant,
with tick-domain timestamps.  The exporter writes the Chrome
trace-event JSON format (the ``traceEvents`` array form), so a
``--span-out spans.json`` file loads directly in Perfetto or
``chrome://tracing``.

Determinism contract: events are emitted in simulation order by a
single-writer tick loop, tracks are interned in first-use order, and
the JSON is dumped with sorted keys — two identical seeded runs write
byte-identical span files.

Tick-to-trace mapping: trace-event ``ts``/``dur`` are microseconds by
convention; we write raw ticks into those fields (1 tick == 1 "us" in
the viewer) because ticks are the run's only clock and any wall-clock
scaling would break byte-identity.
"""

from __future__ import annotations

import json
import logging
from typing import Dict, List, Optional, Tuple

logger = logging.getLogger(__name__)

#: Synthetic process id for all tracks — one simulated cluster.
TRACE_PID = 1


class SpanTracer:
    """Collects complete spans, instants, and counter tracks.

    ``record`` appends a finished span directly; ``begin``/``end``
    bracket a span whose end tick is not yet known (keyed by an
    arbitrary hashable, e.g. ``("service", tenant_index)``).  Open
    spans left at ``finalize`` time are closed at the final tick so a
    truncated run still produces a loadable trace.
    """

    def __init__(self):
        self._events: List[Dict] = []
        self._tracks: Dict[str, int] = {}
        self._open: Dict[object, Dict] = {}
        #: counter name -> its last sampled values.
        self._counters: Dict[str, Dict[str, float]] = {}

    def __len__(self) -> int:
        return len(self._events)

    def _tid(self, track: str) -> int:
        tid = self._tracks.get(track)
        if tid is None:
            tid = len(self._tracks)
            self._tracks[track] = tid
        return tid

    def record(self, name: str, start_tick: int, end_tick: int,
               track: str, cat: str = "scheduler", **args) -> None:
        """Append a complete (``ph: "X"``) span on ``track``."""
        start = int(start_tick)
        self._events.append({
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": start,
            "dur": max(0, int(end_tick) - start),
            "pid": TRACE_PID,
            "tid": self._tid(track),
            "args": dict(sorted(args.items())),
        })

    def instant(self, name: str, tick: int, track: str,
                cat: str = "scheduler", **args) -> None:
        """A zero-duration marker (rendered as an arrow-less slice)."""
        self.record(name, tick, tick, track, cat=cat, **args)

    def begin(self, key: object, name: str, start_tick: int,
              track: str, cat: str = "scheduler", **args) -> None:
        """Open a span to be closed later by :meth:`end`."""
        self._open[key] = {
            "name": name,
            "start": int(start_tick),
            "track": track,
            "cat": cat,
            "args": dict(args),
        }

    def end(self, key: object, end_tick: int, **extra) -> bool:
        """Close a span opened by :meth:`begin`; ``extra`` merges into
        its args.  Returns False when ``key`` was never opened."""
        pending = self._open.pop(key, None)
        if pending is None:
            return False
        pending["args"].update(extra)
        self.record(pending["name"], pending["start"], end_tick,
                    pending["track"], cat=pending["cat"],
                    **pending["args"])
        return True

    def counter(self, name: str, tick: int,
                values: Dict[str, float],
                track: str = "counters") -> None:
        """A ``ph: "C"`` counter sample (one stacked track per name).

        A counter track holds its value until the next sample, so a
        sample equal to the track's previous one is dropped."""
        if self._counters.get(name) == values:
            return
        self._counters[name] = values
        self._events.append({
            "name": name,
            "cat": "counter",
            "ph": "C",
            "ts": int(tick),
            "pid": TRACE_PID,
            "tid": self._tid(track),
            "args": dict(sorted(values.items())),
        })

    def finalize(self, tick: int) -> None:
        """Close any still-open spans at ``tick``."""
        for key in list(self._open):
            self.end(key, tick, truncated=True)

    # -- export ----------------------------------------------------------------
    def to_chrome_trace(self) -> Dict:
        """The ``{"traceEvents": [...]}`` object Perfetto loads.

        Thread-name metadata events come first so every track is
        labeled, then the recorded events in emission order.
        """
        metadata = [{
            "name": "thread_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": tid,
            "args": {"name": track},
        } for track, tid in self._tracks.items()]
        metadata.append({
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": 0,
            "args": {"name": "cheetah"},
        })
        return {
            "displayTimeUnit": "ms",
            "traceEvents": metadata + list(self._events),
        }

    def write(self, path: str) -> None:
        """Write the trace to ``path`` as compact sorted-key JSON."""
        payload = self.to_chrome_trace()
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            json.dump(payload, f, sort_keys=True,
                      separators=(",", ":"))
            f.write("\n")
        logger.info("wrote %d span events to %s",
                    len(self._events), path)


__all__ = ["SpanTracer", "TRACE_PID"]
