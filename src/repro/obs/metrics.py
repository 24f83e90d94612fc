"""Label-aware metrics registry with tick-domain OpenMetrics export.

A deliberately small subset of the Prometheus client model —
:class:`Counter`, :class:`Gauge`, :class:`Histogram` behind one
:class:`MetricsRegistry` — with one hard rule the real clients do not
have: **everything is deterministic**.  Values are pure functions of
the simulation's tick domain (no wall clocks, no process stats), label
sets render in sorted order, histogram bucket bounds are fixed at
construction, and the exposition writer emits samples in sorted
(name, labels) order — so two identical seeded runs export
byte-identical ``.prom`` files, the same contract every
``results/BENCH_*.json`` obeys.

Timestamps are **ticks**, not epoch milliseconds: the serving stack's
only clock is the event-loop tick (``docs/OBSERVABILITY.md`` §tick
domain), and an exposition stamped with wall time would break the
byte-identity contract for no observability gain.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, Optional, Sequence, Tuple

logger = logging.getLogger(__name__)

#: Default histogram bounds for tick-domain durations (latency, wait).
#: Powers of two up to ~4k ticks; the exposition adds the +Inf bucket.
DEFAULT_TICK_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                        256.0, 512.0, 1024.0, 2048.0, 4096.0)

_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def _escape_label(value: str) -> str:
    return "".join(_LABEL_ESCAPES.get(ch, ch) for ch in value)


def _format_value(value) -> str:
    """Deterministic sample rendering: integers without a decimal
    point, floats via ``repr`` (shortest round-trip form)."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


class _Metric:
    """Shared labeled-sample machinery of the three instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str] = ()):
        if not name or not name.replace("_", "a").isalnum():
            raise ValueError(f"bad metric name {name!r}")
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        #: label-value tuple -> sample state (a float for counter and
        #: gauge; a [bucket_counts, sum, count] triple for histogram).
        self._samples: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        return tuple(str(labels[name]) for name in self.labelnames)

    def _label_text(self, key: Tuple[str, ...]) -> str:
        if not self.labelnames:
            return ""
        pairs = ",".join(
            f'{name}="{_escape_label(value)}"'
            for name, value in zip(self.labelnames, key))
        return "{" + pairs + "}"

    def samples(self) -> List[Tuple[Tuple[str, ...], object]]:
        """``(label values, state)`` pairs in sorted label order."""
        return sorted(self._samples.items())


class Counter(_Metric):
    """A monotone cumulative count."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError(
                f"{self.name}: counters only go up, got {amount}")
        key = self._key(labels)
        self._samples[key] = self._samples.get(key, 0) + amount

    def set_total(self, value: float, **labels) -> None:
        """Collector entry point: adopt an externally accumulated total.

        Monotone by construction (``max`` with the current sample), so
        a subsystem whose own counter resets — a channel torn down
        with its pass — can be re-read safely after the caller folds
        completed-epoch totals into ``value``.
        """
        key = self._key(labels)
        self._samples[key] = max(self._samples.get(key, 0), value)

    def value(self, **labels) -> float:
        return self._samples.get(self._key(labels), 0)


class Gauge(_Metric):
    """An instantaneous value that can go up and down."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._samples[self._key(labels)] = value

    def inc(self, amount: float = 1, **labels) -> None:
        key = self._key(labels)
        self._samples[key] = self._samples.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        return self._samples.get(self._key(labels), 0)


class Histogram(_Metric):
    """Cumulative-bucket histogram with fixed deterministic bounds."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_TICK_BUCKETS):
        super().__init__(name, help_text, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"{name}: bucket bounds must be sorted and unique, "
                f"got {buckets}")
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        state = self._samples.get(key)
        if state is None:
            state = [[0] * len(self.buckets), 0.0, 0]
            self._samples[key] = state
        counts, _, _ = state
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                counts[index] += 1
        state[1] += value
        state[2] += 1


class MetricsRegistry:
    """Owns every instrument of one run and writes the exposition.

    Instruments are get-or-create: asking twice for the same name
    returns the same object (mismatched kind or labels raise), so
    hook sites do not need to coordinate registration order.
    """

    def __init__(self):
        self._metrics: Dict[str, _Metric] = {}
        self._collectors: List[Callable[[], None]] = []

    def _get_or_create(self, cls, name: str, help_text: str,
                       labelnames: Sequence[str], **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if (type(existing) is not cls
                    or existing.labelnames != tuple(labelnames)):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind} with labels {existing.labelnames}")
            return existing
        metric = cls(name, help_text, labelnames, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_TICK_BUCKETS,
                  ) -> Histogram:
        return self._get_or_create(Histogram, name, help_text,
                                   labelnames, buckets=buckets)

    def register_collector(self, collect: Callable[[], None]) -> None:
        """Run ``collect`` before every read (:meth:`snapshot`,
        :meth:`render_openmetrics`, :meth:`write`) — the Prometheus
        custom-collector idiom: values that are cheap to compute when
        asked for but costly to keep current every tick are published
        by the collector instead of on the hot path."""
        self._collectors.append(collect)

    def collect(self) -> None:
        """Run every registered collector."""
        for collect in self._collectors:
            collect()

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    # -- export ----------------------------------------------------------------
    def render_openmetrics(self, tick: Optional[int] = None) -> str:
        """The Prometheus/OpenMetrics text exposition of every metric.

        Metrics render in sorted name order, samples in sorted label
        order; ``tick`` (when given) stamps every sample with the tick
        it was exported at — the run's only clock.  An instrument with
        no samples yet still renders its ``# HELP``/``# TYPE`` header,
        so the metric *catalog* is stable across runs that exercise
        different code paths.
        """
        self.collect()
        stamp = "" if tick is None else f" {int(tick)}"
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                self._render_histogram(metric, stamp, lines)
                continue
            for key, value in metric.samples():
                lines.append(f"{name}{metric._label_text(key)} "
                             f"{_format_value(value)}{stamp}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    @staticmethod
    def _render_histogram(metric: Histogram, stamp: str,
                          lines: List[str]) -> None:
        name = metric.name
        for key, state in metric.samples():
            counts, total, count = state
            base = metric._label_text(key)
            joiner = "," if base else ""
            prefix = base[:-1] if base else "{"
            for bound, bucket_count in zip(metric.buckets, counts):
                lines.append(
                    f'{name}_bucket{prefix}{joiner}'
                    f'le="{_format_value(bound)}"}} '
                    f"{bucket_count}{stamp}")
            lines.append(f'{name}_bucket{prefix}{joiner}le="+Inf"}} '
                         f"{count}{stamp}")
            lines.append(f"{name}_sum{base} "
                         f"{_format_value(total)}{stamp}")
            lines.append(f"{name}_count{base} {count}{stamp}")

    def write(self, path: str, tick: Optional[int] = None) -> None:
        """Write the exposition to ``path`` (UTF-8, LF endings)."""
        text = self.render_openmetrics(tick=tick)
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        logger.info("wrote %d metrics to %s", len(self._metrics), path)

    # -- wire snapshot (proto/v1 `stats` reply) --------------------------------
    def snapshot(self) -> Dict[str, Dict]:
        """A JSON-safe snapshot: metric name -> type/help/samples.

        Counter and gauge samples are ``{"labels": {...}, "value": v}``;
        histogram samples carry ``buckets`` (cumulative ``[le, count]``
        pairs), ``sum``, and ``count`` instead of ``value``.  Sample
        lists are sorted by label values, so the snapshot is
        deterministic under ``json.dumps(..., sort_keys=True)`` — the
        schema is documented in docs/PROTOCOL.md §4.
        """
        self.collect()
        out: Dict[str, Dict] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            samples = []
            for key, state in metric.samples():
                labels = dict(zip(metric.labelnames, key))
                if isinstance(metric, Histogram):
                    counts, total, count = state
                    samples.append({
                        "labels": labels,
                        "buckets": [[bound, bucket]
                                    for bound, bucket
                                    in zip(metric.buckets, counts)],
                        "sum": total,
                        "count": count,
                    })
                else:
                    samples.append({"labels": labels, "value": state})
            out[name] = {"type": metric.kind, "help": metric.help,
                         "samples": samples}
        return out


__all__ = [
    "DEFAULT_TICK_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]
