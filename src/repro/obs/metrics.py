"""Shared metrics registry: counters, gauges and latency histograms.

Every subsystem used to grow its own counters (``ServingTelemetry`` in the
serving layer, ad-hoc ``hits``/``misses`` attributes on the sampler cache,
nothing at all in the stream and training layers).  :class:`MetricsRegistry`
is the one implementation they all share now: thread-safe counters, gauges
and fixed-bucket :class:`LatencyHistogram`\\ s behind a ``snapshot()``, a
cross-instance ``merged_snapshot()`` (the per-shard fleet view), and two
exposition formats — Prometheus text (:meth:`MetricsRegistry.
to_prometheus_text`) and JSON (:meth:`MetricsRegistry.to_json`) — so any
instance can back a metrics endpoint without further plumbing.

``repro.serving.telemetry.ServingTelemetry`` is a thin alias kept for
compatibility; the behaviour lives here.  The module is dependency-free
(stdlib only) so the core engine can import it without dragging the serving
stack in.
"""

from __future__ import annotations

import bisect
import json
import re
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from contextlib import contextmanager

__all__ = ["LatencyHistogram", "MetricsRegistry"]

#: Exponential bucket upper bounds in seconds (250µs … ~8s), tuned for
#: cold-predict latencies of a few milliseconds (the benchmark's cold-scan
#: ``p50_ms``/``p99_ms``) up to retrain-scale seconds.
_DEFAULT_BOUNDS = (0.00025, 0.0005, 0.001, 0.002, 0.004, 0.008, 0.016,
                   0.032, 0.064, 0.128, 0.256, 0.512, 1.024, 2.048, 4.096,
                   8.192)

#: Characters Prometheus forbids in metric names, replaced by ``_``.
_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _prometheus_name(prefix: str, name: str) -> str:
    """A metric name sanitised to the Prometheus grammar."""
    sanitised = _PROM_INVALID.sub("_", name)
    if sanitised and sanitised[0].isdigit():
        sanitised = "_" + sanitised
    return f"{prefix}_{sanitised}" if prefix else sanitised


class LatencyHistogram:
    """Fixed-bucket latency histogram with conservative percentile estimates."""

    def __init__(self, bounds: Sequence[float] = _DEFAULT_BOUNDS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("bounds must be a non-empty ascending sequence")
        self.bounds = tuple(float(b) for b in bounds)
        # One extra overflow bucket for observations above the last bound.
        self._counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def record(self, seconds: float) -> None:
        if seconds < 0.0:
            raise ValueError("latency cannot be negative")
        bucket = bisect.bisect_left(self.bounds, seconds)
        self._counts[bucket] += 1
        self.count += 1
        self.total += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile observation.

        Conservative (never under-reports); the overflow bucket reports the
        exact observed maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, int(round(q * self.count)))
        cumulative = 0
        for bucket, count in enumerate(self._counts):
            cumulative += count
            if cumulative >= rank:
                if bucket < len(self.bounds):
                    return self.bounds[bucket]
                return self.max
        return self.max

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's observations into this one.

        Used to aggregate per-shard latency histograms into one fleet view;
        requires identical bucket bounds so counts add bucket-by-bucket.
        Merging is exactly equivalent to having recorded the concatenation
        of both observation streams (hypothesis-enforced).
        """
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for bucket, count in enumerate(other._counts):  # noqa: SLF001
            self._counts[bucket] += count
        self.count += other.count
        self.total += other.total
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)

    def bucket_counts(self) -> list[int]:
        """Per-bucket counts (last entry is the overflow bucket), copied."""
        return list(self._counts)

    def snapshot(self) -> dict[str, float | int]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Counters, gauges and named latency histograms behind one ``snapshot()``.

    All mutating operations are guarded by an internal mutex, so one
    registry instance can be shared by threads serving different shards
    (counter increments are read-modify-write and would otherwise race).
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._mutex = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, LatencyHistogram] = {}
        self._started_at = clock()

    # --------------------------------------------------------------- counters
    def increment(self, name: str, amount: int = 1) -> None:
        with self._mutex:
            self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    # ----------------------------------------------------------------- gauges
    def set_gauge(self, name: str, value: float) -> None:
        """Set a point-in-time measurement (window sizes, buffer depths...).

        Unlike counters, gauges overwrite: the snapshot reports the latest
        value, which is what streaming maintenance loops need for quantities
        that go both up and down.
        """
        with self._mutex:
            self._gauges[name] = float(value)

    def gauge(self, name: str, default: float = 0.0) -> float:
        return self._gauges.get(name, default)

    # ------------------------------------------------------------- histograms
    def histogram(self, name: str) -> LatencyHistogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._mutex:
                histogram = self._histograms.setdefault(name,
                                                        LatencyHistogram())
        return histogram

    def observe(self, name: str, seconds: float) -> None:
        histogram = self.histogram(name)
        with self._mutex:
            histogram.record(seconds)

    @contextmanager
    def time(self, name: str):
        """Context manager recording the elapsed time into ``name``."""
        started = self._clock()
        try:
            yield
        finally:
            self.observe(name, self._clock() - started)

    def histogram_snapshot(self, name: str) -> LatencyHistogram | None:
        """A consistent clone of one histogram, or ``None`` if absent.

        Unlike :meth:`histogram` this never creates the histogram, and the
        clone is taken under the mutex — windowed consumers (the health
        monitor's trailing-percentile tracker) read bucket counts from it
        without racing concurrent ``record`` calls.
        """
        with self._mutex:
            histogram = self._histograms.get(name)
            if histogram is None:
                return None
            clone = LatencyHistogram(histogram.bounds)
            clone.merge(histogram)
            return clone

    # ---------------------------------------------------------------- export
    def _copy_state(self) -> tuple[dict[str, int], dict[str, float],
                                   dict[str, LatencyHistogram]]:
        """A consistent copy of all state, taken under the mutex.

        Snapshots are read by operator/aggregator threads while serving
        threads keep writing; iterating the live dicts (or merging a live
        histogram) would race with a first-time counter insert or a
        concurrent ``record``.
        """
        with self._mutex:
            histograms = {}
            for name, histogram in self._histograms.items():
                clone = LatencyHistogram(histogram.bounds)
                clone.merge(histogram)
                histograms[name] = clone
            return dict(self._counters), dict(self._gauges), histograms

    def _assemble_snapshot(self, counters: dict[str, int],
                           gauges: dict[str, float],
                           histograms: dict[str, LatencyHistogram],
                           ) -> dict[str, object]:
        uptime = self._clock() - self._started_at
        predictions = counters.get("predictions_total", 0)
        return {
            "uptime_seconds": uptime,
            "throughput_rps": predictions / uptime if uptime > 0 else 0.0,
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "latency": {name: histogram.snapshot()
                        for name, histogram in sorted(histograms.items())},
        }

    def snapshot(self) -> dict[str, object]:
        """A plain-dict view of every counter and histogram, plus uptime."""
        counters, gauges, histograms = self._copy_state()
        return self._assemble_snapshot(counters, gauges, histograms)

    def _merged_state(self, others: Iterable["MetricsRegistry"],
                      ) -> tuple[dict[str, int], dict[str, float],
                                 dict[str, LatencyHistogram]]:
        """This instance's state with other instances' data folded in.

        Counters add, gauges from other instances are kept only where this
        instance has no value of the same name (per-shard gauges should use
        distinct names), and histograms of the same name merge bucket-wise.
        Every participant's state is copied under its own mutex first, so
        the merge never races with concurrent serving threads.
        """
        counters, gauges, histograms = self._copy_state()
        for other in others:
            other_counters, other_gauges, other_histograms = \
                other._copy_state()  # noqa: SLF001
            for name, value in other_counters.items():
                counters[name] = counters.get(name, 0) + value
            for name, value in other_gauges.items():
                gauges.setdefault(name, value)
            for name, histogram in other_histograms.items():
                base = histograms.get(name)
                if base is None:
                    histograms[name] = histogram
                else:
                    base.merge(histogram)
        return counters, gauges, histograms

    def merged_snapshot(self,
                        others: Iterable["MetricsRegistry"]) -> dict[str, object]:
        """This instance's snapshot with other instances' data folded in.

        See :meth:`_merged_state` for the merge semantics;
        ``uptime_seconds``/``throughput_rps`` stay this instance's view — the
        aggregating service and its shards share one clock.
        """
        return self._assemble_snapshot(*self._merged_state(others))

    # ------------------------------------------------------------- exposition
    def to_json(self, indent: int | None = None) -> str:
        """The :meth:`snapshot` serialised as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=False)

    def to_prometheus_text(self, prefix: str = "repro",
                           others: Iterable["MetricsRegistry"] = ()) -> str:
        """The registry in the Prometheus text exposition format.

        Counters become ``<prefix>_<name>`` counters, gauges become gauges,
        and every latency histogram is exposed as a native Prometheus
        histogram: cumulative ``_bucket{le="..."}`` series (including the
        mandatory ``+Inf`` bucket), ``_sum`` and ``_count``.  Names are
        sanitised to the Prometheus grammar (``.``/``:`` and friends become
        ``_``); when two raw names sanitise to the same family, later ones
        get a deterministic ``_2``/``_3``... suffix (sorted order within
        each section) rather than emitting a duplicate family, which scrape
        parsers reject.  ``others`` folds further registries in first (the
        sharded service's per-shard telemetry merged into one fleet view);
        see :meth:`_merged_state` for the merge semantics.
        """
        counters, gauges, histograms = self._merged_state(others)
        used_families: set[str] = set()

        def _family(name: str) -> str:
            base = _prometheus_name(prefix, name)
            family, suffix = base, 2
            while family in used_families:
                family = f"{base}_{suffix}"
                suffix += 1
            used_families.add(family)
            return family

        lines: list[str] = []
        for name, value in sorted(counters.items()):
            metric = _family(name)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {value}")
        for name, value in sorted(gauges.items()):
            metric = _family(name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {value}")
        for name, histogram in sorted(histograms.items()):
            metric = _family(name)
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            counts = histogram.bucket_counts()
            for bound, count in zip(histogram.bounds, counts):
                cumulative += count
                lines.append(f'{metric}_bucket{{le="{bound}"}} {cumulative}')
            cumulative += counts[-1]
            lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{metric}_sum {histogram.total}")
            lines.append(f"{metric}_count {histogram.count}")
        return "\n".join(lines) + ("\n" if lines else "")
