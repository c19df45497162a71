"""Production serving layer over the GRAFICS modeling core.

The research pipeline (:mod:`repro.core`) answers "which floor is this
sample on?" one record at a time.  This package turns that into a serving
stack able to front a large multi-building registry under heavy traffic:

* :mod:`~repro.serving.router` — O(|record.rss|) building attribution via an
  inverted MAC→building index (plus the linear-scan reference);
* :mod:`~repro.serving.cache` — bounded LRU/TTL prediction cache keyed on
  canonical quantised fingerprints;
* :mod:`~repro.serving.batcher` — per-building micro-batching with size- and
  deadline-triggered dispatch;
* :mod:`~repro.serving.telemetry` — latency histograms, throughput counters
  and ``snapshot()`` export;
* :mod:`~repro.serving.service` — the :class:`FloorServingService` façade
  composing all of the above with per-building model hot swap,
  hash-partitioned across ``num_shards`` :class:`Shard`\\ s (default 1),
  each with its own lock, cache partition, router postings and telemetry;
  :class:`ShardedServingService` is the same class under its historical
  name (also importable from :mod:`~repro.serving.sharding`);
* :mod:`~repro.serving.pool` — a persistent :class:`ComputePool` of worker
  processes behind the cold path's plan/compute/commit split, scaling cold
  serving with cores instead of GIL-bound threads (``compute_workers``).
"""

from .batcher import Batch, MicroBatcher
from .cache import PredictionCache, fingerprint_key
from .pool import ComputePool, WorkerCrashError
from .router import LinearScanRouter, MacInvertedRouter, Router, RoutingDecision
from .service import (
    FloorServingService,
    ServingConfig,
    ServingResult,
    Shard,
    ShardedRouter,
    ShardedServingService,
    shard_index,
)
from .telemetry import LatencyHistogram, ServingTelemetry

__all__ = [
    "FloorServingService",
    "ShardedServingService",
    "ComputePool",
    "WorkerCrashError",
    "Shard",
    "ShardedRouter",
    "shard_index",
    "ServingConfig",
    "ServingResult",
    "Router",
    "RoutingDecision",
    "LinearScanRouter",
    "MacInvertedRouter",
    "PredictionCache",
    "fingerprint_key",
    "MicroBatcher",
    "Batch",
    "LatencyHistogram",
    "ServingTelemetry",
]
