"""Per-layer ledger of the traced phase.

Every name is reported on every workload (0 where the layer did no work).
Self times come from the span log; counts come from the serving telemetry,
cache, batcher and stream stats, as deltas over the traced phase.  The
layers' self times plus the generator's (the client loop outside any program
call) add up to the traced phase's timed wall time, so a call the recorder
misses shows up as the generator's share growing.
"""

from __future__ import annotations

#: Every per-layer metric with its unit, in BENCHMARK.json order.
LAYER_METRICS = {
    "serving.router.calls": "count",
    "serving.router.self_us_per_call": "us",
    "serving.cache.hit_ratio": "ratio",
    "serving.cache.get.self_us_per_call": "us",
    "serving.cache.invalidated": "count",
    "serving.batcher.batches": "count",
    "serving.batcher.size_mean": "records",
    "serving.batcher.self_us_per_call": "us",
    "serving.facade.calls": "count",
    "serving.facade.self_ms_per_call": "ms",
    "serving.pool.compute.calls": "count",
    "serving.pool.compute.wall_ms_per_rec": "ms",
    "serving.pool.snapshot_ships": "count",
    "serving.pool.ship_bytes": "bytes",
    "serving.pool.worker_restarts": "count",
    "core.inference.records": "count",
    "core.inference.self_ms_per_rec": "ms",
    "core.overlay.add_record.self_us_per_rec": "us",
    "core.embedding.sampler.alias_builds_per_rec": "count",
    "core.embedding.sampler.alias_build.self_ms_per_rec.small": "ms",
    "core.embedding.sampler.alias_build.self_ms_per_rec.large": "ms",
    "core.embedding.sampler.sample.self_ms_per_rec": "ms",
    "core.embedding.kernels.calls_per_rec": "count",
    "core.embedding.kernels.self_ms_per_rec.small": "ms",
    "core.embedding.kernels.self_ms_per_rec.large": "ms",
    "core.embedding.kernels.fit_self_s": "s",
    "core.embedding.trainer.self_ms_per_rec": "ms",
    "core.fit.calls": "count",
    "core.graph.build_s": "s",
    "core.embedding.trainer.train_s": "s",
    "core.embedding.trainer.edge_samples_per_s": "1/s",
    "core.clustering.fit_s": "s",
    "core.clustering.predict.self_us_per_rec": "us",
    "core.persistence.checkpoint_ms": "ms",
    "core.persistence.checkpoint_bytes": "bytes",
    "stream.pipeline.self_us_per_rec": "us",
    "stream.ingest.self_us_per_rec": "us",
    "stream.window.append.self_us_per_rec": "us",
    "stream.drift.self_us_per_rec": "us",
    "stream.drift.events": "count",
    "stream.scheduler.self_us_per_call": "us",
    "stream.executor.retrains": "count",
    "stream.executor.failed": "count",
    "obs.overhead": "ratio",
    "bench.gen.sent": "count",
    "bench.gen.failed": "count",
    "bench.gen.self_share": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _Totals:
    """Sums over the span totals, filtered by name prefix, path and size."""

    def __init__(self, totals: dict) -> None:
        self._totals = totals

    def get(self, prefix: str, path: str | None = None,
            size: str | None = None) -> tuple[float, float, float, float]:
        calls = self_s = wall = units = 0.0
        for (name, span_path, span_size), row in self._totals.items():
            if not (name == prefix or name.startswith(prefix + ".")):
                continue
            if path is not None and span_path != path:
                continue
            if size is not None and span_size != size:
                continue
            calls += row[0]
            self_s += row[1]
            wall += row[2]
            units += row[3]
        return calls, self_s, wall, units


def compute(recorder, traced: dict) -> dict[str, float]:
    """The per-layer metrics of one traced phase."""
    totals = _Totals(recorder.totals())
    phase, untraced = traced["phase"], traced["untraced"]
    d, extras = traced["delta"], traced["extras"]
    wall = sum(tick.wall for tick in phase.ticks)

    def calls(name, **filters):
        return totals.get(name, **filters)[0]

    def self_s(name, **filters):
        return totals.get(name, **filters)[1]

    def wall_s(name, **filters):
        return totals.get(name, **filters)[2]

    online = totals.get("core.inference", path="online")[3]
    by_size = {size: totals.get("core.inference", path="online", size=size)[3]
               for size in ("small", "large")}
    fits = calls("core.fit")
    stream_records = d.get("stream_records", 0)
    train_fit = totals.get("core.embedding.trainer.train", path="fit")
    hits, misses = d.get("cache_hits_total", 0), d.get("cache_misses_total", 0)
    batches = d.get("batcher_batches", 0)
    pool_calls, _, pool_wall, pool_records = totals.get("serving.pool.compute")
    metrics = {
        "serving.router.calls": calls("serving.router"),
        "serving.router.self_us_per_call":
            _ratio(self_s("serving.router"), calls("serving.router")) * 1e6,
        "serving.cache.hit_ratio": _ratio(hits, hits + misses),
        "serving.cache.get.self_us_per_call":
            _ratio(self_s("serving.cache.get"), calls("serving.cache.get")) * 1e6,
        "serving.cache.invalidated": d.get("cache_invalidations", 0),
        "serving.batcher.batches": batches,
        "serving.batcher.size_mean": _ratio(d.get("batcher_enqueued", 0),
                                            batches),
        "serving.batcher.self_us_per_call":
            _ratio(self_s("serving.batcher"), calls("serving.batcher")) * 1e6,
        "serving.facade.calls": calls("serving.facade"),
        "serving.facade.self_ms_per_call":
            _ratio(self_s("serving.facade"), calls("serving.facade")) * 1e3,
        "serving.pool.compute.calls": pool_calls,
        "serving.pool.compute.wall_ms_per_rec":
            _ratio(pool_wall, pool_records) * 1e3,
        "serving.pool.snapshot_ships":
            d.get("compute_pool_snapshot_ships_total", 0),
        "serving.pool.ship_bytes": extras.get("ship_bytes", 0.0),
        "serving.pool.worker_restarts":
            d.get("compute_pool_worker_restarts_total", 0),
        "core.inference.records": online,
        "core.inference.self_ms_per_rec":
            _ratio(self_s("core.inference"), online) * 1e3,
        "core.overlay.add_record.self_us_per_rec":
            _ratio(self_s("core.overlay", path="online"), online) * 1e6,
        "core.embedding.sampler.alias_builds_per_rec": _ratio(
            calls("core.embedding.sampler.alias_table", path="online"), online),
        "core.embedding.sampler.sample.self_ms_per_rec": _ratio(
            self_s("core.embedding.sampler.sample", path="online"), online) * 1e3,
        "core.embedding.kernels.calls_per_rec":
            _ratio(calls("core.embedding.kernels", path="online"), online),
        "core.embedding.kernels.fit_self_s":
            _ratio(self_s("core.embedding.kernels", path="fit"), fits),
        "core.embedding.trainer.self_ms_per_rec": _ratio(
            self_s("core.embedding.trainer", path="online"), online) * 1e3,
        "core.fit.calls": fits,
        "core.graph.build_s": _ratio(wall_s("core.graph"), fits),
        "core.embedding.trainer.train_s": _ratio(train_fit[2], fits),
        "core.embedding.trainer.edge_samples_per_s":
            _ratio(train_fit[3], train_fit[2]),
        "core.clustering.fit_s": _ratio(wall_s("core.clustering.fit"), fits),
        "core.clustering.predict.self_us_per_rec": _ratio(
            self_s("core.clustering.predict", path="online"), online) * 1e6,
        "core.persistence.checkpoint_ms":
            _ratio(wall_s("core.persistence"), calls("core.persistence")) * 1e3,
        "core.persistence.checkpoint_bytes": extras.get("checkpoint_bytes", 0),
        "stream.pipeline.self_us_per_rec":
            _ratio(self_s("stream.pipeline"), stream_records) * 1e6,
        "stream.ingest.self_us_per_rec":
            _ratio(self_s("stream.ingest"), stream_records) * 1e6,
        "stream.window.append.self_us_per_rec":
            _ratio(self_s("stream.window.append"), stream_records) * 1e6,
        "stream.drift.self_us_per_rec":
            _ratio(self_s("stream.drift"), stream_records) * 1e6,
        "stream.drift.events": d.get("drift_events", 0),
        "stream.scheduler.self_us_per_call":
            _ratio(self_s("stream.scheduler"), calls("stream.scheduler")) * 1e6,
        "stream.executor.retrains": d.get("executor_retrains", 0),
        "stream.executor.failed": d.get("executor_failed", 0),
        "obs.overhead": _ratio(phase.per_record(), untraced.per_record()),
        "bench.gen.sent": d.get("ledger_sent", 0),
        "bench.gen.failed": d.get("ledger_failed", 0),
        "bench.gen.self_share":
            _ratio(wall - recorder.top_level_seconds(), wall),
    }
    for size in ("small", "large"):
        metrics[f"core.embedding.sampler.alias_build.self_ms_per_rec.{size}"] = (
            _ratio(self_s("core.embedding.sampler.alias_build", path="online",
                          size=size)
                   + self_s("core.embedding.sampler.alias_table",
                            path="online", size=size), by_size[size]) * 1e3)
        metrics[f"core.embedding.kernels.self_ms_per_rec.{size}"] = _ratio(
            self_s("core.embedding.kernels", path="online", size=size),
            by_size[size]) * 1e3
    return {name: float(metrics[name]) for name in LAYER_METRICS}
