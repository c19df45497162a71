"""Serving-subsystem benchmark: routing speedup, throughput, sharding.

Four measurements back the serving layer introduced for the production
deployment of the paper's online phase (Section V):

1. **Routing** — building attribution via the inverted MAC→building index
   (:class:`repro.serving.MacInvertedRouter`) against the reference linear
   vocabulary scan, at a registry size comparable to the paper's 204-building
   Microsoft corpus.  The inverted index must be at least 3x faster.

2. **Serving** — end-to-end throughput of :class:`FloorServingService`
   (router + cache + grouped batch dispatch) against the sequential
   ``MultiBuildingFloorService.predict`` loop, with cold and warm caches,
   while asserting the served predictions are identical to the reference.

3. **Concurrent predicts, 1 vs 4 shards** — four threads hammering
   ``predict`` on disjoint building sets against the service at
   ``num_shards=1`` and ``num_shards=4``.  On a single-CPU container this is GIL-bound and
   the ratio is expected near 1.0; it is reported for honesty, not as the
   headline.

4. **Serving under retrain load, 1 vs 4 shards** — the stall scenario from
   the continuous-learning motivation: an ingest/serve loop processes
   steady traffic while periodic retrains fire.  The 1-shard reference
   runs retrains synchronously *on the ingest thread* (every retrain stalls
   all traffic for the fit's duration); the sharded service runs them on a
   background :class:`RetrainExecutor` and hot-swaps on completion.  Both
   process traffic for the same fixed wall-clock budget; throughput is
   records served within the budget (deferred background retrains finish
   afterwards and are reported as join time + swap counts).

Run standalone (``--smoke`` for the CI-sized variant) or via pytest; both
print one machine-readable JSON summary line prefixed ``BENCH_JSON`` so CI
logs can be scraped for regressions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import threading
import time

from repro import GraficsConfig, EmbeddingConfig, SignalRecord, StreamConfig
from repro.core.registry import MultiBuildingFloorService
from repro.data import make_experiment_split, small_test_building
from repro.serving import (
    FloorServingService,
    LinearScanRouter,
    MacInvertedRouter,
)
from repro.stream import (
    ContinuousLearningPipeline,
    DriftConfig,
    SchedulerConfig,
    WindowConfig,
)

from conftest import save_table

NUM_BUILDINGS = 60          # >= 50 per the acceptance criterion
MACS_PER_BUILDING = 150
SHARED_MACS = 40
NUM_PROBES = 1000
MACS_PER_PROBE = 25
TIMING_REPEATS = 3

FULL = {"buildings": 4, "records_per_floor": 25, "window": 256,
        "warm_records": 128, "budget_seconds": 3.0, "retrain_every": 16,
        "samples_per_edge": 40.0, "threads": 4, "thread_probes": 60}
SMOKE = {"buildings": 4, "records_per_floor": 20, "window": 128,
         "warm_records": 64, "budget_seconds": 1.2, "retrain_every": 12,
         "samples_per_edge": 24.0, "threads": 4, "thread_probes": 25}

#: Conservative CI floor for the retrain-load comparison; the measured
#: number on the reference container is recorded in CHANGES.md.
MIN_RETRAIN_LOAD_SPEEDUP = 1.1


def _synthetic_vocabularies() -> dict[str, list[str]]:
    rng = random.Random(0)
    shared = [f"shared-ap-{i}" for i in range(SHARED_MACS)]
    vocabularies = {}
    for b in range(NUM_BUILDINGS):
        own = [f"b{b:03d}-ap-{i}" for i in range(MACS_PER_BUILDING)]
        vocabularies[f"building-{b:03d}"] = own + rng.sample(shared, 10)
    return vocabularies


def _synthetic_probes(vocabularies: dict[str, list[str]]) -> list[SignalRecord]:
    rng = random.Random(1)
    building_ids = list(vocabularies)
    probes = []
    for i in range(NUM_PROBES):
        home = vocabularies[rng.choice(building_ids)]
        macs = rng.sample(home, MACS_PER_PROBE)
        probes.append(SignalRecord(
            record_id=f"probe-{i}",
            rss={mac: rng.uniform(-90.0, -35.0) for mac in macs}))
    return probes


def _best_of(callable_, repeats: int = TIMING_REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


# ------------------------------------------------------------------- fixtures
def _trained_registry(sizes):
    """A registry of small trained buildings plus their held-out splits."""
    config = GraficsConfig(
        embedding=EmbeddingConfig(
            samples_per_edge=sizes["samples_per_edge"], seed=0),
        allow_unreachable_clusters=True)
    registry = MultiBuildingFloorService(config)
    splits = {}
    for b in range(sizes["buildings"]):
        building_id = f"bench-{b:02d}"
        dataset = small_test_building(
            num_floors=2, records_per_floor=sizes["records_per_floor"],
            aps_per_floor=10, seed=70 + b, building_id=building_id)
        split = make_experiment_split(dataset, labels_per_floor=4, seed=0)
        registry.fit_building(dataset.subset(split.train_records),
                              split.labels)
        splits[building_id] = split
    return registry, splits


def _clone_registry(registry):
    clone = MultiBuildingFloorService(registry.config,
                                      min_overlap=registry.min_overlap)
    for building_id, vocabulary in registry.vocabularies.items():
        clone.install_model(building_id, registry.model_for(building_id),
                            vocabulary=vocabulary)
    return clone


def _interleaved_stream(splits, prefix, label_every=3, jitter=2.5):
    """Endless per-building round-robin stream of unique jittered records."""
    rng = random.Random(7)
    pools = {b: list(split.test_records) for b, split in splits.items()}
    for i in itertools.count():
        for building_id, pool in pools.items():
            base = pool[i % len(pool)]
            rss = {mac: value + rng.uniform(-jitter, jitter)
                   for mac, value in base.rss.items()}
            yield SignalRecord(
                record_id=f"{prefix}{building_id}-{i:06d}", rss=rss,
                floor=base.floor if i % label_every == 0 else None)


# ------------------------------------------------------------ measurements
def measure_concurrent_predicts(sizes, registry, splits,
                                num_shards: int) -> dict:
    """Wall time for N threads hammering ``predict`` on disjoint probes."""
    service = FloorServingService(registry=_clone_registry(registry),
                                  num_shards=num_shards)
    per_thread = []
    stream = _interleaved_stream(splits, f"conc{num_shards}-", label_every=1)
    for t in range(sizes["threads"]):
        per_thread.append([next(stream).without_floor()
                           for _ in range(sizes["thread_probes"])])

    errors = []

    def worker(probes):
        try:
            for probe in probes:
                service.predict(probe)
        except Exception as error:  # noqa: BLE001 — surfaced after join
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(probes,))
               for probes in per_thread]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - start
    if errors:
        raise errors[0]
    total = sizes["threads"] * sizes["thread_probes"]
    return {"shards": num_shards, "records": total,
            "seconds": round(seconds, 4),
            "records_per_s": round(total / seconds, 1)}


def measure_retrain_load(sizes, registry, splits, num_shards: int,
                         workers: int) -> dict:
    """Records served in a fixed wall-clock budget while retrains fire.

    ``workers=0`` retrains synchronously on the ingest thread (the 1-shard
    reference architecture); ``workers>=1`` submits retrains to the
    background executor so traffic keeps flowing and swaps land atomically
    a few records later.
    """
    service = FloorServingService(registry=_clone_registry(registry),
                                  num_shards=num_shards)
    pipeline = ContinuousLearningPipeline(service, StreamConfig(
        window=WindowConfig(max_records=sizes["window"]),
        drift=DriftConfig(vocabulary_jaccard_min=0.2),  # cadence drives this
        scheduler=SchedulerConfig(
            retrain_every_records=sizes["retrain_every"],
            min_window_records=sizes["warm_records"] // 2,
            min_labeled_records=2, warm_start=True),
        retrain_workers=workers))

    stream = _interleaved_stream(splits, f"load{num_shards}w{workers}-")
    for _ in range(sizes["warm_records"]):
        for _ in splits:
            pipeline.process(next(stream))

    processed = 0
    max_stall = 0.0
    deadline = time.perf_counter() + sizes["budget_seconds"]
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        if before >= deadline:
            break
        pipeline.process(next(stream))
        processed += 1
        max_stall = max(max_stall, time.perf_counter() - before)
    foreground = time.perf_counter() - start

    join_started = time.perf_counter()
    pipeline.close()
    join_seconds = time.perf_counter() - join_started
    stats = pipeline.scheduler.stats()
    return {
        "shards": num_shards, "workers": workers,
        "records": processed,
        "seconds": round(foreground, 4),
        "records_per_s": round(processed / foreground, 1),
        "max_process_stall_s": round(max_stall, 4),
        "join_seconds": round(join_seconds, 4),
        "swaps": stats["retrains_total"],
        "stale": stats["executor"]["stale_total"],
    }


# ------------------------------------------------------------------ benches
def run_routing() -> dict:
    """Inverted MAC index vs the linear scan at 60 buildings."""
    vocabularies = _synthetic_vocabularies()
    linear = LinearScanRouter()
    inverted = MacInvertedRouter()
    for building_id, vocabulary in vocabularies.items():
        linear.add_building(building_id, vocabulary)
        inverted.add_building(building_id, vocabulary)
    probes = _synthetic_probes(vocabularies)

    # Both implementations must agree before their speed is compared.
    assert inverted.route_batch(probes) == linear.route_batch(probes)

    linear_seconds = _best_of(lambda: linear.route_batch(probes))
    inverted_seconds = _best_of(lambda: inverted.route_batch(probes))
    speedup = linear_seconds / inverted_seconds

    rows = [
        {"router": "linear vocabulary scan",
         "seconds": round(linear_seconds, 4),
         "per_probe_us": round(linear_seconds / NUM_PROBES * 1e6, 1)},
        {"router": "inverted MAC index",
         "seconds": round(inverted_seconds, 4),
         "per_probe_us": round(inverted_seconds / NUM_PROBES * 1e6, 1)},
        {"router": "speedup", "seconds": round(speedup, 1), "per_probe_us": ""},
    ]
    save_table("serving_routing_speedup", rows,
               columns=["router", "seconds", "per_probe_us"],
               header=f"Routing {NUM_PROBES} probes across {NUM_BUILDINGS} "
                      "buildings")

    assert speedup >= 3.0, (
        f"inverted routing is only {speedup:.1f}x faster than the linear scan")
    return {"linear_us_per_probe": round(linear_seconds / NUM_PROBES * 1e6, 1),
            "inverted_us_per_probe": round(inverted_seconds / NUM_PROBES * 1e6,
                                           1),
            "speedup": round(speedup, 1)}


def run_serving() -> dict:
    """End-to-end service throughput vs the sequential reference loop."""
    config = GraficsConfig(
        embedding=EmbeddingConfig(samples_per_edge=40.0, seed=0))
    registry = MultiBuildingFloorService(config)
    probes = []
    for b, seed in ((0, 61), (1, 62), (2, 63)):
        dataset = small_test_building(num_floors=3, records_per_floor=40,
                                      aps_per_floor=20, seed=seed,
                                      building_id=f"bench-{b}")
        split = make_experiment_split(dataset, labels_per_floor=4, seed=0)
        registry.fit_building(dataset.subset(split.train_records), split.labels)
        probes.extend(r.without_floor() for r in split.test_records[:12])

    service = FloorServingService(registry=registry)

    start = time.perf_counter()
    reference = [registry.predict(record) for record in probes]
    sequential_seconds = time.perf_counter() - start

    start = time.perf_counter()
    cold = service.predict_batch(probes)
    cold_seconds = time.perf_counter() - start
    assert cold == reference  # serving must not change any prediction

    start = time.perf_counter()
    warm = service.predict_batch(probes)
    warm_seconds = time.perf_counter() - start
    assert warm == reference

    snapshot = service.telemetry_snapshot()
    latency = snapshot["latency"]["request_seconds"]
    rows = [
        {"path": "sequential registry.predict loop",
         "seconds": round(sequential_seconds, 3),
         "records_per_s": round(len(probes) / sequential_seconds, 1)},
        {"path": "FloorServingService cold cache",
         "seconds": round(cold_seconds, 3),
         "records_per_s": round(len(probes) / cold_seconds, 1)},
        {"path": "FloorServingService warm cache",
         "seconds": round(warm_seconds, 3),
         "records_per_s": round(len(probes) / warm_seconds, 1)},
        {"path": "cache hit rate",
         "seconds": snapshot["cache"]["hit_rate"], "records_per_s": ""},
        {"path": "request p50 / p95 (s)",
         "seconds": f"{latency['p50']:.4f} / {latency['p95']:.4f}",
         "records_per_s": ""},
    ]
    save_table("serving_throughput", rows,
               columns=["path", "seconds", "records_per_s"],
               header=f"Serving {len(probes)} probes across 3 buildings")

    assert warm_seconds < cold_seconds
    assert snapshot["cache"]["hit_rate"] >= 0.5
    return {"sequential_rps": round(len(probes) / sequential_seconds, 1),
            "cold_rps": round(len(probes) / cold_seconds, 1),
            "warm_rps": round(len(probes) / warm_seconds, 1)}


def run_sharded(sizes, label) -> dict:
    """The 1-vs-4-shard comparison: concurrent predicts + retrain load."""
    registry, splits = _trained_registry(sizes)

    concurrent = [measure_concurrent_predicts(sizes, registry, splits, 1),
                  measure_concurrent_predicts(sizes, registry, splits, 4)]
    predict_ratio = (concurrent[1]["records_per_s"]
                     / concurrent[0]["records_per_s"])

    sync = measure_retrain_load(sizes, registry, splits, num_shards=1,
                                workers=0)
    sharded = measure_retrain_load(sizes, registry, splits, num_shards=4,
                                   workers=1)
    load_ratio = sharded["records_per_s"] / sync["records_per_s"]

    rows = [
        {"scenario": "concurrent predicts, 1 shard",
         "records_per_s": concurrent[0]["records_per_s"], "detail": ""},
        {"scenario": "concurrent predicts, 4 shards",
         "records_per_s": concurrent[1]["records_per_s"],
         "detail": f"{predict_ratio:.2f}x"},
        {"scenario": "retrain load, 1 shard sync (stalls ingest)",
         "records_per_s": sync["records_per_s"],
         "detail": f"max stall {sync['max_process_stall_s']}s, "
                   f"{sync['swaps']} swaps"},
        {"scenario": "retrain load, 4 shards + background executor",
         "records_per_s": sharded["records_per_s"],
         "detail": f"{load_ratio:.2f}x, max stall "
                   f"{sharded['max_process_stall_s']}s, {sharded['swaps']} "
                   f"swaps, join {sharded['join_seconds']}s"},
    ]
    save_table("serving_sharded_throughput", rows,
               columns=["scenario", "records_per_s", "detail"],
               header=f"Sharded serving, {sizes['buildings']} buildings, "
                      f"budget {sizes['budget_seconds']}s ({label})")

    assert load_ratio >= MIN_RETRAIN_LOAD_SPEEDUP, (
        f"sharded+async serving is only {load_ratio:.2f}x the 1-shard "
        "reference under retrain load")
    # The architecture must remove the inline-retrain stall from the
    # serving path, not just shift averages.
    assert (sharded["max_process_stall_s"]
            < sync["max_process_stall_s"]), "retrain stall did not shrink"
    return {"concurrent_predicts": concurrent,
            "predict_ratio": round(predict_ratio, 2),
            "retrain_load": {"sync_1shard": sync, "async_4shards": sharded},
            "retrain_load_ratio": round(load_ratio, 2)}


def run(sizes, label) -> dict:
    summary = {"benchmark": "serving_throughput", "mode": label,
               "routing": run_routing(), "serving": run_serving(),
               "sharded": run_sharded(sizes, label)}
    print("BENCH_JSON " + json.dumps(summary))
    return summary


# ------------------------------------------------------------ pytest entry
def test_routing_speedup_at_scale():
    """Inverted MAC index must beat the linear scan >= 3x at 60 buildings."""
    run_routing()


def test_serving_throughput():
    """End-to-end service throughput vs the sequential reference loop."""
    run_serving()


def test_sharded_throughput_under_load():
    """4 shards + background retrains must outserve the 1-shard reference."""
    run_sharded(FULL, "full")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (seconds, not minutes)")
    args = parser.parse_args(argv)
    run(SMOKE if args.smoke else FULL, "smoke" if args.smoke else "full")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
