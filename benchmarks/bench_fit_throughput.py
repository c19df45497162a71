"""Training-kernel benchmark: GRAFICS fit throughput, reference vs fused.

The continuous-learning loop (PR 2/3) retrains constantly, so E-LINE fit
time gates hot-swap latency, retrain-worker occupancy and how many buildings
one host can keep fresh.  This benchmark measures the pluggable
training-kernel layer (``EmbeddingConfig.kernel``) on that axis:

1. **Fit throughput** — end-to-end ``GRAFICS.fit`` wall-clock and edge
   samples/s at preset sizes with the default embedding config, for the
   ``reference`` kernel (the byte-identity baseline) and the ``fused``
   kernel.  The fused kernel must be at least ``MIN_FIT_SPEEDUP`` faster
   (the recorded number on the 1-CPU reference container is 2x+), and both
   kernels must reach identical floor accuracy on the campus preset.

2. **Retrain under stream** — the PR 3 continuous-learning harness: a
   round-robin record stream with cadence-triggered synchronous retrains,
   once with the default kernel and once with ``retrain_kernel="fused"``.
   Reported as stream records/s plus mean retrain seconds — the fused
   kernel shrinks exactly the stall the async executor otherwise has to
   hide.

Run standalone (``--smoke`` for the CI-sized variant) or via pytest; both
print one machine-readable JSON summary line prefixed ``BENCH_JSON`` so CI
logs can be scraped for regressions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import time

from repro import GRAFICS, GraficsConfig, EmbeddingConfig, SignalRecord, StreamConfig
from repro.core.registry import MultiBuildingFloorService
from repro.data import (
    make_experiment_split,
    small_test_building,
    three_story_campus_building,
)
from repro.serving import FloorServingService
from repro.stream import (
    ContinuousLearningPipeline,
    DriftConfig,
    SchedulerConfig,
    WindowConfig,
)

from conftest import save_table

#: ``accuracy_flips`` bounds how many test-record predictions may differ
#: between the kernels: 0 at full size (the presets are well-separated there,
#: accuracies must be identical), one flip at smoke size, where the tiny
#: graph leaves borderline records whose cluster hops on tolerance-level
#: embedding differences.
FULL = {"records_per_floor": 100, "labels_per_floor": 6, "repeats": 3,
        "accuracy_flips": 0,
        "stream_records": 360, "retrain_every": 24, "window": 192,
        "stream_records_per_floor": 25}
SMOKE = {"records_per_floor": 40, "labels_per_floor": 4, "repeats": 2,
         "accuracy_flips": 1,
         "stream_records": 120, "retrain_every": 16, "window": 96,
         "stream_records_per_floor": 15}

#: Conservative CI floor; the measured number on the idle 1-CPU reference
#: container is recorded in benchmarks/results/ and CHANGES.md (2x+).
MIN_FIT_SPEEDUP = 1.3


def _best_of(callable_, repeats: int) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


# ------------------------------------------------------------ fit throughput
def measure_fit(sizes) -> dict:
    """reference-vs-fused ``GRAFICS.fit`` on the paper's campus preset."""
    dataset = three_story_campus_building(
        records_per_floor=sizes["records_per_floor"], seed=7)
    split = make_experiment_split(
        dataset, labels_per_floor=sizes["labels_per_floor"], seed=0)
    records = list(split.train_records)
    probes = [r.without_floor() for r in split.test_records]
    truth = [r.floor for r in split.test_records]

    results = {}
    for kernel in ("reference", "fused"):
        config = GraficsConfig(embedding=EmbeddingConfig(seed=0, kernel=kernel),
                               allow_unreachable_clusters=True)
        seconds, model = _best_of(
            lambda: GRAFICS(config).fit(records, split.labels),
            sizes["repeats"])
        total_samples = int(model.embedding.config.samples_per_edge
                            * model.graph.num_edges)
        predictions = model.predict_batch(probes)
        hits = sum(1 for p, t in zip(predictions, truth) if p.floor == t)
        results[kernel] = {
            "seconds": round(seconds, 4),
            "samples_per_s": round(total_samples / seconds, 1),
            "accuracy": round(hits / len(truth), 4),
            "hits": hits,
        }
    speedup = (results["reference"]["seconds"] / results["fused"]["seconds"])

    rows = [{"kernel": kernel, **metrics}
            for kernel, metrics in results.items()]
    rows.append({"kernel": "speedup", "seconds": round(speedup, 2),
                 "samples_per_s": "", "accuracy": ""})
    save_table("fit_throughput", rows,
               columns=["kernel", "seconds", "samples_per_s", "accuracy"],
               header=f"GRAFICS fit, campus preset "
                      f"({sizes['records_per_floor']} records/floor, "
                      "default embedding config)")

    flips = abs(results["fused"].pop("hits")
                - results["reference"].pop("hits"))
    assert flips <= sizes["accuracy_flips"], (
        "fused kernel changed floor accuracy: "
        f"{results['fused']['accuracy']} vs {results['reference']['accuracy']}")
    assert speedup >= MIN_FIT_SPEEDUP, (
        f"fused kernel is only {speedup:.2f}x faster than reference")
    return {"reference": results["reference"], "fused": results["fused"],
            "speedup": round(speedup, 2)}


# ------------------------------------------------------- retrain under stream
def _jittered_stream(split, building_id, label_every=3, jitter=2.5):
    rng = random.Random(7)
    pool = list(split.test_records)
    for i in itertools.count():
        base = pool[i % len(pool)]
        rss = {mac: value + rng.uniform(-jitter, jitter)
               for mac, value in base.rss.items()}
        yield SignalRecord(record_id=f"stream-{building_id}-{i:06d}", rss=rss,
                           floor=base.floor if i % label_every == 0 else None)


def measure_retrain_stream(sizes, retrain_kernel: str | None) -> dict:
    """Stream records/s with synchronous cadence retrains (PR 3 harness)."""
    building_id = "bench-stream"
    dataset = small_test_building(
        num_floors=2, records_per_floor=sizes["stream_records_per_floor"],
        aps_per_floor=10, seed=70, building_id=building_id)
    split = make_experiment_split(dataset, labels_per_floor=4, seed=0)
    registry = MultiBuildingFloorService(GraficsConfig(
        embedding=EmbeddingConfig(seed=0), allow_unreachable_clusters=True))
    registry.fit_building(dataset.subset(split.train_records), split.labels)
    service = FloorServingService(registry=registry)
    pipeline = ContinuousLearningPipeline(service, StreamConfig(
        window=WindowConfig(max_records=sizes["window"]),
        drift=DriftConfig(vocabulary_jaccard_min=0.2),  # cadence drives this
        scheduler=SchedulerConfig(
            retrain_every_records=sizes["retrain_every"],
            min_window_records=sizes["retrain_every"],
            min_labeled_records=2, warm_start=True),
        retrain_kernel=retrain_kernel))

    stream = _jittered_stream(split, building_id)
    retrain_seconds = []
    start = time.perf_counter()
    for _ in range(sizes["stream_records"]):
        result = pipeline.process(next(stream))
        if result.retrain is not None and result.retrain.swapped:
            retrain_seconds.append(result.retrain.duration_seconds)
    seconds = time.perf_counter() - start
    pipeline.close()
    mean_retrain = (sum(retrain_seconds) / len(retrain_seconds)
                    if retrain_seconds else 0.0)
    return {"kernel": retrain_kernel or "reference (default)",
            "records": sizes["stream_records"],
            "records_per_s": round(sizes["stream_records"] / seconds, 1),
            "retrains": len(retrain_seconds),
            "mean_retrain_s": round(mean_retrain, 4)}


# ------------------------------------------------------------------- driver
def run(sizes, label) -> dict:
    fit = measure_fit(sizes)
    stream_reference = measure_retrain_stream(sizes, None)
    stream_fused = measure_retrain_stream(sizes, "fused")
    save_table("fit_retrain_stream",
               [stream_reference, stream_fused],
               columns=["kernel", "records", "records_per_s", "retrains",
                        "mean_retrain_s"],
               header="Stream with synchronous cadence retrains "
                      f"({label} sizes)")
    assert stream_fused["retrains"] == stream_reference["retrains"]

    summary = {"benchmark": "fit_throughput", "mode": label,
               "fit": fit,
               "retrain_stream": {"reference": stream_reference,
                                  "fused": stream_fused}}
    print("BENCH_JSON " + json.dumps(summary))
    return summary


def test_fit_throughput():
    """Pytest entry point (full sizes)."""
    run(FULL, "full")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (seconds, not minutes)")
    args = parser.parse_args(argv)
    run(SMOKE if args.smoke else FULL, "smoke" if args.smoke else "full")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
