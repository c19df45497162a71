"""Fit benchmark: GRAFICS fit throughput and retrains under a stream.

The continuous-learning loop retrains constantly, so E-LINE fit time gates
hot-swap latency, retrain-worker occupancy and how many buildings one host
can keep fresh.  Every fit runs the one fit kernel
(:class:`~repro.core.embedding.kernels.FusedKernel`); this benchmark reports
it on that axis:

1. **Fit throughput** — end-to-end ``GRAFICS.fit`` wall-clock and edge
   samples/s on the campus preset with the default embedding config, plus
   the floor accuracy of the fitted model over the test split.

2. **Retrain under stream** — a round-robin record stream with
   cadence-triggered synchronous retrains, reported as stream records/s
   plus mean retrain seconds (the stall the async executor otherwise has
   to hide).

Accuracy against the historical fit step is gated in tier-1
(``tests/core/test_kernels.py``), not here; wall-clock numbers from one
host are reported, never asserted.

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

FULL = {"records_per_floor": 100, "labels_per_floor": 6, "repeats": 3,
        "stream_records": 360, "retrain_every": 24, "window": 192,
        "stream_records_per_floor": 25}
SMOKE = {"records_per_floor": 40, "labels_per_floor": 4, "repeats": 2,
         "stream_records": 120, "retrain_every": 16, "window": 96,
         "stream_records_per_floor": 15}


def _best_of(callable_, repeats: int) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


# ------------------------------------------------------------ fit throughput
def measure_fit(sizes) -> dict:
    """``GRAFICS.fit`` throughput and floor accuracy on the campus preset."""
    dataset = three_story_campus_building(
        records_per_floor=sizes["records_per_floor"], seed=7)
    split = make_experiment_split(
        dataset, labels_per_floor=sizes["labels_per_floor"], seed=0)
    records = list(split.train_records)
    probes = [r.without_floor() for r in split.test_records]
    truth = [r.floor for r in split.test_records]

    config = GraficsConfig(embedding=EmbeddingConfig(seed=0),
                           allow_unreachable_clusters=True)
    seconds, model = _best_of(
        lambda: GRAFICS(config).fit(records, split.labels),
        sizes["repeats"])
    total_samples = int(model.embedding.config.samples_per_edge
                        * model.graph.num_edges)
    predictions = model.predict_batch(probes)
    hits = sum(1 for p, t in zip(predictions, truth) if p.floor == t)
    result = {"seconds": round(seconds, 4),
              "samples_per_s": round(total_samples / seconds, 1),
              "accuracy": round(hits / len(truth), 4)}
    save_table("fit_throughput", [result],
               columns=["seconds", "samples_per_s", "accuracy"],
               header=f"GRAFICS fit, campus preset "
                      f"({sizes['records_per_floor']} records/floor, "
                      "default embedding config)")
    return result


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


def measure_retrain_stream(sizes) -> dict:
    """Stream records/s with synchronous cadence retrains."""
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
            min_labeled_records=2, warm_start=True)))

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
    return {"records": sizes["stream_records"],
            "records_per_s": round(sizes["stream_records"] / seconds, 1),
            "retrains": len(retrain_seconds),
            "mean_retrain_s": round(mean_retrain, 4)}


# ------------------------------------------------------------------- driver
def run(sizes, label) -> dict:
    fit = measure_fit(sizes)
    stream = measure_retrain_stream(sizes)
    save_table("fit_retrain_stream", [stream],
               columns=["records", "records_per_s", "retrains",
                        "mean_retrain_s"],
               header="Stream with synchronous cadence retrains "
                      f"({label} sizes)")
    summary = {"benchmark": "fit_throughput", "mode": label,
               "fit": fit, "retrain_stream": stream}
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
