"""Helpers shared by the streaming tests (imported, not fixtures)."""

from __future__ import annotations

import random

from repro import EmbeddingConfig, FloorServingService, GraficsConfig, SignalRecord
from repro.data import make_experiment_split, small_test_building

#: Deliberately tiny: streaming tests retrain repeatedly.
FAST_CONFIG = GraficsConfig(
    embedding=EmbeddingConfig(samples_per_edge=8.0, seed=0),
    allow_unreachable_clusters=True)


class FakeClock:
    """A manually advanced monotonic clock for deterministic cooldowns."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def train_service(building_ids=("bldg-A",), seed_base=50,
                  grafics_config=FAST_CONFIG):
    """A FloorServingService with small trained buildings + their splits."""
    service = FloorServingService(grafics_config=grafics_config)
    splits = {}
    for offset, building_id in enumerate(building_ids):
        dataset = small_test_building(num_floors=2, records_per_floor=25,
                                      aps_per_floor=10,
                                      seed=seed_base + offset,
                                      building_id=building_id)
        split = make_experiment_split(dataset, labels_per_floor=4, seed=0)
        service.fit_building(dataset.subset(split.train_records), split.labels)
        splits[building_id] = split
    return service, splits


def stream_records(split, count, prefix="s", label_every=3, rng_seed=0,
                   rename=None, jitter=0.0):
    """Synthesize unique stream records from a split's held-out records.

    ``rename`` optionally maps MAC -> MAC (AP churn); ``label_every`` puts a
    ground-truth floor on every n-th record (crowdsourced labels);
    ``jitter`` adds deterministic per-record RSS noise so the quantised
    fingerprints stay distinct and survive the dedup filter.
    """
    rng = random.Random(rng_seed)
    pool = list(split.test_records)
    records = []
    for i in range(count):
        base = pool[i % len(pool)]
        rss = {}
        for mac, value in base.rss.items():
            if rename is not None:
                mac = rename.get(mac, mac)
            rss[mac] = value + (rng.uniform(-jitter, jitter) if jitter else 0.0)
        records.append(SignalRecord(
            record_id=f"{prefix}{i:05d}", rss=rss,
            floor=base.floor if i % label_every == 0 else None))
    return records
