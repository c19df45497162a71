"""Continuous learning: a campus whose access points churn mid-stream.

Run with:  python examples/continuous_campus.py

Crowdsourced records stream into a live serving stack one at a time.  The
:class:`ContinuousLearningPipeline` quality-filters them, keeps a bounded
sliding-window graph per building, and watches for drift.  Halfway through
this example, half of one building's APs are replaced (the AP-churn
scenario of the paper's Section III-A) — the MAC-vocabulary drift detector
fires, the scheduler retrains that building from its window (warm-started
from the previous embedding) and atomically hot-swaps the model, after
which records sensing the brand-new APs are served correctly again.
"""

from __future__ import annotations

import random

from repro import (
    ContinuousLearningPipeline,
    EmbeddingConfig,
    FloorServingService,
    GraficsConfig,
    SignalRecord,
    StreamConfig,
)
from repro.data import make_experiment_split, small_test_building
from repro.stream import DriftConfig, SchedulerConfig, WindowConfig


def make_stream(split, count, prefix, rename=None, seed=0):
    """Unique stream records synthesized from a building's held-out samples."""
    rng = random.Random(seed)
    pool = list(split.test_records)
    for i in range(count):
        base = pool[i % len(pool)]
        rss = {(rename or {}).get(mac, mac): value + rng.uniform(-2.5, 2.5)
               for mac, value in base.rss.items()}
        # Every third record carries a crowdsourced floor label; the
        # retrain scheduler harvests these from the window.
        yield SignalRecord(record_id=f"{prefix}{i:05d}", rss=rss,
                           floor=base.floor if i % 3 == 0 else None)


def main() -> None:
    config = GraficsConfig(embedding=EmbeddingConfig(samples_per_edge=10.0,
                                                     seed=0),
                           allow_unreachable_clusters=True)
    service = FloorServingService(grafics_config=config)
    dataset = small_test_building(num_floors=3, records_per_floor=30,
                                  aps_per_floor=10, seed=7,
                                  building_id="science-wing")
    split = make_experiment_split(dataset, labels_per_floor=4, seed=0)
    service.fit_building(dataset.subset(split.train_records), split.labels)
    print(f"trained science-wing: {len(split.train_records)} records, "
          f"{len(service.vocabulary_for('science-wing'))} APs")

    pipeline = ContinuousLearningPipeline(service, StreamConfig(
        window=WindowConfig(max_records=96),
        drift=DriftConfig(vocabulary_jaccard_min=0.6),
        scheduler=SchedulerConfig(min_window_records=48, warm_start=True)))

    # Phase 1: steady-state traffic.
    for record in make_stream(split, 120, "steady-"):
        pipeline.process(record)
    print(f"\nphase 1 (steady): {pipeline.processed_total} records processed, "
          f"window holds {pipeline.windows.total_records}, "
          f"drift events: {sum(pipeline.drift.events_total.values())}")

    # Phase 2: facilities replaces half the APs overnight.
    macs = sorted({m for r in split.test_records for m in r.rss})
    rename = {mac: f"{mac}:v2" for mac in macs[: len(macs) // 2]}
    print(f"\nphase 2 (churn): replacing {len(rename)} of {len(macs)} APs...")
    for record in make_stream(split, 300, "churn-", rename=rename, seed=1):
        result = pipeline.process(record)
        for event in result.drift_events:
            print(f"  drift detected: {event.detail}")
        if result.swapped:
            report = result.retrain
            print(f"  retrained + hot-swapped {report.building_id!r} from "
                  f"{report.window_records} window records "
                  f"({report.labeled_records} labeled) in "
                  f"{report.duration_seconds:.2f}s [{report.trigger}]")
            break

    # Post-swap: records sensing only the brand-new APs are served.
    probe = SignalRecord(record_id="new-ap-probe",
                         rss={f"{mac}:v2": -55.0 for mac in list(rename)[:5]})
    prediction = service.predict(probe)
    print(f"\npost-swap probe over new APs -> building "
          f"{prediction.building_id!r}, floor {prediction.floor} "
          f"(overlap {prediction.mac_overlap:.0%})")

    stats = pipeline.stats()
    print(f"\ningest:    {stats['ingest']}")
    print(f"windows:   {stats['windows']}")
    print(f"drift:     {stats['drift']['events_total']}")
    print(f"scheduler: {stats['scheduler']}")


if __name__ == "__main__":
    main()
