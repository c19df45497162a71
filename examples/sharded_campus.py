"""Scaling out: partitioned serving, background retrains, kill-and-resume.

Run with:  python examples/sharded_campus.py

A campus of several buildings is served by a :class:`ShardedServingService`
(the serving service with ``num_shards=4``) — buildings hash-partition
across 4 shards, each with its own lock, cache partition and router
postings, while attribution stays globally identical to the sequential
registry reference.  Crowdsourced traffic streams through a
:class:`ContinuousLearningPipeline` configured with a background
:class:`RetrainExecutor` (``retrain_workers=1``), so when one building's
APs churn, its retrain runs off the ingest thread and the hot swap lands a
few records later without stalling the other buildings' traffic.  Halfway
through, the node is "killed": the pipeline checkpoints to disk, and a
fresh process resumes from the checkpoint, replaying the rest of the
stream exactly as the uninterrupted node would have.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

from repro import (
    ContinuousLearningPipeline,
    EmbeddingConfig,
    GraficsConfig,
    ShardedServingService,
    SignalRecord,
    StreamConfig,
)
from repro.core.registry import MultiBuildingFloorService
from repro.data import make_experiment_split, small_test_building
from repro.stream import DriftConfig, SchedulerConfig, WindowConfig

NUM_BUILDINGS = 3
NUM_SHARDS = 4


def train_campus():
    config = GraficsConfig(embedding=EmbeddingConfig(samples_per_edge=10.0,
                                                     seed=0),
                           allow_unreachable_clusters=True)
    registry = MultiBuildingFloorService(config)
    splits = {}
    for b in range(NUM_BUILDINGS):
        building_id = f"building-{b}"
        dataset = small_test_building(num_floors=2, records_per_floor=25,
                                      aps_per_floor=10, seed=30 + b,
                                      building_id=building_id)
        split = make_experiment_split(dataset, labels_per_floor=4, seed=0)
        registry.fit_building(dataset.subset(split.train_records),
                              split.labels)
        splits[building_id] = split
    return registry, splits


def make_stream(splits, count, prefix, rename_building=None, rename=None,
                seed=0):
    """Round-robin records across buildings, optionally churning one."""
    rng = random.Random(seed)
    pools = {b: list(split.test_records) for b, split in splits.items()}
    for i in range(count):
        for building_id, pool in pools.items():
            base = pool[i % len(pool)]
            mapping = rename if building_id == rename_building else None
            rss = {(mapping or {}).get(mac, mac): value
                   + rng.uniform(-2.5, 2.5)
                   for mac, value in base.rss.items()}
            yield SignalRecord(record_id=f"{prefix}{building_id}-{i:05d}",
                               rss=rss,
                               floor=base.floor if i % 3 == 0 else None)


def stream_config():
    return StreamConfig(
        window=WindowConfig(max_records=96),
        drift=DriftConfig(vocabulary_jaccard_min=0.6),
        scheduler=SchedulerConfig(min_window_records=48, warm_start=True),
        retrain_workers=1)           # fits run off the ingest thread


def main() -> None:
    registry, splits = train_campus()
    service = ShardedServingService(registry=registry, num_shards=NUM_SHARDS)
    placement = {b: service.shard_for(b).index for b in service.building_ids}
    print(f"trained {NUM_BUILDINGS} buildings, sharded across "
          f"{NUM_SHARDS} shards: {placement}")

    pipeline = ContinuousLearningPipeline(service, stream_config())

    # Phase 1: steady-state traffic across all buildings.
    for record in make_stream(splits, 60, "steady-"):
        pipeline.process(record)
    print(f"\nphase 1 (steady): {pipeline.processed_total} records, "
          f"windows hold {pipeline.windows.total_records}")

    # Phase 2: facilities replaces half of building-1's APs overnight.
    churned = "building-1"
    macs = sorted({m for r in splits[churned].test_records for m in r.rss})
    rename = {mac: f"{mac}:v2" for mac in macs[: len(macs) // 2]}
    print(f"\nphase 2 (churn): replacing {len(rename)} of {len(macs)} APs "
          f"in {churned!r} (shard {placement[churned]})...")
    swap_landed = False
    for record in make_stream(splits, 120, "churn-",
                              rename_building=churned, rename=rename,
                              seed=1):
        result = pipeline.process(record)
        for event in result.drift_events:
            print(f"  drift detected: {event.detail}")
        if result.retrain is not None and result.retrain.submitted:
            print(f"  retrain of {result.retrain.building_id!r} submitted to "
                  "the background executor; ingest keeps flowing")
        for report in result.completed_retrains:
            swap_landed = True
            print(f"  background swap landed: {report.building_id!r} from "
                  f"{report.window_records} window records in "
                  f"{report.duration_seconds:.2f}s [{report.trigger}]")
        if swap_landed:
            break

    # Phase 3: kill the node mid-stream and resume from the checkpoint.
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint_dir = Path(tmp) / "node-checkpoint"
        pipeline.checkpoint(checkpoint_dir)
        pipeline.close()
        files = sorted(p.name for p in checkpoint_dir.rglob("*")
                       if p.is_file())
        print(f"\nphase 3 (restart): checkpointed {len(files)} files "
              f"({', '.join(files[:3])}, ...); resuming on a fresh stack")
        resumed = ContinuousLearningPipeline.resume(checkpoint_dir)

        for record in make_stream(splits, 30, "after-", seed=2):
            resumed.process(record)
        probe = SignalRecord(record_id="new-ap-probe",
                             rss={f"{mac}:v2": -55.0
                                  for mac in list(rename)[:5]})
        prediction = resumed.service.predict(probe)
        print(f"resumed node serves new APs: building "
              f"{prediction.building_id!r}, floor {prediction.floor} "
              f"(overlap {prediction.mac_overlap:.0%})")

        snapshot = resumed.service.telemetry_snapshot()
        print(f"\nper-shard stats: {snapshot['shards']}")
        print(f"scheduler:       {resumed.scheduler.stats()}")
        resumed.close()


if __name__ == "__main__":
    main()
