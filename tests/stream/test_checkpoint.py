"""Checkpoint/resume tests: a killed-and-resumed pipeline replays identically."""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import replace

import numpy as np
import pytest

from stream_helpers import FAST_CONFIG, stream_records, train_service

from repro import ShardedServingService, StreamConfig
from repro.core.persistence import load_stream_state, save_stream_state
from repro.stream import (
    ContinuousLearningPipeline,
    DriftConfig,
    SchedulerConfig,
    WindowConfig,
)


def drift_config():
    return StreamConfig(window=WindowConfig(max_records=96),
                        drift=DriftConfig(vocabulary_jaccard_min=0.6),
                        scheduler=SchedulerConfig(min_window_records=48,
                                                  warm_start=True))


def churn_stream(split, count=200):
    macs = sorted({mac for record in split.test_records for mac in record.rss})
    rename = {mac: f"{mac}:v2" for mac in macs[: len(macs) // 2]}
    return stream_records(split, count, prefix="churn-", rename=rename,
                          rng_seed=1, jitter=2.0)


def summarize(results):
    """Everything observable about a stream result, prediction bytes included."""
    return [(r.record_id, r.accepted, r.building_id, r.rejected_by,
             None if r.prediction is None
             else (r.prediction.floor, r.prediction.distance,
                   r.prediction.mac_overlap),
             tuple((e.kind.value, e.building_id) for e in r.drift_events),
             r.eviction.record_ids, r.swapped)
            for r in results]


class TestResumeReplaysIdentically:
    def test_killed_and_resumed_equals_uninterrupted(self, tmp_path):
        """The acceptance bar: same retrains, same predictions, byte-level."""
        service_a, splits = train_service()
        split = splits["bldg-A"]
        steady = stream_records(split, 80, prefix="steady-", jitter=2.0)
        churn = churn_stream(split)

        uninterrupted = ContinuousLearningPipeline(service_a, drift_config())
        results_full = uninterrupted.process_stream(steady + churn)

        service_b, _ = train_service()
        interrupted = ContinuousLearningPipeline(service_b, drift_config())
        interrupted.process_stream(steady)
        interrupted.checkpoint(tmp_path / "ckpt")
        # "Kill" the node: resume from disk alone, no in-memory state reused.
        resumed = ContinuousLearningPipeline.resume(tmp_path / "ckpt")
        results_resumed = resumed.process_stream(churn)

        assert (summarize(results_resumed)
                == summarize(results_full[len(steady):]))
        # Both runs retrained (the churn is designed to drift) and the
        # models they installed are byte-identical.
        assert uninterrupted.scheduler.retrains_total == 1
        assert resumed.scheduler.retrains_total == 1
        assert np.array_equal(
            uninterrupted.service.model_for("bldg-A").embedding.ego,
            resumed.service.model_for("bldg-A").embedding.ego)

    def test_resume_restores_configs_and_counters(self, tmp_path):
        service, splits = train_service()
        pipeline = ContinuousLearningPipeline(service, drift_config())
        pipeline.process_stream(stream_records(splits["bldg-A"], 40,
                                               jitter=2.0))
        pipeline.checkpoint(tmp_path / "ckpt")
        resumed = ContinuousLearningPipeline.resume(tmp_path / "ckpt")

        assert resumed.config == pipeline.config
        assert resumed.processed_total == pipeline.processed_total
        assert resumed.ingestor.stats() == pipeline.ingestor.stats()
        assert resumed.windows.stats() == pipeline.windows.stats()
        assert resumed.drift.stats() == pipeline.drift.stats()
        assert (resumed.scheduler.stats()["pending"]
                == pipeline.scheduler.stats()["pending"])
        assert resumed.service.grafics_config == service.grafics_config

    def test_sharded_service_round_trips_through_checkpoint(self, tmp_path):
        service, splits = train_service(building_ids=("bldg-A", "bldg-B"))
        sharded = ShardedServingService(registry=service.export_registry(),
                                        num_shards=4)
        pipeline = ContinuousLearningPipeline(sharded, drift_config())
        pipeline.process_stream(stream_records(splits["bldg-A"], 30,
                                               jitter=2.0))
        pipeline.checkpoint(tmp_path / "ckpt")
        resumed = ContinuousLearningPipeline.resume(tmp_path / "ckpt")
        assert isinstance(resumed.service, ShardedServingService)
        assert resumed.service.num_shards == 4
        probes = [r.without_floor()
                  for r in splits["bldg-B"].test_records[:4]]
        assert (resumed.service.predict_batch(probes)
                == pipeline.service.predict_batch(probes))

    def test_one_lock_checkpoint_resumes_as_one_shard(self, tmp_path):
        """A checkpoint in the one-lock service's descriptor form (written
        before the services were unified: ``"kind": "single"``, no shard
        count) resumes as a 1-shard service serving the same bytes."""
        service, splits = train_service(building_ids=("bldg-A", "bldg-B"))
        pipeline = ContinuousLearningPipeline(service, drift_config())
        pipeline.process_stream(stream_records(splits["bldg-A"], 30,
                                               jitter=2.0))
        pipeline.checkpoint(tmp_path / "ckpt")
        state_file = tmp_path / "ckpt" / "stream_state.json"
        state = load_stream_state(state_file)
        descriptor = state["service"]
        state["service"] = {"kind": "single",
                            "serving_config": descriptor["serving_config"],
                            "grafics_config": descriptor["grafics_config"]}
        save_stream_state(state, state_file)

        resumed = ContinuousLearningPipeline.resume(tmp_path / "ckpt")
        assert resumed.service.num_shards == 1
        probes = [r.without_floor() for split in splits.values()
                  for r in split.test_records[:4]]
        assert (pickle.dumps(resumed.service.predict_batch(probes))
                == pickle.dumps(pipeline.service.predict_batch(probes)))

    def test_dedup_filter_memory_survives_resume(self, tmp_path):
        """A duplicate of a pre-checkpoint record must still be rejected."""
        service, splits = train_service()
        pipeline = ContinuousLearningPipeline(service, drift_config())
        records = stream_records(splits["bldg-A"], 30, jitter=2.0)
        pipeline.process_stream(records)
        pipeline.checkpoint(tmp_path / "ckpt")
        resumed = ContinuousLearningPipeline.resume(tmp_path / "ckpt")
        replay = records[0]
        duplicate = type(replay)(record_id="dup-0", rss=dict(replay.rss),
                                 floor=replay.floor)
        result = resumed.process(duplicate)
        assert not result.accepted
        assert result.rejected_by == "near_duplicate"


class TestCheckpointFormat:
    def test_stream_state_version_is_checked(self, tmp_path):
        path = tmp_path / "state.json"
        save_stream_state({"anything": 1}, path)
        raw = path.read_text().replace('"format_version": 1',
                                       '"format_version": 99')
        path.write_text(raw)
        with pytest.raises(ValueError, match="format version"):
            load_stream_state(path)

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_stream_state(tmp_path / "nope.json")
        with pytest.raises(FileNotFoundError):
            ContinuousLearningPipeline.resume(tmp_path / "empty")

    def test_filter_chain_mismatch_is_an_error(self, tmp_path):
        service, splits = train_service()
        pipeline = ContinuousLearningPipeline(service, drift_config())
        pipeline.process_stream(stream_records(splits["bldg-A"], 10,
                                               jitter=2.0))
        pipeline.checkpoint(tmp_path / "ckpt")
        with pytest.raises(ValueError, match="filter chain"):
            ContinuousLearningPipeline.resume(tmp_path / "ckpt", filters=[])

    def test_checkpoint_with_inflight_retrain_joins_first(self, tmp_path):
        """checkpoint() must quiesce the executor, not fail or tear state."""
        config = StreamConfig(
            window=WindowConfig(max_records=96),
            drift=DriftConfig(vocabulary_jaccard_min=0.6),
            scheduler=SchedulerConfig(min_window_records=48,
                                      retrain_every_records=60,
                                      warm_start=True),
            retrain_workers=1)
        service, splits = train_service()
        pipeline = ContinuousLearningPipeline(service, config)
        swapped_during_stream = 0
        for record in stream_records(splits["bldg-A"], 70, jitter=2.0):
            result = pipeline.process(record)
            swapped_during_stream += sum(
                r.swapped for r in result.completed_retrains)
        pipeline.checkpoint(tmp_path / "ckpt")
        pipeline.close()
        total = pipeline.scheduler.retrains_total
        assert total >= 1  # the cadence retrain landed, inline or via join
        resumed = ContinuousLearningPipeline.resume(tmp_path / "ckpt")
        assert resumed.scheduler.retrains_total == total


def write_legacy_keys(directory, stream_keys, embedding_keys):
    """Rewrite a checkpoint the way an older release wrote it.

    ``stream_keys`` land in the stream config; ``embedding_keys`` in the
    service descriptor's and every model file's embedding config.  Model
    files are re-saved with the keys, and the manifest digests follow, so
    the checkpoint stays intact.
    """
    state_file = directory / "stream_state.json"
    state = load_stream_state(state_file)
    state["stream_config"].update(stream_keys)
    state["service"]["grafics_config"]["embedding"].update(embedding_keys)
    save_stream_state(state, state_file)

    registry_dir = directory / "registry"
    manifest_path = registry_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for blob in manifest["buildings"]:
        model_path = registry_dir / blob["file"]
        with np.load(model_path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        metadata = json.loads(arrays["metadata"].tobytes().decode("utf-8"))
        metadata["config"]["embedding"].update(embedding_keys)
        arrays["metadata"] = np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
        with open(model_path, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        blob["sha256"] = hashlib.sha256(model_path.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest, indent=2))


def write_legacy_sampler_mode(directory, legacy_mode):
    """Rewrite a checkpoint the way a release with a selectable online
    negative sampler wrote it: ``embedding.sampler_mode`` in every model
    file and in the service descriptor (``"exact"`` unless opted in), and a
    ``retrain_sampler_mode`` override (``None`` by default) in the stream
    config."""
    write_legacy_keys(directory, {"retrain_sampler_mode": legacy_mode},
                      {"sampler_mode": legacy_mode or "exact"})


class TestStreamConfigCodec:
    @pytest.mark.parametrize("legacy_mode", ["exact", "delta", None])
    def test_legacy_retrain_sampler_mode_checkpoint_resumes(self, tmp_path,
                                                            legacy_mode):
        """Checkpoints written while the online negative sampler was
        selectable — ``embedding.sampler_mode`` in the model files and the
        service config, ``retrain_sampler_mode`` in the stream config —
        load with the retired keys dropped and resume byte-identically to
        the uninterrupted pipeline."""
        service_a, splits = train_service()
        split = splits["bldg-A"]
        steady = stream_records(split, 80, prefix="steady-", jitter=2.0)
        churn = churn_stream(split)
        uninterrupted = ContinuousLearningPipeline(service_a, drift_config())
        results_full = uninterrupted.process_stream(steady + churn)

        service_b, _ = train_service()
        interrupted = ContinuousLearningPipeline(service_b, drift_config())
        interrupted.process_stream(steady)
        interrupted.checkpoint(tmp_path / "ckpt")
        write_legacy_sampler_mode(tmp_path / "ckpt", legacy_mode)

        resumed = ContinuousLearningPipeline.resume(tmp_path / "ckpt")
        assert resumed.config == drift_config()
        assert resumed.service.grafics_config == FAST_CONFIG
        results_resumed = resumed.process_stream(churn)
        assert (summarize(results_resumed)
                == summarize(results_full[len(steady):]))
        assert resumed.scheduler.retrains_total == 1

    @pytest.mark.parametrize("kernel", ["reference", "fused"])
    def test_legacy_kernel_checkpoint_resumes(self, tmp_path, kernel,
                                              monkeypatch):
        """Checkpoints written while the fit kernel was selectable —
        ``embedding.kernel`` in the model files and the service config,
        ``retrain_kernel`` in the stream config — load with the retired
        values dropped and resume byte-identically to the uninterrupted
        pipeline, whose next retrain fits on the fused kernel."""
        from repro.core.embedding.kernels import FusedKernel

        service_a, splits = train_service()
        split = splits["bldg-A"]
        steady = stream_records(split, 80, prefix="steady-", jitter=2.0)
        churn = churn_stream(split)
        uninterrupted = ContinuousLearningPipeline(service_a, drift_config())
        results_full = uninterrupted.process_stream(steady + churn)

        service_b, _ = train_service()
        interrupted = ContinuousLearningPipeline(service_b, drift_config())
        interrupted.process_stream(steady)
        interrupted.checkpoint(tmp_path / "ckpt")
        write_legacy_keys(tmp_path / "ckpt", {"retrain_kernel": kernel},
                          {"kernel": kernel})

        resumed = ContinuousLearningPipeline.resume(tmp_path / "ckpt")
        # "fused" is still a valid shim value, so it loads as itself.
        assert resumed.config == replace(
            drift_config(),
            retrain_kernel="fused" if kernel == "fused" else None)
        assert resumed.service.grafics_config == FAST_CONFIG
        fused_batches = 0
        train_batch = FusedKernel.__dict__["train_batch"]

        def counted(self, *args, **kwargs):
            nonlocal fused_batches
            fused_batches += 1
            return train_batch(self, *args, **kwargs)

        monkeypatch.setattr(FusedKernel, "train_batch", counted)
        results_resumed = resumed.process_stream(churn)
        assert (summarize(results_resumed)
                == summarize(results_full[len(steady):]))
        assert resumed.scheduler.retrains_total == 1
        model = resumed.service.model_for("bldg-A")
        assert fused_batches == len(model.embedding.training_loss) > 0

    def test_fused_retrain_kernel_round_trips(self, tmp_path):
        """A pipeline configured with the ``retrain_kernel="fused"`` shim
        resumes with that config unchanged."""
        service, _ = train_service()
        config = replace(drift_config(), retrain_kernel="fused")
        pipeline = ContinuousLearningPipeline(service, config)
        pipeline.checkpoint(tmp_path / "ckpt")
        resumed = ContinuousLearningPipeline.resume(tmp_path / "ckpt")
        assert resumed.config == config

    def test_old_checkpoint_payload_without_key_loads(self):
        """Checkpoints written before the kernel and failure-domain layers
        existed have no ``retrain_kernel`` / ``retrain_deadline_seconds``
        keys; they must load with the defaults."""
        from dataclasses import asdict

        from repro.stream.pipeline import _stream_config_from_payload

        payload = asdict(StreamConfig())
        del payload["retrain_kernel"]
        del payload["retrain_deadline_seconds"]
        rebuilt = _stream_config_from_payload(payload)
        assert rebuilt == StreamConfig()
