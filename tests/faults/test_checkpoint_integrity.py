"""Checkpoint digests, corruption detection, rotation, last-good recovery."""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from stream_helpers import stream_records, train_service

from repro import StreamConfig
from repro.core.persistence import (
    CheckpointCorruptError,
    load_registry,
    load_stream_state,
    save_registry,
    save_stream_state,
)
from repro.stream import (
    ContinuousLearningPipeline,
    DriftConfig,
    SchedulerConfig,
    WindowConfig,
)

sys.path.insert(0, str(Path(__file__).parent.parent / "core"))

from legacy_model_file import rewrite_model_arrays  # noqa: E402


def pipeline_config():
    return StreamConfig(window=WindowConfig(max_records=96),
                        drift=DriftConfig(vocabulary_jaccard_min=0.6),
                        scheduler=SchedulerConfig(min_window_records=48,
                                                  warm_start=True))


class TestStreamStateDigest:
    def test_roundtrip_verifies(self, tmp_path):
        path = tmp_path / "state.json"
        save_stream_state({"counters": {"a": 1}, "nested": [1, 2.5]}, path)
        assert load_stream_state(path) == {"counters": {"a": 1},
                                           "nested": [1, 2.5]}

    def test_bitflip_fails_the_digest(self, tmp_path):
        path = tmp_path / "state.json"
        save_stream_state({"counters": {"a": 1}}, path)
        raw = path.read_text().replace('"a": 1', '"a": 2')
        path.write_text(raw)
        with pytest.raises(CheckpointCorruptError, match="sha256"):
            load_stream_state(path)

    def test_truncation_is_corrupt_not_a_json_crash(self, tmp_path):
        path = tmp_path / "state.json"
        save_stream_state({"counters": {"a": 1}}, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(CheckpointCorruptError, match="torn"):
            load_stream_state(path)

    def test_missing_is_still_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_stream_state(tmp_path / "nope.json")

    def test_pre_integrity_checkpoint_without_digest_loads(self, tmp_path):
        path = tmp_path / "state.json"
        save_stream_state({"counters": {"a": 1}}, path)
        payload = json.loads(path.read_text())
        del payload["sha256"]
        path.write_text(json.dumps(payload))
        assert load_stream_state(path) == {"counters": {"a": 1}}


class TestRegistryIntegrity:
    def test_torn_model_file_is_detected(self, tmp_path):
        service, _ = train_service()
        save_registry(service.export_registry(), tmp_path)
        model_file = next(tmp_path.glob("building-*.npz"))
        data = model_file.read_bytes()
        model_file.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointCorruptError, match="sha256"):
            load_registry(tmp_path)

    def test_missing_model_file_is_corrupt_when_manifest_lists_it(
            self, tmp_path):
        service, _ = train_service()
        save_registry(service.export_registry(), tmp_path)
        next(tmp_path.glob("building-*.npz")).unlink()
        with pytest.raises(CheckpointCorruptError, match="missing"):
            load_registry(tmp_path)

    def test_torn_manifest_is_corrupt(self, tmp_path):
        service, _ = train_service()
        save_registry(service.export_registry(), tmp_path)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(manifest.read_text()[:40])
        with pytest.raises(CheckpointCorruptError, match="torn"):
            load_registry(tmp_path)

    def test_pre_integrity_manifest_without_digests_loads(self, tmp_path):
        service, _ = train_service()
        save_registry(service.export_registry(), tmp_path)
        manifest = tmp_path / "manifest.json"
        payload = json.loads(manifest.read_text())
        for blob in payload["buildings"]:
            del blob["sha256"]
        manifest.write_text(json.dumps(payload))
        restored = load_registry(tmp_path)
        assert set(restored.building_ids) == set(service.building_ids)

    def test_stale_tmp_files_are_swept(self, tmp_path):
        service, _ = train_service()
        save_registry(service.export_registry(), tmp_path)
        (tmp_path / "manifest.json.tmp").write_text("{ torn")
        (tmp_path / "orphan.tmp.npz").write_bytes(b"half a model")
        load_registry(tmp_path)
        assert not (tmp_path / "manifest.json.tmp").exists()
        assert not (tmp_path / "orphan.tmp.npz").exists()
        # ... and saving sweeps too.
        (tmp_path / "again.tmp").write_text("x")
        save_registry(service.export_registry(), tmp_path)
        assert not (tmp_path / "again.tmp").exists()


class TestRotationAndRecovery:
    def run_two_checkpoints(self, tmp_path):
        service, splits = train_service()
        pipeline = ContinuousLearningPipeline(service, pipeline_config())
        first = stream_records(splits["bldg-A"], 30, prefix="one-",
                               jitter=2.0)
        pipeline.process_stream(first)
        pipeline.checkpoint(tmp_path / "ckpt")
        second = stream_records(splits["bldg-A"], 20, prefix="two-",
                                rng_seed=5, jitter=2.0)
        results = pipeline.process_stream(second)
        pipeline.checkpoint(tmp_path / "ckpt")
        return pipeline, second, results

    def test_second_checkpoint_retains_the_first_as_previous(self, tmp_path):
        self.run_two_checkpoints(tmp_path)
        previous = tmp_path / "ckpt" / "previous"
        assert (previous / "stream_state.json").is_file()
        assert (previous / "registry" / "manifest.json").is_file()
        state = load_stream_state(previous / "stream_state.json")
        assert state["processed_total"] == 30  # generation one, untouched

    def test_corrupt_current_falls_back_to_last_good(self, tmp_path):
        self.run_two_checkpoints(tmp_path)
        current = tmp_path / "ckpt" / "stream_state.json"
        current.write_text(current.read_text()[:100])  # tear it
        resumed = ContinuousLearningPipeline.resume(tmp_path / "ckpt")
        assert resumed.processed_total == 30  # recovered to generation one

    def test_recovered_pipeline_replays_identically(self, tmp_path):
        from test_chaos_drill import summarize

        _, second, results = self.run_two_checkpoints(tmp_path)
        current = tmp_path / "ckpt" / "stream_state.json"
        current.write_text("")  # zero-length file: the classic crash artifact
        resumed = ContinuousLearningPipeline.resume(tmp_path / "ckpt")
        replayed = resumed.process_stream(second)
        assert summarize(replayed) == summarize(results)

    def test_missing_current_state_falls_back(self, tmp_path):
        self.run_two_checkpoints(tmp_path)
        (tmp_path / "ckpt" / "stream_state.json").unlink()
        resumed = ContinuousLearningPipeline.resume(tmp_path / "ckpt")
        assert resumed.processed_total == 30

    def test_corrupt_registry_falls_back_wholesale(self, tmp_path):
        """State and registry must come from ONE generation — a corrupt
        current registry pulls the previous *state* in too."""
        self.run_two_checkpoints(tmp_path)
        model_file = next(
            (tmp_path / "ckpt" / "registry").glob("building-*.npz"))
        model_file.write_bytes(model_file.read_bytes()[:64])
        resumed = ContinuousLearningPipeline.resume(tmp_path / "ckpt")
        assert resumed.processed_total == 30

    @pytest.mark.parametrize("fault", ["degrees-missing", "degrees-short"])
    def test_inconsistent_model_file_falls_back_wholesale(self, tmp_path,
                                                          fault):
        """A current model file that passes its manifest digest but whose
        degree vector does not span its index maps is corrupt too: resume
        falls back to the retained generation, as for a torn file."""
        self.run_two_checkpoints(tmp_path)
        registry = tmp_path / "ckpt" / "registry"
        model_file = next(registry.glob("building-*.npz"))

        def damage(arrays):
            if fault == "degrees-missing":
                del arrays["degrees"]
            else:
                arrays["degrees"] = arrays["degrees"][:-1]

        rewrite_model_arrays(model_file, damage)
        manifest_path = registry / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for blob in manifest["buildings"]:
            if blob["file"] == model_file.name:
                blob["sha256"] = hashlib.sha256(
                    model_file.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointCorruptError, match="degrees"):
            load_registry(registry)
        resumed = ContinuousLearningPipeline.resume(tmp_path / "ckpt")
        assert resumed.processed_total == 30
        with np.load(next((tmp_path / "ckpt" / "previous" / "registry")
                          .glob("building-*.npz"))) as archive:
            assert "degrees" in archive.files

    def test_no_previous_and_corrupt_current_still_raises(self, tmp_path):
        service, splits = train_service()
        pipeline = ContinuousLearningPipeline(service, pipeline_config())
        pipeline.process_stream(stream_records(splits["bldg-A"], 10,
                                               jitter=2.0))
        pipeline.checkpoint(tmp_path / "ckpt")  # first generation: no previous
        current = tmp_path / "ckpt" / "stream_state.json"
        current.write_text(current.read_text()[:100])
        with pytest.raises(CheckpointCorruptError):
            ContinuousLearningPipeline.resume(tmp_path / "ckpt")

    def test_empty_directory_still_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ContinuousLearningPipeline.resume(tmp_path / "empty")
