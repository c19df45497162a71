"""Tests for model persistence and the multi-building service."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import GRAFICS, GraficsConfig, EmbeddingConfig, UnknownEnvironmentError
from repro.core.persistence import (
    CheckpointCorruptError,
    load_model,
    load_registry,
    save_model,
    save_registry,
)
from repro.core.registry import MultiBuildingFloorService
from repro.core.weighting import PowerWeight
from repro.data import make_experiment_split, small_test_building

sys.path.insert(0, str(Path(__file__).parent))

from legacy_model_file import rewrite_model_arrays, save_format1_model  # noqa: E402


def prediction_bytes(model, probes) -> list[tuple]:
    """Every prediction mode's floor, distance and embedding bytes."""
    predictions = ([model.predict(probe) for probe in probes]
                   + model.predict_batch(probes)
                   + model.predict_batch(probes, independent=True))
    return [(p.record_id, p.floor, p.distance, p.embedding.tobytes())
            for p in predictions]


class TestPersistence:
    def test_unfitted_model_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_model(GRAFICS(), tmp_path / "model.npz")

    def test_round_trip_preserves_predictions(self, trained_grafics, small_split,
                                               tmp_path):
        path = tmp_path / "grafics.npz"
        save_model(trained_grafics, path)
        restored = load_model(path)

        assert restored.is_fitted
        assert restored.cluster_model.num_clusters == \
            trained_grafics.cluster_model.num_clusters
        assert restored.graph.num_records == trained_grafics.graph.num_records
        assert restored.graph.num_edges == trained_grafics.graph.num_edges

        # Training-record embeddings survive (up to row reordering).
        some_id = small_split.train_records[0].record_id
        np.testing.assert_allclose(restored.record_embedding(some_id),
                                   trained_grafics.record_embedding(some_id))

        # Online predictions from the restored model match the original.
        probes = [r.without_floor() for r in small_split.test_records[:10]]
        original = [p.floor for p in trained_grafics.predict_batch(probes)]
        reloaded = [p.floor for p in restored.predict_batch(probes)]
        agreement = np.mean([a == b for a, b in zip(original, reloaded)])
        assert agreement >= 0.9

    @pytest.mark.parametrize("dropped", ["last-record", "middle-record",
                                         "mac"])
    def test_edge_naming_unindexed_node_is_corrupt(self, trained_grafics,
                                                   small_split, tmp_path,
                                                   dropped):
        """A format-1 edge list naming a node the saved index maps lack is
        corrupt.

        ``last-record`` is the shape a model that grew a record after its
        embedding was fitted would write: the rows stay contiguous, so the
        index-preserving rebuild runs; ``middle-record`` takes the
        non-contiguous fallback instead.
        """
        path = tmp_path / "grafics.npz"
        save_format1_model(trained_grafics, small_split.train_records, path)

        def drop(arrays):
            metadata = json.loads(arrays["metadata"].tobytes().decode("utf-8"))
            if dropped == "mac":
                del metadata["mac_index"][metadata["edges"][0][0]]
            else:
                rows = sorted(metadata["record_index"].items(),
                              key=lambda kv: kv[1])
                victim = (rows[-1] if dropped == "last-record"
                          else rows[len(rows) // 2])
                del metadata["record_index"][victim[0]]
            arrays["metadata"] = np.frombuffer(
                json.dumps(metadata).encode("utf-8"), dtype=np.uint8)

        rewrite_model_arrays(path, drop)
        with pytest.raises(CheckpointCorruptError, match="index maps"):
            load_model(path)

    @pytest.mark.parametrize("fault", ["degrees-missing", "degrees-short",
                                       "degrees-long", "embedding-short"])
    def test_format2_parts_must_span_the_index_maps(self, trained_grafics,
                                                    tmp_path, fault):
        """A format-2 file whose degree vector (or embedding) does not
        cover exactly the indices of its saved maps cannot be served."""
        path = tmp_path / "grafics.npz"
        save_model(trained_grafics, path)

        def damage(arrays):
            if fault == "degrees-missing":
                del arrays["degrees"]
            elif fault == "degrees-short":
                arrays["degrees"] = arrays["degrees"][:-1]
            elif fault == "degrees-long":
                arrays["degrees"] = np.append(arrays["degrees"], 1.0)
            else:
                arrays["ego"] = arrays["ego"][:-1]

        rewrite_model_arrays(path, damage)
        with pytest.raises(CheckpointCorruptError,
                           match="degrees|index maps"):
            load_model(path)

    @pytest.mark.parametrize("file_format", [1, 2])
    def test_model_file_formats_serve_identical_bytes(self, trained_grafics,
                                                      small_split, tmp_path,
                                                      file_format):
        """A model loaded from either file format serves the bytes of the
        model it was saved from; format 2 stores degrees, not edges."""
        path = tmp_path / "grafics.npz"
        if file_format == 1:
            save_format1_model(trained_grafics, small_split.train_records,
                               path)
        else:
            save_model(trained_grafics, path)
            with np.load(path) as archive:
                metadata = json.loads(archive["metadata"].tobytes())
                assert "edges" not in metadata
                assert metadata["format_version"] == 2
                assert metadata["num_edges"] == trained_grafics.graph.num_edges
                assert (archive["degrees"].tobytes()
                        == trained_grafics.graph.degrees.tobytes())
        restored = load_model(path)
        probes = [r.without_floor() for r in small_split.test_records[:6]]
        assert (prediction_bytes(restored, probes)
                == prediction_bytes(trained_grafics, probes))

    def test_custom_weight_function_round_trip(self, small_split, tmp_path):
        config = GraficsConfig(
            weight_function=PowerWeight(),
            embedding=EmbeddingConfig(samples_per_edge=15.0, seed=0))
        model = GRAFICS(config).fit(list(small_split.train_records),
                                    small_split.labels)
        path = tmp_path / "power.npz"
        save_model(model, path)
        restored = load_model(path)
        assert isinstance(restored.config.weight_function, PowerWeight)

    def test_unknown_custom_weight_function_rejected(self, small_split, tmp_path):
        from repro.core.weighting import WeightFunction

        class Odd(WeightFunction):
            def __call__(self, rss: float) -> float:
                return abs(rss)

        config = GraficsConfig(
            weight_function=Odd(),
            embedding=EmbeddingConfig(samples_per_edge=15.0, seed=0))
        model = GRAFICS(config).fit(list(small_split.train_records),
                                    small_split.labels)
        with pytest.raises(ValueError, match="custom weight function"):
            save_model(model, tmp_path / "custom.npz")


@pytest.fixture(scope="module")
def service():
    config = GraficsConfig(
        embedding=EmbeddingConfig(samples_per_edge=40.0, seed=0))
    service = MultiBuildingFloorService(config)
    held_out = {}
    for building_id, seed in (("bldg-east", 31), ("bldg-west", 32)):
        dataset = small_test_building(num_floors=3, records_per_floor=40,
                                      aps_per_floor=20, seed=seed,
                                      building_id=building_id)
        split = make_experiment_split(dataset, labels_per_floor=4, seed=0)
        training = dataset.subset(split.train_records)
        service.fit_building(training, split.labels)
        held_out[building_id] = list(split.test_records)
    service._held_out = held_out  # stashed for the tests below
    return service


class TestMultiBuildingFloorService:
    def test_min_overlap_validation(self):
        with pytest.raises(ValueError):
            MultiBuildingFloorService(min_overlap=0.0)

    def test_building_ids(self, service):
        assert service.building_ids == ["bldg-east", "bldg-west"]
        assert service.model_for("bldg-east").is_fitted
        with pytest.raises(KeyError):
            service.model_for("nowhere")

    def test_identify_building(self, service):
        for building_id, records in service._held_out.items():
            probe = records[0].without_floor()
            identified, overlap = service.identify_building(probe)
            assert identified == building_id
            assert overlap > 0.5

    def test_predict_routes_to_correct_building(self, service):
        for building_id, records in service._held_out.items():
            probes = records[:8]
            predictions = service.predict_batch(
                [p.without_floor() for p in probes])
            assert all(p.building_id == building_id for p in predictions)
            assert all(p.mac_overlap > 0.5 for p in predictions)
            floor_accuracy = np.mean([prediction.floor == probe.floor
                                      for prediction, probe
                                      in zip(predictions, probes)])
            assert floor_accuracy > 0.6

    def test_unknown_environment_rejected(self, service):
        from repro import SignalRecord

        alien = SignalRecord(record_id="alien", rss={"mars-ap": -50.0})
        with pytest.raises(UnknownEnvironmentError):
            service.predict(alien)

    def test_empty_service_rejects_queries(self):
        from repro import SignalRecord

        service = MultiBuildingFloorService()
        with pytest.raises(RuntimeError):
            service.identify_building(SignalRecord(record_id="x",
                                                   rss={"a": -40.0}))

    def test_fit_corpus_requires_labels_per_building(self):
        service = MultiBuildingFloorService()
        dataset = small_test_building(num_floors=2, records_per_floor=10,
                                      aps_per_floor=8, building_id="lonely")
        with pytest.raises(ValueError, match="no labels provided"):
            service.fit_corpus([dataset], {})

    def test_predict_batch(self, service):
        records = service._held_out["bldg-east"]
        probes = [r.without_floor() for r in records[2:6]]
        predictions = service.predict_batch(probes)
        assert len(predictions) == 4
        assert all(p.building_id == "bldg-east" for p in predictions)

    def test_empty_rss_record_rejected_not_crashing(self, service):
        """Regression: an empty-RSS record used to ZeroDivisionError in
        identify_building; it must be rejected as an unknown environment."""
        from repro import SignalRecord

        probe = SignalRecord(record_id="hollow", rss={"m": -50.0})
        probe.rss.clear()  # defeat the constructor's non-empty validation
        with pytest.raises(UnknownEnvironmentError, match="no RSS readings"):
            service.identify_building(probe)
        with pytest.raises(UnknownEnvironmentError, match="no RSS readings"):
            service.predict(probe)

    def test_grouped_predict_batch_matches_sequential(self, service):
        """Satellite: the grouped batch path must reproduce per-record
        ``predict`` exactly, for an interleaved multi-building stream."""
        east = service._held_out["bldg-east"][:5]
        west = service._held_out["bldg-west"][:5]
        probes = [r.without_floor()
                  for pair in zip(east, west) for r in pair]
        sequential = [service.predict(record) for record in probes]
        assert service.predict_batch(probes) == sequential

    def test_install_model_requires_fitted(self):
        service = MultiBuildingFloorService()
        with pytest.raises(ValueError, match="unfitted"):
            service.install_model("b", GRAFICS())

    def test_remove_building(self, service):
        scratch = MultiBuildingFloorService(service.config)
        for building_id in service.building_ids:
            scratch.install_model(building_id, service.model_for(building_id),
                                  vocabulary=service.vocabulary_for(building_id))
        scratch.remove_building("bldg-east")
        assert scratch.building_ids == ["bldg-west"]
        with pytest.raises(KeyError):
            scratch.remove_building("bldg-east")


class TestRegistryPersistence:
    def test_round_trip_preserves_service(self, service, tmp_path):
        directory = tmp_path / "registry"
        save_registry(service, directory)
        restored = load_registry(directory)

        assert restored.building_ids == service.building_ids
        assert restored.min_overlap == service.min_overlap
        # Registration (tie-break) order survives the round trip.
        assert list(restored.vocabularies) == list(service.vocabularies)
        assert restored.vocabularies == service.vocabularies

        for building_id, records in service._held_out.items():
            probes = [r.without_floor() for r in records[:3]]
            original = service.predict_batch(probes)
            reloaded = restored.predict_batch(probes)
            assert [p.building_id for p in reloaded] == \
                [p.building_id for p in original]
            assert [p.mac_overlap for p in reloaded] == \
                [p.mac_overlap for p in original]
            floors_agree = np.mean([a.floor == b.floor
                                    for a, b in zip(original, reloaded)])
            assert floors_agree >= 0.6

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_registry(tmp_path)

    def test_resave_after_reorder_keeps_models_with_their_buildings(
            self, service, tmp_path):
        """Model files are named by building id, so overwriting a registry
        whose registration order changed can never file one building's
        model under another building's id."""
        directory = tmp_path / "registry"
        save_registry(service, directory)

        reordered = MultiBuildingFloorService(service.config,
                                              min_overlap=service.min_overlap)
        for building_id in reversed(service.building_ids):
            reordered.install_model(building_id,
                                    service.model_for(building_id),
                                    vocabulary=service.vocabulary_for(building_id))
        save_registry(reordered, directory)

        restored = load_registry(directory)
        assert list(restored.vocabularies) == list(reordered.vocabularies)
        for building_id, records in service._held_out.items():
            probe = records[0].without_floor()
            assert restored.predict(probe).building_id == building_id
