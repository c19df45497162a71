"""Tests for the end-to-end GRAFICS pipeline and online inference."""

from __future__ import annotations

import numpy as np
import pytest

from repro import GRAFICS, GraficsConfig, SignalRecord, UnknownEnvironmentError
from repro.core.embedding import ELINEEmbedder, EmbeddingConfig, LINEEmbedder
from repro.core.graph import NodeKind
from repro.core.weighting import PowerWeight


def record(rid, rss, floor=None):
    return SignalRecord(record_id=rid, rss=rss, floor=floor)


class TestGraficsConfig:
    def test_embedding_dimension_override(self):
        config = GraficsConfig(embedding_dimension=16)
        assert config.resolved_embedding_config().dimension == 16

    def test_no_override_when_equal(self):
        config = GraficsConfig(embedding_dimension=8,
                               embedding=EmbeddingConfig(dimension=8))
        assert config.resolved_embedding_config() is config.embedding

    @pytest.mark.parametrize("name, expected", [
        ("eline", ELINEEmbedder),
        ("line", LINEEmbedder),
        ("line-first", LINEEmbedder),
        ("line-combined", LINEEmbedder),
    ])
    def test_make_embedder(self, name, expected):
        embedder = GraficsConfig(embedder=name).make_embedder()
        assert isinstance(embedder, expected)

    def test_unknown_embedder(self):
        with pytest.raises(ValueError):
            GraficsConfig(embedder="deepwalk").make_embedder()

    def test_custom_weight_function(self):
        config = GraficsConfig(weight_function=PowerWeight())
        assert isinstance(config.weight_function, PowerWeight)


class TestFitValidation:
    def test_empty_records(self):
        with pytest.raises(ValueError):
            GRAFICS().fit([])

    def test_requires_some_labels(self):
        records = [record("r1", {"a": -40.0}), record("r2", {"a": -42.0})]
        with pytest.raises(ValueError):
            GRAFICS().fit(records, labels={})

    def test_labels_must_reference_training_records(self):
        records = [record("r1", {"a": -40.0})]
        with pytest.raises(ValueError):
            GRAFICS().fit(records, labels={"zzz": 0})

    def test_labels_default_to_record_floors(self, fast_config):
        records = [
            record("r1", {"a": -40.0, "b": -45.0}, floor=0),
            record("r2", {"a": -42.0, "b": -48.0}, floor=0),
            record("r3", {"c": -40.0, "d": -45.0}, floor=1),
            record("r4", {"c": -42.0, "d": -48.0}, floor=1),
        ]
        model = GRAFICS(fast_config).fit(records)
        assert model.is_fitted
        assert sorted(model.cluster_model.floors) == [0, 1]

    def test_unfitted_model_raises(self):
        model = GRAFICS()
        with pytest.raises(RuntimeError):
            model.predict(record("x", {"a": -40.0}))
        with pytest.raises(RuntimeError):
            model.training_summary()


class TestFittedModel:
    def test_training_summary(self, trained_grafics, small_split):
        summary = trained_grafics.training_summary()
        assert summary["num_records"] == len(small_split.train_records)
        assert summary["num_clusters"] == len(small_split.labels)
        assert summary["embedder"] == "eline"
        assert summary["embedding_dimension"] == 8

    def test_training_assignments_cover_all_records(self, trained_grafics,
                                                    small_split):
        assignments = trained_grafics.training_floor_assignments()
        assert set(assignments) == {r.record_id for r in small_split.train_records}
        floors = set(r.floor for r in small_split.train_records)
        assert set(assignments.values()) <= floors

    def test_labeled_records_keep_their_floor(self, trained_grafics, small_split):
        assignments = trained_grafics.training_floor_assignments()
        for rid, floor in small_split.labels.items():
            assert assignments[rid] == floor

    def test_training_assignments_mostly_correct(self, trained_grafics,
                                                 small_split):
        assignments = trained_grafics.training_floor_assignments()
        truth = small_split.train_ground_truth()
        accuracy = np.mean([assignments[r] == truth[r] for r in truth])
        assert accuracy > 0.8

    def test_record_embedding_shape(self, trained_grafics, small_split):
        rid = small_split.train_records[0].record_id
        assert trained_grafics.record_embedding(rid).shape == (8,)


class TestOnlineInference:
    def test_predict_batch_accuracy(self, trained_grafics, small_split):
        test_records = [r.without_floor() for r in small_split.test_records]
        truth = small_split.test_ground_truth()
        predictions = trained_grafics.predict_batch(test_records)
        assert len(predictions) == len(test_records)
        accuracy = np.mean([p.floor == truth[p.record_id] for p in predictions])
        assert accuracy > 0.8

    def test_single_predict_returns_prediction(self, trained_grafics, small_split):
        sample = small_split.test_records[0].without_floor()
        prediction = trained_grafics.predict(sample)
        assert prediction.record_id == sample.record_id
        assert prediction.floor in trained_grafics.cluster_model.floors
        assert prediction.distance >= 0
        assert prediction.embedding.shape == (8,)

    def test_non_persistent_prediction_restores_graph(self, trained_grafics,
                                                      small_split):
        records_before = trained_grafics.graph.num_records
        macs_before = trained_grafics.graph.num_macs
        sample = SignalRecord(
            record_id="transient-sample",
            rss={**dict(list(small_split.test_records[0].rss.items())[:3]),
                 "never-seen-mac": -70.0})
        trained_grafics.predict(sample)
        assert trained_grafics.graph.num_records == records_before
        assert trained_grafics.graph.num_macs == macs_before
        assert not trained_grafics.graph.has_node(NodeKind.RECORD,
                                                  "transient-sample")

    def test_out_of_building_sample_rejected(self, trained_grafics):
        alien = record("alien", {"mac-from-another-town": -50.0})
        with pytest.raises(UnknownEnvironmentError):
            trained_grafics.predict(alien)

    def test_duplicate_online_id_rejected(self, trained_grafics, small_split):
        existing = small_split.train_records[0]
        with pytest.raises(ValueError):
            trained_grafics.predict(existing)

    def test_predict_floors_array(self, trained_grafics, small_split):
        records = [r.without_floor() for r in small_split.test_records[:5]]
        floors = trained_grafics.predict_floors(records)
        assert floors.shape == (5,)
        assert set(floors.tolist()) <= set(trained_grafics.cluster_model.floors)

    def test_empty_batch(self, trained_grafics):
        assert trained_grafics.predict_batch([]) == []
