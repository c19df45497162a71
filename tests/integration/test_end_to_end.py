"""Integration tests exercising the full GRAFICS workflow across modules."""

from __future__ import annotations

import pytest

from repro import GRAFICS, GraficsConfig, EmbeddingConfig, SignalRecord
from repro.core.weighting import OffsetWeight
from repro.data import (
    make_experiment_split,
    sample_labels,
    small_test_building,
    subsample_macs,
    train_test_split,
)
from repro.evaluation import evaluate_predictions


FAST = GraficsConfig(embedding=EmbeddingConfig(samples_per_edge=60.0, seed=0))


class TestFullWorkflow:
    def test_paper_protocol_reaches_high_f_scores(self, small_building):
        """70/30 split, 4 labels per floor, online inference, micro/macro F."""
        split = make_experiment_split(small_building, train_ratio=0.7,
                                      labels_per_floor=4, seed=1)
        model = GRAFICS(FAST).fit(list(split.train_records), split.labels)
        predicted = {p.record_id: p.floor for p in model.predict_batch(
            [r.without_floor() for r in split.test_records])}
        report = evaluate_predictions(split.test_ground_truth(), predicted)
        assert report.micro_f > 0.85
        assert report.macro_f > 0.85

    def test_more_labels_never_needed_for_ceiling(self, small_building):
        """With 20 labels per floor GRAFICS should also be near ceiling."""
        split = make_experiment_split(small_building, labels_per_floor=20, seed=2)
        model = GRAFICS(FAST).fit(list(split.train_records), split.labels)
        predicted = {p.record_id: p.floor for p in model.predict_batch(
            [r.without_floor() for r in split.test_records])}
        report = evaluate_predictions(split.test_ground_truth(), predicted)
        assert report.micro_f > 0.85

    def test_mac_subsampling_degrades_gracefully(self, small_building):
        """Fig. 17: fewer available MACs should not collapse accuracy to chance."""
        reduced = subsample_macs(small_building, 0.5, seed=0)
        train, test = train_test_split(reduced, seed=0)
        labels = sample_labels(train, labels_per_floor=4, seed=0)
        model = GRAFICS(FAST).fit(train, labels)
        predicted = {p.record_id: p.floor for p in model.predict_batch(
            [r.without_floor() for r in test])}
        truth = {r.record_id: r.floor for r in test}
        report = evaluate_predictions(truth, predicted)
        assert report.micro_f > 0.6

    def test_online_inference_with_new_macs_and_ap_churn(self, trained_grafics,
                                                         small_split):
        """New samples may contain never-seen MACs (AP installation)."""
        base = small_split.test_records[0]
        sample = SignalRecord(
            record_id="churn-sample",
            rss={**dict(base.rss), "newly-installed-ap-1": -60.0,
                 "newly-installed-ap-2": -70.0})
        prediction = trained_grafics.predict(sample)
        assert prediction.floor == base.floor

    def test_ap_removal_then_training_still_works(self, small_building):
        """Dropping an AP from the environment is handled by graph rebuild."""
        removed_mac = small_building.macs[0]
        pruned = small_building.restrict_macs(
            [m for m in small_building.macs if m != removed_mac])
        split = make_experiment_split(pruned, labels_per_floor=4, seed=3)
        model = GRAFICS(FAST).fit(list(split.train_records), split.labels)
        assert model.is_fitted
        assert not model.graph.has_node(
            __import__("repro.core.graph", fromlist=["NodeKind"]).NodeKind.MAC,
            removed_mac)

    def test_weight_offset_choice_is_robust(self, small_building):
        """Section VI-D: different valid offsets give similar performance."""
        split = make_experiment_split(small_building, labels_per_floor=4, seed=0)
        scores = []
        for offset in (110.0, 120.0, 130.0):
            config = GraficsConfig(
                weight_function=OffsetWeight(offset=offset),
                embedding=EmbeddingConfig(samples_per_edge=60.0, seed=0))
            model = GRAFICS(config).fit(list(split.train_records), split.labels)
            predicted = {p.record_id: p.floor for p in model.predict_batch(
                [r.without_floor() for r in split.test_records])}
            scores.append(evaluate_predictions(split.test_ground_truth(),
                                               predicted).micro_f)
        assert max(scores) - min(scores) < 0.15


class TestCrossBuildingIsolation:
    def test_models_are_independent_per_building(self):
        building_a = small_test_building(num_floors=2, records_per_floor=30,
                                         aps_per_floor=15, seed=21,
                                         building_id="bldg-a")
        building_b = small_test_building(num_floors=3, records_per_floor=30,
                                         aps_per_floor=15, seed=22,
                                         building_id="bldg-b")
        split_a = make_experiment_split(building_a, labels_per_floor=4, seed=0)
        split_b = make_experiment_split(building_b, labels_per_floor=4, seed=0)
        model_a = GRAFICS(FAST).fit(list(split_a.train_records), split_a.labels)
        model_b = GRAFICS(FAST).fit(list(split_b.train_records), split_b.labels)
        assert set(model_a.cluster_model.floors) == {0, 1}
        assert set(model_b.cluster_model.floors) == {0, 1, 2}
        # A record from building B shares no MAC with building A's model.
        foreign = split_b.test_records[0].without_floor()
        with pytest.raises(Exception):
            model_a.predict(foreign)
