"""End-to-end continuous learning: churn → drift → retrain → hot swap.

This is the subsystem's acceptance test: a synthetic campus streams
records, one building's APs churn mid-stream, the drift detector fires,
the scheduler retrains from the sliding window and atomically hot-swaps
the model — and the swapped-in model is *byte-identical* to a freshly
trained offline model on the same window (determinism is preserved through
the whole streaming stack).  A second test pins the bounded-memory claim
under 10x window-length traffic.
"""

from __future__ import annotations

import numpy as np
import pytest
from stream_helpers import FAST_CONFIG, stream_records

from repro import GRAFICS, ContinuousLearningPipeline, StreamConfig
from repro.stream import (
    DriftConfig,
    DriftKind,
    SchedulerConfig,
    WindowConfig,
)

WINDOW = 32

STREAM_CONFIG = StreamConfig(
    window=WindowConfig(max_records=WINDOW),
    drift=DriftConfig(vocabulary_jaccard_min=0.6, min_window_macs=8),
    scheduler=SchedulerConfig(min_window_records=16, min_labeled_records=2,
                              warm_start=False))


def churn_rename(split):
    """Rename half the trained MACs, modelling AP replacement."""
    macs = sorted({mac for record in split.test_records for mac in record.rss})
    return {mac: f"{mac}-new" for mac in macs[: len(macs) // 2]}


class TestChurnRetrainSwap:
    @pytest.fixture()
    def swapped_pipeline(self, fresh_service):
        """Stream until the churn-triggered hot swap happens, then stop."""
        service, splits = fresh_service
        split = splits["bldg-A"]
        pipeline = ContinuousLearningPipeline(service, STREAM_CONFIG)

        phase1 = stream_records(split, 30, prefix="p1-", jitter=2.5,
                                label_every=2)
        phase2 = stream_records(split, 60, prefix="p2-", jitter=2.5,
                                label_every=2, rng_seed=1,
                                rename=churn_rename(split))
        results = pipeline.process_stream(phase1)
        assert not any(r.swapped for r in results)

        swap_result = None
        for record in phase2:
            result = pipeline.process(record)
            results.append(result)
            if result.swapped:
                swap_result = result
                break
        assert swap_result is not None, "AP churn never triggered a hot swap"
        return service, split, pipeline, results, swap_result

    def test_drift_fires_and_triggers_the_swap(self, swapped_pipeline):
        service, split, pipeline, results, swap_result = swapped_pipeline
        churn_events = [e for r in results for e in r.drift_events
                        if e.kind is DriftKind.MAC_CHURN]
        assert churn_events, "vocabulary churn was never detected"
        assert churn_events[0].building_id == "bldg-A"
        assert swap_result.retrain.trigger == "drift:mac_churn"
        assert swap_result.retrain.window_records >= 16
        assert service.telemetry.counter("stream_retrains_total") == 1
        assert service.telemetry_snapshot()["counters"]["hot_swaps_total"] == 1

    def test_post_swap_model_is_byte_identical_to_offline_fit(
            self, swapped_pipeline):
        """Determinism: streaming retrain == offline training on the window."""
        service, split, pipeline, results, swap_result = swapped_pipeline
        window = pipeline.windows.window_for("bldg-A")
        dataset = window.as_dataset("bldg-A")
        labels = {r.record_id: r.floor for r in dataset.records
                  if r.floor is not None}

        offline = GRAFICS(FAST_CONFIG).fit(dataset, labels)
        installed = service.model_for("bldg-A")
        assert np.array_equal(installed.embedding.ego, offline.embedding.ego)
        assert np.array_equal(installed.embedding.context,
                              offline.embedding.context)

        probes = stream_records(split, 8, prefix="probe-", jitter=2.5,
                                rng_seed=2, label_every=10 ** 6,
                                rename=churn_rename(split))
        for probe in probes:
            served = service.predict(probe)
            reference = offline.predict(probe)
            assert served.building_id == "bldg-A"
            assert served.floor == reference.floor
            assert served.distance == reference.distance  # bit-exact

    def test_changed_vocabulary_routes_correctly_immediately(
            self, swapped_pipeline):
        """Right after the swap the router must know the new MAC vocabulary."""
        service, split, pipeline, results, swap_result = swapped_pipeline
        rename = churn_rename(split)
        new_only = {f"{mac}-new": -50.0 for mac in list(rename)[:5]}
        from repro import SignalRecord
        probe = SignalRecord(record_id="new-macs-only", rss=new_only)
        decision = service.router.route(probe)
        assert decision.building_id == "bldg-A"
        assert decision.overlap == 1.0

    def test_cache_was_invalidated_by_the_swap(self, swapped_pipeline):
        service, split, pipeline, results, swap_result = swapped_pipeline
        assert service.telemetry_snapshot()["cache"]["invalidations"] > 0


class TestUnroutableTraffic:
    def test_outside_records_are_rejected_not_raised(self, fresh_service):
        service, splits = fresh_service
        pipeline = ContinuousLearningPipeline(service, STREAM_CONFIG)
        from repro import SignalRecord
        outside = SignalRecord(record_id="outside",
                               rss={f"alien-{i}": -60.0 for i in range(5)})
        result = pipeline.process(outside)
        assert not result.accepted
        assert result.rejected_by == "router"
        assert pipeline.ingestor.unroutable_total == 1


class TestStreamRobustness:
    def test_duplicate_record_id_is_rejected_not_raised(self, fresh_service):
        """Regression: a client retry with a fresh scan must not crash."""
        service, splits = fresh_service
        pipeline = ContinuousLearningPipeline(service, STREAM_CONFIG)
        base = splits["bldg-A"].test_records[0]
        from repro import SignalRecord
        first = SignalRecord(record_id="retry-me", rss=dict(base.rss))
        # Same id, RSS shifted past the dedup quantum: passes every filter.
        second = SignalRecord(record_id="retry-me",
                              rss={m: v + 7.0 for m, v in base.rss.items()})
        assert pipeline.process(first).accepted
        result = pipeline.process(second)
        assert not result.accepted
        assert result.rejected_by == "window"
        assert "already in the window" in result.reason
        assert service.telemetry.counter(
            "stream_rejected_duplicate_id_total") == 1
        assert len(pipeline.windows.window_for("bldg-A")) == 1

    def test_explicit_unknown_building_accumulates_without_crashing(
            self, fresh_service):
        """Regression: bootstrapping a not-yet-trained building must work."""
        service, splits = fresh_service
        pipeline = ContinuousLearningPipeline(service, STREAM_CONFIG)
        records = stream_records(splits["bldg-A"], 30, prefix="boot-",
                                 jitter=2.5)
        results = [pipeline.process(record, building_id="brand-new")
                   for record in records]
        # Past vocabulary_warmup_records there is no trained vocabulary to
        # drift against; the window must keep accumulating regardless.
        assert all(r.accepted for r in results)
        assert len(pipeline.windows.window_for("brand-new")) == 30


class TestBoundedMemory:
    def test_graph_nodes_bounded_under_10x_window_traffic(self, fresh_service):
        """Acceptance criterion: memory stays bounded under unbounded traffic."""
        service, splits = fresh_service
        config = StreamConfig(
            window=WindowConfig(max_records=WINDOW),
            drift=DriftConfig(vocabulary_jaccard_min=0.05, min_window_macs=8),
            predict=False)  # pure ingest/window/drift path
        pipeline = ContinuousLearningPipeline(service, config)

        records = stream_records(splits["bldg-A"], 10 * WINDOW, jitter=2.5,
                                 label_every=10 ** 6)
        results = pipeline.process_stream(records)
        accepted = sum(r.accepted for r in results)
        assert accepted >= 5 * WINDOW  # dedup drops some, most flow through

        window = pipeline.windows.window_for("bldg-A")
        assert len(window) == WINDOW
        assert window.graph.num_records == WINDOW
        live_macs = set()
        for record in window.records:
            live_macs.update(record.rss)
        assert window.mac_vocabulary == frozenset(live_macs)
        assert window.node_count == WINDOW + len(live_macs)
        assert window.evicted_total == accepted - WINDOW
        gauges = service.telemetry.snapshot()["gauges"]
        assert gauges["stream_window_records"] == WINDOW


class TestReplayFromJsonl:
    def test_pipeline_replays_a_jsonl_corpus(self, fresh_service, tmp_path):
        """iter_jsonl → pipeline: the streaming replay path works end to end."""
        from repro.data import iter_jsonl, save_jsonl

        service, splits = fresh_service
        split = splits["bldg-A"]
        records = stream_records(split, 12, prefix="replay-", jitter=2.5)
        from repro import FingerprintDataset
        corpus = FingerprintDataset(records=records, building_id="bldg-A")
        path = tmp_path / "corpus.jsonl"
        save_jsonl(corpus, path)

        pipeline = ContinuousLearningPipeline(service, STREAM_CONFIG)
        results = [pipeline.process(record) for record in iter_jsonl(path)]
        assert sum(r.accepted for r in results) >= 10
        assert all(r.building_id == "bldg-A" for r in results if r.accepted)
