"""FloorServingService tests: equality with the sequential reference path,
micro-batched intake, cache hit semantics, rejection handling and hot swap."""

from __future__ import annotations

import pytest

from repro import SignalRecord
from repro.core.persistence import load_model
from repro.serving import FloorServingService, ServingConfig

from serving_helpers import counter, interleaved_probes, make_service


class TestSequentialEquality:
    def test_predict_batch_identical_to_sequential_reference(self, serving_corpus,
                                                             fake_clock):
        """The acceptance criterion: serving output == sequential registry output."""
        registry, held_out, _ = serving_corpus
        probes = interleaved_probes(held_out, per_building=8)
        reference = [registry.predict(record) for record in probes]

        service = make_service(registry, fake_clock)
        assert service.predict_batch(probes) == reference
        # A warm second pass (all cache hits) must return the same thing.
        assert service.predict_batch(probes) == reference
        assert counter(service, "cache_hits_total") == len(probes)

    def test_predict_batch_identical_with_cache_disabled(self, serving_corpus,
                                                         fake_clock):
        registry, held_out, _ = serving_corpus
        probes = interleaved_probes(held_out, per_building=4)
        reference = [registry.predict(record) for record in probes]
        service = make_service(registry, fake_clock, enable_cache=False)
        assert service.predict_batch(probes) == reference
        assert counter(service, "cache_hits_total") == 0

    def test_single_predict_matches_reference(self, serving_corpus, fake_clock):
        registry, held_out, _ = serving_corpus
        probe = next(iter(held_out.values()))[0]
        service = make_service(registry, fake_clock)
        assert service.predict(probe) == registry.predict(probe)

    def test_registry_grouped_batch_identical_to_sequential(self, serving_corpus):
        """Satellite: grouped MultiBuildingFloorService.predict_batch == sequential."""
        registry, held_out, _ = serving_corpus
        probes = interleaved_probes(held_out, per_building=5)
        sequential = [registry.predict(record) for record in probes]
        assert registry.predict_batch(probes) == sequential


class TestCacheSemantics:
    def test_equal_fingerprint_served_from_cache(self, serving_corpus, fake_clock):
        registry, held_out, _ = serving_corpus
        probe = next(iter(held_out.values()))[0]
        service = make_service(registry, fake_clock)
        first = service.predict(probe)

        twin = SignalRecord(record_id="twin-of-" + probe.record_id,
                            rss=dict(probe.rss))
        second = service.predict(twin)
        assert counter(service, "cache_hits_total") == 1
        assert second.record_id == "twin-of-" + probe.record_id
        assert (second.building_id, second.floor, second.distance) == \
            (first.building_id, first.floor, first.distance)
        # The cached result is exactly what the reference path would compute.
        assert second == registry.predict(twin)

    def test_ttl_expiry_forces_recompute(self, serving_corpus, fake_clock):
        registry, held_out, _ = serving_corpus
        probe = next(iter(held_out.values()))[0]
        service = make_service(registry, fake_clock, cache_ttl_seconds=30.0)
        service.predict(probe)
        fake_clock.advance(31.0)
        service.predict(probe)
        assert counter(service, "cache_hits_total") == 0
        assert service.shards[0].cache.expirations == 1


class TestMicroBatchedIntake:
    def test_size_triggered_dispatch(self, serving_corpus, fake_clock):
        registry, held_out, _ = serving_corpus
        building_id, probes = next(iter(held_out.items()))
        service = make_service(registry, fake_clock, max_batch_size=3,
                               enable_cache=False)
        assert service.submit(probes[0]) is None
        assert service.submit(probes[1]) is None
        assert service.pending_count == 2
        assert service.submit(probes[2]) is None  # triggers inline dispatch
        results = service.poll()
        assert [r.record_id for r in results] == \
            [p.record_id for p in probes[:3]]
        assert all(r.ok and r.source == "batch" for r in results)
        assert all(r.prediction.building_id == building_id for r in results)
        assert counter(service, "batch_flush_size_total") == 1
        # Byte-identical to the sequential reference, like the sync path.
        assert [r.prediction for r in results] == \
            [registry.predict(p) for p in probes[:3]]

    def test_deadline_triggered_dispatch(self, serving_corpus, fake_clock):
        registry, held_out, _ = serving_corpus
        probes = next(iter(held_out.values()))
        service = make_service(registry, fake_clock, max_batch_size=100,
                               max_delay_seconds=0.05)
        service.submit(probes[0])
        assert service.poll() == []  # deadline not reached yet
        fake_clock.advance(0.06)
        results = service.poll()
        assert len(results) == 1 and results[0].ok
        assert counter(service, "batch_flush_deadline_total") == 1

    def test_drain_flushes_everything(self, serving_corpus, fake_clock):
        registry, held_out, _ = serving_corpus
        service = make_service(registry, fake_clock, max_batch_size=100)
        submitted = []
        for probes in held_out.values():
            for probe in probes[:4]:
                service.submit(probe)
                submitted.append(probe.record_id)
        results = service.drain()
        assert sorted(r.record_id for r in results) == sorted(submitted)
        assert service.pending_count == 0
        assert counter(service, "batch_flush_drain_total") == 2

    def test_cache_hit_returns_immediately(self, serving_corpus, fake_clock):
        registry, held_out, _ = serving_corpus
        probe = next(iter(held_out.values()))[0]
        service = make_service(registry, fake_clock)
        service.predict(probe)  # warm the cache
        result = service.submit(SignalRecord(record_id="resubmit",
                                             rss=dict(probe.rss)))
        assert result is not None and result.source == "cache"
        assert result.prediction.record_id == "resubmit"
        assert service.pending_count == 0

    def test_rejected_record_reported_not_queued(self, serving_corpus, fake_clock):
        registry, _, _ = serving_corpus
        service = make_service(registry, fake_clock)
        alien = SignalRecord(record_id="alien", rss={"mars-ap": -50.0})
        result = service.submit(alien)
        assert result is not None and not result.ok
        assert result.source == "rejected"
        assert "does not match" in result.error
        assert service.pending_count == 0
        assert counter(service, "rejections_total") == 1


class TestBuildingLifecycle:
    def test_retrain_building_hot_swap_via_persistence(self, serving_corpus,
                                                       fake_clock, tmp_path):
        registry, held_out, training = serving_corpus
        building_id = "bldg-north"
        dataset, labels = training[building_id]
        probes = held_out[building_id][:5]
        service = make_service(registry, fake_clock)
        service.predict_batch(probes)  # warm the cache for this building
        assert len(service.shards[0].cache) == len(probes)

        model_path = tmp_path / "north.npz"
        swapped = service.retrain_building(dataset, labels,
                                           model_path=model_path)
        assert model_path.is_file()
        assert counter(service, "hot_swaps_total") == 1
        # The hot swap invalidated every cached entry of that building.
        assert len(service.shards[0].cache) == 0

        # What serves now is exactly what a restart would load from disk.
        restored = load_model(model_path)
        expected = [restored.predict(p) for p in probes]
        served = service.predict_batch(probes)
        assert [p.floor for p in served] == [e.floor for e in expected]
        assert [p.distance for p in served] == [e.distance for e in expected]
        assert swapped is service.model_for(building_id)

    def test_hot_swap_reroutes_queued_requests(self, serving_corpus, fake_clock):
        """A request queued before a swap must not keep its stale routing
        decision: it is re-routed against the post-swap vocabulary."""
        registry, held_out, training = serving_corpus
        service = make_service(registry, fake_clock, max_batch_size=100,
                               enable_cache=False)
        building_id = service.building_ids[0]
        probe = held_out[building_id][0]
        assert service.submit(probe) is None
        dataset, labels = training[building_id]
        service.retrain_building(dataset, labels)
        # Still queued (same vocabulary -> routes to the same building) and
        # dispatchable against the new model.
        assert service.pending_count == 1
        results = service.drain()
        assert len(results) == 1 and results[0].ok
        assert results[0].prediction == registry.predict(probe)

        # A swap that shrinks the vocabulary below min_overlap rejects the
        # queued request instead of serving it with a stale decision.
        assert service.submit(probe) is None
        tiny_vocab = ["not-a-real-ap"]
        service.install_building(building_id,
                                 registry.model_for(building_id),
                                 vocabulary=tiny_vocab)
        assert service.pending_count == 0
        rejected = service.drain()
        assert len(rejected) == 1 and not rejected[0].ok
        assert rejected[0].source == "rejected"

    def test_swap_preserves_routing_tie_break_order(self, serving_corpus,
                                                    fake_clock):
        registry, held_out, training = serving_corpus
        service = make_service(registry, fake_clock)
        order_before = service.router.building_ids
        dataset, labels = training[order_before[0]]
        service.retrain_building(dataset, labels)
        assert service.router.building_ids == order_before

    def test_evict_building(self, serving_corpus, fake_clock):
        registry, held_out, _ = serving_corpus
        service = make_service(registry, fake_clock)
        victim, survivor = service.building_ids[0], service.building_ids[1]
        service.evict_building(victim)
        assert service.building_ids == [survivor]
        assert victim not in service.router.building_ids

    def test_evict_rejects_pending_requests(self, serving_corpus, fake_clock):
        registry, held_out, _ = serving_corpus
        service = make_service(registry, fake_clock, max_batch_size=100)
        victim = service.building_ids[0]
        probe = held_out[victim][0]
        assert service.submit(probe) is None
        service.evict_building(victim)
        assert service.pending_count == 0
        results = service.drain()
        assert len(results) == 1
        assert not results[0].ok and results[0].source == "rejected"
        assert "evicted" in results[0].error

    def test_invalid_rss_quantum_fails_fast(self):
        with pytest.raises(ValueError, match="rss_quantum"):
            ServingConfig(rss_quantum=0.0)

    def test_fit_building_registers_for_routing(self, serving_corpus, fake_clock):
        registry, held_out, training = serving_corpus
        building_id = "bldg-south"
        dataset, labels = training[building_id]
        service = FloorServingService(config=ServingConfig(),
                                      grafics_config=registry.config,
                                      clock=fake_clock)
        assert service.building_ids == []
        service.fit_building(dataset, labels)
        probe = held_out[building_id][0]
        assert service.predict(probe).building_id == building_id

    def test_telemetry_snapshot_shape(self, serving_corpus, fake_clock):
        registry, held_out, _ = serving_corpus
        service = make_service(registry, fake_clock)
        probes = interleaved_probes(held_out, per_building=2)
        with pytest.raises(Exception):
            service.predict(SignalRecord(record_id="alien",
                                         rss={"nowhere": -40.0}))
        service.predict_batch(probes)
        snapshot = service.telemetry_snapshot()
        assert snapshot["buildings"] == 2
        assert snapshot["counters"]["predictions_total"] == len(probes)
        assert snapshot["counters"]["rejections_total"] == 1
        assert snapshot["cache"]["misses"] == len(probes)
        assert "batch_seconds" in snapshot["latency"]
        assert snapshot["pending"] == {}

