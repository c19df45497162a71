"""Sharded-serving tests: placement, routing equality, byte-identical serving.

Byte-identity is checked against the independent oracle: the sequential
``MultiBuildingFloorService.predict`` reference of the research pipeline.
"""

from __future__ import annotations

import pytest

from serving_helpers import FakeClock, clone_registry, interleaved_probes

from repro import GRAFICS, SignalRecord
from repro.core.inference import UnknownEnvironmentError
from repro.serving import (
    MacInvertedRouter,
    ServingConfig,
    ShardedServingService,
    shard_index,
)


def sharded_service(registry, num_shards=4, clock=None, **config_kwargs):
    return ShardedServingService(registry=clone_registry(registry),
                                 config=ServingConfig(**config_kwargs),
                                 num_shards=num_shards,
                                 clock=clock or FakeClock())


class TestPlacement:
    def test_shard_index_is_stable_and_in_range(self):
        for n in (1, 2, 4, 7):
            for building_id in ("bldg-north", "bldg-south", "x", ""):
                index = shard_index(building_id, n)
                assert 0 <= index < n
                assert index == shard_index(building_id, n)  # deterministic

    def test_shard_index_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="num_shards"):
            shard_index("bldg", 0)

    def test_buildings_distribute_across_shards(self, serving_corpus):
        registry, _, _ = serving_corpus
        service = sharded_service(registry, num_shards=4)
        placed = {b: service.shard_for(b).index for b in service.building_ids}
        assert set(placed) == set(registry.building_ids)
        for building_id, index in placed.items():
            assert building_id in service.shards[index].registry.building_ids
            for shard in service.shards:
                if shard.index != index:
                    assert building_id not in shard.registry.building_ids


class TestRoutingEquality:
    def test_sharded_router_matches_single_router(self, serving_corpus):
        registry, held_out, _ = serving_corpus
        service = sharded_service(registry, num_shards=3)
        reference = MacInvertedRouter.from_vocabularies(
            registry.vocabularies, min_overlap=registry.min_overlap)
        probes = interleaved_probes(held_out, per_building=10)
        assert (service.router.route_batch(probes)
                == reference.route_batch(probes))

    def test_tie_break_uses_global_registration_order(self):
        """Equal overlaps must fall to the earliest-registered building,
        even when the candidates live on different shards."""
        num_shards = 4
        first, second = "tie-a", "tie-b"
        assert shard_index(first, num_shards) != shard_index(second, num_shards)
        routers = {}
        for order, label in ((["x", "y"], "xy"), (["y", "x"], "yx")):
            router_shards = None
            # Build two sharded services registering the buildings in
            # opposite orders via the router alone.
            from repro.serving.sharding import Shard, ShardedRouter
            from repro.core.pipeline import GraficsConfig
            shards = [Shard(index=i, grafics_config=GraficsConfig(),
                            min_overlap=0.1, config=ServingConfig(),
                            cache_entries=16) for i in range(num_shards)]
            router = ShardedRouter(shards, min_overlap=0.1)
            names = {"x": first, "y": second}
            for key in order:
                router.add_building(names[key], ["m1", "m2", "m3"])
            routers[label] = router
        probe = SignalRecord(record_id="p", rss={"m1": -50.0, "m2": -60.0})
        assert routers["xy"].route(probe).building_id == first
        assert routers["yx"].route(probe).building_id == second

    def test_rejections_match_reference(self, serving_corpus):
        registry, _, _ = serving_corpus
        service = sharded_service(registry, num_shards=4)
        stranger = SignalRecord(record_id="alien",
                                rss={"never-seen-1": -50.0,
                                     "never-seen-2": -60.0})
        with pytest.raises(UnknownEnvironmentError):
            service.router.route(stranger)
        with pytest.raises(UnknownEnvironmentError):
            service.predict(stranger)


class TestByteIdenticalServing:
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    def test_predict_batch_equals_one_lock_reference(self, serving_corpus,
                                                     num_shards):
        registry, held_out, _ = serving_corpus
        probes = interleaved_probes(held_out, per_building=8)
        reference = [registry.predict(probe) for probe in probes]
        sharded = sharded_service(registry, num_shards=num_shards)
        assert sharded.predict_batch(probes) == reference
        # Warm-cache pass stays identical too.
        assert sharded.predict_batch(probes) == reference

    def test_predict_equals_reference_without_cache(self, serving_corpus):
        registry, held_out, _ = serving_corpus
        probes = interleaved_probes(held_out, per_building=6)
        reference = [registry.predict(probe) for probe in probes]
        sharded = sharded_service(registry, num_shards=4, enable_cache=False)
        assert [sharded.predict(p) for p in probes] == reference

    def test_micro_batched_path_equals_reference(self, serving_corpus):
        registry, held_out, _ = serving_corpus
        probes = interleaved_probes(held_out, per_building=6)
        reference = [registry.predict(probe) for probe in probes]
        by_id = {p.record_id: p for p in reference}

        service = sharded_service(registry, num_shards=4, max_batch_size=4)
        immediate = [service.submit(probe) for probe in probes]
        results = [r for r in immediate if r is not None] + service.drain()
        assert len(results) == len(probes)
        for result in results:
            assert result.ok
            assert result.prediction == by_id[result.record_id]

    def test_retrain_building_matches_one_lock_retrain(self, serving_corpus):
        """A warm-started retrain + hot swap serves exactly what the
        sequential registry serves after the same fit done offline."""
        registry, held_out, training = serving_corpus
        building_id = "bldg-north"
        dataset, labels = training[building_id]

        offline = GRAFICS(registry.config).fit(
            dataset, labels,
            warm_start=registry.model_for(building_id).embedding)
        reference = clone_registry(registry)
        reference.install_model(building_id, offline,
                                vocabulary=frozenset(dataset.macs))
        sharded = sharded_service(registry, num_shards=4)
        sharded.retrain_building(dataset, labels, warm_start=True)

        probes = held_out[building_id][:6]
        assert (sharded.predict_batch(probes)
                == [reference.predict(probe) for probe in probes])


class TestLifecycle:
    def test_install_invalidates_shard_cache_and_updates_router(
            self, serving_corpus):
        registry, held_out, training = serving_corpus
        service = sharded_service(registry, num_shards=4)
        building_id = "bldg-south"
        probe = held_out[building_id][0]
        before = service.predict(probe)
        shard = service.shard_for(building_id)
        assert len(shard.cache) > 0

        dataset, labels = training[building_id]
        service.retrain_building(dataset, labels)
        assert shard.telemetry.counter("hot_swaps_total") == 1
        assert service.telemetry.gauge("last_swap_shard") == shard.index
        after = service.predict(probe)
        assert after.building_id == before.building_id

    def test_eviction_racing_dispatch_rejects_cleanly(self, serving_corpus):
        """A building vanishing between routing and dispatch must surface as
        the routing rejection it would have been, not a raw KeyError."""
        registry, held_out, _ = serving_corpus
        service = sharded_service(registry, num_shards=4)
        probe = held_out["bldg-north"][0]
        # Simulate the torn interleave: the model is gone from the shard,
        # but the router postings still attribute the record to it.
        service.shard_for("bldg-north").registry.remove_building("bldg-north")
        with pytest.raises(UnknownEnvironmentError, match="evicted"):
            service.predict(probe)

    def test_evict_building_rejects_queued_work(self, serving_corpus):
        registry, held_out, _ = serving_corpus
        service = sharded_service(registry, num_shards=4, max_batch_size=100)
        probe = held_out["bldg-north"][0]
        assert service.submit(probe) is None  # queued, batch not full
        service.evict_building("bldg-north")
        results = service.poll()
        assert len(results) == 1
        assert not results[0].ok and results[0].source == "rejected"
        assert "evicted" in results[0].error
        assert "bldg-north" not in service.building_ids

    def test_export_registry_round_trips_order_and_models(self,
                                                          serving_corpus):
        registry, held_out, _ = serving_corpus
        service = sharded_service(registry, num_shards=4)
        exported = service.export_registry()
        assert list(exported.vocabularies) == list(registry.vocabularies)
        probes = interleaved_probes(held_out, per_building=4)
        rebuilt = ShardedServingService(registry=exported, num_shards=4,
                                        clock=FakeClock())
        assert (rebuilt.predict_batch(probes)
                == service.predict_batch(probes))


class TestTelemetryAggregation:
    def test_counters_sum_across_shards(self, serving_corpus):
        registry, held_out, _ = serving_corpus
        service = sharded_service(registry, num_shards=4)
        probes = interleaved_probes(held_out, per_building=5)
        service.predict_batch(probes)
        snapshot = service.telemetry_snapshot()
        counters = snapshot["counters"]
        assert counters["requests_total"] == len(probes)
        assert counters["predictions_total"] == len(probes)
        shard_predictions = sum(
            shard.telemetry.counter("predictions_total")
            for shard in service.shards)
        assert shard_predictions == len(probes)
        assert snapshot["buildings"] == len(registry.building_ids)

    def test_per_shard_gauges_present_in_snapshot(self, serving_corpus):
        registry, held_out, _ = serving_corpus
        service = sharded_service(registry, num_shards=3, max_batch_size=100)
        service.submit(held_out["bldg-north"][0])
        snapshot = service.telemetry_snapshot()
        gauges = snapshot["gauges"]
        for index in range(3):
            assert f"shard{index}_queue_depth" in gauges
            assert f"shard{index}_cache_entries" in gauges
        queued_shard = service.shard_for("bldg-north").index
        assert gauges[f"shard{queued_shard}_queue_depth"] == 1
        assert snapshot["shards"][str(queued_shard)]["queue_depth"] == 1

    def test_cache_stats_aggregate(self, serving_corpus):
        registry, held_out, _ = serving_corpus
        service = sharded_service(registry, num_shards=4)
        probes = interleaved_probes(held_out, per_building=4)
        service.predict_batch(probes)
        service.predict_batch(probes)
        cache = service.telemetry_snapshot()["cache"]
        assert cache["misses"] == len(probes)
        assert cache["hits"] == len(probes)
        assert cache["hit_rate"] == 0.5
