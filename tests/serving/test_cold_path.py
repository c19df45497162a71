"""Lock-light cold serving path: concurrency, byte-identity, cache guard.

Cold predictions (cache misses) are now computed *outside* the serving
lock, which is only sound because online inference became mutation-free:
the engine stages probe records on a ``GraphOverlay`` instead of writing to
the shared model graph.  These tests pin the properties the restructure
must preserve:

* cold predicts racing a background retrain + hot swap on the same shard
  return predictions byte-identical to the sequential schedule;
* a prediction computed against a model that was swapped out mid-flight is
  still returned but never cached (the stale-put guard);
* serving-path predictions leave each model's served graph untouched, and
  the base negative sampler the fit handed to it survives cold traffic
  (cold predicts only read it).
"""

from __future__ import annotations

import threading

import pytest
from serving_helpers import clone_registry, interleaved_probes

from repro.core.embedding.trainer import _SAMPLER_CACHE, clear_sampler_cache
from repro.core.inference import UnknownEnvironmentError
from repro.serving import FloorServingService, ServingConfig

THREADS = 4
ROUNDS = 12
RETRAINS = 3


def cold_config(**kwargs) -> ServingConfig:
    """Every predict recomputes: the pure cold path."""
    return ServingConfig(enable_cache=False, **kwargs)


def make_cold_service(registry, num_shards=1) -> FloorServingService:
    return FloorServingService(registry=clone_registry(registry),
                               config=cold_config(), num_shards=num_shards)


class TestColdPredictsRacingHotSwaps:
    """Satellite: cold predicts vs background retrain + hot swap."""

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_byte_identical_to_sequential_schedule(self, serving_corpus,
                                                   num_shards):
        registry, held_out, training = serving_corpus
        service = make_cold_service(registry, num_shards)
        probes = interleaved_probes(held_out, per_building=4)

        # The sequential schedule: the same probes served by the registry
        # reference, with no concurrency and no swaps.  Retrains below are
        # cold fits of the same data with the same seeded config, so every
        # swapped-in model is byte-identical to the one it replaces and the
        # sequential reference stays valid across the whole race.
        reference = [registry.predict(probe) for probe in probes]

        errors: list[Exception] = []
        start_barrier = threading.Barrier(THREADS + 1)
        stop = threading.Event()

        def hammer() -> None:
            try:
                start_barrier.wait(timeout=60.0)
                for _ in range(ROUNDS):
                    predictions = service.predict_batch(probes)
                    # Exact equality: floors, distances and overlaps are
                    # byte-for-byte the sequential schedule's.
                    assert predictions == reference
            except Exception as error:  # noqa: BLE001 — surfaced after join
                errors.append(error)
            finally:
                stop.set()

        threads = [threading.Thread(target=hammer) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        start_barrier.wait(timeout=60.0)

        # At least one swap per building is guaranteed to overlap the
        # hammering; further rounds run while any thread is still going.
        swaps = 0
        for building_id, (dataset, labels) in training.items():
            service.retrain_building(dataset, labels)
            swaps += 1
        while not stop.is_set() and swaps < RETRAINS * len(training):
            for building_id, (dataset, labels) in training.items():
                service.retrain_building(dataset, labels)
                swaps += 1
        for thread in threads:
            thread.join(timeout=120.0)
        assert not errors, errors[0]
        assert swaps >= len(training)   # the race actually raced

        # And the dust-settled service still serves the reference bytes.
        assert service.predict_batch(probes) == reference


class TestFreshlyLoadedModelConcurrentFirstPredicts:
    def test_concurrent_first_predicts_after_registry_load(self, serving_corpus,
                                                           tmp_path):
        """A persistence-rebuilt graph still has dirty degrees; the first
        predictions — now unlocked — must not race the lazy flush."""
        from repro.core.persistence import load_registry, save_registry

        registry, held_out, _ = serving_corpus
        save_registry(clone_registry(registry), tmp_path / "reg")
        service = FloorServingService(registry=load_registry(tmp_path / "reg"),
                                      config=cold_config())
        probes = interleaved_probes(held_out, per_building=2)
        reference = clone_registry(registry).predict_batch(probes)

        errors: list[Exception] = []
        barrier = threading.Barrier(THREADS)

        def first_predicts() -> None:
            try:
                barrier.wait(timeout=30.0)
                assert service.predict_batch(probes) == reference
            except Exception as error:  # noqa: BLE001 — surfaced after join
                errors.append(error)

        threads = [threading.Thread(target=first_predicts)
                   for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors[0]


class TestStaleCachePutGuard:
    def test_mid_flight_swap_skips_cache_put(self, serving_corpus):
        """A prediction computed by a swapped-out model is returned, not
        cached — the follow-up predict is served by the new model."""
        registry, held_out, training = serving_corpus
        service = FloorServingService(registry=clone_registry(registry),
                                      config=ServingConfig(enable_cache=True))
        building_id = "bldg-north"
        probe = held_out[building_id][0]
        dataset, labels = training[building_id]

        # A replacement model trained on a shifted window: predictions may
        # legitimately differ from the original model's.
        replacement_source = FloorServingService(
            registry=clone_registry(registry))
        replacement = replacement_source.retrain_building(
            dataset.subset(dataset.records[2:]),
            {k: v for k, v in labels.items()
             if k in {r.record_id for r in dataset.records[2:]}},
        )

        old_model = service.model_for(building_id)
        original_predict_batch = old_model.predict_batch
        installed = []

        def swapping_predict_batch(records, **kwargs):
            # Fires during the unlocked compute phase: the install takes
            # the service lock while this predict is in flight, which only
            # works because the compute phase dropped it.
            if not installed:
                installed.append(True)
                service.install_building(building_id, replacement)
            return original_predict_batch(records, **kwargs)

        old_model.predict_batch = swapping_predict_batch
        try:
            raced = service.predict(probe)
        finally:
            old_model.predict_batch = original_predict_batch

        # The raced request was served by the model that planned it...
        sequential = clone_registry(registry).predict(probe)
        assert raced == sequential
        # ...but its prediction was not cached: the follow-up is computed
        # by (and byte-identical to) the newly installed model.
        follow_up = service.predict(probe)
        reference = FloorServingService(
            registry=clone_registry(registry), config=cold_config())
        reference.install_building(building_id, replacement)
        assert follow_up == reference.predict(probe)


class TestBatchOverlappingSwapRejection:
    def test_unattributable_batch_rejects_instead_of_crashing(self,
                                                              serving_corpus):
        """A released batch whose (possibly swapped) model can no longer
        attribute its records surfaces as rejected results — the exception
        must not escape submit/drain and lose the sibling results."""
        registry, held_out, _ = serving_corpus
        service = FloorServingService(
            registry=clone_registry(registry),
            config=ServingConfig(enable_cache=False, max_batch_size=2))
        building_id = "bldg-north"
        probes = held_out[building_id][:2]
        model = service.model_for(building_id)
        original = model.predict_batch

        def unattributable(records, **kwargs):
            raise UnknownEnvironmentError(
                "records no longer attributable after swap")

        model.predict_batch = unattributable
        try:
            assert service.submit(probes[0]) is None
            # Fills the batch of 2: dispatched inline, rejection path taken.
            assert service.submit(probes[1]) is None
            results = service.drain()
        finally:
            model.predict_batch = original

        assert len(results) == 2
        assert all(not r.ok and r.source == "rejected" for r in results)
        assert all("attributable" in r.error for r in results)
        # The service is healthy afterwards: the same records serve fine.
        assert all(p is not None
                   for p in service.predict_batch(probes))


class TestServingLeavesModelStateUntouched:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_sampler_cache()
        yield
        clear_sampler_cache()

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_no_version_bump_and_sampler_cache_survival(self, serving_corpus,
                                                        num_shards):
        registry, held_out, _ = serving_corpus
        service = make_cold_service(registry, num_shards)
        probes = interleaved_probes(held_out, per_building=3)
        graphs = [service.model_for(building_id).graph
                  for building_id in service.building_ids]
        degrees = [graph.degrees.tobytes() for graph in graphs]
        # Each fit handed its base negative sampler to the served graph.
        samplers = [graph.negative_sampler for graph in graphs]
        assert all(sampler is not None for sampler in samplers)
        misses_before = _SAMPLER_CACHE.misses
        evictions_before = _SAMPLER_CACHE.evictions

        service.predict_batch(probes)
        for probe in probes:
            service.predict(probe)
        service.predict_batch(probes)

        assert all(service.model_for(building_id).graph is graph
                   for building_id, graph in zip(service.building_ids, graphs))
        assert [graph.degrees.tobytes() for graph in graphs] == degrees
        # Cold predicts compose over each served base sampler but never
        # miss, evict or rebuild one.
        assert _SAMPLER_CACHE.evictions == evictions_before
        assert _SAMPLER_CACHE.misses == misses_before
        for graph, sampler in zip(graphs, samplers):
            assert graph.negative_sampler is sampler
