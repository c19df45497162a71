"""Process-pool cold path: pickle seams, byte-identity, lifecycle.

The compute pool's whole contract is "same bytes, more cores": plan and
commit stay in-process, the engine work crosses a process boundary, and
nothing about the predictions may change.  These tests pin that down from
three directions — the pickle seams the pool rides on (model snapshots,
serve plans, computed outputs), byte-identity of every serving mode
against the in-process path, and the pool's operational surface
(config gating, telemetry, worker restart, close).
"""

from __future__ import annotations

import os
import pickle
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from serving_helpers import clone_registry, interleaved_probes, make_service  # noqa: E402

from repro.core.pipeline import GRAFICS  # noqa: E402
from repro.serving import (  # noqa: E402
    ComputePool,
    FloorServingService,
    ServingConfig,
    ShardedServingService,
    WorkerCrashError,
)
from repro.serving.service import _ServePlan  # noqa: E402

# Workers are started with fork throughout (milliseconds instead of a full
# interpreter start per worker); the dedicated spawn test below covers the
# default start method's pickle discipline end to end.
FORK = {"compute_workers": 2, "compute_start_method": "fork"}

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="compute-pool tests drive the fork start method")


def fitted_model(serving_corpus, building_id="bldg-north", **fit_kwargs):
    registry, _, training = serving_corpus
    dataset, labels = training[building_id]
    return GRAFICS(registry.config).fit(dataset, labels, **fit_kwargs)


# --------------------------------------------------------------------------
# Satellite: pickle round-trip regression suite
# --------------------------------------------------------------------------
class TestPickleRoundTrips:
    def test_model_snapshot_predicts_byte_identically(self, serving_corpus):
        """A pickled model is a faithful snapshot: same prediction bytes."""
        _, held_out, _ = serving_corpus
        model = fitted_model(serving_corpus)
        probes = held_out["bldg-north"][:10]
        expected = model.predict_batch(list(probes), independent=True)
        clone = pickle.loads(pickle.dumps(model))
        got = clone.predict_batch(list(probes), independent=True)
        assert pickle.dumps(got) == pickle.dumps(expected)

    def test_delta_sampler_snapshot_predicts_byte_identically(
            self, serving_corpus):
        """A model fitted through the pinned ``sampler_mode="delta"`` shim
        snapshots like any other."""
        _, held_out, _ = serving_corpus
        model = fitted_model(serving_corpus, sampler_mode="delta")
        assert model.config.sampler_mode == "delta"
        probes = held_out["bldg-north"][:10]
        expected = model.predict_batch(list(probes), independent=True)
        clone = pickle.loads(pickle.dumps(model))
        got = clone.predict_batch(list(probes), independent=True)
        assert pickle.dumps(got) == pickle.dumps(expected)

    def test_serve_plan_round_trips(self, serving_corpus):
        """``_ServePlan`` — the object pinning compute to its snapshots —
        survives pickling with its model still predicting identically."""
        _, held_out, _ = serving_corpus
        model = fitted_model(serving_corpus)
        plan = _ServePlan(misses=[("bldg-north", model, [0, 2, 3])],
                          keys={1: "bldg-north|fp"}, served=4)
        clone = pickle.loads(pickle.dumps(plan))
        assert [(b, positions) for b, _, positions in clone.misses] == \
               [("bldg-north", [0, 2, 3])]
        assert clone.keys == plan.keys
        assert clone.served == plan.served
        probes = held_out["bldg-north"][:5]
        assert pickle.dumps(
            clone.misses[0][1].predict_batch(list(probes), independent=True)
        ) == pickle.dumps(model.predict_batch(list(probes), independent=True))

    def test_outputs_round_trip(self, serving_corpus):
        """Computed predictions come back through a pickle unchanged."""
        _, held_out, _ = serving_corpus
        model = fitted_model(serving_corpus)
        outputs = model.predict_batch(list(held_out["bldg-north"][:8]),
                                      independent=True)
        clone = pickle.loads(pickle.dumps(outputs))
        for original, restored in zip(outputs, clone):
            assert pickle.dumps(restored) == pickle.dumps(original)

    def test_spawn_context_round_trip(self, serving_corpus):
        """The default spawn start method — fresh interpreter, nothing
        inherited — computes byte-identical predictions from a shipped
        snapshot.  This is the satellite's named case: everything the
        worker needs must arrive through the pickle, or this test fails."""
        _, held_out, _ = serving_corpus
        model = fitted_model(serving_corpus)
        probes = held_out["bldg-north"][:6]
        expected = model.predict_batch(list(probes), independent=True)
        with ComputePool(1, start_method="spawn") as pool:
            got = pool.compute("bldg-north", model, probes)
        assert pickle.dumps(got) == pickle.dumps(expected)


# --------------------------------------------------------------------------
# Acceptance: pooled serving is byte-identical in every mode
# --------------------------------------------------------------------------
class TestPoolIdentity:
    def test_predict_and_predict_batch_identical(self, serving_corpus,
                                                 fake_clock):
        registry, held_out, _ = serving_corpus
        probes = interleaved_probes(held_out, per_building=8)
        control = make_service(registry, fake_clock, enable_cache=False)
        expected = control.predict_batch(probes)
        with make_service(registry, fake_clock, enable_cache=False,
                          **FORK) as pooled:
            assert pickle.dumps(pooled.predict_batch(probes)) == \
                   pickle.dumps(expected)
            singles = [pooled.predict(p) for p in probes[:4]]
            assert pickle.dumps(singles) == pickle.dumps(expected[:4])

    def test_identity_with_cache_enabled(self, serving_corpus, fake_clock):
        registry, held_out, _ = serving_corpus
        probes = interleaved_probes(held_out, per_building=6)
        control = make_service(registry, fake_clock)
        with make_service(registry, fake_clock, **FORK) as pooled:
            # Two passes: the second is served from each service's cache,
            # which must have been filled with identical entries.
            for _ in range(2):
                assert pickle.dumps(pooled.predict_batch(probes)) == \
                       pickle.dumps(control.predict_batch(probes))

    def test_micro_batched_identical(self, serving_corpus, fake_clock):
        registry, held_out, _ = serving_corpus
        probes = interleaved_probes(held_out, per_building=8)
        control = make_service(registry, fake_clock, max_batch_size=4)
        with make_service(registry, fake_clock, max_batch_size=4,
                          **FORK) as pooled:
            for service in (control, pooled):
                for probe in probes:
                    service.submit(probe)
            expected = {r.record_id: r for r in control.drain()}
            got = {r.record_id: r for r in pooled.drain()}
            assert got.keys() == expected.keys()
            for record_id, result in got.items():
                assert result.prediction == expected[record_id].prediction
                assert result.source == expected[record_id].source

    def test_delta_sampler_mode_identical(self, serving_corpus, fake_clock):
        registry, held_out, _ = serving_corpus
        _, _, training = serving_corpus
        delta_registry = clone_registry(registry)
        for building_id, (dataset, labels) in training.items():
            delta_model = GRAFICS(registry.config).fit(
                dataset, labels, sampler_mode="delta")
            delta_registry.install_model(
                building_id, delta_model, vocabulary=frozenset(dataset.macs))
        probes = interleaved_probes(held_out, per_building=6)
        control = FloorServingService(
            clone_registry(delta_registry),
            ServingConfig(enable_cache=False))
        with FloorServingService(
                clone_registry(delta_registry),
                ServingConfig(enable_cache=False, **FORK)) as pooled:
            assert pickle.dumps(pooled.predict_batch(probes)) == \
                   pickle.dumps(control.predict_batch(probes))

    def test_identity_across_hot_swap(self, serving_corpus, fake_clock):
        """A swap bumps the generation: post-swap pooled predictions match
        a control service that swapped the same model in-process."""
        registry, held_out, _ = serving_corpus
        probes = held_out["bldg-north"][:8]
        replacement = fitted_model(serving_corpus, sampler_mode="delta")
        control = make_service(registry, fake_clock, enable_cache=False)
        with make_service(registry, fake_clock, enable_cache=False,
                          **FORK) as pooled:
            assert pickle.dumps(pooled.predict_batch(probes)) == \
                   pickle.dumps(control.predict_batch(probes))
            ships_before = pooled.telemetry.counter(
                "compute_pool_snapshot_ships_total")
            for service in (control, pooled):
                service.install_building("bldg-north", replacement)
            assert pickle.dumps(pooled.predict_batch(probes)) == \
                   pickle.dumps(control.predict_batch(probes))
            # The swapped model had to ship — the old generation is dead.
            assert pooled.telemetry.counter(
                "compute_pool_snapshot_ships_total") > ships_before

    def test_sharded_service_identical(self, serving_corpus, fake_clock):
        registry, held_out, _ = serving_corpus
        probes = interleaved_probes(held_out, per_building=8)
        expected = [registry.predict(probe) for probe in probes]
        with ShardedServingService(
                clone_registry(registry),
                ServingConfig(enable_cache=False, **FORK),
                num_shards=2, clock=fake_clock) as sharded:
            assert pickle.dumps(sharded.predict_batch(probes)) == \
                   pickle.dumps(expected)
            for probe in probes:
                sharded.submit(probe)
            by_id = {r.record_id: r.prediction for r in sharded.drain()}
            assert all(by_id[e.record_id] == e for e in expected)


# --------------------------------------------------------------------------
# Operational surface: config gating, telemetry, restart, close
# --------------------------------------------------------------------------
class TestPoolLifecycle:
    def test_compute_workers_zero_means_no_pool(self, serving_corpus,
                                                fake_clock):
        registry, held_out, _ = serving_corpus
        service = make_service(registry, fake_clock)
        assert service.compute_pool is None
        service.predict(held_out["bldg-north"][0])
        assert "compute_pool" not in service.telemetry_snapshot()
        service.close()  # no-op, must not raise

    def test_config_validation(self):
        with pytest.raises(ValueError, match="compute_workers"):
            ServingConfig(compute_workers=-1)
        with pytest.raises(ValueError, match="compute_start_method"):
            ServingConfig(compute_start_method="fork")
        with pytest.raises(ValueError):
            ComputePool(0)
        with pytest.raises(ValueError, match="start method"):
            ComputePool(1, start_method="no-such-method")

    def test_dispatch_and_ship_counters(self, serving_corpus, fake_clock):
        registry, held_out, _ = serving_corpus
        probes = held_out["bldg-north"][:6]
        with make_service(registry, fake_clock, enable_cache=False,
                          **FORK) as service:
            service.predict_batch(probes)
            counters = service.telemetry_snapshot()["counters"]
            assert counters["compute_pool_dispatch_total"] >= 1
            ships = counters["compute_pool_snapshot_ships_total"]
            assert ships >= 1
            service.predict_batch(probes)
            counters = service.telemetry_snapshot()["counters"]
            # Same generation: the snapshot is already on the workers.
            assert counters["compute_pool_snapshot_ships_total"] == ships
            assert service.telemetry_snapshot()["gauges"][
                "compute_pool_queue_depth"] == 0
            stats = service.telemetry_snapshot()["compute_pool"]
            assert stats["workers"] == 2
            assert stats["start_method"] == "fork"
            # The counters and the queue-depth gauge ride the service
            # telemetry, so they surface on /metrics with no extra wiring.
            exposition = service.telemetry.to_prometheus_text()
            for name in ("compute_pool_dispatch_total",
                         "compute_pool_snapshot_ships_total",
                         "compute_pool_queue_depth"):
                assert name in exposition

    def test_worker_restart_after_external_kill(self, serving_corpus,
                                                fake_clock):
        registry, held_out, _ = serving_corpus
        probes = held_out["bldg-north"][:6]
        with make_service(registry, fake_clock, enable_cache=False,
                          compute_workers=1,
                          compute_start_method="fork") as service:
            expected = service.predict_batch(probes)
            victim = service.compute_pool._workers[0].process
            os.kill(victim.pid, 9)
            deadline = time.monotonic() + 10.0
            while (service.telemetry.counter(
                    "compute_pool_worker_restarts_total") == 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert service.telemetry.counter(
                "compute_pool_worker_restarts_total") == 1
            # The respawned worker has an empty snapshot cache; the model
            # re-ships and predictions are unchanged.
            assert pickle.dumps(service.predict_batch(probes)) == \
                   pickle.dumps(expected)

    def test_close_is_idempotent_and_fails_late_compute(self, serving_corpus,
                                                        fake_clock):
        registry, held_out, _ = serving_corpus
        service = make_service(registry, fake_clock, enable_cache=False,
                               **FORK)
        service.predict(held_out["bldg-north"][0])
        pool = service.compute_pool
        service.close()
        service.close()
        model = registry.model_for("bldg-north")
        with pytest.raises(WorkerCrashError, match="closed"):
            pool.compute("bldg-north", model, held_out["bldg-north"][:2])
