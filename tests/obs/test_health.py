"""Tests for obs/health: policy validation, verdict fusion, scorecards.

The monitor reads its watched objects through a duck surface only, so
these tests drive it with small fakes and a deterministic clock — the
end-to-end wiring against the real serving/stream stacks lives in
``test_server.py``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.obs.health import (HealthMonitor, HealthPolicy, HealthReason,
                              HealthStatus, Scorecard)
from repro.obs.metrics import MetricsRegistry
from repro.stream.drift import DriftKind

from obs_helpers import FakeClock


class FakeService:
    """Minimal unsharded serving façade: telemetry + building ids."""

    def __init__(self, clock, building_ids=("bldg-A",)):
        self.telemetry = MetricsRegistry(clock=clock)
        self.building_ids = list(building_ids)


class FakeShard:
    def __init__(self, index, clock, buildings):
        self.index = index
        self.telemetry = MetricsRegistry(clock=clock)
        self.registry = SimpleNamespace(building_ids=list(buildings))
        self.batcher = SimpleNamespace(pending_count=0)


class FakeShardedService:
    def __init__(self, clock, assignments):
        self.telemetry = MetricsRegistry(clock=clock)
        self.shards = [FakeShard(index, clock, buildings)
                       for index, buildings in enumerate(assignments)]
        self.building_ids = [building for buildings in assignments
                             for building in buildings]
        self._owner = {building: shard
                       for shard in self.shards
                       for building in shard.registry.building_ids}

    def shard_for(self, building_id):
        return self._owner[building_id]


class FakeDrift:
    def __init__(self):
        self.latched = {}

    def latched_kinds(self, building_id):
        return tuple(self.latched.get(building_id, ()))


class FakeScheduler:
    def __init__(self):
        self.pending = {}
        self.inflight = set()
        self.swap_ages = {}

    def last_swap_age(self, building_id, now=None):
        return self.swap_ages.get(building_id)


class FakePipeline:
    def __init__(self, service):
        self.service = service
        self.drift = FakeDrift()
        self.scheduler = FakeScheduler()


@pytest.fixture
def clock():
    return FakeClock(start=1000.0)


def _drive_latency(monitor, clock, seconds, samples=10, step=1.0):
    """Record ``samples`` request latencies, observing after each."""
    for _ in range(samples):
        monitor.service.telemetry.observe("request_seconds", seconds)
        clock.advance(step)
        monitor.observe()


class TestHealthPolicy:
    def test_defaults_are_valid(self):
        policy = HealthPolicy()
        assert policy.window_seconds == 300.0
        assert policy.unhealthy_reason_count == 2

    @pytest.mark.parametrize("kwargs", [
        {"window_seconds": 0.0},
        {"tail_quantile": 0.0},
        {"tail_quantile": 1.5},
        {"degraded_tail_latency_seconds": 2.0,
         "unhealthy_tail_latency_seconds": 1.0},
        {"degraded_rejection_rate": 0.6},  # above unhealthy default 0.5
        {"unhealthy_reason_count": 0},
    ])
    def test_rejects_inconsistent_thresholds(self, kwargs):
        with pytest.raises(ValueError):
            HealthPolicy(**kwargs)


class TestScorecardShapes:
    def test_reason_and_scorecard_to_dict(self):
        reason = HealthReason(code="tail_latency", severity="degraded",
                              detail="slow", value=0.3, threshold=0.25)
        card = Scorecard(subject="bldg-A", status=HealthStatus.DEGRADED,
                         reasons=(reason,), metrics={"x": 1.0})
        payload = card.to_dict()
        assert payload["status"] == "degraded"
        assert payload["reasons"] == [{
            "code": "tail_latency", "severity": "degraded", "detail": "slow",
            "value": 0.3, "threshold": 0.25}]
        # Optional numbers are omitted when absent, not emitted as null.
        bare = HealthReason(code="x", severity="info", detail="d").to_dict()
        assert "value" not in bare and "threshold" not in bare

    def test_requires_a_service_or_pipeline(self):
        with pytest.raises(ValueError):
            HealthMonitor()


class TestVerdictFusion:
    def test_idle_service_is_simply_healthy(self, clock):
        monitor = HealthMonitor(FakeService(clock), clock=clock)
        report = monitor.report()
        assert report["status"] == "healthy"
        assert report["buildings"]["bldg-A"]["status"] == "healthy"
        assert report["buildings"]["bldg-A"]["reasons"] == []
        assert report["shards"] == {}

    def test_latency_spike_degrades_then_recovers(self, clock):
        monitor = HealthMonitor(FakeService(clock), clock=clock)
        _drive_latency(monitor, clock, seconds=0.4)
        report = monitor.report()
        card = report["buildings"]["bldg-A"]
        assert card["status"] == "degraded"
        (reason,) = card["reasons"]
        assert reason["code"] == "tail_latency"
        assert reason["severity"] == "degraded"
        assert reason["value"] > reason["threshold"] == 0.25
        # Once the spike leaves the trailing window the verdict heals.
        clock.advance(monitor.policy.window_seconds + 10.0)
        assert monitor.report()["status"] == "healthy"

    def test_outage_class_latency_is_unhealthy_alone(self, clock):
        monitor = HealthMonitor(FakeService(clock), clock=clock)
        _drive_latency(monitor, clock, seconds=2.0)
        card = monitor.report()["buildings"]["bldg-A"]
        assert card["status"] == "unhealthy"
        assert card["reasons"][0]["severity"] == "unhealthy"

    def test_few_observations_never_judge_latency(self, clock):
        monitor = HealthMonitor(FakeService(clock), clock=clock)
        _drive_latency(monitor, clock, seconds=5.0, samples=3)
        assert monitor.report()["status"] == "healthy"

    def test_corroborated_degraded_reasons_escalate(self, clock):
        service = FakeService(clock)
        pipeline = FakePipeline(service)
        monitor = HealthMonitor(service, pipeline, clock=clock)
        pipeline.drift.latched["bldg-A"] = [DriftKind.MAC_CHURN]
        _drive_latency(monitor, clock, seconds=0.4)
        card = monitor.report()["buildings"]["bldg-A"]
        # drift latch + latency, each only "degraded", corroborate to worse.
        assert card["status"] == "unhealthy"
        codes = {reason["code"] for reason in card["reasons"]}
        assert codes == {"drift_latched:mac_churn", "tail_latency"}

    def test_info_reasons_never_affect_the_verdict(self, clock):
        service = FakeService(clock)
        pipeline = FakePipeline(service)
        monitor = HealthMonitor(service, pipeline, clock=clock)
        pipeline.scheduler.pending["bldg-A"] = object()
        card = monitor.report()["buildings"]["bldg-A"]
        assert card["status"] == "healthy"
        assert card["reasons"][0]["code"] == "retrain_pending"
        assert card["reasons"][0]["severity"] == "info"
        pipeline.scheduler.pending.clear()
        pipeline.scheduler.inflight.add("bldg-A")
        card = monitor.report()["buildings"]["bldg-A"]
        assert "in flight" in card["reasons"][0]["detail"]

    def test_retrain_overdue_requires_latched_drift_and_old_swap(self, clock):
        service = FakeService(clock)
        pipeline = FakePipeline(service)
        monitor = HealthMonitor(service, pipeline, clock=clock)
        pipeline.scheduler.swap_ages["bldg-A"] = 900.0
        codes = {r["code"]
                 for r in monitor.report()["buildings"]["bldg-A"]["reasons"]}
        assert "retrain_overdue" not in codes  # old swap alone is fine
        pipeline.drift.latched["bldg-A"] = [DriftKind.DISTANCE_SHIFT]
        card = monitor.report()["buildings"]["bldg-A"]
        codes = {r["code"] for r in card["reasons"]}
        assert "retrain_overdue" in codes
        assert card["metrics"]["last_swap_age_seconds"] == 900.0


class TestServiceScorecard:
    def test_rejection_rate_thresholds(self, clock):
        service = FakeService(clock)
        monitor = HealthMonitor(service, clock=clock)
        service.telemetry.increment("requests_total", 100)
        service.telemetry.increment("rejections_total", 20)
        clock.advance(5.0)
        card = monitor.report()["service"]
        (reason,) = card["reasons"]
        assert reason["code"] == "rejection_rate"
        assert reason["severity"] == "degraded"
        service.telemetry.increment("requests_total", 100)
        service.telemetry.increment("rejections_total", 95)
        clock.advance(5.0)
        card = monitor.report()["service"]
        assert card["status"] == "unhealthy"
        assert card["reasons"][0]["severity"] == "unhealthy"

    def test_registry_wide_latch_and_retrain_errors(self, clock):
        service = FakeService(clock)
        pipeline = FakePipeline(service)
        monitor = HealthMonitor(service, pipeline, clock=clock)
        pipeline.drift.latched[None] = [DriftKind.ROUTER_REJECTION]
        service.telemetry.increment("retrain_errors_total")
        clock.advance(5.0)
        card = monitor.report()["service"]
        codes = {reason["code"] for reason in card["reasons"]}
        assert codes == {"drift_latched:router_rejection", "retrain_errors"}
        assert card["status"] == "unhealthy"  # two corroborating signals
        assert card["metrics"]["recent_retrain_errors"] == 1.0

    def test_cache_hit_rate_floor(self, clock):
        service = FakeService(clock)
        monitor = HealthMonitor(service, clock=clock)
        service.telemetry.increment("cache_misses_total", 99)
        service.telemetry.increment("cache_hits_total", 1)
        clock.advance(5.0)
        card = monitor.report()["buildings"]["bldg-A"]
        (reason,) = card["reasons"]
        assert reason["code"] == "cache_hit_rate"
        assert card["metrics"]["cache_hit_rate"] == pytest.approx(0.01)


class TestShardedAttribution:
    def test_building_signals_come_from_owning_shard(self, clock):
        service = FakeShardedService(clock, [["bldg-A"], ["bldg-B"]])
        monitor = HealthMonitor(service, clock=clock)
        # Slow traffic on shard 1 only.
        for _ in range(10):
            service.shards[1].telemetry.observe("request_seconds", 0.4)
            clock.advance(1.0)
            monitor.observe()
        report = monitor.report()
        assert report["buildings"]["bldg-A"]["status"] == "healthy"
        assert report["buildings"]["bldg-B"]["status"] == "degraded"
        assert report["shards"]["shard0"]["status"] == "healthy"
        assert report["shards"]["shard1"]["status"] == "degraded"
        assert report["shards"]["shard1"]["metrics"]["buildings"] == 1.0
        assert report["status"] == "degraded"  # overall is the worst verdict


class TestDeltaSamplerEffectiveness:
    def test_info_reason_surfaces_without_flipping_verdict(self, clock):
        """Runtime delta-sampler counters become an info-severity reason on
        building scorecards — visibility into cold-path cache
        effectiveness, never a verdict change."""
        from repro.obs import runtime as obs_runtime

        service = FakeService(clock)
        monitor = HealthMonitor(service, clock=clock)
        obs_runtime.enable()
        try:
            obs_runtime.metric_increment("delta_sampler_hits_total", 9)
            obs_runtime.metric_increment("delta_sampler_rebuilds_total", 1)
            clock.advance(5.0)
            card = monitor.report()["buildings"]["bldg-A"]
        finally:
            obs_runtime.disable()
        (reason,) = card["reasons"]
        assert reason["code"] == "delta_sampler_cache"
        assert reason["severity"] == "info"
        assert card["status"] == "healthy"
        assert card["metrics"]["delta_sampler_hit_rate"] == pytest.approx(0.9)
        assert card["metrics"]["delta_sampler_composed"] == 10.0

    def test_silent_when_nothing_composed(self, clock):
        """Exact-mode deployments (zero compositions) get no reason and no
        metrics — the scorecard shape is unchanged for them."""
        from repro.obs import runtime as obs_runtime

        service = FakeService(clock)
        monitor = HealthMonitor(service, clock=clock)
        obs_runtime.enable()
        try:
            clock.advance(5.0)
            card = monitor.report()["buildings"]["bldg-A"]
        finally:
            obs_runtime.disable()
        assert card["reasons"] == []
        assert "delta_sampler_hit_rate" not in card["metrics"]

    def test_disabled_runtime_drops_the_subject(self, clock):
        from repro.obs import runtime as obs_runtime

        service = FakeService(clock)
        monitor = HealthMonitor(service, clock=clock)
        obs_runtime.enable()
        try:
            obs_runtime.metric_increment("delta_sampler_hits_total", 3)
            clock.advance(5.0)
            monitor.report()
        finally:
            obs_runtime.disable()
        clock.advance(5.0)
        card = monitor.report()["buildings"]["bldg-A"]
        assert card["reasons"] == []


class TestComputePoolReason:
    @staticmethod
    def _pooled_sharded(clock):
        service = FakeShardedService(clock, [["bldg-A"], ["bldg-B"]])
        # The monitor duck-types the pool: any non-None attribute means the
        # service dispatches cold compute to worker processes.
        service.compute_pool = object()
        return service

    def test_info_reason_on_shard_scorecards(self, clock):
        """Pool counters (recorded in the service-level telemetry) surface
        as an info-severity ``compute_pool`` reason with dispatch rate and
        snapshot hit rate — on every shard scorecard, never moving a
        verdict."""
        service = self._pooled_sharded(clock)
        monitor = HealthMonitor(service, clock=clock)
        service.telemetry.increment("compute_pool_dispatch_total", 20)
        service.telemetry.increment("compute_pool_snapshot_ships_total", 2)
        clock.advance(5.0)
        report = monitor.report()
        for name in ("shard0", "shard1"):
            card = report["shards"][name]
            assert card["status"] == "healthy"
            (reason,) = card["reasons"]
            assert reason["code"] == "compute_pool"
            assert reason["severity"] == "info"
            assert card["metrics"]["compute_pool_snapshot_hit_rate"] == \
                pytest.approx(0.9)
            assert card["metrics"]["compute_pool_dispatch_rate"] == \
                pytest.approx(20.0 / monitor.policy.window_seconds)
        service_card = report["service"]
        assert service_card["status"] == "healthy"
        assert any(r["code"] == "compute_pool"
                   for r in service_card["reasons"])

    def test_restarts_show_in_metrics_and_detail(self, clock):
        service = self._pooled_sharded(clock)
        monitor = HealthMonitor(service, clock=clock)
        service.telemetry.increment("compute_pool_dispatch_total", 4)
        service.telemetry.increment("compute_pool_worker_restarts_total", 1)
        clock.advance(5.0)
        card = monitor.report()["shards"]["shard0"]
        assert card["metrics"]["compute_pool_recent_restarts"] == 1.0
        (reason,) = card["reasons"]
        assert "restart" in reason["detail"]

    def test_silent_without_a_pool_or_without_dispatches(self, clock):
        # No pool attribute at all (compute_workers=0 services).
        bare = FakeShardedService(clock, [["bldg-A"]])
        monitor = HealthMonitor(bare, clock=clock)
        clock.advance(5.0)
        card = monitor.report()["shards"]["shard0"]
        assert card["reasons"] == []
        assert "compute_pool_dispatch_rate" not in card["metrics"]
        # Pool present but idle in the window: same silence.
        idle = self._pooled_sharded(clock)
        monitor = HealthMonitor(idle, clock=clock)
        clock.advance(5.0)
        card = monitor.report()["shards"]["shard0"]
        assert card["reasons"] == []
        assert "compute_pool_dispatch_rate" not in card["metrics"]
