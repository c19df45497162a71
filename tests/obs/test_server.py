"""Acceptance tests for ObsServer: live endpoints over real serving stacks.

Two stacks are exercised end to end over actual HTTP:

* a :class:`ShardedServingService` — all four endpoints respond with the
  merged fleet view;
* a :class:`ContinuousLearningPipeline` — the issue's acceptance
  scenario: injected drift plus a latency spike flips the building to
  unhealthy with machine-readable reasons and fires a burn-rate alert,
  and the verdict recovers after the drift-triggered hot swap, all under
  a fake clock.
"""

from __future__ import annotations

import json
import logging
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "stream"))

from stream_helpers import stream_records, train_service  # noqa: E402

from repro import ContinuousLearningPipeline, SignalRecord, StreamConfig
from repro.obs import ObsServer
from repro.obs import runtime as obs
from repro.obs.log import LOGGER_NAME
from repro.serving import ServingConfig, ShardedServingService
from repro.stream import DriftConfig, SchedulerConfig, WindowConfig

from obs_helpers import FakeClock


def _get(url):
    """GET returning (status, content_type, body) without raising on 5xx."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return (response.status, response.headers.get("Content-Type"),
                    response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("Content-Type"), \
            error.read().decode("utf-8")


def _alien(index):
    return SignalRecord(record_id=f"alien-{index}",
                        rss={f"nowhere-{j}": -60.0 for j in range(5)})


class TestShardedServiceEndpoints:
    @pytest.fixture()
    def server(self):
        clock = FakeClock()
        trained, splits = train_service(("bldg-A", "bldg-B"))
        service = ShardedServingService(registry=trained.export_registry(),
                                        config=ServingConfig(),
                                        num_shards=2, clock=clock)
        obs.enable()
        for split in splits.values():
            for record in split.test_records[:5]:
                service.predict(record)
        with ObsServer(service, clock=clock) as running:
            yield running, service, clock

    def test_metrics_merges_shards_into_one_fleet_view(self, server):
        running, service, clock = server
        status, content_type, body = _get(running.url + "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain; version=0.0.4")
        assert "# TYPE repro_requests_total counter" in body
        line = next(l for l in body.splitlines()
                    if l.startswith("repro_requests_total "))
        per_shard = sum(shard.telemetry.counter("requests_total")
                        for shard in service.shards)
        assert float(line.split()[1]) == float(
            service.telemetry.counter("requests_total") + per_shard)

    def test_healthz_reports_buildings_and_shards(self, server):
        running, service, clock = server
        clock.advance(1.0)
        status, _, body = _get(running.url + "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "healthy"
        assert set(payload["buildings"]) == {"bldg-A", "bldg-B"}
        assert set(payload["shards"]) == {
            f"shard{shard.index}" for shard in service.shards}
        for card in payload["shards"].values():
            assert {"buildings", "queue_depth"} <= card["metrics"].keys()

    def test_slo_and_spans_and_unknown_path(self, server):
        running, service, clock = server
        status, _, body = _get(running.url + "/slo")
        payload = json.loads(body)
        assert status == 200 and payload["ok"]
        assert [o["name"] for o in payload["objectives"]] == [
            "request_latency_p95", "routing_rejections"]

        status, content_type, body = _get(running.url + "/spans?limit=4")
        assert status == 200 and content_type.startswith("application/jsonl")
        lines = [json.loads(line) for line in body.splitlines()]
        assert 0 < len(lines) <= 4
        assert all("trace_id" in span and "name" in span for span in lines)

        status, _, body = _get(running.url + "/nope")
        assert status == 404
        assert json.loads(body)["endpoints"] == [
            "/metrics", "/healthz", "/slo", "/spans"]


class TestPipelineIncidentAcceptance:
    """Drift + latency spike → unhealthy + burn-rate alert → swap → healthy."""

    #: Deliberately high labeled-records floor: drift latches during the
    #: unlabeled churn phase but the retrain stays pending until the
    #: recovery phase streams labeled records — holding the degraded
    #: state open long enough to scrape it.
    STREAM_CONFIG = StreamConfig(
        window=WindowConfig(max_records=32),
        drift=DriftConfig(vocabulary_jaccard_min=0.6, min_window_macs=8),
        scheduler=SchedulerConfig(min_window_records=16,
                                  min_labeled_records=8, warm_start=False))

    def _churn_rename(self, split):
        macs = sorted({mac for record in split.test_records
                       for mac in record.rss})
        return {mac: f"{mac}-new" for mac in macs[: len(macs) // 2]}

    def test_incident_flips_health_and_fires_alert_then_recovers(
            self, caplog):
        clock = FakeClock()
        service, splits = train_service()
        split = splits["bldg-A"]
        pipeline = ContinuousLearningPipeline(service, self.STREAM_CONFIG,
                                              clock=clock)
        obs.enable()
        with ObsServer(pipeline=pipeline, clock=clock) as server:
            # ---- phase 1: healthy, unlabeled traffic ----------------------
            for record in stream_records(split, 30, prefix="ok-", jitter=2.5,
                                         label_every=10 ** 6):
                pipeline.process(record)
                clock.advance(1.0)
            status, _, body = _get(server.url + "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "healthy"
            status, _, body = _get(server.url + "/slo")
            assert json.loads(body)["alerting"] == []

            # ---- phase 2: the incident -----------------------------------
            # AP churn (still unlabeled: the retrain cannot run yet)...
            latched = False
            churn = stream_records(split, 64, prefix="bad-", jitter=2.5,
                                   label_every=10 ** 6, rng_seed=1,
                                   rename=self._churn_rename(split))
            for record in churn:
                result = pipeline.process(record)
                clock.advance(1.0)
                if any(e.kind.value == "mac_churn"
                       for e in result.drift_events):
                    latched = True
                    break
            assert latched, "AP churn never latched the drift detector"
            # ...plus an injected latency spike and a rejection storm.
            for _ in range(10):
                service.shard_for("bldg-A").telemetry.observe(
                    "request_seconds", 2.0)
                clock.advance(1.0)
            for index in range(40):
                rejected = service.submit(_alien(index))
                assert rejected is not None and rejected.source == "rejected"
                clock.advance(1.0)

            status, _, body = _get(server.url + "/healthz")
            payload = json.loads(body)
            assert status == 503, "unhealthy fleet must fail HTTP probes"
            assert payload["status"] == "unhealthy"
            card = payload["buildings"]["bldg-A"]
            assert card["status"] == "unhealthy"
            reasons = {reason["code"]: reason for reason in card["reasons"]}
            assert "drift_latched:mac_churn" in reasons
            assert reasons["tail_latency"]["severity"] == "unhealthy"
            assert (reasons["tail_latency"]["value"]
                    > reasons["tail_latency"]["threshold"])
            assert reasons["retrain_pending"]["severity"] == "info"

            with caplog.at_level(logging.INFO, logger=LOGGER_NAME):
                status, _, body = _get(server.url + "/slo")
            payload = json.loads(body)
            assert not payload["ok"]
            assert "routing_rejections" in payload["alerting"]
            events = [json.loads(r.message) for r in caplog.records]
            fired = [e for e in events if e["event"] == "slo_burn_rate_alert"]
            assert fired and fired[0]["objective"] == "routing_rejections"
            caplog.clear()

            _, _, body = _get(server.url + "/metrics")
            line = next(l for l in body.splitlines()
                        if l.startswith("repro_rejections_total "))
            assert float(line.split()[1]) >= 40.0
            _, _, body = _get(server.url + "/spans")
            assert body.splitlines(), "tracer saw no spans during the incident"

            # ---- phase 3: labeled records unblock the retrain + hot swap --
            swapped = False
            for record in stream_records(split, 64, prefix="fix-", jitter=2.5,
                                         label_every=2, rng_seed=2,
                                         rename=self._churn_rename(split)):
                result = pipeline.process(record)
                clock.advance(1.0)
                if result.retrain is not None and result.retrain.swapped:
                    swapped = True
                    break
            assert swapped, "labeled churn records never triggered the swap"
            assert pipeline.drift.latched_kinds("bldg-A") == ()

            # Once the incident leaves every trailing window, the verdict
            # and the alert both recover.
            clock.advance(3700.0)
            status, _, body = _get(server.url + "/healthz")
            payload = json.loads(body)
            assert status == 200
            assert payload["status"] == "healthy"
            assert payload["buildings"]["bldg-A"]["reasons"] == []
            assert ("last_swap_age_seconds"
                    in payload["buildings"]["bldg-A"]["metrics"])
            with caplog.at_level(logging.INFO, logger=LOGGER_NAME):
                _, _, body = _get(server.url + "/slo")
            payload = json.loads(body)
            assert payload["alerting"] == []
            events = [json.loads(r.message) for r in caplog.records]
            assert any(e["event"] == "slo_burn_rate_resolved" for e in events)


class TestServerLifecycle:
    def test_start_and_close_are_idempotent(self):
        service, _ = train_service()
        server = ObsServer(service)
        try:
            assert server.start() is server.start()
            port = server.port
            assert port > 0 and server.url.endswith(str(port))
        finally:
            server.close()
            server.close()
        # The port is released: a fresh server can bind it right back.
        rebound = ObsServer(service, port=port)
        try:
            rebound.start()
            assert rebound.port == port
        finally:
            rebound.close()

    def test_requires_a_service_or_pipeline(self):
        with pytest.raises(ValueError):
            ObsServer()


class TestRuntimeCounterExport:
    def test_metrics_includes_delta_sampler_counters_when_enabled(self):
        """One scrape covers the core delta-sampler counters: the runtime
        registry (where ``SamplerCache`` records through
        ``metric_increment``) is merged into the ``/metrics`` payload
        whenever observability is enabled."""
        service, _ = train_service()
        server = ObsServer(service)  # not started: render directly
        obs.enable()
        try:
            obs.metric_increment("delta_sampler_hits_total", 7)
            obs.metric_increment("delta_sampler_rebuilds_total", 2)
            body = server.render_metrics()
        finally:
            obs.disable()
        hits = next(l for l in body.splitlines()
                    if l.startswith("repro_delta_sampler_hits_total "))
        rebuilds = next(l for l in body.splitlines()
                        if l.startswith("repro_delta_sampler_rebuilds_total "))
        assert float(hits.split()[1]) == 7.0
        assert float(rebuilds.split()[1]) == 2.0
        # Disabled again: the runtime registry is gone from the payload.
        assert "delta_sampler" not in server.render_metrics()
