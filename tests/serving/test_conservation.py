"""Request conservation: every request resolves exactly once.

``telemetry_snapshot()`` documents ``requests_total == predictions_total +
rejections_total + pending``.  The identity must hold after every serving
operation — including calls the service refuses — at any shard count.
"""

from __future__ import annotations

import pytest
from serving_helpers import FakeClock, clone_registry

from repro import SignalRecord, faults
from repro.core.inference import UnknownEnvironmentError
from repro.faults import FaultPlan
from repro.serving import FloorServingService, ServingConfig

ALIEN = SignalRecord(record_id="alien", rss={"mars-ap": -50.0})


def assert_conserved(service: FloorServingService) -> None:
    counters = service.telemetry_snapshot()["counters"]
    assert counters.get("requests_total", 0) == (
        counters.get("predictions_total", 0)
        + counters.get("rejections_total", 0)
        + service.pending_count), counters


@pytest.mark.parametrize("num_shards", [1, 3])
def test_requests_equal_predictions_plus_rejections_plus_pending(
        serving_corpus, num_shards):
    registry, held_out, _ = serving_corpus
    clock = FakeClock()
    service = FloorServingService(registry=clone_registry(registry),
                                  config=ServingConfig(max_batch_size=100,
                                                       max_delay_seconds=0.05),
                                  num_shards=num_shards, clock=clock)
    north, south = held_out["bldg-north"], held_out["bldg-south"]

    # predict_batch, served.
    service.predict_batch(north[:3] + south[:3])
    assert_conserved(service)

    # predict_batch refused by routing: the alien sits mid-batch.
    with pytest.raises(UnknownEnvironmentError):
        service.predict_batch([north[3], ALIEN, south[3]])
    assert_conserved(service)

    # predict_batch refused by a building vanishing between routing and
    # dispatch (with 3 shards, the south slice is served before the north
    # slice fails).
    shard = service.shard_for("bldg-north")
    model = service.model_for("bldg-north")
    vocabulary = service.vocabulary_for("bldg-north")
    shard.registry.remove_building("bldg-north")
    with pytest.raises(UnknownEnvironmentError, match="evicted"):
        service.predict_batch([south[4], north[4]])
    assert_conserved(service)
    shard.registry.install_model("bldg-north", model, vocabulary=vocabulary)

    # submit: cache hit, miss (queued) and rejection.
    hit = service.submit(SignalRecord(record_id="twin", rss=dict(north[0].rss)))
    assert hit is not None and hit.source == "cache"
    assert_conserved(service)
    assert service.submit(north[5]) is None
    assert service.pending_count == 1
    assert_conserved(service)
    rejected = service.submit(ALIEN)
    assert rejected is not None and rejected.source == "rejected"
    assert_conserved(service)

    # poll before and after the deadline, then drain.
    service.poll()
    assert_conserved(service)
    clock.advance(0.06)
    assert [r.source for r in service.poll()] == ["batch"]
    assert_conserved(service)
    service.submit(north[6])
    service.submit(south[6])
    assert len(service.drain()) == 2
    assert_conserved(service)

    # Eviction with queued work: the queued request becomes a rejection.
    assert service.submit(south[7]) is None
    service.evict_building("bldg-south")
    assert_conserved(service)
    assert [r.source for r in service.drain()] == ["rejected"]
    assert_conserved(service)

    # A hot swap whose vocabulary no longer attributes a queued request
    # re-routes it into a rejection.
    assert service.submit(north[7]) is None
    service.install_building("bldg-north", model,
                             vocabulary=["not-a-real-ap"])
    assert service.pending_count == 0
    assert_conserved(service)
    assert [r.source for r in service.drain()] == ["rejected"]
    assert_conserved(service)


@pytest.mark.parametrize("num_shards", [1, 3])
def test_compute_fault_in_dispatch_rejects_the_batch(serving_corpus,
                                                     num_shards):
    """A fault at ``serve.compute`` during a micro-batch dispatch rejects
    that batch; the other released batches are still dispatched."""
    registry, held_out, _ = serving_corpus
    service = FloorServingService(registry=clone_registry(registry),
                                  config=ServingConfig(max_batch_size=100,
                                                       max_delay_seconds=0.05),
                                  num_shards=num_shards, clock=FakeClock())
    queued = held_out["bldg-north"][:2] + held_out["bldg-south"][:2]
    for record in queued:
        assert service.submit(record) is None
    assert_conserved(service)

    plan = FaultPlan(seed=0).fail("serve.compute", hits=[1])
    with faults.active(plan):
        results = service.drain()
    assert plan.fired
    assert len(results) == len(queued)
    sources = sorted(r.source for r in results)
    assert sources == ["batch", "batch", "rejected", "rejected"]
    assert all("serve.compute" in r.error for r in results
               if r.source == "rejected")
    assert service.pending_count == 0
    assert_conserved(service)
