"""Observability: tracing a drift -> retrain -> hot-swap lifecycle.

Run with:  python examples/observability_demo.py

The same AP-churn scenario as ``continuous_campus.py``, but with the
observability layer switched on: a :class:`~repro.obs.SpanTracer` collects
parent/child spans across serving, online inference and the retrain
executor, structured JSON lifecycle events go to the ``repro.obs`` logger,
and every subsystem's counters land in one :class:`~repro.obs.
MetricsRegistry`.  At the end the demo prints

* the span tree of one traced online prediction,
* the per-stage cost breakdown of the embedding work (alias build vs
  sampling vs kernel — the profiling query behind the ROADMAP's
  "alias-table build is a fixed per-request cost" observation),
* the full registry in Prometheus text exposition format, and
* the live consumption layer: an :class:`~repro.obs.ObsServer` on an
  ephemeral port scraped over real HTTP — ``/metrics`` and ``/healthz``
  while the building is healthy, then again after an injected latency
  anomaly flips its scorecard to ``unhealthy`` with machine-readable
  reasons — plus the critical path of the traced request.

Everything here is stdlib + the already-installed scientific stack; the
observability layer adds no dependencies and is off by default (the
``obs.enable()`` call below is the only switch).
"""

from __future__ import annotations

import json
import logging
import random
import urllib.error
import urllib.request

from repro import (
    ContinuousLearningPipeline,
    EmbeddingConfig,
    FloorServingService,
    GraficsConfig,
    SignalRecord,
    StreamConfig,
)
from repro.data import make_experiment_split, small_test_building
from repro.obs import ObsServer
from repro.obs import runtime as obs
from repro.obs.tracer import format_span_tree, stage_breakdown
from repro.stream import DriftConfig, SchedulerConfig, WindowConfig


def fetch(url):
    """GET returning (status, body) — a 503 health probe is data, not an error."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


def make_stream(split, count, prefix, rename=None, seed=0):
    """Unique stream records synthesized from a building's held-out samples."""
    rng = random.Random(seed)
    pool = list(split.test_records)
    for i in range(count):
        base = pool[i % len(pool)]
        rss = {(rename or {}).get(mac, mac): value + rng.uniform(-2.5, 2.5)
               for mac, value in base.rss.items()}
        yield SignalRecord(record_id=f"{prefix}{i:05d}", rss=rss,
                           floor=base.floor if i % 3 == 0 else None)


def main() -> None:
    # Lifecycle events (drift latched, hot swap installed, retrain fenced
    # stale...) are single-line JSON records on the 'repro.obs' logger; any
    # stdlib logging config picks them up.
    logging.basicConfig(format="%(name)s: %(message)s")
    logging.getLogger("repro.obs").setLevel(logging.INFO)

    # The one switch: installs a process-global tracer + metrics registry.
    # Without this call every instrumentation point is a no-op singleton.
    tracer, metrics = obs.enable()

    config = GraficsConfig(embedding=EmbeddingConfig(samples_per_edge=10.0,
                                                     seed=0),
                           allow_unreachable_clusters=True)
    service = FloorServingService(grafics_config=config)
    dataset = small_test_building(num_floors=3, records_per_floor=30,
                                  aps_per_floor=10, seed=7,
                                  building_id="science-wing")
    split = make_experiment_split(dataset, labels_per_floor=4, seed=0)
    service.fit_building(dataset.subset(split.train_records), split.labels)

    pipeline = ContinuousLearningPipeline(service, StreamConfig(
        window=WindowConfig(max_records=96),
        drift=DriftConfig(vocabulary_jaccard_min=0.6),
        scheduler=SchedulerConfig(min_window_records=48, warm_start=True)))

    # Steady traffic, then an overnight AP swap that latches the
    # MAC-churn drift detector and triggers a traced retrain + hot swap.
    for record in make_stream(split, 120, "steady-"):
        pipeline.process(record)
    macs = sorted({m for r in split.test_records for m in r.rss})
    rename = {mac: f"{mac}:v2" for mac in macs[: len(macs) // 2]}
    print(f"\nreplacing {len(rename)} of {len(macs)} APs; watch the "
          "drift_latched / hot_swap_installed events above this line...\n")
    for record in make_stream(split, 300, "churn-", rename=rename, seed=1):
        if pipeline.process(record).swapped:
            break

    # One traced online prediction through the micro-batched intake (whose
    # results carry the request/trace ID): drain the span buffer first so
    # the tree below shows exactly this request.
    tracer.drain()
    probe = SignalRecord(record_id="traced-probe",
                         rss={f"{mac}:v2": -55.0 for mac in list(rename)[:5]})
    service.submit(probe)
    (result,) = service.drain()
    print(f"traced prediction: floor {result.prediction.floor} "
          f"(request id {result.trace_id})\n")

    print("span tree of that request:")
    print(format_span_tree(tracer.spans()))

    print("\nembedding stage breakdown (share of embedding time):")
    for name, info in stage_breakdown(tracer.spans(),
                                      prefix="embed.").items():
        print(f"  {name:<20} {info['share']:6.1%}  "
              f"({info['seconds'] * 1e3:.2f} ms over {info['count']} spans)")

    print("\nmetrics registry (Prometheus text exposition), service view "
          "merged with the stream/training counters:")
    print(service.telemetry.merged_snapshot([metrics])["counters"])
    print()
    print(metrics.to_prometheus_text())

    # Where did that request's wall time actually go?  The critical path
    # walks the slowest child chain and attributes self-time per span.
    trace_id = tracer.spans()[-1].trace_id
    print("critical path of the traced request:")
    for step in tracer.critical_path(trace_id):
        print(f"  {step['name']:<24} {step['duration_seconds'] * 1e3:8.3f} ms "
              f"(self {step['self_seconds'] * 1e3:.3f} ms)")

    # A little warm-cache traffic (repeat probes hit the fingerprint
    # cache), so the baseline scorecard is healthy rather than flagging
    # the all-unique stream above as a 0% cache hit rate.
    for _ in range(8):
        service.predict(probe)

    # ---- the live consumption layer: health & SLOs over real HTTP ------
    with ObsServer(pipeline=pipeline) as server:
        print(f"\nObsServer listening on {server.url} "
              "(/metrics /healthz /slo /spans)")
        _, body = fetch(server.url + "/metrics")
        families = [line for line in body.splitlines()
                    if line.startswith("# TYPE")]
        print(f"/metrics: {len(families)} metric families, "
              f"{len(body.splitlines())} samples")
        status, body = fetch(server.url + "/healthz")
        report = json.loads(body)
        print(f"/healthz: HTTP {status}, fleet is "
              f"{report['status']!r}, building science-wing is "
              f"{report['buildings']['science-wing']['status']!r}")

        # Inject a latency anomaly: the p95 over the trailing window blows
        # past the outage threshold and the scorecard flips — with the
        # machine-readable reason an operator (or rebalancer) acts on.
        print("\ninjecting a 2 s tail-latency anomaly...")
        for _ in range(12):
            service.shard_for("science-wing").telemetry.observe(
                "request_seconds", 2.0)
        status, body = fetch(server.url + "/healthz")
        report = json.loads(body)
        card = report["buildings"]["science-wing"]
        print(f"/healthz: HTTP {status}, building science-wing is now "
              f"{card['status']!r}:")
        for reason in card["reasons"]:
            print(f"  [{reason['severity']}] {reason['code']}: "
                  f"{reason['detail']}")
        _, body = fetch(server.url + "/slo")
        slo = json.loads(body)
        print(f"/slo: ok={slo['ok']}, objectives: "
              + ", ".join(f"{o['name']}={'ok' if o['ok'] else 'VIOLATED'}"
                          for o in slo["objectives"]))

    obs.disable()


if __name__ == "__main__":
    main()
