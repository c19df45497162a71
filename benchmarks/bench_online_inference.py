"""Section V-A — cost of online inference, plus the cold serving path.

Paper: a new sample's embedding is learned with all other embeddings frozen,
which "is computationally inexpensive and can be done in real-time".

Reproduction: measure (a) the per-sample latency of the frozen-graph online
inference and (b) the cost of the naive alternative — refitting the whole
embedding with the new sample included — and check that online inference is
at least an order of magnitude cheaper.

On top of the paper's comparison, the benchmark measures the *cold serving
path*: uncached predictions flowing through ``FloorServingService`` — route,
overlay-staged frozen embedding, nearest-centroid classify — which is the
per-record cost a production deployment pays for every fingerprint it has
not seen before.  The trajectory of that number across PRs is recorded in
``benchmarks/results/online_inference_history.jsonl`` (the cold path went
mutation-free in PR 5: overlay graphs instead of insert-embed-remove churn;
PR 10 added the process compute pool, measured here as a batched cold run
through ``compute_workers=N`` against the in-process path).

Run standalone (``--smoke`` for the CI-sized variant) or via pytest; both
print one machine-readable JSON summary line prefixed ``BENCH_JSON``, like
the other serving/stream benchmarks, so CI logs can be scraped for
regressions.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pickle
import time
from dataclasses import replace
from pathlib import Path

from repro.core import GRAFICS, GraficsConfig, EmbeddingConfig, build_graph
from repro.core.embedding import ELINEEmbedder
from repro.core.registry import MultiBuildingFloorService
from repro.data import make_experiment_split, three_story_campus_building
from repro.obs import runtime as obs
from repro.obs.tracer import stage_breakdown
from repro.serving import FloorServingService, ServingConfig

from conftest import save_table

CONFIG = GraficsConfig(embedding=EmbeddingConfig(samples_per_edge=40.0, seed=0),
                       allow_unreachable_clusters=True)

FULL = {"records_per_floor": 100, "probes": 10, "cold_predicts": 150}
SMOKE = {"records_per_floor": 40, "probes": 5, "cold_predicts": 40}


def measure_cold_serving(models: dict, dataset, probes, cold_predicts: int,
                         repeats: int = 3) -> dict:
    """Cold-path throughput of uncached predictions, one entry per model.

    The cache is disabled so every prediction takes the full cold path:
    routing, overlay-staged frozen embedding against the trained model and
    the nearest-centroid lookup.  This is the number the mutation-free
    online path (PR 5) targets.  All models are measured in *alternating*
    passes and each reports its best pass: the overhead checks A/B two
    arms through this function, and sequential blocks are at the mercy of
    host clock drift (sustained runs on the CI hosts have been observed to
    sag by tens of percent within seconds, which would systematically
    penalise whichever arm runs later).
    """
    services = {}
    for name, model in models.items():
        registry = MultiBuildingFloorService(CONFIG)
        registry.install_model(dataset.building_id, model)
        service = FloorServingService(registry=registry,
                                      config=ServingConfig(enable_cache=False))
        service.predict(probes[0])                # warm-up (engine, router)
        services[name] = service
    best: dict = {name: None for name in services}
    for _ in range(repeats):
        for name, service in services.items():
            start = time.perf_counter()
            for i in range(cold_predicts):
                service.predict(probes[i % len(probes)])
            seconds = time.perf_counter() - start
            if best[name] is None or seconds < best[name]:
                best[name] = seconds
    return {name: {"records": cold_predicts,
                   "seconds": round(seconds, 4),
                   "records_per_s": round(cold_predicts / seconds, 1)}
            for name, seconds in best.items()}


def measure_pool_cold_path(model, dataset, probes, cold_predicts: int,
                           workers: int, repeats: int = 3) -> dict:
    """Cold batched predictions through the compute pool vs in-process.

    Both services run the same uncached ``predict_batch`` workload — one
    miss group chunked across the pool's worker processes (PR 10) versus
    the single-threaded in-process compute path — in alternating best-of-N
    passes, same drift discipline as :func:`measure_cold_serving`.  Probe
    copies get unique record ids so every prediction is a distinct cold
    record, and the pooled output is checked byte-for-byte against the
    in-process reference (per prediction: the pool's contract is identical
    *values*, not identical cross-record object sharing).

    Snapshot shipping happens once per worker during the identity pass, so
    the timed passes see the steady state a long-lived deployment pays:
    dispatch + records over the pipe, compute in the worker, results back.
    """
    batch = [replace(probes[i % len(probes)], record_id=f"pool-{i:05d}")
             for i in range(cold_predicts)]
    start_method = ("fork"
                    if "fork" in multiprocessing.get_all_start_methods()
                    else "spawn")

    def make(num_workers: int) -> FloorServingService:
        registry = MultiBuildingFloorService(CONFIG)
        registry.install_model(dataset.building_id, model)
        kwargs: dict = {"enable_cache": False,
                        "compute_workers": num_workers}
        if num_workers:
            kwargs["compute_start_method"] = start_method
        return FloorServingService(registry=registry,
                                   config=ServingConfig(**kwargs))

    inproc = make(0)
    pooled = make(workers)
    try:
        expected = inproc.predict_batch(batch)    # warm-up + reference
        got = pooled.predict_batch(batch)         # ships snapshots
        identical = (len(got) == len(expected) and all(
            pickle.dumps(a) == pickle.dumps(b)
            for a, b in zip(got, expected)))
        best: dict = {"inproc": None, "pool": None}
        for _ in range(repeats):
            for name, service in (("inproc", inproc), ("pool", pooled)):
                start = time.perf_counter()
                service.predict_batch(batch)
                seconds = time.perf_counter() - start
                if best[name] is None or seconds < best[name]:
                    best[name] = seconds
    finally:
        pooled.close()
    return {"workers": workers,
            "start_method": start_method,
            "identical": identical,
            "records": cold_predicts,
            "seconds": round(best["pool"], 4),
            "records_per_s": round(cold_predicts / best["pool"], 1),
            "inprocess_records_per_s": round(cold_predicts / best["inproc"],
                                             1),
            "speedup": round(best["inproc"] / best["pool"], 2)}


def measure_traced_cold_path(model, dataset, probes, cold_predicts: int,
                             artifacts_dir: str | None = None) -> dict:
    """The cold serving path again, with the observability layer enabled.

    Reports throughput with tracing on (the overhead side of the ledger)
    plus the per-stage cost breakdown of the online path — alias-table
    build vs frozen SGD vs everything else — scraped from the tracer's
    aggregated spans, and how many full ``NegativeSampler`` builds each
    cold predict paid for (the ``embed.alias_build`` spans' ``negatives``
    attribute; the composed delta sampler should make it zero).  With
    ``artifacts_dir`` the raw spans (JSONL) and the metrics snapshot are
    written out for CI to archive.
    """
    tracer, metrics = obs.enable()
    try:
        registry = MultiBuildingFloorService(CONFIG)
        registry.install_model(dataset.building_id, model)
        service = FloorServingService(registry=registry,
                                      config=ServingConfig(enable_cache=False))
        service.predict(probes[0])                # warm-up (engine, router)
        tracer.drain()
        start = time.perf_counter()
        for i in range(cold_predicts):
            service.predict(probes[i % len(probes)])
        seconds = time.perf_counter() - start

        # Restrict to the embed.* leaf stages: their shares partition the
        # per-request embedding cost (parents like ``serving.request`` would
        # double-count their children and dilute every share).
        spans = tracer.spans()
        stages = stage_breakdown(spans, prefix="embed.")
        shares = {name: round(info["share"], 3)
                  for name, info in stages.items()}
        full_negative_builds = sum(
            1 for span in spans if span.name == "embed.alias_build"
            and span.attributes.get("negatives") == "full")
        if artifacts_dir is not None:
            directory = Path(artifacts_dir)
            directory.mkdir(parents=True, exist_ok=True)
            tracer.export_jsonl(directory / "spans.jsonl")
            (directory / "metrics.json").write_text(metrics.to_json())
            (directory / "metrics.prom").write_text(
                metrics.to_prometheus_text())
        return {"records": cold_predicts,
                "seconds": round(seconds, 4),
                "records_per_s": round(cold_predicts / seconds, 1),
                "stage_shares": shares,
                "full_negative_builds_per_predict":
                    full_negative_builds / cold_predicts}
    finally:
        obs.disable()


def run(sizes, label, dataset=None, artifacts_dir: str | None = None,
        pool_workers: int | None = None) -> dict:
    """Measure online inference vs full refit; print + persist the table."""
    if pool_workers is None:
        pool_workers = max(1, min(4, os.cpu_count() or 1))
    if dataset is None:
        dataset = three_story_campus_building(
            records_per_floor=sizes["records_per_floor"], seed=7)
    split = make_experiment_split(dataset, labels_per_floor=4, seed=0)
    model = GRAFICS(CONFIG).fit(list(split.train_records), split.labels)
    probes = [r.without_floor()
              for r in split.test_records[: sizes["probes"] * 2]]

    # Reference: full embedding refit with one extra record.
    graph = build_graph(list(split.train_records) + [probes[0]])
    start = time.perf_counter()
    ELINEEmbedder(CONFIG.resolved_embedding_config()).fit(graph)
    full_refit_seconds = time.perf_counter() - start

    # Timed: full online predictions (overlay staging + frozen embedding +
    # nearest-centroid lookup; the shared graph is never touched), averaged
    # per sample.
    start = time.perf_counter()
    for probe in probes[: sizes["probes"]]:
        model.predict(probe)
    online_seconds = (time.perf_counter() - start) / sizes["probes"]

    cold = measure_cold_serving({"model": model}, dataset, probes,
                                sizes["cold_predicts"])["model"]
    pool = measure_pool_cold_path(model, dataset, probes,
                                  sizes["cold_predicts"], pool_workers)
    traced = measure_traced_cold_path(model, dataset, probes,
                                      sizes["cold_predicts"],
                                      artifacts_dir=artifacts_dir)

    # Floor accuracy over the whole test split (not just the timing
    # probes); parity with the legacy rebuild route is gated in tier-1.
    scored_probes = [(r.without_floor(), r.floor) for r in split.test_records]
    hits = sum(model.predict(p).floor == floor for p, floor in scored_probes)
    accuracy = {"online": round(hits / len(scored_probes), 3),
                "records": len(scored_probes)}

    speedup = full_refit_seconds / max(online_seconds, 1e-9)
    rows = [
        {"approach": "online frozen-graph embedding (seconds per sample)",
         "value": round(online_seconds, 4)},
        {"approach": "full embedding refit (seconds per sample)",
         "value": round(full_refit_seconds, 4)},
        {"approach": "speedup (x)", "value": round(speedup, 1)},
        {"approach": "cold serving path (records/s)",
         "value": cold["records_per_s"]},
        {"approach": "cold serving path, tracing enabled (records/s)",
         "value": traced["records_per_s"]},
        {"approach": "alias-table build share of traced spans",
         "value": traced["stage_shares"].get("embed.alias_build", 0.0)},
        {"approach": f"pooled cold batch, {pool['workers']} worker(s) "
                     f"(records/s)",
         "value": pool["records_per_s"]},
        {"approach": "pool-vs-in-process batch speedup (x)",
         "value": pool["speedup"]},
    ]
    save_table("online_inference_latency", rows,
               columns=["approach", "value"],
               header=f"Section V-A — online inference vs full refit ({label})")
    summary = {"benchmark": "online_inference", "mode": label,
               "online_seconds_per_sample": round(online_seconds, 6),
               "full_refit_seconds": round(full_refit_seconds, 4),
               "speedup": round(speedup, 1),
               "cold_path": cold,
               "traced_cold_path": traced,
               "pool_cold_path": {key: pool[key]
                                  for key in ("records", "seconds",
                                              "records_per_s",
                                              "inprocess_records_per_s")},
               "pool_workers": pool["workers"],
               "pool_speedup": pool["speedup"],
               "floor_accuracy": accuracy}
    print("BENCH_JSON " + json.dumps(summary))

    assert online_seconds * 10 < full_refit_seconds
    # Tracing must report where the online path spends its time.  The
    # composed delta sampler skips the per-predict O(V) negative alias
    # build, so the alias-table share stays small; count the skipped builds
    # directly instead of gating on a wall-clock ratio.
    assert traced["stage_shares"].get("embed.alias_build", 1.0) < 0.08
    assert traced["full_negative_builds_per_predict"] == 0.0, traced
    # Pool correctness is non-negotiable: chunked multi-process compute
    # must reproduce the in-process bytes exactly.  The speed floors are
    # deliberately loose — this container has a single CPU, so workers=1
    # only has to show the dispatch overhead is modest; a genuinely
    # parallel host (spare core per worker) must show real speedup.
    assert pool["identical"], "pooled predictions diverged from in-process"
    if pool["workers"] == 1:
        assert pool["speedup"] >= 0.7, pool
    elif (os.cpu_count() or 1) > pool["workers"] and pool["records"] >= 100:
        # Full-size batch on a host with a spare core per worker: the pool
        # must pay for itself.  Smoke batches are too small to amortise
        # dispatch, so they only get the sanity floor below.
        assert pool["speedup"] >= 1.2, pool
    else:
        assert pool["speedup"] >= 0.6, pool
    return summary


def test_online_inference_latency(campus_building):
    """Pytest entry point (full sizes, shared session dataset)."""
    run(FULL, "full", dataset=campus_building)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (seconds, not minutes)")
    parser.add_argument("--obs-artifacts", metavar="DIR", default=None,
                        help="write traced spans (JSONL) and metrics "
                             "snapshots from the traced cold-path run here")
    parser.add_argument("--pool-workers", type=int, default=None,
                        help="compute-pool workers for the pooled cold-path "
                             "measurement (default: min(4, cpu count))")
    args = parser.parse_args(argv)
    run(SMOKE if args.smoke else FULL, "smoke" if args.smoke else "full",
        artifacts_dir=args.obs_artifacts, pool_workers=args.pool_workers)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
