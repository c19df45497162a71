"""Section V-A — cost of online inference against a full refit.

Paper: a new sample's embedding is learned with all other embeddings frozen,
which "is computationally inexpensive and can be done in real-time".

Reproduction: measure (a) the per-sample latency of the frozen-graph online
inference and (b) the cost of the naive alternative — refitting the whole
embedding with the new sample included — and check that online inference is
at least an order of magnitude cheaper.

Two checks ride along that the repository benchmark (``grafics_bench/``,
which times the cold path, serving and retrains) cannot make:

* the pooled cold path (``compute_workers=N``) reproduces the in-process
  predictions byte for byte;
* with ``--obs-artifacts DIR``, a traced cold run writes its spans (JSONL)
  and metrics snapshots (JSON and Prometheus text) to ``DIR``.

Run standalone (``--smoke`` for the CI-sized variant) or via pytest.
"""

from __future__ import annotations

import argparse
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
from repro.serving import FloorServingService, ServingConfig

from conftest import save_table

CONFIG = GraficsConfig(embedding=EmbeddingConfig(samples_per_edge=40.0, seed=0),
                       allow_unreachable_clusters=True)

FULL = {"records_per_floor": 100, "probes": 10, "cold_predicts": 150}
SMOKE = {"records_per_floor": 40, "probes": 5, "cold_predicts": 40}


def fitted(sizes: dict, dataset=None):
    """A campus building, its fitted model and held-out cold probes."""
    if dataset is None:
        dataset = three_story_campus_building(
            records_per_floor=sizes["records_per_floor"], seed=7)
    split = make_experiment_split(dataset, labels_per_floor=4, seed=0)
    model = GRAFICS(CONFIG).fit(list(split.train_records), split.labels)
    probes = [r.without_floor()
              for r in split.test_records[: sizes["probes"] * 2]]
    return dataset, split, model, probes


def cold_service(model, building_id: str,
                 workers: int = 0) -> FloorServingService:
    """A cache-less service, so every predict takes the cold path."""
    registry = MultiBuildingFloorService(CONFIG)
    registry.install_model(building_id, model)
    kwargs: dict = {"enable_cache": False, "compute_workers": workers}
    if workers:
        kwargs["compute_start_method"] = (
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
    return FloorServingService(registry=registry,
                               config=ServingConfig(**kwargs))


def check_pooled_identity(model, building_id: str, probes, records: int,
                          workers: int) -> None:
    """One cold batch through a ``workers``-process pool and in-process:
    the predictions must match byte for byte (per prediction: the pool's
    contract is identical values, not cross-record object sharing)."""
    batch = [replace(probes[i % len(probes)], record_id=f"pool-{i:05d}")
             for i in range(records)]
    expected = cold_service(model, building_id).predict_batch(batch)
    pooled = cold_service(model, building_id, workers=workers)
    try:
        got = pooled.predict_batch(batch)
    finally:
        pooled.close()
    assert len(got) == len(expected) and all(
        pickle.dumps(a) == pickle.dumps(b) for a, b in zip(got, expected)), (
        f"pooled predictions ({workers} workers) diverged from in-process")
    print(f"pooled cold batch of {records} with {workers} worker(s): "
          "byte-identical to in-process")


def dump_traced_cold_path(model, building_id: str, probes, records: int,
                          directory: str) -> None:
    """Trace ``records`` cold predicts and write spans and metrics."""
    tracer, metrics = obs.enable()
    try:
        service = cold_service(model, building_id)
        for i in range(records):
            service.predict(probes[i % len(probes)])
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        spans = tracer.export_jsonl(directory / "spans.jsonl")
        (directory / "metrics.json").write_text(metrics.to_json())
        (directory / "metrics.prom").write_text(metrics.to_prometheus_text())
    finally:
        obs.disable()
    print(f"traced cold path: {spans} spans written to {directory}")


def run(sizes, label, dataset=None, artifacts_dir: str | None = None,
        pool_workers: int | None = None) -> None:
    """Online inference vs full refit, then the pool and obs smokes."""
    if pool_workers is None:
        pool_workers = max(1, min(4, os.cpu_count() or 1))
    dataset, split, model, probes = fitted(sizes, dataset)

    # Reference: full embedding refit with one extra record.
    graph = build_graph(list(split.train_records) + [probes[0]])
    start = time.perf_counter()
    ELINEEmbedder(CONFIG.resolved_embedding_config()).fit(graph)
    full_refit_seconds = time.perf_counter() - start

    # Timed: full online predictions (overlay staging + frozen embedding +
    # nearest-centroid lookup; the model is never touched), averaged per
    # sample.
    start = time.perf_counter()
    for probe in probes[: sizes["probes"]]:
        model.predict(probe)
    online_seconds = (time.perf_counter() - start) / sizes["probes"]

    speedup = full_refit_seconds / max(online_seconds, 1e-9)
    save_table("online_inference_latency", [
        {"approach": "online frozen-graph embedding (seconds per sample)",
         "value": round(online_seconds, 4)},
        {"approach": "full embedding refit (seconds per sample)",
         "value": round(full_refit_seconds, 4)},
        {"approach": "speedup (x)", "value": round(speedup, 1)},
    ], columns=["approach", "value"],
        header=f"Section V-A — online inference vs full refit ({label})")
    assert online_seconds * 10 < full_refit_seconds

    check_pooled_identity(model, dataset.building_id, probes,
                          sizes["cold_predicts"], pool_workers)
    if artifacts_dir is not None:
        dump_traced_cold_path(model, dataset.building_id, probes,
                              sizes["cold_predicts"], artifacts_dir)


def test_online_inference_latency(campus_building):
    """Pytest entry point (full sizes, shared session dataset)."""
    run(FULL, "full", dataset=campus_building)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (seconds, not minutes)")
    parser.add_argument("--obs-artifacts", metavar="DIR", default=None,
                        help="write traced spans (JSONL) and metrics "
                             "snapshots from a traced cold-path run here")
    parser.add_argument("--pool-workers", type=int, default=None,
                        help="compute-pool workers for the pooled identity "
                             "check (default: min(4, cpu count))")
    args = parser.parse_args(argv)
    run(SMOKE if args.smoke else FULL, "smoke" if args.smoke else "full",
        artifacts_dir=args.obs_artifacts, pool_workers=args.pool_workers)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
