"""Pool guardrail smoke: workers=0 untouched, workers=1 overhead bounded.

Two checks, both machine-independent (they compare measurements taken in
the same process moments apart, never an absolute number against a
recorded baseline — CI runners and the reference container differ too
much for that):

1. **Disabled path**: ``compute_workers=0`` (the default) must build no
   pool at all — ``service.compute_pool is None``, no pool key in the
   telemetry snapshot, and no ``compute_pool_*`` counters minted.  The
   opt-out is structural, not a runtime branch that could still pay.
2. **Dispatch overhead**: the *sequential single-record* cold path with
   ``compute_workers=1`` must reach at least ``MIN_POOLED_OVER_INPROCESS``
   of the in-process throughput.  One record per request is the pool's
   worst case — every predict pays a full dispatch round trip (pickle the
   record over the pipe, compute, pickle the prediction back) with zero
   batching to amortise it — so this is the honest upper bound on the
   per-request tax.  The ratio is the *median over several interleaved
   in-process/pooled rounds* (see ``overhead_ab.py``).

Run from CI after the benchmark smokes; exits non-zero on violation.
"""

from __future__ import annotations

import multiprocessing
import sys
import time

from repro.core.registry import MultiBuildingFloorService
from repro.serving import FloorServingService, ServingConfig

from bench_online_inference import CONFIG, SMOKE
from overhead_ab import interleaved_ratio, smoke_cold_path

#: The pooled sequential cold path must reach this fraction of in-process
#: throughput (acceptance line: workers=1 dispatch overhead <= 25% on the
#: single-CPU reference container).
MIN_POOLED_OVER_INPROCESS = 0.75

#: Interleaved in-process/pooled rounds the ratio check medians over.
AB_ROUNDS = 5


def _service(model, building_id: str, workers: int) -> FloorServingService:
    registry = MultiBuildingFloorService(CONFIG)
    registry.install_model(building_id, model)
    kwargs: dict = {"enable_cache": False, "compute_workers": workers}
    if workers:
        kwargs["compute_start_method"] = (
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
    return FloorServingService(registry=registry,
                               config=ServingConfig(**kwargs))


def check_disabled_path(model, dataset, probes) -> None:
    service = _service(model, dataset.building_id, workers=0)
    assert service.compute_pool is None, (
        "compute_workers=0 must not construct a ComputePool")
    service.predict(probes[0])
    snapshot = service.telemetry_snapshot()
    assert "compute_pool" not in snapshot, (
        "disabled pool leaked a compute_pool telemetry section")
    counters = snapshot.get("counters", {})
    leaked = [name for name in counters if name.startswith("compute_pool_")]
    assert not leaked, f"disabled pool minted counters: {leaked}"
    print("disabled path: compute_workers=0 builds no pool, no pool "
          "telemetry")


def check_dispatch_overhead(model, dataset, probes) -> float:
    cold_predicts = SMOKE["cold_predicts"]
    inproc = _service(model, dataset.building_id, workers=0)
    pooled = _service(model, dataset.building_id, workers=1)
    try:
        # Warm-up: engine build in-process, snapshot ship + engine rebuild
        # in the worker.  Steady state is what the ratio is about.
        inproc.predict(probes[0])
        pooled.predict(probes[0])

        def measure(service: FloorServingService) -> float:
            start = time.perf_counter()
            for i in range(cold_predicts):
                service.predict(probes[i % len(probes)])
            return cold_predicts / (time.perf_counter() - start)

        return interleaved_ratio(
            lambda: measure(pooled), lambda: measure(inproc),
            rounds=AB_ROUNDS, floor=MIN_POOLED_OVER_INPROCESS,
            label="sequential cold path pooled/in-process",
            failure="workers=1 sequential dispatch overhead exceeded "
                    "budget; per-request dispatch got expensive")
    finally:
        pooled.close()


def main() -> int:
    started = time.perf_counter()
    dataset, model, probes = smoke_cold_path()
    check_disabled_path(model, dataset, probes)
    check_dispatch_overhead(model, dataset, probes)
    print(f"pool overhead smoke passed in "
          f"{time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
