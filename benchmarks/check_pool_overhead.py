"""Pool guardrail smoke: workers=0 untouched, workers=1 ships once.

Two checks, both independent of how fast or busy the host is:

1. **Disabled path**: ``compute_workers=0`` (the default) must build no
   pool at all — ``service.compute_pool is None``, no pool key in the
   telemetry snapshot, and no ``compute_pool_*`` counters minted.  The
   opt-out is structural, not a runtime branch that could still pay.
2. **Dispatch**: N sequential single-record cold predicts through
   ``compute_workers=1`` ship the model snapshot once
   (``compute_pool_snapshot_ships_total``) and dispatch once per predict
   (``compute_pool_dispatch_total``).  One record per request is the
   pool's worst case; a pool that re-ships its snapshot, or splits a
   record into several round trips, pays that on every request.

Run from CI after the benchmark smokes; exits non-zero on violation.
"""

from __future__ import annotations

import sys
import time

from bench_online_inference import SMOKE, cold_service, fitted


def check_disabled_path(model, dataset, probes) -> None:
    service = cold_service(model, dataset.building_id)
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


def check_sequential_dispatch(model, dataset, probes) -> None:
    predicts = SMOKE["cold_predicts"]
    pooled = cold_service(model, dataset.building_id, workers=1)
    try:
        for i in range(predicts):
            pooled.predict(probes[i % len(probes)])
        counters = pooled.telemetry_snapshot()["counters"]
    finally:
        pooled.close()
    ships = counters.get("compute_pool_snapshot_ships_total", 0)
    dispatches = counters.get("compute_pool_dispatch_total", 0)
    print(f"{predicts} sequential cold predicts, compute_workers=1: "
          f"{ships} snapshot ship(s), {dispatches} dispatches")
    assert ships == 1, (
        f"the unchanged model shipped {ships} times over {predicts} "
        "predicts; a worker must keep its snapshot")
    assert dispatches == predicts, (
        f"{dispatches} dispatches for {predicts} single-record predicts")


def main() -> int:
    started = time.perf_counter()
    dataset, _, model, probes = fitted(SMOKE)
    check_disabled_path(model, dataset, probes)
    check_sequential_dispatch(model, dataset, probes)
    print(f"pool overhead smoke passed in "
          f"{time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
