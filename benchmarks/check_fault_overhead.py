"""Disabled-failpoint overhead smoke: fault injection off must cost ~nothing.

The failpoint sites compiled into the serving and persistence hot paths
(``serve.compute``, ``checkpoint.write``, ...) follow the observability
layer's null-path discipline: with no plan installed, ``failpoints.fire``
is one module-global read and an ``is None`` check — no allocation, no
lock, no dict lookup.  Two checks enforce that, both machine-independent
(same-process A/B comparisons, never an absolute number against a stored
baseline):

1. **Micro**: a disabled ``failpoints.fire`` call must cost well under a
   microsecond-scale budget.
2. **Macro**: the smoke-sized cold serving path with failpoints disabled
   must not be slower than the same path with a plan *armed* on an
   unrelated site beyond a generous noise margin.  The armed run does
   strictly more work per fire (plan lookup, hit counting under a lock),
   so a disabled run losing by more than the margin means the disabled
   path regressed.  Median over interleaved rounds, like
   ``check_obs_overhead.py``.

Run from CI after the chaos-drill smoke; exits non-zero on violation.
"""

from __future__ import annotations

import sys
import time
import timeit

from repro import faults
from repro.faults import FaultPlan

from bench_online_inference import SMOKE, measure_cold_serving
from overhead_ab import interleaved_ratio, smoke_cold_path

#: Per-call budget for a disabled ``failpoints.fire``.  Two orders of
#: magnitude above the measured cost (~60ns) so runner noise cannot trip
#: it, but far below an accidental allocation or lock acquisition.
MAX_DISABLED_FIRE_SECONDS = 5e-6

#: The disabled run must reach at least this fraction of the armed run's
#: throughput (disabled does strictly less work; margin absorbs noise).
MIN_DISABLED_OVER_ARMED = 0.7

#: Interleaved disabled/armed rounds the macro check medians over.
AB_ROUNDS = 5


def check_disabled_fire_cost() -> float:
    faults.uninstall()

    def body():
        faults.fire("serve.compute")

    per_call = min(timeit.repeat(body, repeat=5, number=20000)) / 20000
    print(f"disabled failpoint fire: {per_call * 1e9:.0f} ns/call "
          f"(budget {MAX_DISABLED_FIRE_SECONDS * 1e9:.0f} ns)")
    assert per_call < MAX_DISABLED_FIRE_SECONDS, (
        f"disabled failpoints.fire costs {per_call * 1e6:.2f}us per call; "
        "the null-path check has regressed")
    return per_call


def check_cold_path_ratio() -> float:
    dataset, model, probes = smoke_cold_path()

    def measure(armed: bool) -> float:
        if armed:
            # Armed on a site the cold serving path never reaches, and a
            # hit number it will never count to on the sites it does: the
            # plan machinery runs on every serve.compute fire but injects
            # nothing, isolating the bookkeeping cost.
            faults.install(FaultPlan().fail("retrain.fit",
                                            hits=[10 ** 9]))
        else:
            faults.uninstall()
        try:
            result = measure_cold_serving({"model": model}, dataset, probes,
                                          SMOKE["cold_predicts"])
        finally:
            faults.uninstall()
        return result["model"]["records_per_s"]

    return interleaved_ratio(
        lambda: measure(armed=False), lambda: measure(armed=True),
        rounds=AB_ROUNDS, floor=MIN_DISABLED_OVER_ARMED,
        label="cold path disabled/armed",
        failure="cold path with failpoints disabled lost to the armed run; "
                "the disabled failpoint path is doing real work")


def main() -> int:
    started = time.perf_counter()
    check_disabled_fire_cost()
    check_cold_path_ratio()
    print(f"fault-injection overhead smoke passed in "
          f"{time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
