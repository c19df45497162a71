"""Disabled-failpoint smoke: fault injection off must cost ~nothing.

The failpoint sites compiled into the serving and persistence hot paths
(``serve.compute``, ``checkpoint.write``, ...) follow the observability
layer's null-path discipline: with no plan installed, ``failpoints.fire``
is one module-global read and an ``is None`` check — no allocation, no
lock, no dict lookup.  Two checks enforce that, both independent of how
fast or busy the host is:

1. **Micro**: a disabled ``failpoints.fire`` call must cost well under a
   microsecond-scale budget.
2. **Structural**: with no plan installed, cold serving predicts and two
   checkpoint writes (a model registry and a stream state) make no call
   into ``repro/faults/plan.py``, and ``failpoints.py`` calls no C function
   (a lock's ``__exit__``, a ``dict.get``, a clock) on their behalf,
   counted with ``sys.setprofile``.

Run from CI after the chaos-drill smoke; exits non-zero on violation.
"""

from __future__ import annotations

import sys
import tempfile
import time
import timeit
from pathlib import Path

from repro import faults
from repro.core.persistence import save_registry, save_stream_state
from repro.faults import failpoints

from bench_online_inference import SMOKE, cold_service, fitted
from check_obs_overhead import profile_calls

#: Per-call budget for a disabled ``failpoints.fire``.  Two orders of
#: magnitude above the measured cost (~60ns) so runner noise cannot trip
#: it, but far below an accidental allocation or lock acquisition.
MAX_DISABLED_FIRE_SECONDS = 5e-6


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


def check_uninstalled_failpoints(dataset, model, probes) -> None:
    package = Path(failpoints.__file__).parent
    service = cold_service(model, dataset.building_id)
    service.predict(probes[0])                    # warm-up (engine, router)

    def serve_and_checkpoint():
        for probe in probes:
            service.predict(probe)
        with tempfile.TemporaryDirectory() as directory:
            save_registry(service.export_registry(), directory)
            save_stream_state({"probes": len(probes)},
                              Path(directory) / "stream.json")

    faults.uninstall()
    calls, c_calls = profile_calls(serve_and_checkpoint, package)
    fires = calls["failpoints.py:fire"]
    plan_calls = {name: count for name, count in calls.items()
                  if name.startswith("plan.py:")}
    null_path_work = {name: count for name, count in c_calls.items()
                      if name.startswith("failpoints.py:")}
    print(f"{len(probes)} cold predicts + 2 checkpoint writes, no plan: "
          f"{fires} fires, plan calls {plan_calls or 'none'}, C calls in "
          f"failpoints.py {null_path_work or 'none'}")
    # One serve.compute per predict, one checkpoint.write per write.
    assert fires >= len(probes) + 2, (
        f"only {fires} failpoint fires; the work no longer reaches its "
        "sites and this check would guard nothing")
    assert not plan_calls, (
        f"uninstalled failpoints called into the fault plan: {plan_calls}")
    assert not null_path_work, (
        f"uninstalled failpoints.fire did real work: {null_path_work}")


def main() -> int:
    started = time.perf_counter()
    check_disabled_fire_cost()
    dataset, _, model, probes = fitted(SMOKE)
    check_uninstalled_failpoints(dataset, model, probes)
    print(f"fault-injection overhead smoke passed in "
          f"{time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
