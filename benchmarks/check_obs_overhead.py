"""Disabled-path overhead smoke: observability off must cost ~nothing.

Two checks, both machine-independent (they compare two measurements taken
in the same process moments apart, never an absolute number against a
recorded baseline — CI runners and the reference container differ too much
for that):

1. **Micro**: a ``with obs.span(...)`` block while disabled must cost well
   under a microsecond-scale budget per call — it is two attribute calls on
   a shared singleton, no allocation, no clock read.
2. **Macro**: the smoke-sized cold serving path with observability disabled
   must not be slower than the same path with full tracing enabled beyond a
   generous noise margin.  Tracing does strictly more work, so a disabled
   run that loses to a traced run by more than the margin means the
   disabled path regressed (e.g. an instrumentation point started
   allocating or reading a clock unconditionally).  The ratio is the
   *median over several interleaved disabled/traced rounds* (see
   ``overhead_ab.py``).

Run from CI after the benchmark smokes; exits non-zero on violation.
"""

from __future__ import annotations

import sys
import time
import timeit

from repro.obs import runtime as obs

from bench_online_inference import SMOKE, measure_cold_serving
from overhead_ab import interleaved_ratio, smoke_cold_path

#: Per-call budget for a disabled span block.  Two orders of magnitude
#: above the measured cost (~0.3µs) so CI-runner noise cannot trip it,
#: but far below the cost of an accidental allocation + clock read path.
MAX_DISABLED_SPAN_SECONDS = 20e-6

#: The disabled run must reach at least this fraction of the traced run's
#: throughput.  Disabled does strictly less work, so the true ratio is
#: >= 1.0; the margin absorbs shared-runner noise.
MIN_DISABLED_OVER_TRACED = 0.7

#: Interleaved disabled/traced rounds the macro check medians over.
AB_ROUNDS = 5


def check_null_span_cost() -> float:
    obs.disable()

    def body():
        with obs.span("overhead-probe") as span:
            span.set("k", 1)

    per_call = min(timeit.repeat(body, repeat=5, number=20000)) / 20000
    print(f"disabled span cost: {per_call * 1e9:.0f} ns/call "
          f"(budget {MAX_DISABLED_SPAN_SECONDS * 1e9:.0f} ns)")
    assert per_call < MAX_DISABLED_SPAN_SECONDS, (
        f"disabled obs.span costs {per_call * 1e6:.2f}us per call; the "
        "zero-allocation no-op path has regressed")
    return per_call


def check_cold_path_ratio() -> float:
    dataset, model, probes = smoke_cold_path()

    def measure(traced: bool) -> float:
        if traced:
            obs.enable()
        else:
            obs.disable()
        try:
            result = measure_cold_serving({"model": model}, dataset, probes,
                                          SMOKE["cold_predicts"])
        finally:
            obs.disable()
        return result["model"]["records_per_s"]

    return interleaved_ratio(
        lambda: measure(traced=False), lambda: measure(traced=True),
        rounds=AB_ROUNDS, floor=MIN_DISABLED_OVER_TRACED,
        label="cold path disabled/traced",
        failure="cold path with observability disabled lost to the fully "
                "traced run; the disabled path is doing real work")


def main() -> int:
    started = time.perf_counter()
    check_null_span_cost()
    check_cold_path_ratio()
    print(f"obs overhead smoke passed in "
          f"{time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
