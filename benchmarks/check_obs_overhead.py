"""Disabled-path smoke: observability off must cost ~nothing.

Two checks, both independent of how fast or busy the host is:

1. **Micro**: a ``with obs.span(...)`` block while disabled must cost well
   under a microsecond-scale budget per call — it is two attribute calls on
   a shared singleton, no allocation, no clock read.
2. **Structural**: under ``obs.disable()``, cold predicts make no call into
   ``repro/obs/tracer.py`` or ``repro/obs/metrics.py`` and read no clock
   from any ``repro/obs`` module, counted with ``sys.setprofile``.  A
   disabled instrumentation point that starts allocating a tracer object or
   timing itself shows up here as a count, on any host.

``profile_calls`` is shared with ``check_fault_overhead.py``.  Run from CI
after the benchmark smokes; exits non-zero on violation.
"""

from __future__ import annotations

import os
import sys
import time
import timeit
from collections import Counter
from pathlib import Path

from repro.obs import runtime as obs

from bench_online_inference import SMOKE, fitted

#: Per-call budget for a disabled span block.  Two orders of magnitude
#: above the measured cost (~0.3µs) so CI-runner noise cannot trip it,
#: but far below the cost of an accidental allocation + clock read path.
MAX_DISABLED_SPAN_SECONDS = 20e-6

#: The clock functions of the ``time`` module.
CLOCKS = frozenset(name + suffix for name in
                   ("time", "monotonic", "perf_counter", "process_time",
                    "thread_time") for suffix in ("", "_ns"))


def profile_calls(run, package: Path) -> tuple[Counter, Counter]:
    """Run ``run()`` under ``sys.setprofile``; count what touches ``package``.

    Returns ``(calls, c_calls)``: the Python functions defined under
    ``package`` that were called, and the C functions (clock reads, lock
    exits, dict lookups, ...) called from code under ``package``, both
    keyed ``"<file>:<function>"`` with the file relative to ``package``.
    """
    prefix = str(package) + os.sep
    calls: Counter = Counter()
    c_calls: Counter = Counter()

    def profile(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return
        where = filename[len(prefix):]
        if event == "call":
            calls[f"{where}:{frame.f_code.co_name}"] += 1
        elif event == "c_call":
            c_calls[f"{where}:{getattr(arg, '__name__', arg)}"] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls, c_calls


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


def check_disabled_cold_predicts(model, probes) -> None:
    package = Path(obs.__file__).parent

    def predict_all():
        for probe in probes:
            model.predict(probe)

    obs.disable()
    calls, c_calls = profile_calls(predict_all, package)
    touched = {name: count for name, count in calls.items()
               if name.split(":")[0] in ("tracer.py", "metrics.py")}
    clocks = {name: count for name, count in c_calls.items()
              if name.split(":")[1] in CLOCKS}
    print(f"{len(probes)} disabled cold predicts: "
          f"{calls['runtime.py:span']} null spans, tracer/metrics calls "
          f"{touched or 'none'}, obs clock reads {clocks or 'none'}")
    assert calls["runtime.py:span"] > 0, (
        "the cold predict no longer reaches an obs.span site; this check "
        "would guard nothing")
    assert not touched, (
        f"disabled cold predicts called into the tracer/metrics: {touched}")
    assert not clocks, (
        f"disabled cold predicts read the clock inside repro.obs: {clocks}")


def main() -> int:
    started = time.perf_counter()
    check_null_span_cost()
    _, _, model, probes = fitted(SMOKE)
    check_disabled_cold_predicts(model, probes)
    print(f"obs overhead smoke passed in "
          f"{time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
