"""Run one GRAFICS benchmark workload and print one JSON result line.

Usage, from the root of a checkout::

    python3 grafics_bench/run.py --workload cold-scan --seed 1 --seconds 10 --trace 0

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
ledger with ``--trace 1``.  The line before it records the environment
(nproc, Python, numpy, BLAS threads), sample counts, the determinism counts
and any correctness breach.

The runner re-executes itself in a fresh, isolated interpreter (``-I``)
with BLAS/OpenMP pinned to one thread, and imports the program only from
the checkout's ``src/``.  ``--variant`` switches one existing program
setting for the sensitivity runs (see METRICS.md); the benchmark proper
uses the default.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
CHILD_MARKER = "GRAFICS_BENCH_CHILD"
WORKLOAD_NAMES = ("cold-scan", "returning-devices", "stream-retrain")
VARIANT_NAMES = ("none", "delta-sampler", "no-cache", "fused-retrain")


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--variant", choices=VARIANT_NAMES, default="none")
    return parser.parse_args(argv)


def reexec(argv: list[str]) -> None:
    """Replace this process with a fresh isolated interpreter."""
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env[CHILD_MARKER] = "1"
    os.execve(sys.executable,
              [sys.executable, "-I", str(Path(__file__).resolve()), *argv],
              env)


def import_program():
    """Import ``repro`` from the checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import numpy
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"error: repro imported from {repro.__file__}, "
                         f"not from {SRC}")
    return numpy


def pin_to_one_cpu() -> int:
    """Run this process, and every process it starts, on one CPU.

    The stream workload's pool worker then shares the runner's CPU: the
    runner waits on each synchronous hop anyway, the hand-off stays on one
    core, and the host-speed reference times the CPU every timed
    instruction runs on.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def stop_resource_tracker() -> None:
    """Stop and reap the helper process a spawned compute pool leaves behind.

    Closed pools join their workers, but multiprocessing's resource tracker
    would otherwise outlive the run by a moment; the standard library has
    no public call that waits for it.
    """
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def environment(numpy, cpu: int) -> dict:
    import platform
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "threads": {name: os.environ.get(name) for name in PINNED_THREADS}}


def finite(value: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def main(argv: list[str]) -> int:
    args = parse(argv)
    if os.environ.get(CHILD_MARKER) != "1":
        reexec(argv)
    cpu = pin_to_one_cpu()
    numpy = import_program()
    from layers import LAYER_METRICS, compute
    from tracing import SpanRecorder
    from workloads import WORKLOADS

    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    recorder = SpanRecorder() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](args.seed, args.seconds,
                                            variant=args.variant,
                                            work_dir=work_dir)
        result = workload.run(recorder=recorder)
        if recorder is not None:
            layers = compute(recorder, result["traced"])
            recorder.write(ROOT / ".bench_out" / f"spans-{args.workload}.tsv")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        stop_resource_tracker()

    breaches = list(result["breaches"])
    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["metrics"].items()}
    for name, metric in metrics.items():
        if not finite(metric["value"]):
            breaches.append(f"metric {name} was not measured")
            metric["value"] = 0.0
    detail = {"workload": args.workload, "seed": args.seed,
              "variant": args.variant, "env": environment(numpy, cpu),
              "samples": result["samples"], "counts": result["counts"],
              "raw": result["raw"], "host": result["host"],
              "breaches": breaches[:20]}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not breaches,
                      "attempted": result["sent"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:  # noqa: BLE001 -- report and fail without a result line
        traceback.print_exc()
        sys.exit(1)
