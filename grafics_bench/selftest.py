"""Self-test of the benchmark: determinism, traced ledger and refusal.

Run from the root of a checkout (takes a few minutes)::

    python3 grafics_bench/selftest.py [--seed 5]

1. Determinism: every workload runs twice with the same seed and
   ``--seconds 0`` (only the fixed prefix), and the two runs must report
   identical ``micro_f``/``macro_f`` bits and identical counts of requests,
   swaps, retrains, snapshot ships, cache hits and drift events.  On
   stream-retrain this is the check that which model serves which record
   does not depend on thread timing.  Both runs must be correct with
   ``ok_ratio`` 1.0.
2. Traced ledger: one ``--trace 1`` run per workload must report every
   per-layer metric; cold-scan must read a cache hit ratio of 0 and no pool
   compute; stream-retrain must ship at least one snapshot per swap.
3. Refusal: in a directory holding only ``BENCHMARK.json`` and the
   benchmark's own files, the runner must exit non-zero without a result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("cold-scan", "returning-devices", "stream-retrain")
TIMEOUT = 300


def run(workload: str, seed: int, seconds: float, trace: int,
        cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / BENCH_DIR.name / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def result_of(process: subprocess.CompletedProcess) -> tuple[dict, dict]:
    if process.returncode != 0:
        raise AssertionError(f"runner failed:\n{process.stderr[-3000:]}")
    detail, result = process.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"ok   {message}")


def determinism(seed: int) -> None:
    for workload in WORKLOADS:
        runs = [result_of(run(workload, seed, 0, 0)) for _ in range(2)]
        for detail, result in runs:
            check(result["correct"] and result["failed"] == 0
                  and result["metrics"]["ok_ratio"]["value"] == 1.0,
                  f"{workload}: correct with ok_ratio 1.0 "
                  f"(breaches {detail['breaches'][:2]})")
        first, second = runs[0][0]["counts"], runs[1][0]["counts"]
        check(first == second,
              f"{workload}: identical scores and counts across two runs "
              f"of seed {seed}: {first} vs {second}")


def traced(seed: int) -> None:
    sys.path.insert(0, str(BENCH_DIR))
    from layers import LAYER_METRICS
    for workload in WORKLOADS:
        _, result = result_of(run(workload, seed, 1, 1))
        metrics = {name: metric["value"]
                   for name, metric in result["metrics"].items()}
        check(result["correct"] and set(metrics) == set(LAYER_METRICS),
              f"{workload}: traced run reports every per-layer metric")
        if workload == "cold-scan":
            check(metrics["serving.cache.hit_ratio"] == 0
                  and metrics["serving.pool.compute.calls"] == 0,
                  "cold-scan: no cache hits and no pool compute")
        if workload == "stream-retrain":
            check(metrics["serving.pool.snapshot_ships"]
                  >= metrics["stream.executor.retrains"] > 0,
                  "stream-retrain: a snapshot ship for every swap")


def refusal() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        process = run("cold-scan", 1, 1, 0, cwd=bare)
        lines = process.stdout.strip().splitlines()
        check(process.returncode != 0
              and not (lines and lines[-1].startswith("{")),
              "refuses to run without the program's sources")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=5)
    seed = parser.parse_args().seed
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    try:
        refusal()
        determinism(seed)
        traced(seed)
    except AssertionError as failure:
        print(f"FAIL {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
