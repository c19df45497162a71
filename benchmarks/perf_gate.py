"""Performance gate: run grafics_bench on a base revision and on this checkout.

Usage, from anywhere inside a checkout::

    python benchmarks/perf_gate.py --base HEAD~1

The base revision is checked out with ``git worktree add --detach`` into a
temporary directory (removed again on exit).  For seeds 1 and 2 and every
workload in ``BENCHMARK.json``, the benchmark command runs once in the base
checkout and once in this one ("HEAD": the working tree this script lives
in), alternating which side goes first: seed 1 runs the base first, seed 2
runs HEAD first.  ``grafics_bench/run.py`` imports ``repro`` only from the
``src/`` of the checkout it runs from, so each side measures its own code.

The verdict reads each run's last line.  The gate fails when

* a HEAD run is not ``"correct": true`` with ``"failed": 0``, or
* an end-to-end metric is worse than the base by more than its
  ``BENCHMARK.json`` bound (relative, in its ``better`` direction) on
  *both* seeds, and stays so when confirmed.

A workload that reads worse on both seeds is run once more per seed, in
the opposite order, and a metric regresses only if every HEAD run of each
seed is worse than every base run of that seed by more than its bound.
One run per side is not enough on its own: identical code has read
returning-devices ``setup_s`` 0.96-1.52 s on seed 1 on a shared 2-CPU
container, where single pairs crossed its 0.25 bound on both seeds in one
of four unchanged-tree runs.

A base run that fails is reported as "base failed" and the gate exits
non-zero without a verdict.  Workloads, the command, metric names,
directions, bounds and the run length all come from ``BENCHMARK.json``.
The timings are CPU time at the reference host speed
(``grafics_bench/METRICS.md``), which is what makes two runs on a shared
host comparable at all.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
SIDES = ("base", "HEAD")

BASE_FAILED = "base failed"
HEAD_FAILED = "HEAD FAILED"
REGRESSED = "REGRESSED"
#: Verdicts that fail the gate; ``BASE_FAILED`` fails it without a verdict.
FAILING = (BASE_FAILED, HEAD_FAILED, REGRESSED)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def last_result(stdout: str) -> dict | None:
    """The JSON object on the last non-blank line, or None."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) else None


def run_ok(result: dict | None) -> bool:
    return (result is not None and result.get("correct") is True
            and result.get("failed") == 0)


def worsening(metric: dict, base: float, head: float) -> float:
    """How much worse ``head`` is than ``base``, relative to ``base``
    (negative when better)."""
    change = head - base if metric["better"] == "lower" else base - head
    return change / abs(base)


def judge(spec: dict, base: dict, head: dict) -> list[tuple]:
    """One row per (workload, metric): ``(workload, metric, cells, verdict)``.

    ``base`` and ``head`` map workload -> seed -> the last-line results of
    that seed's runs (None for a run that printed none).  ``cells`` holds
    the values of base and HEAD for seed 1, then for seed 2, one list each.
    A workload whose base or HEAD runs failed gets a single ``correct`` row
    instead of its metric rows.
    """
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [side[workload][seed] for seed in SEEDS for side in (base, head)]
        if not all(run_ok(run) for side in runs for run in side):
            base_ok = all(run_ok(run) for side in runs[::2] for run in side)
            rows.append((workload, "correct",
                         [[run_ok(run) for run in side] for side in runs],
                         HEAD_FAILED if base_ok else BASE_FAILED))
            continue
        for metric in spec["end_to_end"]:
            cells = [[run["metrics"][metric["name"]]["value"] for run in side]
                     for side in runs]
            # Every HEAD run worse than every base run of the seed; a
            # change exactly at the bound passes, float rounding aside.
            worse = [min(worsening(metric, b, h) for b in bases for h in heads)
                     > metric["bound"] * (1 + 1e-9)
                     for bases, heads in zip(cells[::2], cells[1::2])]
            verdict = (REGRESSED if all(worse)
                       else f"worse on seed {SEEDS[worse.index(True)]} only"
                       if any(worse) else "ok")
            rows.append((workload, metric["name"], cells, verdict))
    return rows


def failures(spec: dict, base: dict, head: dict) -> list[tuple[str, str]]:
    """The (workload, metric) pairs that fail the gate; a workload whose
    base runs failed appears as ``(workload, BASE_FAILED)``."""
    return [(workload, BASE_FAILED if verdict == BASE_FAILED else metric)
            for workload, metric, _, verdict in judge(spec, base, head)
            if verdict in FAILING]


def run_benchmark(spec: dict, checkout: Path, workload: str,
                  seed: int) -> dict | None:
    command = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"])]
    proc = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    result = last_result(proc.stdout)
    if proc.returncode != 0 or not run_ok(result):
        tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-5:]
        print(f"  {workload} seed {seed} in {checkout} exited "
              f"{proc.returncode}; last line {proc.stdout.strip()[-300:]!r}; "
              f"stderr tail: {' | '.join(tail)}", flush=True)
    return result


def measure(spec: dict, checkouts: dict, workloads: list[str],
            results: dict, flip: bool = False) -> None:
    """Run one pair per seed of each workload, appending to ``results``.

    Seed 1 runs the base first and seed 2 HEAD first; ``flip`` swaps that.
    """
    for index, seed in enumerate(SEEDS):
        for workload in workloads:
            order = SIDES if (index % 2 == 0) != flip else SIDES[::-1]
            for side in order:
                print(f"running {workload} seed {seed} on {side}", flush=True)
                results[side][workload][seed].append(run_benchmark(
                    spec, checkouts[side], workload, seed))


def print_table(rows: list[tuple]) -> None:
    def show(value) -> str:
        if isinstance(value, bool):
            return "ok" if value else "failed"
        return f"{value:.4g}"

    lines = [["workload", "metric",
              *(f"{side} s{seed}" for seed in SEEDS for side in SIDES),
              "verdict"]]
    for workload, metric, cells, verdict in rows:
        lines.append([workload, metric,
                      *("/".join(map(show, cell)) for cell in cells), verdict])
    widths = [max(map(len, column)) for column in zip(*lines)]
    for line in lines:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(line, widths)).rstrip())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare this checkout against")
    args = parser.parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    results = {side: {name: {seed: [] for seed in SEEDS} for name in names}
               for side in SIDES}
    temp = Path(tempfile.mkdtemp(prefix="perf-gate-"))
    checkouts = {"base": temp / "base", "HEAD": ROOT}
    try:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach",
                        str(checkouts["base"]), args.base], check=True)
        measure(spec, checkouts, names, results)
        suspects = sorted({workload for workload, _, _, verdict
                           in judge(spec, results["base"], results["HEAD"])
                           if verdict == REGRESSED})
        if suspects:
            print(f"worse on both seeds: {suspects}; confirming with one "
                  "more pair per seed", flush=True)
            measure(spec, checkouts, suspects, results, flip=True)
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                        "--force", str(checkouts["base"])], check=False)
        shutil.rmtree(temp, ignore_errors=True)
    print_table(judge(spec, results["base"], results["HEAD"]))
    failed = failures(spec, results["base"], results["HEAD"])
    if any(metric == BASE_FAILED for _, metric in failed):
        print(f"perf gate: base failed on "
              f"{sorted({w for w, m in failed if m == BASE_FAILED})}; "
              "no verdict")
        return 2
    if failed:
        print(f"perf gate FAILED: {failed}")
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
