"""The perf gate's verdict (``benchmarks/perf_gate.py``), without running it.

The comparison is a pure function of the base and HEAD result lines of
both seeds plus the benchmark spec, so every rule of the gate is checked
here on hand-made result lines: direction, the bound itself, the
both-seeds rule and its confirmation, HEAD correctness and a failed base
run.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

GATE_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "perf_gate.py"
_spec = importlib.util.spec_from_file_location("perf_gate", GATE_PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "rps", "better": "higher", "bound": 0.25},
        {"name": "p99", "better": "lower", "bound": 0.25},
    ],
}
BASE = {"rps": 100.0, "p99": 10.0}


def line(correct=True, failed=0, **values) -> dict:
    return {"correct": correct, "attempted": 50, "failed": failed,
            "metrics": {name: {"value": value, "unit": "x"}
                        for name, value in (BASE | values).items()}}


def runs(seed1, seed2, workload: str = "w") -> dict:
    """Results by workload and seed; a seed takes one line or a list."""
    return {workload: {seed: lines if isinstance(lines, list) else [lines]
                       for seed, lines in ((1, seed1), (2, seed2))}}


def failures(head1: dict | None, head2: dict | None,
             base1: dict | None = None, base2: dict | None = None) -> list:
    base = runs(base1 if base1 is not None else line(),
                base2 if base2 is not None else line())
    return gate.failures(SPEC, base, runs(head1, head2))


def test_unchanged_runs_pass():
    assert failures(line(), line()) == []


@pytest.mark.parametrize("rps, failing", [
    (75.0, False),            # exactly 25% lower: at the bound
    (74.9, True),             # just past it
    (300.0, False),           # better
])
def test_higher_is_better_metric(rps, failing):
    expected = [("w", "rps")] if failing else []
    assert failures(line(rps=rps), line(rps=rps)) == expected


@pytest.mark.parametrize("p99, failing", [
    (12.5, False),            # exactly 25% higher: at the bound
    (12.51, True),            # just past it
    (1.0, False),             # better
])
def test_lower_is_better_metric(p99, failing):
    expected = [("w", "p99")] if failing else []
    assert failures(line(p99=p99), line(p99=p99)) == expected


def test_bound_is_exact_under_float_rounding():
    # (0.2 - 0.15) / 0.2 is 0.25000000000000006 in binary floating point.
    base = line(rps=0.2)
    assert failures(line(rps=0.15), line(rps=0.15), base, base) == []


def test_regression_on_one_seed_only_passes():
    assert failures(line(rps=50.0), line()) == []
    assert failures(line(), line(p99=20.0)) == []
    rows = gate.judge(SPEC, runs(line(), line()),
                      runs(line(), line(p99=20.0)))
    assert ("w", "p99", [[10.0], [10.0], [10.0], [20.0]],
            "worse on seed 2 only") in rows


def test_regression_on_both_seeds_fails():
    assert failures(line(rps=50.0, p99=20.0),
                    line(rps=60.0, p99=13.0)) == [("w", "rps"), ("w", "p99")]


def test_regression_is_relative_to_each_seeds_own_base():
    # Seed 2's base is slower, so 80 rps there is no regression.
    assert failures(line(rps=70.0), line(rps=80.0),
                    line(rps=100.0), line(rps=90.0)) == []
    assert failures(line(rps=70.0), line(rps=60.0),
                    line(rps=100.0), line(rps=90.0)) == [("w", "rps")]


def test_confirmed_regression_needs_every_head_run_worse():
    # Each seed ran twice per side: a regression stands only when every
    # HEAD run is worse than every base run of that seed by the bound.
    base = runs([line(), line(rps=90.0)], [line(), line()])
    assert gate.failures(SPEC, base, runs([line(rps=70.0), line(rps=60.0)],
                                          [line(rps=50.0)] * 2)) == []
    assert gate.failures(SPEC, base, runs([line(rps=67.0), line(rps=60.0)],
                                          [line(rps=50.0)] * 2)) \
        == [("w", "rps")]
    # One HEAD run back within the bound clears the seed.
    assert gate.failures(SPEC, base, runs([line(rps=60.0), line(rps=80.0)],
                                          [line(rps=50.0)] * 2)) == []


@pytest.mark.parametrize("head", [
    line(correct=False),
    line(failed=1),
    None,                     # the run printed no result line
])
def test_failed_head_run_fails(head):
    assert failures(head, line()) == [("w", "correct")]
    assert failures(line(), head) == [("w", "correct")]
    assert gate.failures(SPEC, runs(line(), [line(), line()]),
                         runs(line(), [line(), head])) == [("w", "correct")]


@pytest.mark.parametrize("base", [line(correct=False), line(failed=3), None])
def test_failed_base_run_reports_base_failed(base):
    expected = [("w", gate.BASE_FAILED)]
    assert gate.failures(SPEC, runs(line(), base), runs(line(), line())) \
        == expected
    # Reported even when HEAD failed too: there is nothing to judge against.
    assert gate.failures(SPEC, runs(base, line()),
                         runs(None, line(rps=1.0))) == expected


def test_benchmark_json_rows():
    spec = gate.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    result = {"correct": True, "failed": 0, "metrics": {
        metric["name"]: {"value": 1.0} for metric in spec["end_to_end"]}}
    base = {name: {seed: [result] for seed in gate.SEEDS} for name in names}
    rows = gate.judge(spec, base, base)
    assert len(rows) == len(names) * len(spec["end_to_end"])
    assert {verdict for *_, verdict in rows} == {"ok"}


def test_last_result_reads_the_last_line():
    detail = json.dumps({"workload": "w"})
    result = json.dumps(line())
    assert gate.last_result(f"{detail}\n{result}\n\n") == line()
    assert gate.last_result("Traceback (most recent call last):\n") is None
    assert gate.last_result("") is None
