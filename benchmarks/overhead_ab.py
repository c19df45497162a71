"""Shared harness of the ``check_*_overhead.py`` CI smokes.

Each smoke compares two arms of the same code path measured in the same
process moments apart, never an absolute number against a recorded
baseline — CI runners and the reference container differ too much for
that.  One A/B pair is at the mercy of a noisy neighbour on a shared
runner, so the ratio is the *median over interleaved rounds*, alternating
which arm runs first: a CPU frequency ramp or a neighbour then hits both
arms evenly, and the median round is representative where a single pair
is a lottery.
"""

from __future__ import annotations

import statistics
from collections.abc import Callable

from repro.core import GRAFICS
from repro.data import make_experiment_split, three_story_campus_building

from bench_online_inference import CONFIG, SMOKE


def smoke_cold_path():
    """The smoke-sized campus building, its fitted model and cold probes."""
    dataset = three_story_campus_building(
        records_per_floor=SMOKE["records_per_floor"], seed=7)
    split = make_experiment_split(dataset, labels_per_floor=4, seed=0)
    model = GRAFICS(CONFIG).fit(list(split.train_records), split.labels)
    probes = [r.without_floor()
              for r in split.test_records[: SMOKE["probes"] * 2]]
    return dataset, model, probes


def interleaved_ratio(numerator: Callable[[], float],
                      denominator: Callable[[], float], *, rounds: int,
                      floor: float, label: str, failure: str) -> float:
    """Median ``numerator() / denominator()`` over interleaved rounds.

    The numerator arm runs first in even rounds, the denominator arm in
    odd ones.  Prints the per-round ratios and asserts the median reaches
    ``floor`` (``failure`` explains a violation).
    """
    ratios: list[float] = []
    for round_index in range(rounds):
        if round_index % 2 == 0:
            top = numerator()
            bottom = denominator()
        else:
            bottom = denominator()
            top = numerator()
        ratios.append(top / bottom)
    ratio = statistics.median(ratios)
    print(f"{label} over {rounds} interleaved rounds: median {ratio:.2f} "
          f"(floor {floor}); per-round ratios "
          f"{[f'{r:.2f}' for r in ratios]}")
    assert ratio >= floor, (
        f"{failure} (median ratio {ratio:.2f} over {rounds} interleaved "
        "rounds)")
    return ratio
