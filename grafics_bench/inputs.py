"""Seeded inputs: synthetic buildings, their training splits and fresh scans.

Everything a workload feeds the program is made here, up front, from the
run's ``--seed``; the same seed always gives the same buildings, labels and
scan sequences.  A *fresh* scan is a re-scan of a held-out spot: the spot's
readings with seeded per-AP noise of a few dB, given a new record id.  Fresh
scans are de-duplicated on the quantised fingerprint the prediction cache
keys on, so none of them can hit the cache by accident.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import SignalRecord
from repro.core.types import FingerprintDataset
from repro.data import (BuildingSpec, DevicePopulation, SyntheticBuilding,
                        make_experiment_split)

#: Graph sizes of the two ledger building classes: 3 floors x 35 APs, 70%
#: of the records train, so 210 records + 105 MACs = 315 nodes (small) and
#: 2520 + 105 = 2625 nodes (large).
SMALL_RECORDS_PER_FLOOR = 100
LARGE_RECORDS_PER_FLOOR = 1200
APS_PER_FLOOR = 35
LABELS_PER_FLOOR = 4
#: Re-scan noise: every reading moves by an integer number of dB in
#: [-NOISE_DB, NOISE_DB] and stays inside the ingest filter's RSS bounds.
NOISE_DB = 2
RSS_FLOOR, RSS_CEILING = -118.0, -1.0


@dataclass
class Building:
    """One synthetic building: what it is trained on and where scans come from."""

    building_id: str
    size: str                          # "small" | "large"
    train: FingerprintDataset
    labels: dict[str, int]
    spots: list[SignalRecord]          # held-out records re-scanned as fresh
    #: Further crowdsourced records of the same building (new positions,
    #: devices and scan subsets), shuffled within each generated batch.
    backlog: list[SignalRecord]


def make_building(seed: int, index: int, size: str,
                  backlog_batches: int = 0) -> Building:
    """Generate one building of the given ledger size, deterministically.

    The training split comes from the building's first generated batch
    (what ``small_test_building`` would return); each backlog batch is one
    more batch from the same building -- same APs, same device population --
    so the first batches never depend on how many are requested.
    """
    building_id = f"b{index}-{size}"
    records_per_floor = (LARGE_RECORDS_PER_FLOOR if size == "large"
                         else SMALL_RECORDS_PER_FLOOR)
    building = SyntheticBuilding(BuildingSpec(
        building_id=building_id, num_floors=3, width_m=40.0, depth_m=25.0,
        aps_per_floor=APS_PER_FLOOR, records_per_floor=records_per_floor,
        devices=DevicePopulation()), seed=seed * 1000 + index)
    split = make_experiment_split(building.generate(),
                                  labels_per_floor=LABELS_PER_FLOOR, seed=seed)
    train = FingerprintDataset(records=list(split.train_records),
                               building_id=building_id)
    backlog = []
    for batch in range(backlog_batches):
        records = building.generate().records
        order = np.random.default_rng([seed, index, batch]).permutation(
            len(records))
        for i in order:
            record = records[int(i)]
            backlog.append(SignalRecord(
                record_id=f"{building_id}:batch{batch}:{record.record_id}",
                rss=record.rss, floor=record.floor, device=record.device))
    return Building(building_id=building_id, size=size, train=train,
                    labels=dict(split.labels), spots=list(split.test_records),
                    backlog=backlog)


def _quantised(rss: dict[str, float]) -> tuple:
    # Mirrors the cache key's quantisation (rss_quantum=1.0).
    return tuple(sorted((mac, round(value)) for mac, value in rss.items()))


class ScanFactory:
    """Mints never-seen re-scans of a building's held-out spots."""

    def __init__(self, building: Building, seed: int, tag: int) -> None:
        self.building = building
        self._rng = np.random.default_rng([seed, tag])
        self._seen = {_quantised(spot.rss) for spot in building.spots}
        self._count = 0

    def fresh(self, prefix: str, spot_index: int | None = None,
              rename: dict[str, str] | None = None) -> tuple[SignalRecord, int]:
        """A fresh scan and its true floor.

        ``spot_index`` picks the spot (default: a seeded random one);
        ``rename`` maps MACs to their post-drift names.
        """
        spots = self.building.spots
        while True:
            index = (int(self._rng.integers(len(spots))) if spot_index is None
                     else spot_index % len(spots))
            spot = spots[index]
            macs = sorted(spot.rss)
            noise = self._rng.integers(-NOISE_DB, NOISE_DB + 1, size=len(macs))
            rss = {mac: float(min(RSS_CEILING,
                                  max(RSS_FLOOR, spot.rss[mac] + int(delta))))
                   for mac, delta in zip(macs, noise)}
            if rename:
                rss = {rename.get(mac, mac): value for mac, value in rss.items()}
            key = _quantised(rss)
            if key in self._seen:
                continue
            self._seen.add(key)
            self._count += 1
            record_id = f"{prefix}-{self.building.building_id}-{self._count:06d}"
            return SignalRecord(record_id=record_id, rss=rss), int(spot.floor)
