"""Building attribution for the serving layer.

The reference attribution rule lives in
:meth:`repro.core.registry.MultiBuildingFloorService.identify_building`: scan
every building's MAC vocabulary and pick the one overlapping the online
sample most.  That scan is ``O(buildings x |record.rss|)`` per query, which
is fine for a handful of buildings but not for a production registry the
size of the paper's 204-building corpus.

:class:`MacInvertedRouter` replaces the scan with an inverted MAC→building
index: a query only touches the buildings that actually share at least one
MAC with the record, so attribution costs ``O(|record.rss|)`` plus the
(small) number of candidate buildings.  Results — including the tie-break,
which favours the earliest-registered building among equal overlaps, exactly
like the registry's insertion-order scan with a strict ``>`` — are identical
to the linear rule.  :class:`LinearScanRouter` packages the reference rule
behind the same interface so tests and benchmarks can compare the two
implementations head to head.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..core.inference import UnknownEnvironmentError
from ..core.types import SignalRecord

__all__ = ["RoutingDecision", "Router", "LinearScanRouter", "MacInvertedRouter"]


@dataclass(frozen=True)
class RoutingDecision:
    """The outcome of attributing one record to a building."""

    building_id: str
    overlap: float


class Router:
    """Common interface and validation for building-attribution strategies."""

    def __init__(self, min_overlap: float = 0.1) -> None:
        if not 0.0 < min_overlap <= 1.0:
            raise ValueError("min_overlap must be in (0, 1]")
        self.min_overlap = min_overlap

    # -- registry maintenance ------------------------------------------------
    def add_building(self, building_id: str, vocabulary: Iterable[str]) -> None:
        """Register (or atomically replace) a building's MAC vocabulary.

        Replacing keeps the building's original registration order so that
        retraining never changes how overlap ties are broken.
        """
        raise NotImplementedError

    def remove_building(self, building_id: str) -> None:
        raise NotImplementedError

    @property
    def building_ids(self) -> list[str]:
        """Registered buildings, in registration (tie-break) order."""
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.building_ids)

    def __contains__(self, building_id: str) -> bool:
        return building_id in set(self.building_ids)

    # -- attribution ---------------------------------------------------------
    def route(self, record: SignalRecord) -> RoutingDecision:
        """Attribute one record; raises on empty/unmatched records."""
        raise NotImplementedError

    def route_batch(self, records: Sequence[SignalRecord]) -> list[RoutingDecision]:
        return [self.route(record) for record in records]

    # -- shared validation ---------------------------------------------------
    def _probe_macs(self, record: SignalRecord, registered: int) -> set[str]:
        if registered == 0:
            raise RuntimeError("no buildings have been registered yet")
        macs = set(record.rss)
        if not macs:
            raise UnknownEnvironmentError(
                f"record {record.record_id!r} carries no RSS readings and "
                "cannot be attributed to any building")
        return macs

    def _reject(self, record: SignalRecord, best_overlap: float) -> None:
        raise UnknownEnvironmentError(
            f"record {record.record_id!r} does not match any registered "
            f"building (best overlap {best_overlap:.2f})")


class LinearScanRouter(Router):
    """Reference implementation: full vocabulary scan per query.

    Mirrors ``MultiBuildingFloorService.identify_building`` exactly; kept as
    the ground truth the inverted index is tested and benchmarked against.
    """

    def __init__(self, min_overlap: float = 0.1) -> None:
        super().__init__(min_overlap)
        self._vocabularies: dict[str, frozenset[str]] = {}

    def add_building(self, building_id: str, vocabulary: Iterable[str]) -> None:
        self._vocabularies[building_id] = frozenset(vocabulary)

    def remove_building(self, building_id: str) -> None:
        try:
            del self._vocabularies[building_id]
        except KeyError:
            raise KeyError(f"no registered building {building_id!r}") from None

    @property
    def building_ids(self) -> list[str]:
        return list(self._vocabularies)

    def route(self, record: SignalRecord) -> RoutingDecision:
        macs = self._probe_macs(record, len(self._vocabularies))
        best_building, best_overlap = None, 0.0
        for building_id, vocabulary in self._vocabularies.items():
            overlap = len(macs & vocabulary) / len(macs)
            if overlap > best_overlap:
                best_building, best_overlap = building_id, overlap
        if best_building is None or best_overlap < self.min_overlap:
            self._reject(record, best_overlap)
        return RoutingDecision(building_id=best_building, overlap=best_overlap)


class MacInvertedRouter(Router):
    """Inverted MAC→building index; attribution in ``O(|record.rss|)``.

    Every MAC maps to the set of buildings whose vocabulary contains it.  A
    query tallies, per candidate building, how many of the record's MACs hit
    that building — candidates are only the buildings sharing at least one
    MAC, so buildings with zero overlap are never visited (they could never
    win the strict-improvement scan either).
    """

    def __init__(self, min_overlap: float = 0.1) -> None:
        super().__init__(min_overlap)
        self._index: dict[str, set[str]] = {}
        self._vocabularies: dict[str, frozenset[str]] = {}
        self._positions: dict[str, int] = {}
        self._next_position = 0

    @classmethod
    def from_vocabularies(cls, vocabularies: dict[str, Iterable[str]],
                          min_overlap: float = 0.1) -> "MacInvertedRouter":
        """Build a router from an ordered ``building -> vocabulary`` mapping."""
        router = cls(min_overlap)
        for building_id, vocabulary in vocabularies.items():
            router.add_building(building_id, vocabulary)
        return router

    def add_building(self, building_id: str, vocabulary: Iterable[str],
                     position: int | None = None) -> None:
        """Register or hot-swap a building (see :meth:`Router.add_building`).

        ``position`` sets a newly registered building's tie-break position
        instead of the next local one — a partitioned router hands each
        shard's index the building's *global* registration position.
        """
        vocab = frozenset(vocabulary)
        previous = self._vocabularies.get(building_id)
        if previous is not None:
            # Hot swap: touch only the postings that actually changed, so a
            # retrain whose vocabulary mostly survives costs O(|delta|), not
            # O(|vocabulary|), and routing stays correct mid-churn.
            for mac in previous - vocab:
                buildings = self._index[mac]
                buildings.discard(building_id)
                if not buildings:
                    del self._index[mac]
            added = vocab - previous
        else:
            if position is None:
                position = self._next_position
                self._next_position += 1
            self._positions[building_id] = position
            added = vocab
        self._vocabularies[building_id] = vocab
        for mac in added:
            self._index.setdefault(mac, set()).add(building_id)

    def remove_building(self, building_id: str) -> None:
        try:
            vocab = self._vocabularies.pop(building_id)
        except KeyError:
            raise KeyError(f"no registered building {building_id!r}") from None
        del self._positions[building_id]
        for mac in vocab:
            buildings = self._index[mac]
            buildings.discard(building_id)
            if not buildings:
                del self._index[mac]

    @property
    def building_ids(self) -> list[str]:
        return sorted(self._positions, key=self._positions.__getitem__)

    def vocabulary_for(self, building_id: str) -> frozenset[str]:
        try:
            return self._vocabularies[building_id]
        except KeyError:
            raise KeyError(f"no registered building {building_id!r}") from None

    def candidate_hits(self, macs: set[str]) -> dict[str, int]:
        """Per-building count of the probe MACs present in its vocabulary.

        Only buildings sharing at least one MAC with the probe appear.
        """
        hits: dict[str, int] = {}
        index = self._index
        for mac in macs:
            for building_id in index.get(mac, ()):
                hits[building_id] = hits.get(building_id, 0) + 1
        return hits

    def best_candidate(self, macs: set[str]) -> tuple[str | None, int, int]:
        """The attribution rule: ``(building, hits, position)`` of the winner.

        Picks the building with the most probe-MAC hits; equal counts fall
        to the earliest-registered building (smallest position) — exactly
        the strict-improvement linear scan in registration order.
        ``(None, 0, -1)`` when no building shares a MAC with the probe.
        This is also the shard-local half of partitioned attribution: a
        :class:`~repro.serving.service.ShardedRouter` applies the same rule
        to every shard's winner, whose positions are global.
        """
        best_building, best_hits, best_position = None, 0, -1
        positions = self._positions
        for building_id, count in self.candidate_hits(macs).items():
            position = positions[building_id]
            if count > best_hits or (count == best_hits
                                     and position < best_position):
                best_building, best_hits, best_position = \
                    building_id, count, position
        return best_building, best_hits, best_position

    def route(self, record: SignalRecord) -> RoutingDecision:
        macs = self._probe_macs(record, len(self._vocabularies))
        best_building, best_hits, _ = self.best_candidate(macs)
        best_overlap = best_hits / len(macs)
        if best_building is None or best_overlap < self.min_overlap:
            self._reject(record, best_overlap)
        return RoutingDecision(building_id=best_building, overlap=best_overlap)
