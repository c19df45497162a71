"""Streaming ingestion: filter chain, building attribution, record buffers.

The ingestor is the mouth of the continuous-learning pipeline.  Every
arriving record passes the quality-filter chain
(:mod:`repro.stream.filters`), is attributed to a building (via a caller
supplied attribution function — in production the serving router), and
lands in that building's bounded FIFO buffer, from which the window
maintainer drains it.  Rejections never raise: they come back as typed
:class:`IngestDecision` values and per-reason counters, because a stream
processor must survive arbitrarily malformed crowdsourced input.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from ..core.inference import UnknownEnvironmentError
from ..core.persistence import record_from_payload, record_to_payload
from ..core.types import SignalRecord
from .filters import QualityFilter, default_filters

__all__ = ["IngestDecision", "StreamIngestor"]


@dataclass(frozen=True)
class IngestDecision:
    """The outcome of submitting one record to the ingestor."""

    record_id: str
    accepted: bool
    building_id: str | None = None
    filter_name: str | None = None  # which stage rejected (None if accepted)
    reason: str | None = None


class StreamIngestor:
    """Quality-filters incoming records and buffers them per building.

    Parameters
    ----------
    attribute:
        Maps an admitted record to its building id; expected to raise
        :class:`UnknownEnvironmentError` for records that match no building
        (the serving router's contract).  ``None`` means every submission
        must carry an explicit ``building_id``.
    filters:
        The quality-filter chain, applied in order; defaults to
        :func:`default_filters`.
    buffer_capacity:
        Per-building buffer bound.  When a buffer is full the *oldest*
        buffered record is dropped (and counted) in favour of the new one —
        under overload, fresher data is worth more to a sliding window.
    """

    def __init__(self,
                 attribute: Callable[[SignalRecord], str] | None = None,
                 filters: Sequence[QualityFilter] | None = None,
                 buffer_capacity: int = 1024) -> None:
        if buffer_capacity < 1:
            raise ValueError("buffer_capacity must be at least 1")
        self.attribute = attribute
        self.filters = list(filters) if filters is not None else default_filters()
        self.buffer_capacity = buffer_capacity
        self._buffers: dict[str, deque[SignalRecord]] = {}
        self.submitted_total = 0
        self.accepted_total = 0
        self.unroutable_total = 0
        self.overflow_total = 0
        self.rejected_by_filter: dict[str, int] = {}

    # ----------------------------------------------------------------- intake
    def submit(self, record: SignalRecord,
               building_id: str | None = None) -> IngestDecision:
        """Filter, attribute and buffer one record; never raises on bad input."""
        self.submitted_total += 1
        for stage in self.filters:
            reason = stage.admit(record)
            if reason is not None:
                self.rejected_by_filter[stage.name] = \
                    self.rejected_by_filter.get(stage.name, 0) + 1
                return IngestDecision(record_id=record.record_id,
                                      accepted=False,
                                      filter_name=stage.name, reason=reason)

        if building_id is None:
            if self.attribute is None:
                raise ValueError(
                    "no attribution function configured; pass building_id "
                    "explicitly or construct the ingestor with attribute=")
            try:
                building_id = self.attribute(record)
            except UnknownEnvironmentError as error:
                self.unroutable_total += 1
                return IngestDecision(record_id=record.record_id,
                                      accepted=False,
                                      filter_name="router", reason=str(error))

        buffer = self._buffers.get(building_id)
        if buffer is None:
            buffer = self._buffers[building_id] = deque()
        if len(buffer) >= self.buffer_capacity:
            buffer.popleft()
            self.overflow_total += 1
        buffer.append(record)
        self.accepted_total += 1
        return IngestDecision(record_id=record.record_id, accepted=True,
                              building_id=building_id)

    # ------------------------------------------------------------------ drain
    def drain(self, building_id: str) -> list[SignalRecord]:
        """Remove and return everything buffered for one building."""
        buffer = self._buffers.pop(building_id, None)
        return list(buffer) if buffer is not None else []

    def drain_all(self) -> dict[str, list[SignalRecord]]:
        """Remove and return all buffers, keyed by building."""
        drained = {building_id: list(buffer)
                   for building_id, buffer in self._buffers.items()}
        self._buffers.clear()
        return drained

    # ------------------------------------------------------------------ state
    @property
    def buffered_count(self) -> int:
        return sum(len(buffer) for buffer in self._buffers.values())

    def buffered_by_building(self) -> dict[str, int]:
        return {building_id: len(buffer)
                for building_id, buffer in self._buffers.items()}

    def stats(self) -> dict[str, object]:
        return {
            "submitted": self.submitted_total,
            "accepted": self.accepted_total,
            "unroutable": self.unroutable_total,
            "buffer_overflows": self.overflow_total,
            "rejected_by_filter": dict(sorted(self.rejected_by_filter.items())),
            "buffered": self.buffered_count,
        }

    # ------------------------------------------------------------- checkpoint
    def state_dict(self) -> dict:
        """Counters, live buffers and per-filter state for a checkpoint."""
        return {
            "counters": {
                "submitted": self.submitted_total,
                "accepted": self.accepted_total,
                "unroutable": self.unroutable_total,
                "overflow": self.overflow_total,
                "rejected_by_filter": dict(self.rejected_by_filter),
            },
            "buffers": {building_id: [record_to_payload(record)
                                      for record in buffer]
                        for building_id, buffer in self._buffers.items()},
            "filters": [{"name": stage.name, "state": stage.state_dict()}
                        for stage in self.filters],
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild counters, buffers and filter state from a checkpoint.

        The resuming ingestor must be configured with the same filter chain
        (same stages, same order) as the one that checkpointed — the dedup
        filter's memory is part of the replay semantics, so a mismatched
        chain is an error rather than a silent divergence.
        """
        saved_names = [blob["name"] for blob in state["filters"]]
        live_names = [stage.name for stage in self.filters]
        if saved_names != live_names:
            raise ValueError(
                f"filter chain mismatch: checkpoint has {saved_names}, "
                f"this ingestor has {live_names}")
        for stage, blob in zip(self.filters, state["filters"]):
            stage.restore_state(blob["state"])
        counters = state["counters"]
        self.submitted_total = int(counters["submitted"])
        self.accepted_total = int(counters["accepted"])
        self.unroutable_total = int(counters["unroutable"])
        self.overflow_total = int(counters["overflow"])
        self.rejected_by_filter = {str(name): int(count)
                                   for name, count
                                   in counters["rejected_by_filter"].items()}
        self._buffers = {
            building_id: deque(record_from_payload(blob) for blob in blobs)
            for building_id, blobs in state["buffers"].items()}
