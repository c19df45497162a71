"""The continuous-learning façade: ingest → window → drift → retrain → swap.

:class:`ContinuousLearningPipeline` closes the loop the offline pipeline
leaves open: crowdsourced records flow in continuously, are quality
filtered and attributed to buildings, kept in bounded sliding-window
graphs, watched for drift, and — when a building drifts or a retrain
cadence fires — its model is rebuilt from the window off to the side and
atomically hot-swapped into the serving stack, cache and router included.

One synchronous :meth:`process` call advances the whole machine by one
record and reports everything that happened (prediction, evictions, drift
events, retrain outcome), which keeps the subsystem deterministic and
trivially drivable from tests, benchmarks, or an outer event loop feeding
it from :func:`repro.data.iter_jsonl` replay or a network intake.
"""

from __future__ import annotations

import os
import shutil
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..core.inference import UnknownEnvironmentError
from ..core.persistence import (
    CheckpointCorruptError,
    grafics_config_from_payload,
    grafics_config_to_payload,
    load_registry,
    load_stream_state,
    save_registry,
    save_stream_state,
)
from ..core.registry import BuildingPrediction
from ..core.types import SignalRecord
from ..obs import runtime as obs
from ..obs.log import log_event
from ..serving.service import FloorServingService, ServingConfig
from .drift import DriftConfig, DriftDetector, DriftEvent, DriftKind
from .executor import RetrainExecutor
from .filters import QualityFilter, default_filters
from .ingest import StreamIngestor
from .scheduler import RetrainReport, RetrainScheduler, SchedulerConfig
from .window import WindowConfig, WindowEviction, WindowManager

#: File names inside a checkpoint directory.
_CHECKPOINT_STATE_FILE = "stream_state.json"
_CHECKPOINT_REGISTRY_DIR = "registry"
#: Where the previous checkpoint generation is retained.  Rotated in
#: before each new checkpoint is written; ``resume()`` falls back to it
#: wholesale (state + registry together — mixing generations would pair a
#: registry with scheduler counters it never saw) when the current
#: generation is missing or corrupt.
_CHECKPOINT_PREVIOUS_DIR = "previous"

__all__ = ["StreamConfig", "StreamResult", "ContinuousLearningPipeline"]


def _check_retrain_kernel(kernel: str | None) -> None:
    """Reject every retired fit-kernel name (only ``"fused"`` remains)."""
    if kernel not in (None, "fused"):
        raise ValueError(
            f"retrain kernel {kernel!r} is not available: the kernel "
            "setting was retired; every fit runs the fused kernel")


@dataclass(frozen=True)
class StreamConfig:
    """Tunables of the whole continuous-learning pipeline."""

    window: WindowConfig = field(default_factory=WindowConfig)
    drift: DriftConfig = field(default_factory=DriftConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    buffer_capacity: int = 1024
    #: Predict each admitted record through the serving stack (feeds the
    #: distance-shift detector and returns the prediction to the caller).
    #: Disable for pure ingestion workloads that only maintain windows.
    predict: bool = True
    #: Worker threads for background retrains.  ``0`` (the default) trains
    #: synchronously inside :meth:`ContinuousLearningPipeline.process`;
    #: ``>= 1`` moves ``GRAFICS`` fits onto a
    #: :class:`~repro.stream.executor.RetrainExecutor` pool, so a drifted
    #: building's retrain no longer stalls the ingest loop — the swap lands
    #: a few ``process`` calls later via ``StreamResult.completed_retrains``.
    retrain_workers: int = 0
    #: Kept for callers written when the fit kernel was selectable: only
    #: ``None`` or ``"fused"`` is accepted, and both mean the one fit kernel
    #: every retrain runs (see :mod:`repro.core.embedding.kernels`).
    retrain_kernel: str | None = None
    #: Wall budget for one stream retrain fit (see
    #: :class:`~repro.stream.executor.RetrainExecutor`
    #: ``fit_deadline_seconds``): an overrunning fit's result is abandoned
    #: under the generation fence and surfaces as a failed retrain, feeding
    #: the scheduler's backoff/breaker.  ``None`` disables the budget.
    retrain_deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.retrain_workers < 0:
            raise ValueError("retrain_workers must be non-negative")
        _check_retrain_kernel(self.retrain_kernel)
        if (self.retrain_deadline_seconds is not None
                and self.retrain_deadline_seconds <= 0.0):
            raise ValueError(
                "retrain_deadline_seconds must be positive (or None)")


@dataclass(frozen=True)
class StreamResult:
    """Everything one :meth:`ContinuousLearningPipeline.process` call did."""

    record_id: str
    accepted: bool
    building_id: str | None = None
    rejected_by: str | None = None
    reason: str | None = None
    prediction: BuildingPrediction | None = None
    eviction: WindowEviction = field(default_factory=WindowEviction)
    drift_events: tuple[DriftEvent, ...] = ()
    retrain: RetrainReport | None = None
    #: Background retrains (possibly of *other* buildings) whose swap landed
    #: during this call — always empty with synchronous retrains.
    completed_retrains: tuple[RetrainReport, ...] = ()

    @property
    def swapped(self) -> bool:
        return ((self.retrain is not None and self.retrain.swapped)
                or any(report.swapped for report in self.completed_retrains))


class ContinuousLearningPipeline:
    """Drives a :class:`FloorServingService` from a live record stream."""

    def __init__(self, service: FloorServingService,
                 config: StreamConfig | None = None,
                 filters: list[QualityFilter] | None = None,
                 clock: Callable[[], float] | None = None) -> None:
        self.service = service
        self.config = config or StreamConfig()
        self.ingestor = StreamIngestor(
            attribute=lambda record: service.router.route(record).building_id,
            filters=filters if filters is not None else default_filters(),
            buffer_capacity=self.config.buffer_capacity)
        self.windows = WindowManager(config=self.config.window)
        self.drift = DriftDetector(self.config.drift)
        # One injected clock drives the executor's durations and the
        # scheduler's wall-clock cooldowns/swap ages, so tests (and health
        # monitors sharing the clock) see consistent time everywhere.
        clock_kwargs = {} if clock is None else {"clock": clock}
        self.executor = RetrainExecutor(
            service, max_workers=self.config.retrain_workers,
            fit_deadline_seconds=self.config.retrain_deadline_seconds,
            **clock_kwargs)
        self.scheduler = RetrainScheduler(service, self.windows,
                                          self.config.scheduler,
                                          executor=self.executor,
                                          **clock_kwargs)
        self.drift_events: list[DriftEvent] = []
        self.processed_total = 0

    # ------------------------------------------------------------------ drive
    def process(self, record: SignalRecord,
                building_id: str | None = None) -> StreamResult:
        """Advance the pipeline by one record; never raises on stream input."""
        with obs.span("stream.process") as process_span:
            result = self._process(record, building_id)
            process_span.set("record", record.record_id)
            process_span.set("accepted", result.accepted)
            if result.swapped:
                process_span.set("swapped", True)
            return result

    def _process(self, record: SignalRecord,
                 building_id: str | None = None) -> StreamResult:
        self.processed_total += 1
        telemetry = self.service.telemetry
        telemetry.increment("stream_records_total")

        completed = self._collect_completed()
        decision = self.ingestor.submit(record, building_id=building_id)
        events: list[DriftEvent] = []
        if not decision.accepted:
            telemetry.increment(f"stream_rejected_{decision.filter_name}_total")
            if decision.filter_name == "router":
                self._note(events, self.drift.observe_routing(False))
            self._finish(events)
            return StreamResult(record_id=record.record_id, accepted=False,
                                rejected_by=decision.filter_name,
                                reason=decision.reason,
                                drift_events=tuple(events),
                                completed_retrains=completed)

        telemetry.increment("stream_accepted_total")
        self._note(events, self.drift.observe_routing(True))
        building = decision.building_id
        window = self.windows.window_for(building)
        prediction: BuildingPrediction | None = None
        eviction = WindowEviction()
        for buffered in self.ingestor.drain(building):
            if window.has_record(buffered.record_id):
                # A client retry (same id, fresh scan) slipping past the
                # fingerprint dedup must not crash the stream; count it.
                telemetry.increment("stream_rejected_duplicate_id_total")
                if buffered.record_id == record.record_id:
                    self._finish(events)
                    return StreamResult(
                        record_id=record.record_id, accepted=False,
                        building_id=building, rejected_by="window",
                        reason=f"record {record.record_id!r} is already in "
                               f"the window of building {building!r}",
                        drift_events=tuple(events),
                        completed_retrains=completed)
                continue
            if self.config.predict:
                prediction = self._predict(buffered)
                if prediction is not None:
                    self._note(events, self.drift.observe_distance(
                        building, prediction.distance))
            eviction = self.windows.append(building, buffered)
            self.scheduler.note_append(building)

        if len(window) >= self.config.drift.vocabulary_warmup_records:
            try:
                trained = self.service.vocabulary_for(building)
            except KeyError:
                # Explicit building_id for a building with no model yet: the
                # window accumulates toward a bootstrap retrain, and there is
                # no trained vocabulary to drift from.
                trained = None
            if trained is not None:
                self._note(events, self.drift.check_vocabulary(
                    building, trained, window.mac_vocabulary))

        for event in events:
            self.scheduler.note_drift(event)
        retrain = self.scheduler.maybe_retrain(building)
        if retrain is not None and retrain.swapped:
            self.drift.reset_building(building)
            telemetry.increment("stream_retrains_total")
        completed = completed + self._collect_completed()

        self._finish(events)
        return StreamResult(record_id=record.record_id, accepted=True,
                            building_id=building, prediction=prediction,
                            eviction=eviction, drift_events=tuple(events),
                            retrain=retrain, completed_retrains=completed)

    def process_stream(self, records: Iterable[SignalRecord],
                       building_id: str | None = None) -> list[StreamResult]:
        """Process many records; returns one result per record, in order."""
        return [self.process(record, building_id=building_id)
                for record in records]

    # ---------------------------------------------------------------- helpers
    def _collect_completed(self) -> tuple[RetrainReport, ...]:
        """Fold finished background retrains into drift state and telemetry.

        Synchronous pipelines (``retrain_workers=0``) never have anything to
        collect — the inline path in :meth:`process` already did this work.
        """
        completed = tuple(self.scheduler.collect())
        for report in completed:
            if report.swapped:
                self.drift.reset_building(report.building_id)
                self.service.telemetry.increment("stream_retrains_total")
        return completed

    def close(self) -> tuple[RetrainReport, ...]:
        """Wait for in-flight retrains, land their swaps, release the pool.

        Returns the reports of whatever completed during the wait.  Safe to
        call on a synchronous pipeline (it is a no-op there) and more than
        once.
        """
        self.executor.join()
        completed = self._collect_completed()
        self.executor.shutdown()
        return completed

    def _predict(self, record: SignalRecord) -> BuildingPrediction | None:
        try:
            return self.service.predict(record)
        except UnknownEnvironmentError:
            # The ingest-time routing decision can go stale if a hot swap
            # shrank the vocabulary between attribution and prediction.
            return None
        except (ValueError, KeyError, RuntimeError):
            # A failed prediction (id collision with a model's training
            # records after a swap, a building installed with no model, ...)
            # must not kill the stream; the record still feeds the window.
            self.service.telemetry.increment("stream_predict_errors_total")
            return None

    @staticmethod
    def _note(events: list[DriftEvent], event: DriftEvent | None) -> None:
        if event is not None:
            events.append(event)

    def _finish(self, events: list[DriftEvent]) -> None:
        telemetry = self.service.telemetry
        for event in events:
            telemetry.increment("drift_events_total")
            telemetry.increment(f"drift_{event.kind.value}_total")
        self.drift_events.extend(events)
        telemetry.set_gauge("stream_window_records", self.windows.total_records)
        telemetry.set_gauge("stream_window_nodes", self.windows.total_nodes)
        telemetry.set_gauge("stream_buffered_records",
                            self.ingestor.buffered_count)

    # -------------------------------------------------------------- checkpoint
    def checkpoint(self, directory: str | Path) -> Path:
        """Write a restartable snapshot of the whole continuous-learning state.

        The checkpoint directory holds two things: ``registry/`` — every
        building's model plus the attribution manifest, via
        :func:`repro.core.persistence.save_registry` — and
        ``stream_state.json`` — windows (records + arrival ages), drift
        baselines and latches, scheduler triggers/counters/history, ingest
        buffers and filter state, via :func:`save_stream_state`.  In-flight
        background retrains are joined and their swaps landed first, so the
        saved models and the saved scheduler state are consistent.  A
        pipeline resumed from the result replays the rest of the stream
        exactly as the uninterrupted pipeline would (test-enforced).

        Checkpointing into a directory that already holds one rotates the
        existing generation into ``previous/`` first, so a write that is
        torn or killed partway always leaves one complete last-good
        checkpoint for :meth:`resume` to fall back to.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.executor.join()
        self._collect_completed()
        self._rotate_previous(directory)
        save_registry(self.service.export_registry(),
                      directory / _CHECKPOINT_REGISTRY_DIR)
        save_stream_state(self.state_dict(),
                          directory / _CHECKPOINT_STATE_FILE)
        log_event("checkpoint_written", path=str(directory),
                  processed_total=self.processed_total,
                  buildings=len(self.service.building_ids))
        return directory

    @staticmethod
    def _rotate_previous(directory: Path) -> None:
        """Move the current checkpoint generation into ``previous/``.

        State file and registry rotate together — the fallback pair must be
        from one generation.  The old ``previous/`` is dropped first; two
        retained generations bound the disk cost, and anything older is by
        definition two successful checkpoints stale.
        """
        state_file = directory / _CHECKPOINT_STATE_FILE
        if not state_file.exists():
            return
        previous = directory / _CHECKPOINT_PREVIOUS_DIR
        if previous.exists():
            shutil.rmtree(previous)
        previous.mkdir()
        os.replace(state_file, previous / _CHECKPOINT_STATE_FILE)
        registry_dir = directory / _CHECKPOINT_REGISTRY_DIR
        if registry_dir.exists():
            os.replace(registry_dir, previous / _CHECKPOINT_REGISTRY_DIR)

    @classmethod
    def resume(cls, directory: str | Path,
               service: FloorServingService | None = None,
               config: StreamConfig | None = None,
               filters: list[QualityFilter] | None = None,
               ) -> "ContinuousLearningPipeline":
        """Rebuild a pipeline from a :meth:`checkpoint` directory.

        With no arguments the serving stack is reconstructed exactly as
        checkpointed: the registry is loaded from disk, the serving façade
        (with its original shard count and configuration) is rebuilt
        around it, and the stream configuration is restored from the
        checkpoint.  Pass ``service``/``config``/``filters`` to override —
        the filter chain must keep the checkpointed stage order, since the
        dedup filter's memory is part of the replay semantics.

        When the current checkpoint generation is corrupt (failed digest,
        torn write) or partially missing, and the directory retains a
        ``previous/`` generation, resume falls back to it wholesale and
        emits a structured ``checkpoint_recovered`` event.  A directory
        with neither raises as before.
        """
        directory = Path(directory)
        try:
            return cls._resume_from(directory, service=service,
                                    config=config, filters=filters)
        except (FileNotFoundError, CheckpointCorruptError) as error:
            previous = directory / _CHECKPOINT_PREVIOUS_DIR
            if not (previous / _CHECKPOINT_STATE_FILE).is_file():
                raise
            log_event("checkpoint_recovered", path=str(directory),
                      fallback=str(previous),
                      error_type=type(error).__name__, error=str(error))
            return cls._resume_from(previous, service=service,
                                    config=config, filters=filters)

    @classmethod
    def _resume_from(cls, directory: Path,
                     service: FloorServingService | None = None,
                     config: StreamConfig | None = None,
                     filters: list[QualityFilter] | None = None,
                     ) -> "ContinuousLearningPipeline":
        state = load_stream_state(directory / _CHECKPOINT_STATE_FILE)
        if config is None:
            config = _stream_config_from_payload(state["stream_config"])
        if service is None:
            descriptor = state["service"]
            grafics_config = grafics_config_from_payload(
                descriptor["grafics_config"])
            registry = load_registry(directory / _CHECKPOINT_REGISTRY_DIR,
                                     config=grafics_config)
            # Checkpoints written before the services were unified
            # describe a one-lock service as {"kind": "single"} with no
            # shard count: that is a 1-shard service.
            service = FloorServingService(
                registry=registry,
                config=ServingConfig(**descriptor["serving_config"]),
                num_shards=int(descriptor.get("num_shards", 1)))
        pipeline = cls(service, config, filters=filters)
        pipeline.restore_state(state)
        log_event("checkpoint_resumed", path=str(directory),
                  processed_total=pipeline.processed_total,
                  buildings=len(service.building_ids))
        return pipeline

    def state_dict(self) -> dict:
        """Every stage's live state as one JSON-serialisable payload."""
        if self.executor.pending_count:
            raise RuntimeError("cannot checkpoint with retrains in flight; "
                               "join the executor first")
        return {
            "processed_total": self.processed_total,
            "drift_events": [
                {"kind": event.kind.value, "building_id": event.building_id,
                 "value": event.value, "threshold": event.threshold,
                 "detail": event.detail, "trace_id": event.trace_id}
                for event in self.drift_events],
            "ingest": self.ingestor.state_dict(),
            "windows": self.windows.state_dict(),
            "drift": self.drift.state_dict(),
            "scheduler": self.scheduler.state_dict(),
            "stream_config": asdict(self.config),
            "service": _service_descriptor(self.service),
        }

    def restore_state(self, state: dict) -> None:
        """Restore every stage from a :meth:`state_dict` payload."""
        self.processed_total = int(state["processed_total"])
        self.drift_events = [
            DriftEvent(kind=DriftKind(blob["kind"]),
                       building_id=blob["building_id"],
                       value=float(blob["value"]),
                       threshold=float(blob["threshold"]),
                       detail=str(blob["detail"]),
                       # Absent in checkpoints written before trace stamping.
                       trace_id=blob.get("trace_id"))
            for blob in state["drift_events"]]
        self.ingestor.restore_state(state["ingest"])
        self.windows.restore_state(state["windows"])
        self.drift.restore_state(state["drift"])
        self.scheduler.restore_state(state["scheduler"])

    # ---------------------------------------------------------- observability
    def stats(self) -> dict[str, object]:
        """One nested dict describing every stage (for logs and dashboards)."""
        return {
            "processed": self.processed_total,
            "ingest": self.ingestor.stats(),
            "windows": self.windows.stats(),
            "drift": self.drift.stats(),
            "scheduler": self.scheduler.stats(),
        }


def _service_descriptor(service) -> dict:
    """How to rebuild the serving façade around a reloaded registry.

    The GRAFICS configuration is part of the descriptor because the loaded
    per-building models carry their *own* training configs — but retrains on
    the resumed node build fresh models from the service-level config, which
    must therefore survive the round trip for resumed retrains to produce
    the same models an uninterrupted node would.
    """
    return {
        # Older releases dispatch on ``kind``; "sharded" + ``num_shards``
        # rebuilds this service exactly there too.
        "kind": "sharded",
        "num_shards": service.num_shards,
        "serving_config": asdict(service.config),
        "grafics_config": grafics_config_to_payload(service.grafics_config),
    }


def _stream_config_from_payload(payload: dict) -> StreamConfig:
    """Rebuild a :class:`StreamConfig` from its ``dataclasses.asdict`` form.

    Keys of retired fields in older checkpoints (such as
    ``retrain_sampler_mode``, from when the online negative sampler was
    selectable) are ignored.  A legacy ``retrain_kernel`` of
    ``"reference"`` (from when the fit kernel was selectable) loads as
    ``None``; ``"fused"`` is still a valid value and loads as itself, so a
    config round-trips.  Every retrain runs the one fit kernel either way.
    """
    retrain_kernel = payload.get("retrain_kernel")
    if retrain_kernel == "reference":
        retrain_kernel = None
    return StreamConfig(
        window=WindowConfig(**payload["window"]),
        drift=DriftConfig(**payload["drift"]),
        scheduler=SchedulerConfig(**payload["scheduler"]),
        buffer_capacity=int(payload["buffer_capacity"]),
        predict=bool(payload["predict"]),
        retrain_workers=int(payload["retrain_workers"]),
        retrain_kernel=retrain_kernel,
        # Absent in checkpoints written before the kernel / failure-domain
        # layers existed; ``.get`` keeps old checkpoints loadable.
        retrain_deadline_seconds=payload.get("retrain_deadline_seconds"),
    )
