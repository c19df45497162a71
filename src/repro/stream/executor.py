"""Background retrain execution with generation-fenced atomic installs.

The scheduler (:mod:`repro.stream.scheduler`) decides *when* a building is
due for a retrain; this module owns *how* the retrain runs.  The split
matters operationally: ``RetrainScheduler.maybe_retrain`` used to train on
the ingest thread, so a drifted building stalled every other building's
traffic for the duration of a ``GRAFICS`` fit.  :class:`RetrainExecutor`
moves the fit onto a worker pool — the ingest loop submits a job and keeps
flowing — and installs the finished model through the service's atomic
hot-swap path on completion.

Because installs can now race (two overlapping retrains of one building),
every executor install is *fenced* by a per-building generation counter: a
job snapshots the building's generation at submit time, and the finished
model is installed only if the generation is unchanged — a swap prepared
against generation G can never overwrite the model of generation G+1.
The check and the install happen under one lock, so the fence cannot be
interleaved.  The counter tracks installs *made through this executor*;
code that installs a model directly on the service (an operator rollback,
``load_building``) should call :meth:`RetrainExecutor.invalidate` so any
retrain already in flight is fenced out rather than silently overwriting
the manual install when it completes.

With ``max_workers=0`` the executor degrades to synchronous inline
execution — the exact behaviour (and, fits being deterministic, the exact
installed models) of the pre-split scheduler, which is what keeps the
async path testable: same job, same warm-start snapshot, same model.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from ..core.persistence import _registry_model_filename, fit_model
from ..core.pipeline import GRAFICS
from ..faults import failpoints
from ..obs import runtime as obs
from ..obs.log import log_event

__all__ = ["RetrainJob", "RetrainCompletion", "RetrainExecutor"]


@dataclass(frozen=True)
class RetrainJob:
    """One retrain request: the training snapshot plus its fence token."""

    building_id: str
    dataset: object                  # FingerprintDataset (window snapshot)
    labels: Mapping[str, int]
    trigger: str
    warm_start: bool
    generation: int
    window_records: int = 0
    labeled_records: int = 0
    #: Trace active on the submitting thread (the ``stream.process`` span
    #: that triggered this retrain); the worker thread pins its
    #: ``stream.retrain`` span to it so drift → retrain → swap chains stay
    #: joinable across threads.
    trace_id: str | None = None


@dataclass(frozen=True)
class RetrainCompletion:
    """The outcome of one executed retrain job."""

    building_id: str
    trigger: str
    generation: int
    swapped: bool
    stale: bool = False
    duration_seconds: float = 0.0
    window_records: int = 0
    labeled_records: int = 0
    error: str | None = None
    #: Trace the retrain ran under (the submitting trace when one was
    #: live, otherwise the ``stream.retrain`` span's own fresh trace).
    trace_id: str | None = None


class RetrainExecutor:
    """Runs ``GRAFICS`` fits off the ingest thread; installs on completion.

    Parameters
    ----------
    service:
        The serving façade to install into (a
        :class:`~repro.serving.FloorServingService`, any shard count);
        only ``model_for``, ``install_building``, ``grafics_config`` and
        ``telemetry`` are used.  ``install_building`` is looked up on the
        instance at every install, so an instance-assigned hook applies.
    max_workers:
        ``0`` executes jobs synchronously inside :meth:`submit` (the
        pre-split behaviour); ``>= 1`` runs them on a thread pool and
        surfaces results through :meth:`drain_completed`.
    model_dir:
        When set, every finished model is round-tripped through the
        persistence layer (atomic write, then reload) before installing, so
        what goes live is exactly what a later restart would load.
    train:
        Injectable training function ``(job, warm_start_embedding) ->
        GRAFICS`` — tests use it to control job timing and interleaving.
    fit_deadline_seconds:
        Wall budget (on the injected clock) for one fit.  A Python thread
        cannot be preempted mid-fit, so the budget is enforced *after* the
        fit returns: an overrun result is abandoned under the generation
        fence — never installed — and surfaces as an error completion, so
        the scheduler's backoff/breaker treats a runaway fit exactly like
        a failed one.  ``None`` disables the budget.
    """

    def __init__(self, service, max_workers: int = 0,
                 model_dir: str | Path | None = None,
                 train: Callable[[RetrainJob, object | None], GRAFICS] | None = None,
                 clock: Callable[[], float] = time.perf_counter,
                 fit_deadline_seconds: float | None = None) -> None:
        if max_workers < 0:
            raise ValueError("max_workers must be non-negative")
        if fit_deadline_seconds is not None and fit_deadline_seconds <= 0.0:
            raise ValueError("fit_deadline_seconds must be positive (or None)")
        self.service = service
        self.fit_deadline_seconds = fit_deadline_seconds
        self.model_dir = Path(model_dir) if model_dir is not None else None
        self._train = train if train is not None else self._default_train
        self._clock = clock
        self._pool = (ThreadPoolExecutor(
            max_workers=max_workers,
            thread_name_prefix="retrain") if max_workers > 0 else None)
        #: Guards completion bookkeeping (the hot path: every
        #: ``pipeline.process`` drains completions through it).
        self._condition = threading.Condition()
        #: Guards the generation counters and the per-building lock map —
        #: held only for dict reads/writes, never across an install, so the
        #: ingest thread's ``submit``/``drain_completed`` never wait behind
        #: an install in progress.
        self._fence = threading.Lock()
        #: One lock per building serialises that building's
        #: check-install-bump sequences against each other (and against
        #: :meth:`invalidate`); installs for different buildings proceed in
        #: parallel.
        self._building_locks: dict[str, threading.Lock] = {}
        self._generations: dict[str, int] = {}
        self._completed: list[RetrainCompletion] = []
        self._inflight = 0
        self.executed_total = 0
        self.stale_total = 0
        self.errors_total = 0
        self.deadline_exceeded_total = 0

    # ------------------------------------------------------------------ state
    @property
    def synchronous(self) -> bool:
        """Whether jobs run inline in :meth:`submit` (``max_workers=0``)."""
        return self._pool is None

    @property
    def pending_count(self) -> int:
        with self._condition:
            return self._inflight

    def generation(self, building_id: str) -> int:
        """The building's current install generation (0 before any swap)."""
        with self._fence:
            return self._generations.get(building_id, 0)

    def _building_lock(self, building_id: str) -> threading.Lock:
        with self._fence:
            lock = self._building_locks.get(building_id)
            if lock is None:
                lock = self._building_locks[building_id] = threading.Lock()
            return lock

    def invalidate(self, building_id: str) -> int:
        """Fence out in-flight retrains around a manual model install.

        Bumps the building's generation so any retrain submitted before the
        bump completes as stale instead of overwriting the manual install.
        Call this *before* installing a model on the service outside the
        executor (operator rollback, ``load_building``...) — an executor
        install already past its fence check finishes first (the bump waits
        on the building's install lock), so everything the executor does
        after the bump is guaranteed stale.  Returns the new generation.
        """
        with self._building_lock(building_id):
            with self._fence:
                generation = self._generations.get(building_id, 0) + 1
                self._generations[building_id] = generation
                return generation

    # ----------------------------------------------------------------- intake
    def submit(self, building_id: str, dataset, labels: Mapping[str, int],
               trigger: str, warm_start: bool = True,
               window_records: int = 0,
               labeled_records: int = 0) -> RetrainCompletion | None:
        """Execute (synchronous) or enqueue (background) one retrain.

        The warm-start embedding and the generation fence are snapshotted
        *now*, against the currently installed model; the fit itself runs
        against exactly this snapshot regardless of what installs in the
        meantime — the fence decides at completion whether the result may
        still go live.  Returns the completion when synchronous, ``None``
        when the job was queued (collect it via :meth:`drain_completed`).
        """
        with self._fence:
            generation = self._generations.get(building_id, 0)
        previous_embedding = None
        if warm_start:
            try:
                previous_embedding = self.service.model_for(
                    building_id).embedding
            except KeyError:
                previous_embedding = None
        job = RetrainJob(building_id=building_id, dataset=dataset,
                         labels=dict(labels), trigger=trigger,
                         warm_start=warm_start, generation=generation,
                         window_records=window_records,
                         labeled_records=labeled_records,
                         trace_id=obs.current_trace_id())
        if self._pool is None:
            try:
                return self._execute(job, previous_embedding)
            except Exception:
                # Count inline failures the same way _run counts pooled
                # ones, then let the caller's resilience path (the
                # scheduler re-pends and backs off) handle the raise.
                self.errors_total += 1
                self.service.telemetry.increment("retrain_errors_total")
                raise
        with self._condition:
            self._inflight += 1
        self._update_gauge()
        self._pool.submit(self._run, job, previous_embedding)
        return None

    # -------------------------------------------------------------- execution
    def _default_train(self, job: RetrainJob,
                       previous_embedding) -> GRAFICS:
        model_path = None
        if self.model_dir is not None:
            model_path = (self.model_dir
                          / _registry_model_filename(job.building_id))
        return fit_model(self.service.grafics_config, job.dataset, job.labels,
                         warm_start=previous_embedding, model_path=model_path)

    def _execute(self, job: RetrainJob,
                 previous_embedding) -> RetrainCompletion:
        # Pinning the span to the job's submit-time trace joins the
        # worker-thread retrain onto the stream.process trace that
        # triggered it (root spans otherwise mint a fresh trace).
        with obs.span("stream.retrain", trace_id=job.trace_id) as retrain_span:
            retrain_span.set("building", job.building_id)
            retrain_span.set("trigger", job.trigger)
            retrain_span.set("generation", job.generation)
            failpoints.fire("retrain.fit", building_id=job.building_id)
            started = self._clock()
            model = self._train(job, previous_embedding)
            duration = self._clock() - started
            self.service.telemetry.observe("retrain_seconds", duration)
            trace_id = (retrain_span.span.trace_id
                        if retrain_span.span is not None else job.trace_id)
            deadline = self.fit_deadline_seconds
            if deadline is not None and duration > deadline:
                # Too late to preempt the fit; what we can still do is
                # refuse to install its result.  The generation fence makes
                # abandonment safe, and reporting an error completion folds
                # overruns into the scheduler's backoff/breaker path.
                self.deadline_exceeded_total += 1
                self.service.telemetry.increment(
                    "retrain_deadline_exceeded_total")
                log_event("retrain_deadline_exceeded",
                          building_id=job.building_id, trigger=job.trigger,
                          duration_seconds=duration,
                          deadline_seconds=deadline)
                retrain_span.set("deadline_exceeded", True)
                return RetrainCompletion(
                    building_id=job.building_id, trigger=job.trigger,
                    generation=job.generation, swapped=False,
                    duration_seconds=duration,
                    window_records=job.window_records,
                    labeled_records=job.labeled_records,
                    error=(f"fit overran its {deadline:g}s deadline "
                           f"({duration:.3f}s); result abandoned"),
                    trace_id=trace_id)
            completion = self._install(job, model, duration, trace_id)
            retrain_span.set("swapped", completion.swapped)
            return completion

    def _install(self, job: RetrainJob, model: GRAFICS, duration: float,
                 trace_id: str | None = None) -> RetrainCompletion:
        """Install under the generation fence; stale results are discarded.

        The check-install-bump sequence holds the *building's* install
        lock, so two completions for the same building serialise: whichever
        lands first bumps the generation and the other is fenced out — a
        swap prepared against generation G never overwrites G+1.  Neither
        the completion lock nor the global fence is held across the install
        itself, so ``drain_completed``/``submit`` on the ingest thread
        never wait behind an install in progress, and installs for
        different buildings proceed in parallel.
        """
        with self._building_lock(job.building_id):
            with self._fence:
                current = self._generations.get(job.building_id, 0)
                stale = current != job.generation
            if stale:
                self.stale_total += 1
                self.service.telemetry.increment("retrains_stale_total")
                log_event("retrain_fenced_stale", building_id=job.building_id,
                          trigger=job.trigger, job_generation=job.generation,
                          current_generation=current)
                return RetrainCompletion(
                    building_id=job.building_id, trigger=job.trigger,
                    generation=job.generation, swapped=False, stale=True,
                    duration_seconds=duration,
                    window_records=job.window_records,
                    labeled_records=job.labeled_records, trace_id=trace_id)
            self.service.install_building(job.building_id, model,
                                          vocabulary=frozenset(
                                              job.dataset.macs))
            with self._fence:
                self._generations[job.building_id] = current + 1
            self.executed_total += 1
        self.service.telemetry.increment("retrains_executed_total")
        return RetrainCompletion(
            building_id=job.building_id, trigger=job.trigger,
            generation=job.generation, swapped=True,
            duration_seconds=duration, window_records=job.window_records,
            labeled_records=job.labeled_records, trace_id=trace_id)

    def _run(self, job: RetrainJob, previous_embedding) -> None:
        """Worker-pool wrapper: one failed fit must not kill the pool."""
        try:
            completion = self._execute(job, previous_embedding)
        except Exception as error:  # noqa: BLE001 — surfaced as a completion
            self.errors_total += 1
            self.service.telemetry.increment("retrain_errors_total")
            completion = RetrainCompletion(
                building_id=job.building_id, trigger=job.trigger,
                generation=job.generation, swapped=False,
                window_records=job.window_records,
                labeled_records=job.labeled_records, error=str(error),
                trace_id=job.trace_id)
        except BaseException:
            # A simulated process kill (or a real KeyboardInterrupt) is not
            # a completion — but it must still release the in-flight slot,
            # or join() would wait forever on a job that will never land.
            with self._condition:
                self._inflight -= 1
                self._condition.notify_all()
            self._update_gauge()
            raise
        with self._condition:
            self._completed.append(completion)
            self._inflight -= 1
            self._condition.notify_all()
        self._update_gauge()

    # ------------------------------------------------------------ completions
    def drain_completed(self) -> list[RetrainCompletion]:
        """Remove and return every completion finished since the last drain."""
        with self._condition:
            completed, self._completed = self._completed, []
        return completed

    def join(self, timeout: float | None = None) -> bool:
        """Block until no job is in flight; ``False`` on timeout."""
        with self._condition:
            return self._condition.wait_for(lambda: self._inflight == 0,
                                            timeout)

    def shutdown(self) -> None:
        """Wait for in-flight jobs and release the worker pool."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def _update_gauge(self) -> None:
        self.service.telemetry.set_gauge("retrains_pending",
                                         self.pending_count)

    def stats(self) -> dict[str, object]:
        with self._condition:
            return {
                "mode": "synchronous" if self._pool is None else "background",
                "pending": self._inflight,
                "executed_total": self.executed_total,
                "stale_total": self.stale_total,
                "errors_total": self.errors_total,
                "deadline_exceeded_total": self.deadline_exceeded_total,
                "generations": dict(self._generations),
            }
