"""Retrain-executor tests: sync/async equivalence, fencing, error handling."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from stream_helpers import (
    FakeClock,
    stream_records,
    train_service,
)

from repro.stream import (
    RetrainExecutor,
    RetrainScheduler,
    SchedulerConfig,
    WindowConfig,
    WindowManager,
)


def window_dataset(split, count=24, label_every=2):
    windows = WindowManager(config=WindowConfig(max_records=64))
    for record in stream_records(split, count, label_every=label_every):
        windows.append("bldg-A", record)
    window = windows.window_for("bldg-A")
    labels = {r.record_id: r.floor for r in window.records
              if r.floor is not None}
    return window.as_dataset("bldg-A"), labels


class TestSynchronousExecution:
    def test_inline_submit_installs_and_reports(self, fresh_service):
        service, splits = fresh_service
        dataset, labels = window_dataset(splits["bldg-A"])
        executor = RetrainExecutor(service, max_workers=0)
        assert executor.synchronous
        old_model = service.model_for("bldg-A")
        completion = executor.submit("bldg-A", dataset, labels,
                                     trigger="drift:mac_churn")
        assert completion is not None and completion.swapped
        assert not completion.stale
        assert completion.duration_seconds > 0.0
        assert service.model_for("bldg-A") is not old_model
        assert executor.generation("bldg-A") == 1

    def test_negative_workers_rejected(self, fresh_service):
        service, _ = fresh_service
        with pytest.raises(ValueError, match="max_workers"):
            RetrainExecutor(service, max_workers=-1)


class TestAsyncEquivalence:
    def test_background_install_equals_synchronous_install(
            self, fresh_service):
        """The async path must produce the same installed model as sync."""
        service_a, splits = fresh_service
        dataset, labels = window_dataset(splits["bldg-A"])

        sync = RetrainExecutor(service_a, max_workers=0)
        sync.submit("bldg-A", dataset, labels, trigger="t", warm_start=True)

        service_b, _ = train_service()
        background = RetrainExecutor(service_b, max_workers=2)
        assert background.submit("bldg-A", dataset, labels, trigger="t",
                                 warm_start=True) is None
        assert background.join(timeout=60.0)
        completions = background.drain_completed()
        background.shutdown()
        assert len(completions) == 1 and completions[0].swapped

        model_a = service_a.model_for("bldg-A")
        model_b = service_b.model_for("bldg-A")
        assert np.array_equal(model_a.embedding.ego, model_b.embedding.ego)
        probes = [r.without_floor() for r in splits["bldg-A"].test_records[:5]]
        assert (service_a.predict_batch(probes)
                == service_b.predict_batch(probes))


class TestGenerationFencing:
    def test_stale_result_never_overwrites_newer_install(self, fresh_service):
        """A swap prepared against generation G must not clobber G+1."""
        service, splits = fresh_service
        dataset, labels = window_dataset(splits["bldg-A"])

        release_slow = threading.Event()
        started_slow = threading.Event()
        executor = RetrainExecutor(service, max_workers=2)
        default_train = executor._train

        def gated_train(job, previous):
            if job.trigger == "slow":
                started_slow.set()
                assert release_slow.wait(timeout=60.0)
            return default_train(job, previous)

        executor._train = gated_train
        # Job A snapshots generation 0 and blocks inside its fit.
        executor.submit("bldg-A", dataset, labels, trigger="slow")
        assert started_slow.wait(timeout=60.0)
        # Job B (also generation 0) trains and installs first -> generation 1.
        executor.submit("bldg-A", dataset, labels, trigger="fast")
        while not any(c.trigger == "fast"
                      for c in executor.drain_completed()):
            pass
        model_after_fast = service.model_for("bldg-A")
        assert executor.generation("bldg-A") == 1

        release_slow.set()
        assert executor.join(timeout=60.0)
        completions = executor.drain_completed()
        executor.shutdown()
        assert len(completions) == 1
        slow = completions[0]
        assert slow.trigger == "slow" and slow.stale and not slow.swapped
        # The fenced-out result must not have touched the installed model.
        assert service.model_for("bldg-A") is model_after_fast
        assert executor.generation("bldg-A") == 1
        assert executor.stale_total == 1

    def test_each_install_bumps_generation(self, fresh_service):
        service, splits = fresh_service
        dataset, labels = window_dataset(splits["bldg-A"])
        executor = RetrainExecutor(service, max_workers=0)
        for expected in (1, 2, 3):
            executor.submit("bldg-A", dataset, labels, trigger="t")
            assert executor.generation("bldg-A") == expected

    def test_invalidate_fences_out_inflight_retrain(self, fresh_service):
        """An operator's manual install must not be overwritten by a retrain
        that was already in flight when the operator acted."""
        service, splits = fresh_service
        dataset, labels = window_dataset(splits["bldg-A"])
        release = threading.Event()
        started = threading.Event()
        executor = RetrainExecutor(service, max_workers=1)
        default_train = executor._train

        def gated_train(job, previous):
            started.set()
            assert release.wait(timeout=60.0)
            return default_train(job, previous)

        executor._train = gated_train
        executor.submit("bldg-A", dataset, labels, trigger="t")
        assert started.wait(timeout=60.0)

        # Operator rolls the building back manually and fences the executor.
        manual_model = service.model_for("bldg-A")
        service.install_building("bldg-A", manual_model)
        assert executor.invalidate("bldg-A") == 1

        release.set()
        assert executor.join(timeout=60.0)
        completions = executor.drain_completed()
        executor.shutdown()
        assert len(completions) == 1
        assert completions[0].stale and not completions[0].swapped
        assert service.model_for("bldg-A") is manual_model


class TestErrorHandling:
    def test_failed_background_fit_surfaces_as_completion(self,
                                                          fresh_service):
        service, splits = fresh_service
        dataset, labels = window_dataset(splits["bldg-A"])
        executor = RetrainExecutor(
            service, max_workers=1,
            train=lambda job, previous: (_ for _ in ()).throw(
                ValueError("boom")))
        executor.submit("bldg-A", dataset, labels, trigger="t")
        assert executor.join(timeout=60.0)
        completions = executor.drain_completed()
        executor.shutdown()
        assert len(completions) == 1
        assert not completions[0].swapped
        assert "boom" in completions[0].error
        assert executor.errors_total == 1
        assert service.telemetry.counter("retrain_errors_total") == 1

    def test_failed_synchronous_fit_repends_without_raising(
            self, fresh_service):
        """The default inline executor must match the async failure path:
        report the failure, keep the latched trigger pending, don't raise
        out of the ingest loop."""
        service, splits = fresh_service
        windows = WindowManager(config=WindowConfig(max_records=64))
        for record in stream_records(splits["bldg-A"], 24, label_every=2):
            windows.append("bldg-A", record)
        executor = RetrainExecutor(
            service, max_workers=0,
            train=lambda job, previous: (_ for _ in ()).throw(
                ValueError("boom")))
        scheduler = RetrainScheduler(
            service, windows, SchedulerConfig(min_window_records=10),
            executor=executor)
        scheduler._pending["bldg-A"] = "drift:mac_churn"
        report = scheduler.maybe_retrain("bldg-A")
        assert report is not None and not report.swapped
        assert "boom" in report.skipped_reason
        assert scheduler.pending == {"bldg-A": "drift:mac_churn"}
        assert scheduler.retrains_total == 0

    def test_failed_retrain_repends_trigger_in_scheduler(self, fresh_service):
        service, splits = fresh_service
        windows = WindowManager(config=WindowConfig(max_records=64))
        for record in stream_records(splits["bldg-A"], 24, label_every=2):
            windows.append("bldg-A", record)
        executor = RetrainExecutor(
            service, max_workers=1,
            train=lambda job, previous: (_ for _ in ()).throw(
                ValueError("boom")))
        scheduler = RetrainScheduler(
            service, windows, SchedulerConfig(min_window_records=10),
            executor=executor)
        scheduler._pending["bldg-A"] = "drift:mac_churn"
        report = scheduler.maybe_retrain("bldg-A")
        assert report is not None and report.submitted
        assert executor.join(timeout=60.0)
        reports = scheduler.collect()
        executor.shutdown()
        assert len(reports) == 1 and not reports[0].swapped
        assert "boom" in reports[0].skipped_reason
        # The drift is still latched in the detector; losing the trigger
        # would mean the building never retrains.
        assert scheduler.pending == {"bldg-A": "drift:mac_churn"}


class TestGauges:
    def test_pending_gauge_tracks_queue(self, fresh_service):
        service, splits = fresh_service
        dataset, labels = window_dataset(splits["bldg-A"])
        release = threading.Event()
        started = threading.Event()
        executor = RetrainExecutor(service, max_workers=1)
        default_train = executor._train

        def gated_train(job, previous):
            started.set()
            assert release.wait(timeout=60.0)
            return default_train(job, previous)

        executor._train = gated_train
        executor.submit("bldg-A", dataset, labels, trigger="t")
        assert started.wait(timeout=60.0)
        assert executor.pending_count == 1
        assert service.telemetry.gauge("retrains_pending") == 1
        release.set()
        assert executor.join(timeout=60.0)
        executor.drain_completed()
        executor.shutdown()
        assert service.telemetry.gauge("retrains_pending") == 0


class TestJoinTimeoutSemantics:
    def test_join_times_out_while_a_job_is_in_flight(self, fresh_service):
        service, splits = fresh_service
        dataset, labels = window_dataset(splits["bldg-A"])
        release = threading.Event()
        started = threading.Event()
        executor = RetrainExecutor(service, max_workers=1)
        default_train = executor._train

        def gated_train(job, previous):
            started.set()
            assert release.wait(timeout=60.0)
            return default_train(job, previous)

        executor._train = gated_train
        executor.submit("bldg-A", dataset, labels, trigger="t")
        assert started.wait(timeout=60.0)
        # The job is parked inside its fit: a bounded join must give up
        # and say so, not block the caller (checkpoint(), close()) forever.
        assert executor.join(timeout=0.05) is False
        assert executor.pending_count == 1
        release.set()
        assert executor.join(timeout=60.0) is True
        executor.drain_completed()
        executor.shutdown()

    def test_join_on_idle_executor_returns_immediately(self, fresh_service):
        service, _ = fresh_service
        executor = RetrainExecutor(service, max_workers=1)
        assert executor.join(timeout=0.0) is True
        executor.shutdown()

    def test_join_on_synchronous_executor_is_trivially_true(
            self, fresh_service):
        service, _ = fresh_service
        assert RetrainExecutor(service, max_workers=0).join(timeout=0.0)


class TestRetryAfterFailure:
    def test_retry_installs_under_the_generation_snapshotted_at_submit(
            self, fresh_service):
        """A failed fit must not burn a generation: the retry snapshots the
        same generation the failed attempt held and its install lands."""
        service, splits = fresh_service
        dataset, labels = window_dataset(splits["bldg-A"])
        executor = RetrainExecutor(service, max_workers=0)
        default_train = executor._train
        calls = {"n": 0}

        def flaky_train(job, previous):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("injected first-attempt failure")
            return default_train(job, previous)

        executor._train = flaky_train
        old_model = service.model_for("bldg-A")
        with pytest.raises(ValueError, match="first-attempt"):
            executor.submit("bldg-A", dataset, labels, trigger="t")
        assert executor.errors_total == 1
        assert executor.generation("bldg-A") == 0  # failure bumped nothing
        assert service.model_for("bldg-A") is old_model

        completion = executor.submit("bldg-A", dataset, labels, trigger="t")
        assert completion is not None and completion.swapped
        assert completion.generation == 0   # the fence token it was checked by
        assert executor.generation("bldg-A") == 1
        assert service.model_for("bldg-A") is not old_model


class TestFitDeadline:
    def test_overrunning_fit_is_abandoned_not_installed(self, fresh_service):
        service, splits = fresh_service
        dataset, labels = window_dataset(splits["bldg-A"])
        clock = FakeClock()
        executor = RetrainExecutor(service, max_workers=0, clock=clock,
                                   fit_deadline_seconds=5.0)
        default_train = executor._train

        def slow_train(job, previous):
            clock.advance(12.0)  # three slides past the 5 s budget
            return default_train(job, previous)

        executor._train = slow_train
        old_model = service.model_for("bldg-A")
        completion = executor.submit("bldg-A", dataset, labels, trigger="t")
        assert completion is not None and not completion.swapped
        assert "deadline" in completion.error
        assert executor.deadline_exceeded_total == 1
        assert (service.telemetry.counter("retrain_deadline_exceeded_total")
                == 1)
        # The runaway result was abandoned under the fence, never installed.
        assert service.model_for("bldg-A") is old_model
        assert executor.generation("bldg-A") == 0

    def test_fit_within_budget_installs(self, fresh_service):
        service, splits = fresh_service
        dataset, labels = window_dataset(splits["bldg-A"])
        clock = FakeClock()
        executor = RetrainExecutor(service, max_workers=0, clock=clock,
                                   fit_deadline_seconds=5.0)
        completion = executor.submit("bldg-A", dataset, labels, trigger="t")
        assert completion is not None and completion.swapped

    def test_non_positive_deadline_rejected(self, fresh_service):
        service, _ = fresh_service
        with pytest.raises(ValueError, match="fit_deadline_seconds"):
            RetrainExecutor(service, fit_deadline_seconds=0.0)

