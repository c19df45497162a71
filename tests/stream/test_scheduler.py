"""Retrain-scheduler tests: triggers, guards, cooldown, hot swap."""

from __future__ import annotations

from stream_helpers import FakeClock, stream_records

from repro.stream import (
    DriftEvent,
    DriftKind,
    RetrainScheduler,
    SchedulerConfig,
    WindowConfig,
    WindowManager,
)


def churn_event(building_id="bldg-A"):
    return DriftEvent(kind=DriftKind.MAC_CHURN, building_id=building_id,
                      value=0.2, threshold=0.6, detail="test")


def filled_windows(split, count=20, label_every=2):
    windows = WindowManager(config=WindowConfig(max_records=64))
    for record in stream_records(split, count, label_every=label_every):
        windows.append("bldg-A", record)
    return windows


class TestGuards:
    def test_nothing_pending_returns_none(self, fresh_service):
        service, splits = fresh_service
        scheduler = RetrainScheduler(service, WindowManager())
        assert scheduler.maybe_retrain("bldg-A") is None

    def test_small_window_skips_with_reason_but_stays_pending(
            self, fresh_service):
        service, splits = fresh_service
        windows = filled_windows(splits["bldg-A"], count=3)
        scheduler = RetrainScheduler(service, windows,
                                     SchedulerConfig(min_window_records=10))
        scheduler.note_drift(churn_event())
        report = scheduler.maybe_retrain("bldg-A")
        assert report is not None and not report.swapped
        assert "window holds 3 records" in report.skipped_reason
        # The trigger stays pending (drift events latch in the detector and
        # would never re-fire) but the same guard is not re-reported.
        assert scheduler.pending == {"bldg-A": "drift:mac_churn"}
        assert scheduler.maybe_retrain("bldg-A") is None
        assert len(scheduler.history) == 1

    def test_too_few_labels_skips_with_reason(self, fresh_service):
        service, splits = fresh_service
        windows = filled_windows(splits["bldg-A"], count=12, label_every=100)
        scheduler = RetrainScheduler(
            service, windows, SchedulerConfig(min_window_records=10,
                                              min_labeled_records=2))
        scheduler.note_drift(churn_event())
        report = scheduler.maybe_retrain("bldg-A")
        assert report is not None and not report.swapped
        assert "labeled records" in report.skipped_reason

    def test_guarded_drift_retrains_once_enough_labels_arrive(
            self, fresh_service):
        """Regression: a drift skipped on guards must not be lost forever."""
        service, splits = fresh_service
        windows = WindowManager(config=WindowConfig(max_records=64))
        for record in stream_records(splits["bldg-A"], 12, label_every=100):
            windows.append("bldg-A", record)
        scheduler = RetrainScheduler(
            service, windows, SchedulerConfig(min_window_records=10,
                                              min_labeled_records=2,
                                              warm_start=False))
        scheduler.note_drift(churn_event())
        assert not scheduler.maybe_retrain("bldg-A").swapped  # no labels yet
        # Labeled records trickle in later; the latched drift must still win.
        for record in stream_records(splits["bldg-A"], 4, prefix="lbl-",
                                     label_every=1):
            windows.append("bldg-A", record)
            scheduler.note_append("bldg-A")
        report = scheduler.maybe_retrain("bldg-A")
        assert report is not None and report.swapped
        assert report.trigger == "drift:mac_churn"

    def test_global_drift_events_do_not_target_a_building(self, fresh_service):
        service, splits = fresh_service
        scheduler = RetrainScheduler(service, WindowManager())
        scheduler.note_drift(DriftEvent(kind=DriftKind.ROUTER_REJECTION,
                                        building_id=None, value=0.9,
                                        threshold=0.3, detail="test"))
        assert scheduler.pending == {}


class TestRetrain:
    def test_drift_trigger_retrains_and_hot_swaps(self, fresh_service):
        service, splits = fresh_service
        old_model = service.model_for("bldg-A")
        windows = filled_windows(splits["bldg-A"], count=20)
        scheduler = RetrainScheduler(
            service, windows, SchedulerConfig(min_window_records=10,
                                              warm_start=False))
        scheduler.note_drift(churn_event())
        report = scheduler.maybe_retrain("bldg-A")
        assert report is not None and report.swapped
        assert report.trigger == "drift:mac_churn"
        assert report.window_records == 20
        assert report.duration_seconds > 0.0
        assert service.model_for("bldg-A") is not old_model
        assert scheduler.retrains_total == 1
        # The new vocabulary is the window's, installed in the router too.
        assert (service.router.vocabulary_for("bldg-A")
                == frozenset(windows.window_for("bldg-A").as_dataset("bldg-A").macs))

    def test_record_count_cadence_triggers(self, fresh_service):
        service, splits = fresh_service
        windows = filled_windows(splits["bldg-A"], count=15)
        scheduler = RetrainScheduler(
            service, windows,
            SchedulerConfig(retrain_every_records=10, min_window_records=5,
                            warm_start=False))
        for _ in range(9):
            scheduler.note_append("bldg-A")
        assert scheduler.pending == {}
        scheduler.note_append("bldg-A")
        assert scheduler.pending == {"bldg-A": "record_count"}
        report = scheduler.maybe_retrain("bldg-A")
        assert report.swapped and report.trigger == "record_count"

    def test_cooldown_keeps_trigger_pending(self, fresh_service):
        service, splits = fresh_service
        windows = filled_windows(splits["bldg-A"], count=20)
        scheduler = RetrainScheduler(
            service, windows, SchedulerConfig(min_window_records=5,
                                              cooldown_records=50,
                                              warm_start=False))
        # 20 appends so far is within the 50-record cooldown horizon.
        for _ in range(20):
            scheduler.note_append("bldg-A")
        scheduler.note_drift(churn_event())
        assert scheduler.maybe_retrain("bldg-A") is None
        assert scheduler.pending == {"bldg-A": "drift:mac_churn"}
        # Enough further appends elapse the cooldown; the retrain proceeds.
        for _ in range(31):
            scheduler.note_append("bldg-A")
        report = scheduler.maybe_retrain("bldg-A")
        assert report is not None and report.swapped

    def test_cooldown_seconds_keeps_trigger_pending(self, fresh_service):
        """A quiet building must not thrash retrains on sparse bursts: the
        count-only cooldown passes immediately once enough records arrive,
        so the wall-clock guard has to hold the line in between."""
        service, splits = fresh_service
        windows = filled_windows(splits["bldg-A"], count=20)
        clock = FakeClock()
        scheduler = RetrainScheduler(
            service, windows,
            SchedulerConfig(min_window_records=5, cooldown_seconds=30.0,
                            warm_start=False),
            clock=clock)
        scheduler.note_drift(churn_event())
        assert scheduler.maybe_retrain("bldg-A").swapped  # first swap is free

        # A new drift right after the swap is held by the cooldown.
        scheduler.note_drift(churn_event())
        clock.advance(10.0)
        assert scheduler.maybe_retrain("bldg-A") is None
        assert scheduler.pending == {"bldg-A": "drift:mac_churn"}
        # Once the cooldown elapses the latched trigger fires.
        clock.advance(25.0)
        report = scheduler.maybe_retrain("bldg-A")
        assert report is not None and report.swapped
        assert scheduler.retrains_total == 2

    def test_cooldown_seconds_validation(self):
        import pytest
        with pytest.raises(ValueError, match="cooldown_seconds"):
            SchedulerConfig(cooldown_seconds=0.0)
        with pytest.raises(ValueError, match="cooldown_seconds"):
            SchedulerConfig(cooldown_seconds=-1.0)

    def test_warm_start_retrain_succeeds(self, fresh_service):
        service, splits = fresh_service
        windows = filled_windows(splits["bldg-A"], count=20)
        scheduler = RetrainScheduler(
            service, windows, SchedulerConfig(min_window_records=10,
                                              warm_start=True))
        scheduler.note_drift(churn_event())
        report = scheduler.maybe_retrain("bldg-A")
        assert report.swapped
        probe = splits["bldg-A"].test_records[0].without_floor()
        assert service.predict(probe).building_id == "bldg-A"


class TestLastSwapAge:
    def test_age_tracks_the_injected_clock(self, fresh_service):
        service, splits = fresh_service
        clock = FakeClock(start=100.0)
        windows = filled_windows(splits["bldg-A"])
        scheduler = RetrainScheduler(service, windows,
                                     SchedulerConfig(min_window_records=10),
                                     clock=clock)
        assert scheduler.last_swap_age("bldg-A") is None
        scheduler.note_drift(churn_event())
        report = scheduler.maybe_retrain("bldg-A")
        assert report is not None and report.swapped
        clock.advance(42.0)
        assert scheduler.last_swap_age("bldg-A") == 42.0
        # An explicit ``now`` overrides the clock read (health monitors
        # evaluate every signal at one shared instant).
        assert scheduler.last_swap_age("bldg-A", now=150.0) == 50.0
        assert scheduler.last_swap_age("never-swapped") is None
