"""Per-building and per-shard health scorecards: one verdict, with reasons.

The serving and stream layers each expose raw signals — drift latches,
rejection counters, cache hit rates, latency histograms, retrain backlogs
— but "is building B healthy?" requires *fusing* them.  This module owns
that fusion:

* :class:`HealthMonitor` watches a serving façade (any shard count)
  and optionally the :class:`ContinuousLearningPipeline` driving it, and
  renders :class:`Scorecard`\\ s per building, per shard and for the
  service as a whole.
* Every verdict is one of ``healthy`` / ``degraded`` / ``unhealthy`` and
  carries machine-readable :class:`HealthReason`\\ s (stable ``code``,
  severity, the observed value and the threshold it crossed), so an
  operator — or a rebalancer — can act on the *why*, not just the colour.
* Rates and tail latencies are computed over a **trailing window** from
  counter/histogram deltas (:mod:`repro.obs.timeseries`), not from
  process-lifetime cumulative state: a building recovers its ``healthy``
  verdict once the spike that degraded it leaves the window, which is
  what makes the verdict actionable.

The monitor reads the serving/stream objects through their public duck
surface only (``telemetry``, ``shards``, ``drift``, ``scheduler`` ...) and
deliberately never imports :mod:`repro.serving` or :mod:`repro.stream` —
those packages import :mod:`repro.obs`, and the consumption layer must
not close an import cycle back onto them.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

from . import runtime
from .timeseries import HistogramWindow, MetricsSampler

__all__ = ["HealthStatus", "HealthReason", "HealthPolicy", "Scorecard",
           "HealthMonitor"]

#: Subject key of the service-wide telemetry in the monitor's internals.
_SERVICE = "service"

#: Subject key of the process-global runtime registry (core-layer counters
#: such as ``delta_sampler_*``; present only while observability is enabled).
_RUNTIME = "runtime"

#: Verdict ordering for aggregation (higher = worse).
_SEVERITY_RANK = {"healthy": 0, "degraded": 1, "unhealthy": 2}


class HealthStatus(str, Enum):
    """The three-colour verdict of a scorecard."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    UNHEALTHY = "unhealthy"


@dataclass(frozen=True)
class HealthReason:
    """One machine-readable cause behind a non-healthy verdict.

    ``code`` is stable (``drift_latched:mac_churn``, ``tail_latency``,
    ``rejection_rate``, ``cache_hit_rate``, ``retrain_overdue``,
    ``retrain_errors``); ``severity`` is ``"degraded"``, ``"unhealthy"``
    or ``"info"`` (informational, never affects the verdict).
    """

    code: str
    severity: str
    detail: str
    value: float | None = None
    threshold: float | None = None

    def to_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {"code": self.code,
                                      "severity": self.severity,
                                      "detail": self.detail}
        if self.value is not None:
            payload["value"] = self.value
        if self.threshold is not None:
            payload["threshold"] = self.threshold
        return payload


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds the monitor fuses raw signals against.

    Defaults are tuned for the interactive serving stack: a p95 above a
    quarter second is worth flagging, above a second it is an outage-class
    signal.  All rates are computed over ``window_seconds`` of history,
    with minimum-observation guards so an idle service is simply healthy
    rather than noisily undefined.
    """

    window_seconds: float = 300.0
    tail_quantile: float = 0.95
    degraded_tail_latency_seconds: float = 0.25
    unhealthy_tail_latency_seconds: float = 1.0
    min_latency_observations: int = 5
    degraded_rejection_rate: float = 0.1
    unhealthy_rejection_rate: float = 0.5
    min_routing_observations: int = 20
    min_cache_hit_rate: float = 0.02
    min_cache_lookups: int = 50
    #: A drift-latched building whose last hot swap is older than this is
    #: overdue for its retrain (``None`` disables the check).
    retrain_overdue_seconds: float | None = 600.0
    #: This many simultaneous ``degraded`` reasons escalate the verdict to
    #: ``unhealthy`` — one bad signal degrades, corroborated bad signals
    #: (drift *and* a latency spike) mean the building is failing users.
    unhealthy_reason_count: int = 2

    def __post_init__(self) -> None:
        if self.window_seconds <= 0.0:
            raise ValueError("window_seconds must be positive")
        if not 0.0 < self.tail_quantile <= 1.0:
            raise ValueError("tail_quantile must be in (0, 1]")
        if (self.unhealthy_tail_latency_seconds
                < self.degraded_tail_latency_seconds):
            raise ValueError("unhealthy tail-latency threshold cannot be "
                             "below the degraded one")
        if self.unhealthy_rejection_rate < self.degraded_rejection_rate:
            raise ValueError("unhealthy rejection-rate threshold cannot be "
                             "below the degraded one")
        if self.unhealthy_reason_count < 1:
            raise ValueError("unhealthy_reason_count must be at least 1")


@dataclass(frozen=True)
class Scorecard:
    """One subject's verdict plus the reasons and supporting numbers."""

    subject: str
    status: HealthStatus
    reasons: tuple[HealthReason, ...] = ()
    metrics: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        return {
            "subject": self.subject,
            "status": self.status.value,
            "reasons": [reason.to_dict() for reason in self.reasons],
            "metrics": dict(self.metrics),
        }


def _verdict(reasons: tuple[HealthReason, ...],
             escalation_count: int) -> HealthStatus:
    if any(reason.severity == "unhealthy" for reason in reasons):
        return HealthStatus.UNHEALTHY
    degraded = sum(reason.severity == "degraded" for reason in reasons)
    if degraded >= escalation_count:
        return HealthStatus.UNHEALTHY
    if degraded:
        return HealthStatus.DEGRADED
    return HealthStatus.HEALTHY


def _worst(*statuses: HealthStatus) -> HealthStatus:
    return max(statuses,
               key=lambda status: _SEVERITY_RANK[status.value],
               default=HealthStatus.HEALTHY)


class _Subject:
    """Windowed view over one telemetry registry (service or shard)."""

    def __init__(self, registry, clock: Callable[[], float],
                 policy: HealthPolicy) -> None:
        self.registry = registry
        self.sampler = MetricsSampler(registry, clock=clock)
        self.latency = HistogramWindow(window_seconds=policy.window_seconds)
        self._policy = policy

    def observe(self, now: float) -> None:
        self.sampler.sample()
        histogram = self.registry.histogram_snapshot("request_seconds")
        if histogram is not None:
            self.latency.observe(now, histogram)

    def window_delta(self, counter: str, now: float) -> float:
        return self.sampler.series(f"counters.{counter}").increase(
            self._policy.window_seconds, now=now)


class HealthMonitor:
    """Fuses serving + stream signals into per-building/shard scorecards.

    Parameters
    ----------
    service:
        A serving façade — anything exposing ``building_ids`` and
        ``telemetry``; a ``shards`` attribute (as on
        :class:`~repro.serving.FloorServingService`) adds per-shard
        scorecards and attributes each building's latency/cache
        signals to its owning shard.  Defaults to ``pipeline.service``.
    pipeline:
        Optional :class:`ContinuousLearningPipeline`; adds drift-latch,
        pending/stale-retrain and last-swap-age signals.
    policy:
        Fusion thresholds; see :class:`HealthPolicy`.
    clock:
        Injected monotonic clock shared with the windowed statistics, so
        tests drive verdict flips deterministically.

    Call :meth:`report` periodically (every scrape does it): each call
    takes one windowed observation of every telemetry source, then renders
    the scorecards from trailing-window state.
    """

    def __init__(self, service=None, pipeline=None,
                 policy: HealthPolicy | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if service is None:
            if pipeline is None:
                raise ValueError("provide a service, a pipeline, or both")
            service = pipeline.service
        self.service = service
        self.pipeline = pipeline
        self.policy = policy or HealthPolicy()
        self._clock = clock
        self._subjects: dict[str, _Subject] = {
            _SERVICE: _Subject(service.telemetry, clock, self.policy)}
        for shard in getattr(service, "shards", ()) or ():
            self._subjects[f"shard{shard.index}"] = _Subject(
                shard.telemetry, clock, self.policy)

    # ------------------------------------------------------------- observation
    def observe(self, now: float | None = None) -> float:
        """Take one windowed sample of every telemetry source."""
        now = self._clock() if now is None else now
        self._refresh_runtime_subject()
        for subject in self._subjects.values():
            subject.observe(now)
        return now

    def _refresh_runtime_subject(self) -> None:
        """Track the process-global runtime registry as a windowed subject.

        The registry only exists while observability is enabled, and
        enabling/disabling swaps the object — so it is resolved on every
        observation rather than pinned at construction.  Its windowed
        series feed informational reasons only (e.g. delta-sampler cache
        effectiveness); a missing registry simply drops them.
        """
        registry = runtime.get_metrics()
        if registry is None:
            self._subjects.pop(_RUNTIME, None)
            return
        subject = self._subjects.get(_RUNTIME)
        if subject is None or subject.registry is not registry:
            self._subjects[_RUNTIME] = _Subject(registry, self._clock,
                                                self.policy)

    def _subject_for_building(self, building_id: str) -> _Subject:
        shard_for = getattr(self.service, "shard_for", None)
        if shard_for is not None:
            return self._subjects[f"shard{shard_for(building_id).index}"]
        return self._subjects[_SERVICE]

    # ----------------------------------------------------------- reason fusion
    def _latency_reasons(self, subject: _Subject,
                         now: float) -> tuple[list[HealthReason],
                                              dict[str, float]]:
        policy = self.policy
        count = subject.latency.count(now=now)
        tail = subject.latency.percentile(policy.tail_quantile, now=now)
        metrics = {"tail_latency_seconds": tail,
                   "latency_observations": float(count)}
        reasons: list[HealthReason] = []
        if count >= policy.min_latency_observations:
            quantile = f"p{policy.tail_quantile * 100:g}"
            if tail > policy.unhealthy_tail_latency_seconds:
                reasons.append(HealthReason(
                    code="tail_latency", severity="unhealthy",
                    detail=f"{quantile} latency {tail * 1e3:.0f} ms over the "
                           f"last {policy.window_seconds:g}s exceeds the "
                           f"outage threshold",
                    value=tail,
                    threshold=policy.unhealthy_tail_latency_seconds))
            elif tail > policy.degraded_tail_latency_seconds:
                reasons.append(HealthReason(
                    code="tail_latency", severity="degraded",
                    detail=f"{quantile} latency {tail * 1e3:.0f} ms over the "
                           f"last {policy.window_seconds:g}s exceeds the "
                           f"target",
                    value=tail,
                    threshold=policy.degraded_tail_latency_seconds))
        return reasons, metrics

    def _cache_reasons(self, subject: _Subject,
                       now: float) -> tuple[list[HealthReason],
                                            dict[str, float]]:
        policy = self.policy
        hits = subject.window_delta("cache_hits_total", now)
        misses = subject.window_delta("cache_misses_total", now)
        lookups = hits + misses
        hit_rate = hits / lookups if lookups > 0 else 0.0
        metrics = {"cache_hit_rate": hit_rate,
                   "cache_lookups": float(lookups)}
        reasons: list[HealthReason] = []
        if (lookups >= policy.min_cache_lookups
                and hit_rate < policy.min_cache_hit_rate):
            reasons.append(HealthReason(
                code="cache_hit_rate", severity="degraded",
                detail=f"cache hit rate {hit_rate:.1%} over "
                       f"{lookups:.0f} recent lookups is below the floor",
                value=hit_rate, threshold=policy.min_cache_hit_rate))
        return reasons, metrics

    def _rejection_reasons(self, subject: _Subject,
                           now: float) -> tuple[list[HealthReason],
                                                dict[str, float]]:
        policy = self.policy
        rejections = subject.window_delta("rejections_total", now)
        requests = subject.window_delta("requests_total", now)
        rate = rejections / requests if requests > 0 else 0.0
        metrics = {"rejection_rate": rate,
                   "recent_requests": float(requests)}
        reasons: list[HealthReason] = []
        if requests >= policy.min_routing_observations:
            if rate > policy.unhealthy_rejection_rate:
                reasons.append(HealthReason(
                    code="rejection_rate", severity="unhealthy",
                    detail=f"router rejected {rate:.1%} of "
                           f"{requests:.0f} recent requests",
                    value=rate, threshold=policy.unhealthy_rejection_rate))
            elif rate > policy.degraded_rejection_rate:
                reasons.append(HealthReason(
                    code="rejection_rate", severity="degraded",
                    detail=f"router rejected {rate:.1%} of "
                           f"{requests:.0f} recent requests",
                    value=rate, threshold=policy.degraded_rejection_rate))
        return reasons, metrics

    def _building_stream_reasons(self, building_id: str,
                                 now: float) -> tuple[list[HealthReason],
                                                      dict[str, float]]:
        """Drift-latch, retrain-backlog and swap-age signals (pipeline only)."""
        reasons: list[HealthReason] = []
        metrics: dict[str, float] = {}
        if self.pipeline is None:
            return reasons, metrics
        policy = self.policy
        latched = self.pipeline.drift.latched_kinds(building_id)
        for kind in latched:
            reasons.append(HealthReason(
                code=f"drift_latched:{kind.value}", severity="degraded",
                detail=f"drift detector latched {kind.value} for "
                       f"building {building_id!r}"))
        scheduler = self.pipeline.scheduler
        pending = scheduler.pending.get(building_id)
        if pending is not None or building_id in scheduler.inflight:
            state = "in flight" if building_id in scheduler.inflight \
                else f"pending ({pending})"
            reasons.append(HealthReason(
                code="retrain_pending", severity="info",
                detail=f"retrain {state} for building {building_id!r}"))
        # getattr: schedulers predating the failure-domain layer (and the
        # duck-typed fakes in tests) have no breaker surface.
        breaker_state = getattr(scheduler, "breaker_state", None)
        if breaker_state is not None:
            state = breaker_state(building_id)
            if state != "closed":
                failures = scheduler.consecutive_failures(building_id)
                metrics["retrain_consecutive_failures"] = float(failures)
                retry = scheduler.retry_in(building_id, now=now)
                if state == "open":
                    # Serving still answers from the stale model, but the
                    # building's learning loop is down — that is an
                    # unhealthy building, not a degraded one.
                    detail = (f"retrain circuit open for building "
                              f"{building_id!r} after {failures} consecutive "
                              "failures")
                    if retry is not None:
                        detail += f"; next probe in {retry:.0f}s"
                    reasons.append(HealthReason(
                        code="retrain_circuit_open", severity="unhealthy",
                        detail=detail, value=float(failures)))
                else:
                    reasons.append(HealthReason(
                        code="retrain_circuit_half_open", severity="info",
                        detail=f"probe retrain in flight for building "
                               f"{building_id!r} after {failures} "
                               "consecutive failures"))
        age = scheduler.last_swap_age(building_id, now=now)
        if age is not None:
            metrics["last_swap_age_seconds"] = age
        if (latched and policy.retrain_overdue_seconds is not None
                and age is not None
                and age > policy.retrain_overdue_seconds):
            reasons.append(HealthReason(
                code="retrain_overdue", severity="degraded",
                detail=f"building {building_id!r} has drift latched but its "
                       f"last hot swap is {age:.0f}s old",
                value=age, threshold=policy.retrain_overdue_seconds))
        return reasons, metrics

    def _delta_sampler_reasons(self, now: float) -> tuple[list[HealthReason],
                                                          dict[str, float]]:
        """Cold-path delta-sampler cache effectiveness (info-severity only).

        Reads the process-global runtime counters: compositions fully served
        from the cached base sampler/weights count as hits, compositions
        that had to (re)build a base part as rebuilds.  A low hit rate means
        the base graph is churning under the cold path (cold predicts keep
        paying the O(V) base builds); that is worth surfacing, but it is a
        performance observation, not a correctness problem — the reason is
        ``"info"`` severity and never moves a verdict.
        """
        reasons: list[HealthReason] = []
        metrics: dict[str, float] = {}
        subject = self._subjects.get(_RUNTIME)
        if subject is None:
            return reasons, metrics
        hits = subject.window_delta("delta_sampler_hits_total", now)
        rebuilds = subject.window_delta("delta_sampler_rebuilds_total", now)
        composed = hits + rebuilds
        if composed <= 0:
            return reasons, metrics
        hit_rate = hits / composed
        metrics["delta_sampler_hit_rate"] = hit_rate
        metrics["delta_sampler_composed"] = composed
        reasons.append(HealthReason(
            code="delta_sampler_cache", severity="info",
            detail=f"delta negative sampler served {hit_rate:.1%} of "
                   f"{composed:.0f} recent compositions from cached base "
                   f"tables",
            value=hit_rate))
        return reasons, metrics

    def _compute_pool_reasons(self, now: float) -> tuple[list[HealthReason],
                                                         dict[str, float]]:
        """Compute-pool dispatch and snapshot-shipping health (info only).

        Reads the service-level counters the pool records (the service
        constructs its shared pool with the service-level telemetry):
        recent dispatch rate, and what fraction of
        dispatches reused a snapshot already resident on the worker rather
        than re-shipping the pickled model.  A low snapshot hit rate means
        swap churn is outpacing the shipping economics — worth surfacing,
        but a cost observation, not a correctness problem — so the reason
        is ``"info"`` severity and never moves a verdict.  Services
        without a pool (``compute_workers=0``) emit nothing.
        """
        reasons: list[HealthReason] = []
        metrics: dict[str, float] = {}
        if getattr(self.service, "compute_pool", None) is None:
            return reasons, metrics
        subject = self._subjects[_SERVICE]
        dispatches = subject.window_delta("compute_pool_dispatch_total", now)
        if dispatches <= 0:
            return reasons, metrics
        ships = subject.window_delta("compute_pool_snapshot_ships_total", now)
        restarts = subject.window_delta("compute_pool_worker_restarts_total",
                                        now)
        hit_rate = max(0.0, dispatches - ships) / dispatches
        metrics["compute_pool_dispatch_rate"] = (
            dispatches / self.policy.window_seconds)
        metrics["compute_pool_snapshot_hit_rate"] = hit_rate
        if restarts > 0:
            metrics["compute_pool_recent_restarts"] = restarts
        detail = (f"compute pool dispatched {dispatches:.0f} task(s) in the "
                  f"last {self.policy.window_seconds:g}s; {hit_rate:.1%} "
                  f"reused a resident model snapshot")
        if restarts > 0:
            detail += f"; {restarts:.0f} worker restart(s)"
        reasons.append(HealthReason(code="compute_pool", severity="info",
                                    detail=detail, value=hit_rate))
        return reasons, metrics

    # -------------------------------------------------------------- scorecards
    def building_scorecard(self, building_id: str,
                           now: float) -> Scorecard:
        subject = self._subject_for_building(building_id)
        reasons: list[HealthReason] = []
        metrics: dict[str, float] = {}
        for part_reasons, part_metrics in (
                self._building_stream_reasons(building_id, now),
                self._latency_reasons(subject, now),
                self._cache_reasons(subject, now),
                self._delta_sampler_reasons(now)):
            reasons.extend(part_reasons)
            metrics.update(part_metrics)
        return Scorecard(
            subject=building_id,
            status=_verdict(tuple(reasons),
                            self.policy.unhealthy_reason_count),
            reasons=tuple(reasons), metrics=metrics)

    def shard_scorecard(self, shard, now: float) -> Scorecard:
        subject = self._subjects[f"shard{shard.index}"]
        reasons: list[HealthReason] = []
        metrics: dict[str, float] = {
            "buildings": float(len(shard.registry.building_ids)),
            "queue_depth": float(shard.batcher.pending_count),
        }
        for part_reasons, part_metrics in (
                self._latency_reasons(subject, now),
                self._cache_reasons(subject, now),
                self._compute_pool_reasons(now)):
            reasons.extend(part_reasons)
            metrics.update(part_metrics)
        return Scorecard(
            subject=f"shard{shard.index}",
            status=_verdict(tuple(reasons),
                            self.policy.unhealthy_reason_count),
            reasons=tuple(reasons), metrics=metrics)

    def service_scorecard(self, now: float) -> Scorecard:
        subject = self._subjects[_SERVICE]
        reasons, metrics = self._rejection_reasons(subject, now)
        pool_reasons, pool_metrics = self._compute_pool_reasons(now)
        reasons.extend(pool_reasons)
        metrics.update(pool_metrics)
        if self.pipeline is not None:
            # The registry-wide rejection latch has no building to pin.
            for kind in self.pipeline.drift.latched_kinds(None):
                reasons.append(HealthReason(
                    code=f"drift_latched:{kind.value}", severity="degraded",
                    detail=f"registry-wide drift latched: {kind.value}"))
            stale = subject.window_delta("retrains_stale_total", now)
            errors = subject.window_delta("retrain_errors_total", now)
            metrics["recent_stale_retrains"] = stale
            metrics["recent_retrain_errors"] = errors
            if errors > 0:
                reasons.append(HealthReason(
                    code="retrain_errors", severity="degraded",
                    detail=f"{errors:.0f} retrain(s) failed in the last "
                           f"{self.policy.window_seconds:g}s",
                    value=errors, threshold=0.0))
        return Scorecard(
            subject=_SERVICE,
            status=_verdict(tuple(reasons),
                            self.policy.unhealthy_reason_count),
            reasons=tuple(reasons), metrics=metrics)

    # ------------------------------------------------------------------ report
    def report(self, now: float | None = None) -> dict[str, object]:
        """Observe, then render the full ``/healthz`` payload.

        The aggregate ``status`` is the worst verdict across the service
        scorecard, every building and every shard, so a single unhealthy
        building is visible from the fleet-level colour.
        """
        now = self.observe(now)
        buildings = {building_id: self.building_scorecard(building_id, now)
                     for building_id in sorted(self.service.building_ids)}
        shards = {f"shard{shard.index}": self.shard_scorecard(shard, now)
                  for shard in getattr(self.service, "shards", ()) or ()}
        service = self.service_scorecard(now)
        overall = _worst(service.status,
                         *(card.status for card in buildings.values()),
                         *(card.status for card in shards.values()))
        return {
            "status": overall.value,
            "checked_at": now,
            "window_seconds": self.policy.window_seconds,
            "service": service.to_dict(),
            "buildings": {building_id: card.to_dict()
                          for building_id, card in buildings.items()},
            "shards": {name: card.to_dict()
                       for name, card in shards.items()},
        }
