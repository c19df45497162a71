"""The serving façade: router → cache → batcher → per-building engines.

:class:`FloorServingService` wraps a :class:`MultiBuildingFloorService`
registry with the production plumbing the research pipeline lacks:

* **routing** — building attribution via O(|record.rss|) inverted MAC
  indices (:mod:`repro.serving.router`), kept exactly equivalent to the
  registry's reference linear scan;
* **caching** — a bounded LRU/TTL prediction cache keyed on the canonical
  quantised fingerprint (:mod:`repro.serving.cache`);
* **micro-batching** — an asynchronous ``submit``/``poll``/``drain`` intake
  that coalesces requests into per-building batches with size- and
  deadline-triggered dispatch (:mod:`repro.serving.batcher`);
* **telemetry** — counters and latency histograms for every stage
  (:mod:`repro.serving.telemetry`);
* **hot swap** — per-building retrain-and-replace through the persistence
  layer, atomic with respect to concurrent serving calls.

GRAFICS trains one model per building, so the building is the unit of
partitioning: the stack is split into ``num_shards`` :class:`Shard` objects
(default 1), each owning its own lock, registry slice, router postings,
cache partition, micro-batch buckets and telemetry.  Buildings are placed
on shards by a stable hash (CRC-32 of the building id), so the placement
survives restarts and is identical on every node.  Attribution stays
global: :class:`ShardedRouter` picks among every shard's best candidate
with a *global* registration-order tie-break, so a record lands on exactly
the building the registry's reference scan would pick.

The synchronous :meth:`~FloorServingService.predict` /
:meth:`~FloorServingService.predict_batch` path computes predictions
identical to the sequential ``MultiBuildingFloorService.predict``
reference, for any shard count — per-record incremental embedding is
deterministic and independent of batch composition — which is what makes
the cache and the grouped dispatch safe to layer on top.  The one
deliberate deviation: with caching enabled, records that agree on the
quantised fingerprint (RSS rounded to ``rss_quantum``) share one cached
prediction instead of each being recomputed.
"""

from __future__ import annotations

import itertools
import threading
import time
import zlib
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

from ..core.inference import UnknownEnvironmentError
from ..core.persistence import fit_model, load_model
from ..core.pipeline import GRAFICS, GraficsConfig
from ..core.registry import BuildingPrediction, MultiBuildingFloorService
from ..core.types import FingerprintDataset, SignalRecord
from ..faults import failpoints
from ..obs import runtime as obs
from ..obs.log import log_event
from .batcher import Batch, MicroBatcher
from .cache import PredictionCache, fingerprint_key
from .pool import ComputePool
from .router import MacInvertedRouter, Router, RoutingDecision
from .telemetry import ServingTelemetry

__all__ = ["ServingConfig", "ServingResult", "FloorServingService",
           "ShardedServingService", "Shard", "ShardedRouter", "shard_index"]


@dataclass(frozen=True)
class ServingConfig:
    """Tunables of the serving stack."""

    max_batch_size: int = 32
    max_delay_seconds: float = 0.05
    cache_entries: int = 4096
    cache_ttl_seconds: float | None = None
    rss_quantum: float = 1.0
    enable_cache: bool = True
    #: Cold-path compute processes.  0 (default) keeps today's in-process
    #: path, byte-for-byte; N >= 1 puts a persistent
    #: :class:`~repro.serving.pool.ComputePool` of N workers behind the
    #: plan/compute/commit split — plan and commit stay in-process under
    #: the serving locks, only the engine work crosses the process
    #: boundary, and predictions stay byte-identical either way.
    compute_workers: int = 0
    #: Worker start method: ``None`` → ``"spawn"`` (always safe to respawn
    #: after a crash).  ``"fork"`` starts workers far faster but forks a
    #: possibly multi-threaded parent on respawn; opt in deliberately.
    compute_start_method: str | None = None

    def __post_init__(self) -> None:
        # The other fields are validated by the components they configure;
        # the quantum would otherwise only fail on the first cached lookup.
        if self.rss_quantum <= 0.0:
            raise ValueError("rss_quantum must be positive")
        if self.compute_workers < 0:
            raise ValueError("compute_workers must be >= 0 "
                             "(0 disables the compute pool)")
        if self.compute_start_method is not None and self.compute_workers == 0:
            raise ValueError("compute_start_method is only meaningful with "
                             "compute_workers > 0")


@dataclass(frozen=True)
class ServingResult:
    """Outcome of one asynchronously submitted request."""

    record_id: str
    prediction: BuildingPrediction | None
    source: str  # "cache" | "batch" | "rejected"
    error: str | None = None
    #: Request ID minted at intake, carried through dispatch and every
    #: rejection path (mid-flight eviction, post-swap unattributable), so a
    #: rejected result can be correlated with logs and traces.
    trace_id: str | None = None

    @property
    def ok(self) -> bool:
        return self.prediction is not None


def shard_index(building_id: str, num_shards: int) -> int:
    """Stable building → shard assignment (CRC-32, process-independent).

    Python's builtin ``hash`` of a string is salted per process, which would
    scatter the same building across shards between restarts; CRC-32 keeps
    the placement deterministic everywhere the same registry is served.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    return zlib.crc32(building_id.encode("utf-8")) % num_shards


@dataclass
class _ServePlan:
    """The locked-phase outcome of one shard's slice of a ``predict_batch``.

    Cache hits are already written into ``results`` when the plan is built;
    what remains is the per-building engine work, pinned to the *model
    snapshots* taken under the lock so the computation can run without it.
    """

    misses: list[tuple[str, object, list[int]]]  # (building, model, positions)
    keys: dict[int, str]
    served: int                                  # positions covered (hits + misses)


class Shard:
    """One partition's slice of the serving stack, guarded by its own lock.

    Everything per-building lives here: the registry slice holding the
    shard's models, the shard's router postings (its buildings' MAC
    vocabularies), its cache partition, its micro-batch buckets and its
    telemetry.  All of it is mutated and read under ``self.lock`` only, so
    traffic, hot swaps and evictions on one shard never contend with any
    other shard.  Engine computations run *outside* the lock: online
    inference is mutation-free, so the lock covers only planning (cache
    lookups, model snapshots) and committing (results, cache fills).
    """

    def __init__(self, index: int, grafics_config: GraficsConfig,
                 min_overlap: float, config: ServingConfig,
                 cache_entries: int,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.index = index
        self.config = config
        self.lock = threading.RLock()
        self.registry = MultiBuildingFloorService(grafics_config,
                                                  min_overlap=min_overlap)
        self.router = MacInvertedRouter(min_overlap=min_overlap)
        self.cache = PredictionCache(max_entries=cache_entries,
                                     ttl_seconds=config.cache_ttl_seconds,
                                     clock=clock)
        self.batcher = MicroBatcher(max_batch_size=config.max_batch_size,
                                    max_delay_seconds=config.max_delay_seconds,
                                    clock=clock)
        self.telemetry = ServingTelemetry(clock=clock)
        self.completed: list[ServingResult] = []

    @property
    def building_ids(self) -> list[str]:
        return self.registry.building_ids

    def stats(self) -> dict[str, object]:
        """Per-shard gauges for the aggregated telemetry snapshot."""
        return {
            "buildings": len(self.registry.building_ids),
            "queue_depth": self.batcher.pending_count,
            "cache_entries": len(self.cache),
            "predictions_total": self.telemetry.counter("predictions_total"),
            "hot_swaps_total": self.telemetry.counter("hot_swaps_total"),
        }

    def _still_installed(self, building_id: str, model) -> bool:
        """Is ``model`` still the installed model of ``building_id``?

        The stale-swap cache guard: predictions computed during the
        unlocked phase are cached only while their snapshot model is still
        live — a hot swap or eviction already invalidated the building's
        entries, and re-inserting a pre-swap prediction would resurrect
        exactly the staleness the invalidation removed.
        """
        try:
            return self.registry.model_for(building_id) is model
        except KeyError:
            return False

    # ------------------------------------------------------ synchronous path
    def serve(self, records: Sequence[SignalRecord],
              routed: Sequence[RoutingDecision], positions: Sequence[int],
              results: list[BuildingPrediction | None],
              pool: ComputePool | None) -> int:
        """This shard's slice of a batch: plan → compute → commit.

        The lock covers only the plan and commit phases; the engine
        computation between them runs unlocked, so cold predicts racing on
        one shard — or racing its hot swaps — never serialise.  Each miss
        group is served by the model installed when it was planned (never a
        mix of two).  Returns the number of positions served.
        """
        with self.telemetry.time("request_seconds"):
            with self.lock:
                plan = self._plan(records, routed, positions, results)
            outputs = self._compute(records, plan, pool)
            with self.lock:
                self._commit(routed, plan, outputs, results)
        return plan.served

    def _plan(self, records: Sequence[SignalRecord],
              routed: Sequence[RoutingDecision], positions: Sequence[int],
              results: list[BuildingPrediction | None]) -> _ServePlan:
        """Cache lookups + model snapshots for the slice (lock held)."""
        config = self.config
        with obs.span("serving.plan") as plan_span:
            miss_positions: dict[str, list[int]] = {}
            keys: dict[int, str] = {}
            for position in positions:
                record, decision = records[position], routed[position]
                if config.enable_cache:
                    key = fingerprint_key(decision.building_id, record,
                                          quantum=config.rss_quantum)
                    keys[position] = key
                    cached = self.cache.get(key)
                    if cached is not None:
                        self.telemetry.increment("cache_hits_total")
                        results[position] = replace(cached,
                                                    record_id=record.record_id)
                        continue
                    self.telemetry.increment("cache_misses_total")
                miss_positions.setdefault(decision.building_id,
                                          []).append(position)

            misses = []
            for building_id, miss in miss_positions.items():
                try:
                    model = self.registry.model_for(building_id)
                except KeyError:
                    # A building can be evicted between routing and the
                    # shard lock.  Surface the clean rejection routing a
                    # vanished building would have produced.
                    raise UnknownEnvironmentError(
                        f"building {building_id!r} was evicted between "
                        "routing and dispatch") from None
                misses.append((building_id, model, miss))
            plan_span.set("positions", len(positions))
            plan_span.set("miss_groups", len(misses))
            return _ServePlan(misses=misses, keys=keys, served=len(positions))

    def _compute(self, records: Sequence[SignalRecord], plan: _ServePlan,
                 pool: ComputePool | None) -> list[list]:
        """Run the planned engine work — *without* the shard lock.

        Returns one prediction list per planned miss group, in plan order.
        With a ``pool``, each miss group's engine work runs in worker
        processes against the shipped model snapshot (byte-identical
        output: ``independent=True`` inference is per-record deterministic
        and a pickled model predicts exactly like its source).  The
        ``serve.compute`` failpoint is still evaluated here, in the parent
        — one hit per call, same process-global counter as the in-process
        fire — but its effect executes inside the worker computing the
        first miss group; a slice of pure cache hits counts the hit with no
        compute left to fault.  The pool records compute timings and batch
        counters itself, from the workers' own measurements.
        """
        with obs.span("serving.compute") as compute_span:
            if pool is None:
                directives = None
                failpoints.fire("serve.compute")
            else:
                directives = failpoints.evaluate("serve.compute")
            outputs = []
            computed = 0
            for index, (building_id, model, miss) in enumerate(plan.misses):
                batch = [records[i] for i in miss]
                if pool is None:
                    with self.telemetry.time("batch_seconds"):
                        floor_predictions = model.predict_batch(
                            batch, independent=True)
                    self.telemetry.increment("batches_total")
                    self.telemetry.increment("batched_records_total",
                                             len(batch))
                else:
                    floor_predictions = pool.compute(
                        building_id, model, batch,
                        directives=directives if index == 0 else None)
                computed += len(batch)
                outputs.append(floor_predictions)
            compute_span.set("records", computed)
            return outputs

    def _commit(self, routed: Sequence[RoutingDecision], plan: _ServePlan,
                outputs: list[list],
                results: list[BuildingPrediction | None]) -> None:
        """Fill results and the cache from computed predictions (lock held).

        Cache fills go through the :meth:`_still_installed` stale-swap
        guard; the computed predictions themselves are always returned —
        the request was routed and served by the model that was live when
        it was planned.
        """
        with obs.span("serving.commit"):
            for (building_id, model, miss), floor_predictions in zip(
                    plan.misses, outputs):
                cacheable = (self.config.enable_cache
                             and self._still_installed(building_id, model))
                for position, floor_prediction in zip(miss, floor_predictions):
                    prediction = BuildingPrediction(
                        record_id=floor_prediction.record_id,
                        building_id=building_id,
                        floor=floor_prediction.floor,
                        mac_overlap=routed[position].overlap,
                        distance=floor_prediction.distance)
                    results[position] = prediction
                    if cacheable:
                        self.cache.put(plan.keys[position], prediction,
                                       building_id=building_id)
            self.telemetry.increment("predictions_total", plan.served)

    # ---------------------------------------------------- micro-batched path
    def dispatch(self, batch: Batch, pool: ComputePool | None) -> None:
        """Run one released micro-batch through the engine; buffer results.

        Same locking shape as :meth:`serve`: the caller must *not* hold the
        lock; it is taken only to snapshot the model and to commit results,
        while the engine computation in between runs unlocked.  A batch
        whose building vanished between release and dispatch surfaces as
        rejected results, exactly as an eviction of the still-queued
        requests would have; a batch overlapping a hot swap is served
        wholly by the snapshot model — the building's *current* model at
        dispatch time, which may post-date the routing decision — and skips
        the cache fill (the stale-put guard).  If that newer model can no
        longer attribute the batch's records (their MACs left the
        vocabulary), the whole batch surfaces as rejected instead of the
        exception escaping and losing the sibling results.  Results land in
        ``self.completed``, re-read under the lock on every append because
        ``poll``/``drain`` swap the list out.
        """
        telemetry = self.telemetry

        def reject_all(error: str) -> None:
            with self.lock:
                for record, _, _, request_id in batch.items:
                    telemetry.increment("rejections_total")
                    self.completed.append(ServingResult(
                        record_id=record.record_id, prediction=None,
                        source="rejected", error=error, trace_id=request_id))

        with obs.span("serving.dispatch") as dispatch_span:
            dispatch_span.set("building", batch.building_id)
            dispatch_span.set("reason", batch.reason)
            dispatch_span.set("size", len(batch.items))
            telemetry.observe("queue_wait_seconds", batch.queued_seconds)
            with self.lock:
                try:
                    model = self.registry.model_for(batch.building_id)
                except KeyError:
                    reject_all(f"building {batch.building_id!r} was evicted "
                               "before the request was dispatched")
                    return
            records = [record for record, _, _, _ in batch.items]
            # Every queued request must resolve: any error from the fault
            # site on (an injected fault, a vanished vocabulary, a dead
            # worker) rejects this batch and leaves the caller free to
            # dispatch the rest.  ProcessKilled is a BaseException and
            # propagates, as a real kill would.
            try:
                if pool is None:
                    failpoints.fire("serve.compute",
                                    building_id=batch.building_id)
                    with telemetry.time("batch_seconds"):
                        floor_predictions = model.predict_batch(
                            records, independent=True)
                    telemetry.increment("batches_total")
                    telemetry.increment("batched_records_total",
                                        len(records))
                else:
                    # The parent decides the serve.compute hit (keeping the
                    # process-global fault counter deterministic); the
                    # worker computing the batch executes it.  A worker
                    # dying mid-batch surfaces as retryable rejections —
                    # never a hang — while the pool respawns the worker
                    # underneath.
                    directives = failpoints.evaluate(
                        "serve.compute", building_id=batch.building_id)
                    floor_predictions = pool.compute(batch.building_id, model,
                                                     records,
                                                     directives=directives)
            except Exception as error:
                log_event("batch_rejected", building_id=batch.building_id,
                          size=len(records), error_type=type(error).__name__,
                          error=str(error))
                reject_all(str(error))
                return
            telemetry.increment(f"batch_flush_{batch.reason}_total")
            telemetry.increment("predictions_total", len(records))
            with self.lock:
                cacheable = (self.config.enable_cache
                             and self._still_installed(batch.building_id,
                                                       model))
                for (record, decision, key, request_id), floor_prediction in \
                        zip(batch.items, floor_predictions):
                    prediction = BuildingPrediction(
                        record_id=floor_prediction.record_id,
                        building_id=batch.building_id,
                        floor=floor_prediction.floor,
                        mac_overlap=decision.overlap,
                        distance=floor_prediction.distance)
                    if cacheable and key is not None:
                        self.cache.put(key, prediction,
                                       building_id=batch.building_id)
                    self.completed.append(ServingResult(
                        record_id=record.record_id, prediction=prediction,
                        source="batch", trace_id=request_id))

    def collect(self) -> list[ServingResult]:
        """Hand over the buffered results (the buffer starts afresh)."""
        with self.lock:
            completed, self.completed = self.completed, []
            return completed


class ShardedRouter(Router):
    """Building attribution over per-shard inverted indices.

    Each shard's :class:`MacInvertedRouter` holds postings for that shard's
    buildings only, tagged with their *global* registration positions, and
    is read under the shard's lock.  A query takes every shard's
    :meth:`~MacInvertedRouter.best_candidate` and applies the same rule to
    those winners, so the result — including the earliest-registered
    tie-break — is exactly the one-router answer.
    """

    def __init__(self, shards: Sequence[Shard],
                 min_overlap: float = 0.1) -> None:
        super().__init__(min_overlap)
        self._shards = tuple(shards)
        self._registration_lock = threading.Lock()
        self._positions: dict[str, int] = {}
        self._next_position = 0

    def _shard_for(self, building_id: str) -> Shard:
        return self._shards[shard_index(building_id, len(self._shards))]

    # -- registry maintenance ------------------------------------------------
    def add_building(self, building_id: str, vocabulary: Iterable[str]) -> None:
        shard = self._shard_for(building_id)
        with self._registration_lock:
            position = self._positions.get(building_id)
            if position is None:
                position = self._positions[building_id] = self._next_position
                self._next_position += 1
        with shard.lock:
            shard.router.add_building(building_id, vocabulary,
                                      position=position)

    def remove_building(self, building_id: str) -> None:
        shard = self._shard_for(building_id)
        with shard.lock:
            shard.router.remove_building(building_id)
        with self._registration_lock:
            del self._positions[building_id]

    @property
    def building_ids(self) -> list[str]:
        return sorted(self._positions, key=self._positions.__getitem__)

    def vocabulary_for(self, building_id: str) -> frozenset[str]:
        return self._shard_for(building_id).router.vocabulary_for(building_id)

    # -- attribution ---------------------------------------------------------
    def route(self, record: SignalRecord) -> RoutingDecision:
        macs = self._probe_macs(record, len(self._positions))
        best_building, best_hits, best_position = None, 0, -1
        for shard in self._shards:
            # A shard's postings and positions change together under its
            # lock, so a building evicted concurrently is either wholly
            # present in this shard's answer or wholly absent.
            with shard.lock:
                building_id, hits, position = shard.router.best_candidate(macs)
            if hits > best_hits or (hits == best_hits
                                    and position < best_position):
                best_building, best_hits, best_position = \
                    building_id, hits, position
        best_overlap = best_hits / len(macs)
        if best_building is None or best_overlap < self.min_overlap:
            self._reject(record, best_overlap)
        return RoutingDecision(building_id=best_building, overlap=best_overlap)


class FloorServingService:
    """Production serving stack over a multi-building GRAFICS registry.

    ``num_shards`` (default 1) hash-partitions the per-building state
    across :class:`Shard` objects; predictions are byte-identical for every
    shard count (test-enforced against the sequential registry reference).
    What the count changes is operational:

    * every shard serves, swaps and evicts under its *own* lock — a slow
      building only ever stalls the other buildings of its shard;
    * the prediction cache is partitioned (``cache_entries`` splits evenly
      across shards), so invalidations and LRU churn stay shard-local;
    * telemetry is recorded per shard and aggregated on demand, with
      per-shard gauges (queue depth, cache size, last-swap shard) in
      :meth:`telemetry_snapshot`.

    Concurrency semantics: routing reads each shard's postings under that
    shard's lock, and dispatch locks only the target shard, so a batch
    spanning shards sees a consistent *per-shard* view rather than one
    global snapshot — a record routed concurrently with a hot swap is
    served by either the old or the new model, never a mix of both.
    """

    def __init__(self, registry: MultiBuildingFloorService | None = None,
                 config: ServingConfig | None = None,
                 grafics_config: GraficsConfig | None = None,
                 num_shards: int = 1,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        source = registry or MultiBuildingFloorService(grafics_config)
        self.config = config or ServingConfig()
        self.num_shards = num_shards
        self.grafics_config = source.config
        self.min_overlap = source.min_overlap
        per_shard_entries = max(1, self.config.cache_entries // num_shards)
        self.shards = tuple(
            Shard(index=i, grafics_config=source.config,
                  min_overlap=source.min_overlap, config=self.config,
                  cache_entries=per_shard_entries, clock=clock)
            for i in range(num_shards))
        self.router = ShardedRouter(self.shards,
                                    min_overlap=source.min_overlap)
        self.telemetry = ServingTelemetry(clock=clock)
        # One pool shared by all shards: workers are a host-level resource
        # (cores), not a per-shard one, and the generation-keyed snapshots
        # are per building, so shards never collide in a worker's cache.
        # Pool counters land in the service-level telemetry, which
        # ``merged_snapshot`` already folds together with the shards'.
        # Only a compute_workers > 0 config pays the worker-process
        # startup cost; the default stays pool-free and byte-identical.
        self.compute_pool: ComputePool | None = None
        if self.config.compute_workers > 0:
            self.compute_pool = ComputePool(
                self.config.compute_workers, telemetry=self.telemetry,
                start_method=self.config.compute_start_method)
        # Results produced outside any shard's dispatch (routing
        # rejections of re-routed requests, evictions) wait here.
        self._orphans_lock = threading.Lock()
        self._orphans: list[ServingResult] = []
        # Deterministic request IDs (no RNG), minted at the front door so a
        # request keeps one identity even when re-routed across shards.
        self._request_ids = itertools.count(1)
        # Partition any pre-trained buildings in *registration order* so the
        # global tie-break matches the source registry's linear scan.
        for building_id, vocabulary in source.vocabularies.items():
            shard = self.shard_for(building_id)
            shard.registry.install_model(building_id,
                                         source.model_for(building_id),
                                         vocabulary=vocabulary)
            self.router.add_building(building_id, vocabulary)

    def close(self) -> None:
        """Release the compute pool's worker processes, if any.

        Idempotent.  Close when done serving: pooled compute after close
        surfaces as :class:`~repro.serving.pool.WorkerCrashError`.  A
        service with ``compute_workers=0`` has nothing to release.
        """
        if self.compute_pool is not None:
            self.compute_pool.close()

    def __enter__(self) -> "FloorServingService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ----------------------------------------------------- building lifecycle
    def shard_for(self, building_id: str) -> Shard:
        """The shard owning ``building_id`` (stable CRC-32 placement)."""
        return self.shards[shard_index(building_id, self.num_shards)]

    @property
    def building_ids(self) -> list[str]:
        """Served buildings, in registration (tie-break) order."""
        return self.router.building_ids

    def vocabulary_for(self, building_id: str) -> frozenset[str]:
        """The attribution vocabulary of one trained building."""
        return self.shard_for(building_id).registry.vocabulary_for(building_id)

    def model_for(self, building_id: str) -> GRAFICS:
        """The live model of one trained building."""
        return self.shard_for(building_id).registry.model_for(building_id)

    def fit_building(self, dataset: FingerprintDataset,
                     labels: Mapping[str, int]) -> GRAFICS:
        """Train a building on its shard and register it for routing."""
        shard = self.shard_for(dataset.building_id)
        with shard.lock:
            model = shard.registry.fit_building(dataset, labels)
            self.router.add_building(
                dataset.building_id,
                shard.registry.vocabulary_for(dataset.building_id))
            shard.cache.invalidate_building(dataset.building_id)
            return model

    def fit_corpus(self, datasets: Iterable[FingerprintDataset],
                   labels_by_building: Mapping[str, Mapping[str, int]]) -> None:
        for dataset in datasets:
            try:
                labels = labels_by_building[dataset.building_id]
            except KeyError:
                raise ValueError(
                    f"no labels provided for building {dataset.building_id!r}"
                ) from None
            self.fit_building(dataset, labels)

    def install_building(self, building_id: str, model: GRAFICS,
                         vocabulary: Iterable[str] | None = None) -> None:
        """Atomically (re)place a building's model — the hot-swap primitive.

        Registry entry, router postings and cache partition are updated
        under the owning shard's lock, so a concurrent ``predict`` sees
        either the old model or the new one, never a mix; other shards
        keep serving throughout.  Requests still queued for the building
        were routed against the old vocabulary; they are re-routed against
        the new one *after* the shard lock is released (the new vocabulary
        may send them to a different shard, whose lock must not be taken
        while this one is held) and re-queued, dispatched or rejected
        accordingly.  A batch already released for dispatch when the swap
        lands is served by the building's model as snapshotted at dispatch
        time, with unattributable records surfacing as rejected results
        (see :meth:`Shard.dispatch`).
        """
        # Fired before the shard lock: a kill here models a process dying
        # on the way into a swap — the installed model must remain the old
        # one and the shard keeps serving.
        failpoints.fire("swap.install", building_id=building_id)
        shard = self.shard_for(building_id)
        with shard.lock:
            shard.registry.install_model(building_id, model,
                                         vocabulary=vocabulary)
            self.router.add_building(
                building_id, shard.registry.vocabulary_for(building_id))
            shard.cache.invalidate_building(building_id)
            shard.telemetry.increment("hot_swaps_total")
            self.telemetry.set_gauge("last_swap_shard", shard.index)
            evicted = shard.batcher.evict(building_id)
        log_event("hot_swap_installed", building_id=building_id,
                  shard=shard.index, requeued=len(evicted))
        for record, _, _, request_id in evicted:
            # Re-routed requests keep their original intake ID so the
            # eventual result is attributable to the original submit.
            result, target_shard, full = self._route_and_enqueue(
                record, request_id=request_id)
            if result is not None:
                with self._orphans_lock:
                    self._orphans.append(result)
            if full is not None:
                target_shard.dispatch(full, self.compute_pool)

    def load_building(self, building_id: str, path: str | Path) -> GRAFICS:
        """Hot-swap a building from a model saved via the persistence layer."""
        model = load_model(path)
        self.install_building(building_id, model)
        return model

    def retrain_building(self, dataset: FingerprintDataset,
                         labels: Mapping[str, int],
                         model_path: str | Path | None = None,
                         warm_start: bool = False) -> GRAFICS:
        """Retrain one building off to the side, then hot-swap it in.

        Training holds no lock at all — only the final install takes the
        owning shard's lock — so the live model keeps serving until the
        replacement is ready.  When ``model_path`` is given the new model
        is round-tripped through the persistence layer (written to a
        temporary file and atomically renamed, then reloaded), so what goes
        live is exactly what a later restart would load from disk.
        ``warm_start=True`` initialises the embedding from the building's
        currently installed model (nodes surviving the retrain resume from
        their learned vectors) — the continuous-learning path, where
        retrains happen on a sliding window that mostly overlaps the
        previous one.  The fit takes its hyperparameters from the service's
        ``grafics_config``.
        """
        previous_embedding = None
        if warm_start:
            try:
                previous_embedding = self.model_for(
                    dataset.building_id).embedding
            except KeyError:
                previous_embedding = None
        with self.telemetry.time("retrain_seconds"):
            model = fit_model(self.grafics_config, dataset, labels,
                              warm_start=previous_embedding,
                              model_path=model_path)
        self.install_building(dataset.building_id, model,
                              vocabulary=frozenset(dataset.macs))
        return model

    def evict_building(self, building_id: str) -> None:
        """Remove a building from serving entirely.

        Requests already queued for the building can no longer be served;
        they surface from the next :meth:`poll`/:meth:`drain` as rejected
        results rather than crashing the dispatch or vanishing.
        """
        shard = self.shard_for(building_id)
        with shard.lock:
            shard.registry.remove_building(building_id)
            self.router.remove_building(building_id)
            shard.cache.invalidate_building(building_id)
            evicted = shard.batcher.evict(building_id)
        for record, _, _, request_id in evicted:
            self.telemetry.increment("rejections_total")
            with self._orphans_lock:
                self._orphans.append(ServingResult(
                    record_id=record.record_id, prediction=None,
                    source="rejected",
                    error=f"building {building_id!r} was evicted before the "
                          "request was dispatched",
                    trace_id=request_id))

    def export_registry(self) -> MultiBuildingFloorService:
        """All shards' models as one registry, in global registration order.

        The persistence view of the service (stream checkpoints, tooling).
        The result round-trips through ``save_registry``/``load_registry``
        unchanged — reconstructing a service from it reproduces both the
        shard placement (stable hash of the building id) and the
        attribution tie-break (registration order is preserved).
        """
        merged = MultiBuildingFloorService(self.grafics_config,
                                           min_overlap=self.min_overlap)
        for building_id in self.router.building_ids:
            shard = self.shard_for(building_id)
            with shard.lock:
                merged.install_model(
                    building_id, shard.registry.model_for(building_id),
                    vocabulary=shard.registry.vocabulary_for(building_id))
        return merged

    # ------------------------------------------------------ synchronous path
    def predict(self, record: SignalRecord) -> BuildingPrediction:
        """Route, consult the cache and predict one sample synchronously."""
        return self.predict_batch([record])[0]

    def predict_batch(self,
                      records: Sequence[SignalRecord]) -> list[BuildingPrediction]:
        """Predict several samples, grouped per shard then per building.

        Every prediction actually computed is identical to the sequential
        ``MultiBuildingFloorService.predict`` reference path, in input
        order; with the cache enabled, a record whose *quantised*
        fingerprint (RSS rounded to ``rss_quantum``) matches a cached entry
        is served that entry instead of being recomputed — exact
        re-submissions always get the identical prediction, while records
        differing only by sub-quantum RSS noise deliberately share one.
        Set ``enable_cache=False`` (or shrink ``rss_quantum``) for strict
        per-record recomputation.  Raises :class:`UnknownEnvironmentError`
        on the first record that cannot be attributed, before any
        prediction is computed, mirroring the reference.

        A refused call counts each of its records exactly once: records
        already served as predictions, every other one as a rejection.
        """
        records = list(records)
        self.telemetry.increment("requests_total", len(records))
        results: list[BuildingPrediction | None] = [None] * len(records)
        served = 0
        with obs.span("serving.request") as request_span:
            request_span.set("records", len(records))
            try:
                with obs.span("serving.route"):
                    routed = [self.router.route(record) for record in records]
                by_shard: dict[int, list[int]] = {}
                for position, decision in enumerate(routed):
                    index = shard_index(decision.building_id, self.num_shards)
                    by_shard.setdefault(index, []).append(position)
                for index, positions in by_shard.items():
                    served += self.shards[index].serve(
                        records, routed, positions, results, self.compute_pool)
            except BaseException:
                self.telemetry.increment("rejections_total",
                                         len(records) - served)
                raise
        return results

    # ---------------------------------------------------- micro-batched path
    def submit(self, record: SignalRecord) -> ServingResult | None:
        """Submit one request to the owning shard's micro-batching intake.

        Returns immediately with a :class:`ServingResult` when the request
        is served from cache or rejected; returns ``None`` when it was
        queued (its result will surface from :meth:`poll` or
        :meth:`drain`).  A size-triggered batch is dispatched inline with
        the shard lock released during the engine computation, mirroring
        the synchronous path: a full batch on one shard stalls neither that
        shard's other intake nor any other shard.
        """
        self.telemetry.increment("requests_total")
        result, shard, full = self._route_and_enqueue(record)
        if full is not None:
            shard.dispatch(full, self.compute_pool)
        return result

    def _route_and_enqueue(
            self, record: SignalRecord, request_id: str | None = None,
    ) -> tuple[ServingResult | None, Shard | None, Batch | None]:
        """Route one record into its shard's cache/batcher.

        Returns ``(result, shard, full_batch)``: a result when the record
        was served from cache or rejected, and/or the batch its enqueue
        filled — which the caller must dispatch *without* holding the shard
        lock.  A fresh request ID is minted unless the caller passes the
        one a previous intake already assigned (the hot-swap re-route
        path).
        """
        if request_id is None:
            request_id = f"req{next(self._request_ids):06d}"
        try:
            decision = self.router.route(record)
        except UnknownEnvironmentError as error:
            self.telemetry.increment("rejections_total")
            return ServingResult(record_id=record.record_id,
                                 prediction=None, source="rejected",
                                 error=str(error),
                                 trace_id=request_id), None, None
        shard = self.shard_for(decision.building_id)
        with shard.lock:
            key = None
            if self.config.enable_cache:
                key = fingerprint_key(decision.building_id, record,
                                      quantum=self.config.rss_quantum)
                cached = shard.cache.get(key)
                if cached is not None:
                    shard.telemetry.increment("cache_hits_total")
                    shard.telemetry.increment("predictions_total")
                    return ServingResult(
                        record_id=record.record_id,
                        prediction=replace(cached,
                                           record_id=record.record_id),
                        source="cache", trace_id=request_id), shard, None
                shard.telemetry.increment("cache_misses_total")
            full = shard.batcher.enqueue(decision.building_id,
                                         (record, decision, key, request_id))
        return None, shard, full

    def poll(self) -> list[ServingResult]:
        """Dispatch deadline-expired batches on every shard; collect results."""
        return self._flush(MicroBatcher.due)

    def drain(self) -> list[ServingResult]:
        """Flush every shard's pending batches; collect all results."""
        return self._flush(MicroBatcher.drain)

    def _flush(self, release: Callable[[MicroBatcher], Iterable[Batch]],
               ) -> list[ServingResult]:
        with self._orphans_lock:
            completed, self._orphans = self._orphans, []
        for shard in self.shards:
            with shard.lock:
                released = list(release(shard.batcher))
            for batch in released:
                shard.dispatch(batch, self.compute_pool)
            completed.extend(shard.collect())
        return completed

    @property
    def pending_count(self) -> int:
        return sum(shard.batcher.pending_count for shard in self.shards)

    # ---------------------------------------------------------- observability
    def telemetry_snapshot(self) -> dict[str, object]:
        """Aggregated counters/latencies plus cache, batcher and shard gauges.

        Counters are the *sum* over shards plus the service-level ones
        (requests, rejections), so ``predictions_total`` always equals
        requests minus rejections minus still-pending work, no matter which
        shard served what.
        """
        for shard in self.shards:
            self.telemetry.set_gauge(f"shard{shard.index}_queue_depth",
                                     shard.batcher.pending_count)
            self.telemetry.set_gauge(f"shard{shard.index}_cache_entries",
                                     len(shard.cache))
        snapshot = self.telemetry.merged_snapshot(
            shard.telemetry for shard in self.shards)
        cache_stats: dict[str, float | int] = {}
        for shard in self.shards:
            for name, value in shard.cache.stats().items():
                cache_stats[name] = cache_stats.get(name, 0) + value
        lookups = cache_stats["hits"] + cache_stats["misses"]
        cache_stats["hit_rate"] = round(
            cache_stats["hits"] / lookups, 4) if lookups else 0.0
        snapshot["cache"] = cache_stats
        pending: dict[str, int] = {}
        for shard in self.shards:
            pending.update(shard.batcher.pending_by_building())
        snapshot["pending"] = pending
        snapshot["buildings"] = len(self.building_ids)
        snapshot["shards"] = {str(shard.index): shard.stats()
                              for shard in self.shards}
        if self.compute_pool is not None:
            snapshot["compute_pool"] = self.compute_pool.stats()
        return snapshot


#: The historical name of the partitioned service: the same class object
#: (``num_shards`` selects the partitioning), not a subclass or a wrapper.
ShardedServingService = FloorServingService
