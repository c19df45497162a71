"""The three benchmark workloads.

Every workload is a closed loop with one client: the next request is sent
only after the previous call returned.  Inputs are made up front from the
seed (record objects for a block of requests are materialised outside the
timed window).  A run always completes a fixed prefix of ``min_units`` work
units -- the prefix the quality scores and the determinism self-test read --
and then keeps going until its timed ticks have taken ``seconds`` of wall
time.

* ``cold-scan`` -- never-seen scans, one per ``FloorServingService.predict``
  call, on 4 small buildings (315 graph nodes) and 1 large one (2625 nodes),
  exactly one large scan in every five.  Measures the whole in-process cold
  path at both ledger sizes.
* ``returning-devices`` -- rounds of 64 ``submit`` calls and one ``drain``:
  2 fresh scans and 62 repeats of a Zipf device population that fits the
  prediction cache.  Router, cache, batcher and façade costs dominate.
* ``stream-retrain`` -- ``ContinuousLearningPipeline`` over a 2-shard
  ``ShardedServingService`` with one compute-pool worker, replaying a
  labelled (1 in 3) crowdsourced backlog; cadence retrains, one
  vocabulary-drift retrain and periodic checkpoints run synchronously, so
  which model serves which record is fixed by the seed.
"""

from __future__ import annotations

import gc
import pickle
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import (GRAFICS, ContinuousLearningPipeline, FloorServingService,
                   GraficsConfig, ServingConfig, ShardedServingService,
                   SignalRecord, StreamConfig)
from repro.stream import DriftConfig, SchedulerConfig, WindowConfig

from harness import (PROBE_REFERENCES, IdentityGate, Ledger, Meter, Tick,
                     Timing, clock, installed_state, peak_rss_mb, percentile,
                     quality, timed_setup)
from inputs import SMALL_RECORDS_PER_FLOOR, ScanFactory, make_building

#: Identity-gate sample size (requests re-computed by the reference).
GATE_SAMPLE = 120


@dataclass
class Phase:
    """One timed phase: its ticks and the records served in them."""

    ticks: list[Tick] = field(default_factory=list)
    records: int = 0

    @property
    def seconds(self) -> float:
        """Raw (unscaled) CPU seconds of the phase's ticks."""
        return sum(tick.seconds for tick in self.ticks)

    def scaled_seconds(self) -> float:
        return sum(tick.seconds / tick.ref for tick in self.ticks)

    def scaled_latencies(self) -> list[float]:
        return [latency / tick.ref for tick in self.ticks
                for latency in tick.latencies]

    def per_record(self) -> float:
        return self.scaled_seconds() / max(1, self.records)


def run_units(step, seconds: float, min_units: int, max_units: int) -> int:
    """Call ``step(unit)`` until the prefix is done and ``seconds`` elapsed.

    ``step`` returns the wall seconds its ticks took, so untimed preparation
    inside a step (materialising its inputs) stays out of the budget.  The
    budget is wall time, so a run takes about as long on a slow host as on
    a quiet one; it just measures fewer units there.
    """
    timed, unit = 0.0, 0
    while unit < max_units and (unit < min_units or timed < seconds):
        timed += step(unit)
        unit += 1
    return unit


def service_counts(service) -> dict[str, float]:
    """Counters of the serving stack (telemetry, cache and batcher stats)."""
    snapshot = service.telemetry_snapshot()
    counts = dict(snapshot["counters"])
    counts["cache_invalidations"] = snapshot["cache"]["invalidations"]
    batchers = ([service.batcher] if hasattr(service, "batcher")
                else [shard.batcher for shard in service.shards])
    counts["batcher_enqueued"] = sum(b.enqueued_total for b in batchers)
    counts["batcher_batches"] = sum(sum(b.flushes_by_reason.values())
                                    for b in batchers)
    return counts


def median_or_nan(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def timing_metrics(phase: Phase, setups: list[Timing], retrains: list[Timing],
                   swaps: list[Timing], scale: bool) -> dict:
    """The timed metrics, host-scaled (``scale``) or as raw CPU time,
    with the raw wall-clock throughput beside the raw figures."""
    def value(timing: Timing) -> float:
        return timing.scaled if scale else timing.raw

    latencies = (phase.scaled_latencies() if scale else
                 [latency for tick in phase.ticks for latency in tick.latencies])
    seconds = phase.scaled_seconds() if scale else phase.seconds
    wall = {} if scale else {"wall_throughput_rps": phase.records / sum(
        tick.wall for tick in phase.ticks)}
    return wall | {
        "setup_s": median_or_nan([value(t) for t in setups]),
        "throughput_rps": phase.records / seconds,
        "p50_ms": percentile(latencies, 0.50) * 1e3,
        "p99_ms": percentile(latencies, 0.99) * 1e3,
        "retrain_s": median_or_nan([value(t) for t in retrains]),
        "swap_lag_s": median_or_nan([value(t) for t in swaps]),
    }


class Workload:
    """Shared run skeleton: set up, timed phase(s), probes, gates, metrics."""

    name = ""
    setup_repeats = 3
    #: Units of the always-run prefix (quality scores, determinism test).
    min_units = 1
    #: Units the traced phase runs at least.
    traced_min_units = 1
    #: Highest request rate the input supply is sized for (records per
    #: timed second); a run that exhausts its supply stops early.
    rate_cap = 1500

    def __init__(self, seed: int, seconds: float, variant: str = "none",
                 work_dir: Path | None = None) -> None:
        #: "none" is the benchmark proper; the others switch one program
        #: setting for the sensitivity runs (METRICS.md).
        self.seed = seed
        self.seconds = seconds
        self.variant = variant
        self.work_dir = work_dir
        self.config = GraficsConfig()
        self.ledger = Ledger()
        self.gate = IdentityGate()
        self.recorder = None
        self.truth: dict[str, int] = {}
        self.predicted: dict[str, int] = {}
        self.meter = Meter()
        #: Every retrain and every swap measured.
        self.retrains: list[Timing] = []
        self.swaps: list[Timing] = []
        self.breaches: list[str] = []

    # ------------------------------------------------------- workload hooks
    def make_inputs(self, phases: int) -> None:
        raise NotImplementedError

    def build(self):
        raise NotImplementedError

    def dispose(self, built) -> None:
        built.close()

    def phase(self, phase: Phase, min_units: int) -> None:
        raise NotImplementedError

    def after_phases(self) -> None:
        """Untimed work after the timed phases (probes)."""

    def extra_counts(self) -> dict[str, float]:
        return {}

    # ------------------------------------------------------------ skeleton
    def supply(self, phases: int, per_unit: int) -> int:
        """Units of input to make: both phases' minimums plus the rate cap."""
        return (self.min_units + (phases - 1) * self.traced_min_units
                + phases * (int(self.rate_cap * self.seconds) // per_unit + 1))

    def counts(self) -> dict[str, float]:
        counts = service_counts(self.service)
        counts["ledger_sent"] = self.ledger.sent
        counts["ledger_failed"] = self.ledger.failed
        counts.update(self.extra_counts())
        return counts

    def note(self, request_id: str) -> None:
        if self.recorder is not None:
            self.recorder.request_id = request_id

    @contextmanager
    def tick(self):
        """One metered stretch of timed work; only ticks are traced."""
        with self.meter.tick() as tick:
            if self.recorder is not None:
                self.recorder.active = True
            try:
                yield tick
            finally:
                if self.recorder is not None:
                    self.recorder.active = False

    def on_traced_start(self) -> None:
        """Called just before the traced phase starts."""

    def untimed(self, work) -> None:
        """Run untimed work inside a phase, keeping it out of traced counts."""
        if self.recorder is None:
            work()
            return
        before = self.counts()
        work()
        after = self.counts()
        for name in after:
            self.untimed_delta[name] = (self.untimed_delta.get(name, 0)
                                        + after[name] - before.get(name, 0))

    def serve_one(self, record):
        """Serve one probe request; returns its prediction or raises."""
        return self.service.predict(record)

    def _swap(self, building, factory, model, tick: Tick) -> float:
        """Hot-swap ``model`` in and serve one scan with it.

        Records install-to-first-prediction under ``tick``; returns the
        clock reading when the install call returned.
        """
        installing = clock()
        self.service.install_building(building.building_id, model,
                                      vocabulary=frozenset(building.train.macs))
        installed = clock()
        record = factory.fresh("probe")[0]
        self.ledger.send(record.record_id)
        try:
            prediction = self.serve_one(record)
        except Exception as error:  # noqa: BLE001 -- a counted miss
            self.ledger.resolve(record.record_id, False, repr(error))
            return installed
        self.swaps.append(Timing((clock() - installing, tick)))
        self.ledger.resolve(
            record.record_id,
            self.service.model_for(building.building_id) is model
            and prediction.building_id == building.building_id,
            "probe not served by the swapped-in model")
        self.gate.add(installed_state(self.service, self.ids), record,
                      prediction)
        return installed

    def retrain_probe(self, building, factory, clones: int) -> None:
        """Refit a building and swap it in, then swap in ``clones`` copies.

        The refit is seed-deterministic, so the new model predicts exactly
        like the old one; a clone shares the fitted model's graph and
        embedding, so its swap costs no fit.
        """
        with self.meter.tick(references=PROBE_REFERENCES) as tick:
            started = clock()
            model = GRAFICS(self.config).fit(
                building.train, building.labels,
                sampler_mode=("delta" if self.variant == "delta-sampler"
                              else None))
            installed = self._swap(building, factory, model, tick)
        self.retrains.append(Timing((installed - started, tick)))
        clones = [model.with_sampler_mode(model.config.sampler_mode or "exact")
                  for _ in range(clones)]
        with self.meter.tick(references=PROBE_REFERENCES) as tick:
            for clone in clones:
                self._swap(building, factory, clone, tick)

    def run(self, recorder=None) -> dict:
        """One full run; returns metrics, counts and diagnostics."""
        self.make_inputs(phases=2 if recorder is not None else 1)
        gc.collect()
        gc.freeze()
        self.service, setups = timed_setup(self.meter, self.build,
                                           self.setup_repeats, self.dispose)
        traced = None
        try:
            first = Phase()
            self.phase(first, self.min_units)
            if recorder is not None:
                traced = Phase()
                before = self.counts()
                self.untimed_delta = {}
                self.on_traced_start()
                self.recorder = recorder
                recorder.install()
                try:
                    self.phase(traced, self.traced_min_units)
                finally:
                    recorder.uninstall()
                    self.recorder = None
                after = self.counts()
                traced_delta = {
                    name: (after.get(name, 0) - before.get(name, 0)
                           - self.untimed_delta.get(name, 0))
                    for name in set(after) | set(before)}
            self.after_phases()
            mismatches = self.gate.check(self.config)
            final_counts = self.counts()
        finally:
            self.dispose(self.service)
        self.ledger.close()
        correct = self.ledger.ok - len(mismatches)
        breaches = self.breaches + self.ledger.breaches + mismatches
        micro, macro = quality(self.truth, self.predicted)
        timed = timing_metrics(first, setups, self.retrains, self.swaps,
                               scale=True)
        units = {"setup_s": "s", "throughput_rps": "1/s", "p50_ms": "ms",
                 "p99_ms": "ms", "retrain_s": "s", "swap_lag_s": "s"}
        metrics = {name: (timed[name], units[name]) for name in units}
        metrics.update({
            "ok_ratio": (correct / max(1, self.ledger.sent), "ratio"),
            "micro_f": (micro, "score"),
            "macro_f": (macro, "score"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        })
        result = {
            "metrics": metrics,
            "raw": timing_metrics(first, setups, self.retrains, self.swaps,
                                  scale=False),
            "host": {"slowdown": {
                q: percentile(self.meter.samples, f)
                for q, f in (("p10", 0.1), ("p50", 0.5), ("p90", 0.9))},
                "references": len(self.meter.samples)},
            "samples": {"latency": sum(len(t.latencies) for t in first.ticks),
                        "setup": self.setup_repeats,
                        "retrain": len(self.retrains),
                        "swap_lag": len(self.swaps),
                        "quality": len(self.truth),
                        "identity_gate": len(self.gate),
                        "timed_records": first.records},
            "counts": self.determinism_counts(final_counts, micro, macro),
            "breaches": breaches,
            "sent": self.ledger.sent,
            "failed": self.ledger.sent - correct,
        }
        if traced is not None:
            result["traced"] = {
                "phase": traced, "untraced": first,
                "delta": traced_delta, "extras": self.layer_extras()}
        return result

    def determinism_counts(self, counts: dict, micro: float,
                           macro: float) -> dict:
        """What two runs of one seed with a fixed prefix must agree on."""
        return {
            "micro_f": micro.hex(), "macro_f": macro.hex(),
            "requests": self.ledger.sent,
            "swaps": counts.get("hot_swaps_total", 0),
            "cache_hits": counts.get("cache_hits_total", 0),
            "snapshot_ships": counts.get("compute_pool_snapshot_ships_total", 0),
            "retrains": counts.get("executor_retrains", 0),
            "drift_events": counts.get("drift_events", 0),
        }

    def layer_extras(self) -> dict[str, float]:
        return {}


# --------------------------------------------------------------------------
class ColdScan(Workload):
    """Never-seen scans, one ``predict()`` call each, 4 small + 1 large."""

    name = "cold-scan"
    setup_repeats = 1          # one fleet set-up fits a 2625-node building
    BLOCK = 50                 # scans per work unit
    min_units = 20             # 1000 scans: the quality / gate prefix
    traced_min_units = 1
    #: Retrain probes, two per small building: retrain_s is their median.
    PROBES = 8
    #: Clone swaps per retrain probe: swap_lag_s is the median of
    #: PROBES x (1 + CLONES) swaps, each timing one cold prediction.
    CLONES = 20

    def make_inputs(self, phases: int) -> None:
        seed = self.seed
        self.buildings = ([make_building(seed, i, "small") for i in range(4)]
                          + [make_building(seed, 4, "large")])
        self.ids = [b.building_id for b in self.buildings]
        factories = [ScanFactory(b, seed, i)
                     for i, b in enumerate(self.buildings)]
        rng = np.random.default_rng([seed, 101])
        self.scans = []
        for _ in range(self.supply(phases, self.BLOCK) * self.BLOCK // 5):
            large_at = int(rng.integers(5))
            for position in range(5):
                index = 4 if position == large_at else int(rng.integers(4))
                record, floor = factories[index].fresh("cs")
                self.scans.append((record, floor, index))
        self.probe_factories = [ScanFactory(b, seed, 200 + i)
                                for i, b in enumerate(self.buildings)]
        self.warm_scans = [factory.fresh("warm")[0]
                           for factory in self.probe_factories
                           for _ in range(3)]
        prefix = self.min_units * self.BLOCK
        self.gate_indices = {int(i) for i in np.random.default_rng(
            [seed, 102]).choice(prefix, size=GATE_SAMPLE, replace=False)}
        self.cursor = 0

    def build(self):
        service = FloorServingService(
            config=ServingConfig(enable_cache=self.variant != "no-cache"),
            grafics_config=self.config)
        for building in self.buildings:
            model = service.fit_building(building.train, building.labels)
            if self.variant == "delta-sampler":
                service.install_building(
                    building.building_id, model.with_sampler_mode("delta"),
                    vocabulary=frozenset(building.train.macs))
        for record in self.warm_scans:
            service.predict(record)
        self.installed = installed_state(service, self.ids)
        return service

    def phase(self, phase: Phase, min_units: int) -> None:
        start = self.cursor
        prefix = self.min_units * self.BLOCK if start == 0 else 0

        def step(unit: int) -> float:
            begin = start + unit * self.BLOCK
            ticks = self._block(begin, prefix)
            phase.ticks += ticks
            return sum(tick.wall for tick in ticks)

        units = run_units(
            step, self.seconds, min_units,
            (len(self.scans) - start) // self.BLOCK)
        phase.records = units * self.BLOCK
        self.cursor = start + phase.records

    def _block(self, begin: int, prefix: int) -> list[Tick]:
        """Serve one block of scans, one tick per scan."""
        service, ledger, scans, ids = self.service, self.ledger, self.scans, self.ids
        ticks = []
        for i in range(begin, begin + self.BLOCK):
            record, floor, building = scans[i]
            request_id = record.record_id
            self.note(request_id)
            ledger.send(request_id)
            with self.tick() as tick:
                t0 = clock()
                try:
                    prediction = service.predict(record)
                except Exception as error:  # noqa: BLE001 -- a counted miss
                    prediction, failure = None, repr(error)
                tick.latencies.append(clock() - t0)
            ticks.append(tick)
            if prediction is None:
                ledger.resolve(request_id, False, failure)
                continue
            ledger.resolve(request_id,
                           prediction.building_id == ids[building],
                           f"attributed to {prediction.building_id}")
            if i < prefix:
                self.truth[request_id] = floor
                self.predicted[request_id] = prediction.floor
                if i in self.gate_indices:
                    self.gate.add(self.installed, record, prediction)
        return ticks

    def after_phases(self) -> None:
        """Retrain probes on the four small buildings, CLONES swaps each."""
        for k in range(self.PROBES):
            self.retrain_probe(self.buildings[k % 4],
                               self.probe_factories[k % 4], clones=self.CLONES)


# --------------------------------------------------------------------------
class ReturningDevices(Workload):
    """A gateway forwarding rounds of 64 scans through submit() + drain()."""

    name = "returning-devices"
    ROUND = 64
    FRESH_PER_ROUND = 2
    ROUNDS_PER_UNIT = 8
    POPULATION = 256           # < cache_entries, so every repeat is a hit
    #: Mild skew: popular devices repeat most, but no handful of them sets
    #: the hit-path cost (a steeper skew made it follow a few scan sizes).
    ZIPF_S = 0.6
    PROBE_EVERY = 20           # units between swap probes
    min_units = 40             # 320 rounds: the quality / gate prefix
    traced_min_units = 1
    rate_cap = 40000

    def make_inputs(self, phases: int) -> None:
        seed = self.seed
        self.buildings = [make_building(seed, i, "small") for i in range(4)]
        self.ids = [b.building_id for b in self.buildings]
        factories = [ScanFactory(b, seed, i)
                     for i, b in enumerate(self.buildings)]
        # One generator per input stream, so every prefix of the inputs is
        # the same whatever the run's length.
        rng = np.random.default_rng([seed, 201])
        self.devices = []      # (rss, building index, floor)
        for _ in range(self.POPULATION):
            index = int(rng.integers(len(self.buildings)))
            record, floor = factories[index].fresh("dev")
            self.devices.append((record.rss, index, floor))
        weights = 1.0 / np.arange(1, self.POPULATION + 1) ** self.ZIPF_S
        popularity = weights[rng.permutation(self.POPULATION)]
        popularity /= popularity.sum()
        per_unit = self.ROUND * self.ROUNDS_PER_UNIT
        self.rounds = self.supply(phases, per_unit) * self.ROUNDS_PER_UNIT
        repeats = self.ROUND - self.FRESH_PER_ROUND
        self.repeat_draws = np.random.default_rng([seed, 203]).choice(
            self.POPULATION, size=(self.rounds, repeats), p=popularity)
        slots = np.random.default_rng([seed, 204])
        self.fresh_slots = np.array([
            np.sort(slots.choice(self.ROUND, size=self.FRESH_PER_ROUND,
                                 replace=False)) for _ in range(self.rounds)])
        choose = np.random.default_rng([seed, 205])
        self.fresh = []        # (record, building index, floor)
        for _ in range(self.rounds * self.FRESH_PER_ROUND):
            index = int(choose.integers(len(self.buildings)))
            record, floor = factories[index].fresh("rd")
            self.fresh.append((record, index, floor))
        self.probe_factories = [ScanFactory(b, seed, 300 + i)
                                for i, b in enumerate(self.buildings)]
        prefix_rounds = self.min_units * self.ROUNDS_PER_UNIT
        self.gate_rounds = {int(i) for i in np.random.default_rng(
            [seed, 202]).choice(prefix_rounds, size=GATE_SAMPLE // 4,
                                replace=False)}
        self.cursor = 0
        self.request_counter = 0
        self.probes = 0
        self.hits = 0
        self.scheduled_hits = 0

    def _repeat(self, device: int) -> tuple[SignalRecord, int, None]:
        """A repeat of a device's scan under a new request id (no floor:
        repeats are not scored)."""
        self.request_counter += 1
        rss, index, _ = self.devices[device]
        return (SignalRecord(record_id=f"rep{self.request_counter:08d}",
                             rss=rss), index, None)

    def prime(self, service) -> None:
        """Serve every device scan once so the cache holds the population."""
        pending = {}
        for device in range(self.POPULATION):
            record, index, _ = self._repeat(device)
            self.ledger.send(record.record_id)
            pending[record.record_id] = index
            result = service.submit(record)
            if result is not None:
                self._settle(result, pending)
        for result in service.drain():
            self._settle(result, pending)

    def _settle(self, result, pending: dict) -> bool:
        index = pending.pop(result.record_id, None)
        ok = (result.ok and index is not None
              and result.prediction.building_id == self.ids[index])
        self.ledger.resolve(result.record_id, ok, result.error or "misrouted")
        return ok

    def build(self):
        service = FloorServingService(
            config=ServingConfig(enable_cache=self.variant != "no-cache"),
            grafics_config=self.config)
        for building in self.buildings:
            service.fit_building(building.train, building.labels)
        self.prime(service)
        self.installed = installed_state(service, self.ids)
        return service

    def _materialise(self, unit: int) -> list[list[tuple]]:
        rounds = []
        for r in range(unit * self.ROUNDS_PER_UNIT,
                       (unit + 1) * self.ROUNDS_PER_UNIT):
            draws = iter(self.repeat_draws[r])
            slots = set(self.fresh_slots[r].tolist())
            fresh = iter(self.fresh[r * self.FRESH_PER_ROUND:
                                    (r + 1) * self.FRESH_PER_ROUND])
            requests = []
            for slot in range(self.ROUND):
                if slot in slots:
                    requests.append(next(fresh))
                else:
                    requests.append(self._repeat(int(next(draws))))
            rounds.append(requests)
        return rounds

    def phase(self, phase: Phase, min_units: int) -> None:
        service, ledger = self.service, self.ledger
        start = self.cursor
        prefix_rounds = (self.min_units * self.ROUNDS_PER_UNIT
                         if start == 0 else 0)
        floors = {}

        def step(unit: int) -> float:
            absolute = start + unit
            if absolute and absolute % self.PROBE_EVERY == 0:
                self.untimed(self.probe)
            rounds = self._materialise(absolute)
            first_round = absolute * self.ROUNDS_PER_UNIT
            pending: dict[str, int] = {}
            hits = 0
            wall = 0.0
            for offset, requests in enumerate(rounds):
                with self.tick() as tick:
                    latencies = tick.latencies
                    for record, index, _ in requests:
                        request_id = record.record_id
                        self.note(request_id)
                        ledger.send(request_id)
                        pending[request_id] = index
                        t0 = clock()
                        result = service.submit(record)
                        latencies.append(clock() - t0)
                        if result is not None:
                            hits += result.source == "cache"
                            self._settle(result, pending)
                    t0 = clock()
                    drained = service.drain()
                    latencies.append(clock() - t0)
                    for result in drained:
                        self._settle(result, pending)
                        if first_round + offset < prefix_rounds:
                            floors[result.record_id] = result
                phase.ticks.append(tick)
                wall += tick.wall
            self.hits += hits
            self._score_prefix(rounds, first_round, prefix_rounds, floors)
            return wall

        units = run_units(
            step, self.seconds, min_units,
            self.rounds // self.ROUNDS_PER_UNIT - start)
        rounds = units * self.ROUNDS_PER_UNIT
        phase.records = rounds * self.ROUND
        self.scheduled_hits += rounds * (self.ROUND - self.FRESH_PER_ROUND)
        self.cursor = start + units

    def _score_prefix(self, rounds, first_round, prefix_rounds, served) -> None:
        """Quality scores and identity samples from the prefix's fresh scans."""
        for offset, requests in enumerate(rounds):
            round_index = first_round + offset
            if round_index >= prefix_rounds:
                return
            sampled = round_index in self.gate_rounds
            for record, _, floor in requests:
                if floor is None:
                    continue
                result = served.pop(record.record_id, None)
                if result is None or not result.ok:
                    continue
                self.truth[record.record_id] = floor
                self.predicted[record.record_id] = result.prediction.floor
                if sampled:
                    self.gate.add(self.installed, record, result.prediction)

    def serve_one(self, record):
        result = self.service.submit(record)
        results = [result] if result is not None else self.service.drain()
        if len(results) != 1 or not results[0].ok:
            raise RuntimeError(f"probe results {results!r}")
        return results[0].prediction

    def probe(self) -> None:
        """Untimed swap probe: refit + 6 clone swaps, then re-prime."""
        k = self.probes % len(self.buildings)
        self.probes += 1
        self.retrain_probe(self.buildings[k], self.probe_factories[k],
                           clones=6)
        self.installed = installed_state(self.service, self.ids)
        self.prime(self.service)

    def after_phases(self) -> None:
        if not self.swaps:
            self.probe()
        if self.variant != "no-cache" and self.hits != self.scheduled_hits:
            self.breaches.append(
                f"round composition changed: {self.hits} cache hits, "
                f"{self.scheduled_hits} scheduled")


# --------------------------------------------------------------------------
class StreamRetrain(Workload):
    """Continuous learning over a sharded, pooled service (synchronous)."""

    name = "stream-retrain"
    CYCLE = 400                # records per unit: 2 cadence retrains
    RETRAIN_EVERY = 200
    WINDOW = 256
    CHECKPOINT_EVERY = 1000
    RENAME_AT = 400            # first record of building 0 with renamed APs
    #: Half the APs renamed puts the trained/window vocabulary Jaccard at
    #: 1/1.5 < VOCABULARY_JACCARD_MIN well before the next cadence retrain.
    RENAME_SHARE = 0.5
    VOCABULARY_JACCARD_MIN = 0.7
    LABEL_EVERY = 3
    min_units = 5              # 2000 records: quality / gate prefix
    traced_min_units = 3       # so the traced phase holds a checkpoint
    rate_cap = 250

    def make_inputs(self, phases: int) -> None:
        seed = self.seed
        total = self.supply(phases, self.CYCLE) * self.CYCLE
        batches = -(-total // (2 * 3 * SMALL_RECORDS_PER_FLOOR))
        self.buildings = [make_building(seed, i, "small",
                                        backlog_batches=batches)
                          for i in range(2)]
        self.ids = [b.building_id for b in self.buildings]
        rng = np.random.default_rng([seed, 301])
        macs = sorted(self.buildings[0].train.macs)
        renamed = rng.choice(len(macs), size=int(self.RENAME_SHARE * len(macs)),
                             replace=False)
        rename = {macs[int(i)]: macs[int(i)] + "~v2" for i in renamed}
        self.stream = []       # (record, building index, floor)
        backlogs = [iter(b.backlog) for b in self.buildings]
        for i in range(total):
            index = i % 2
            source = next(backlogs[index])
            rss = source.rss
            if index == 0 and i >= self.RENAME_AT:
                rss = {rename.get(mac, mac): value for mac, value in rss.items()}
            labelled = i % self.LABEL_EVERY == 0
            record = SignalRecord(record_id=source.record_id, rss=rss,
                                  floor=source.floor if labelled else None)
            self.stream.append((record, index, source.floor))
        self.warm_scans = [ScanFactory(b, seed, 400 + i).fresh("warm")[0]
                           for i, b in enumerate(self.buildings)]
        prefix = self.min_units * self.CYCLE
        self.gate_indices = {int(i) for i in np.random.default_rng(
            [seed, 302]).choice(prefix, size=GATE_SAMPLE, replace=False)}
        self.cursor = 0
        self.checkpoint_dir = self.work_dir / "checkpoint"
        self.installs: dict[str, float] = {}
        #: building -> (time from its install to the end of the installing
        #: call, that call's tick), until the building's next prediction
        self.pending_swaps: dict[str, tuple[float, Tick]] = {}
        self.installed_models: list = []
        self.traced_models_from = 0

    def build(self):
        service = ShardedServingService(
            config=ServingConfig(compute_workers=1),
            grafics_config=self.config, num_shards=2)
        for building in self.buildings:
            service.fit_building(building.train, building.labels)
        pipeline = ContinuousLearningPipeline(service, StreamConfig(
            window=WindowConfig(max_records=self.WINDOW),
            drift=DriftConfig(
                vocabulary_jaccard_min=self.VOCABULARY_JACCARD_MIN),
            scheduler=SchedulerConfig(
                retrain_every_records=self.RETRAIN_EVERY),
            retrain_workers=0,
            retrain_kernel="fused" if self.variant == "fused-retrain" else None))
        for record in self.warm_scans:
            service.predict(record)
        install = service.install_building

        def timed_install(building_id, model, vocabulary=None):
            self.installs[building_id] = clock()
            self.installed_models.append(model)
            return install(building_id, model, vocabulary=vocabulary)

        # The executor looks the hot-swap primitive up on the instance.
        service.install_building = timed_install
        self.pipeline = pipeline
        return service

    def dispose(self, built) -> None:
        self.pipeline.close()
        built.close()

    def extra_counts(self) -> dict[str, float]:
        executor = self.pipeline.executor
        return {"drift_events": len(self.pipeline.drift_events),
                "executor_retrains": executor.executed_total,
                "executor_failed": executor.errors_total,
                "stream_records": self.pipeline.processed_total}

    def phase(self, phase: Phase, min_units: int) -> None:
        start = self.cursor
        prefix = self.min_units * self.CYCLE if start == 0 else 0

        def step(unit: int) -> float:
            begin = (start + unit) * self.CYCLE
            spent = 0.0
            for i in range(begin, begin + self.CYCLE):
                tick = self._record(i, prefix)
                phase.ticks.append(tick)
                spent += tick.wall
            return spent

        units = run_units(
            step, self.seconds, min_units,
            len(self.stream) // self.CYCLE - start)
        phase.records = units * self.CYCLE
        self.cursor = start + units

    def _record(self, i: int, prefix: int) -> Tick:
        """Process one record in its own tick, sorting the call's time into
        retrain_s, swap_lag_s or the latency percentiles."""
        service, pipeline, ledger, ids = (self.service, self.pipeline,
                                          self.ledger, self.ids)
        swapped = self.pending_swaps
        record, index, floor = self.stream[i]
        request_id = record.record_id
        self.note(request_id)
        ledger.send(request_id)
        sampled = i < prefix and i in self.gate_indices
        if sampled:
            installed = installed_state(service, ids)
        with self.tick() as tick:
            t0 = clock()
            result = pipeline.process(record)
            t1 = clock()
            if (i + 1) % self.CHECKPOINT_EVERY == 0:
                pipeline.checkpoint(self.checkpoint_dir)
        building = ids[index]
        if result.retrain is not None and result.retrain.swapped:
            self.retrains.append(Timing((t1 - t0, tick)))
        elif building in swapped:
            # The rest of the installing call, then this first prediction.
            self.swaps.append(Timing(swapped.pop(building), (t1 - t0, tick)))
        else:
            tick.latencies.append(t1 - t0)
        for swapped_id, installed_at in self.installs.items():
            swapped[swapped_id] = (t1 - installed_at, tick)
        self.installs.clear()
        prediction = result.prediction
        ledger.resolve(request_id,
                       result.accepted and prediction is not None
                       and prediction.building_id == building,
                       result.reason or "no prediction")
        if i < prefix and prediction is not None:
            self.truth[request_id] = floor
            self.predicted[request_id] = prediction.floor
            if sampled:
                self.gate.add(installed, record, prediction)
        return tick

    def on_traced_start(self) -> None:
        self.traced_models_from = len(self.installed_models)

    def layer_extras(self) -> dict[str, float]:
        """Bytes of the last checkpoint and of each model swapped in while
        traced (the snapshot the pool ships on the next prediction)."""
        size = sum(path.stat().st_size
                   for path in self.checkpoint_dir.rglob("*")
                   if path.is_file() and "previous" not in path.parts)
        shipped = self.installed_models[self.traced_models_from:]
        ship_bytes = (sum(len(pickle.dumps(model)) for model in shipped)
                      / len(shipped)) if shipped else 0.0
        return {"checkpoint_bytes": size, "ship_bytes": ship_bytes}


WORKLOADS = {cls.name: cls for cls in (ColdScan, ReturningDevices,
                                       StreamRetrain)}
