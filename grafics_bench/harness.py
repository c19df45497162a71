"""Run bookkeeping shared by the workloads: request ledger, identity gate,
the work clock and the host-speed meter every timing goes through.

A run is correct only when the ledger balances (``sent == ok + failed``,
every request id resolved exactly once, nothing left pending), no request
failed, and a seeded sample of served predictions is byte-identical to the
sequential ``MultiBuildingFloorService.predict`` reference on the models that
were installed when each request was planned.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import statistics
import time
from collections.abc import Callable
from contextlib import contextmanager

import numpy as np

from repro import MultiBuildingFloorService
from repro.evaluation.metrics import evaluate_predictions

wall_clock = time.perf_counter


class WorkClock:
    """CPU seconds spent by this process and every process it started.

    Sums the CPU time of all this process's threads, of its live children
    (the compute pool's workers, read from ``/proc/<pid>/task/*/schedstat``)
    and of its reaped children.  With paravirtual steal accounting the
    kernel leaves out the time a virtual CPU was held by the hypervisor, so
    unlike wall time this clock does not count time the host gave to other
    tenants, nor time other programs on the same CPU ran.  Time the program
    spends waiting idle (a sleep, a blocking read with the CPU free) is not
    counted either; the detail line keeps wall-clock figures beside it.

    Children are looked up by :meth:`refresh` only, never on a reading, so a
    reading costs a few microseconds.
    """

    def __init__(self) -> None:
        self._fds: dict[int, list[int]] = {}

    def refresh(self) -> None:
        alive = {child.pid for child in multiprocessing.active_children()}
        for pid in set(self._fds) - alive:
            for fd in self._fds.pop(pid):
                os.close(fd)
        for pid in alive - set(self._fds):
            fds = []
            try:
                for task in os.listdir(f"/proc/{pid}/task"):
                    fds.append(os.open(f"/proc/{pid}/task/{task}/schedstat",
                                       os.O_RDONLY))
            except OSError:
                pass  # ended meanwhile: its time is in the reaped children's
            self._fds[pid] = fds

    def __call__(self) -> float:
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        total = time.process_time() + children.ru_utime + children.ru_stime
        for fds in self._fds.values():
            for fd in fds:
                try:
                    total += int(os.pread(fd, 64, 0).split()[0]) * 1e-9
                except (OSError, ValueError, IndexError):
                    pass  # reaped: counted with the reaped children
        return total


#: The clock every benchmark timing is taken with.
clock = WorkClock()


class Ledger:
    """Books of every request a workload sends."""

    def __init__(self) -> None:
        self.sent = 0
        self.ok = 0
        self.failed = 0
        self.breaches: list[str] = []
        self._pending: set[str] = set()
        self._seen: set[str] = set()

    def send(self, request_id: str) -> None:
        self.sent += 1
        if request_id in self._seen:
            self.breaches.append(f"request id {request_id!r} sent twice")
        self._seen.add(request_id)
        self._pending.add(request_id)

    def resolve(self, request_id: str, ok: bool, error: str = "") -> None:
        if request_id not in self._pending:
            self.breaches.append(
                f"result for {request_id!r} which is not pending "
                "(unknown or resolved twice)")
            return
        self._pending.discard(request_id)
        if ok:
            self.ok += 1
        else:
            self.failed += 1
            if len(self.breaches) < 20:
                self.breaches.append(f"request {request_id!r} failed: {error}")

    def close(self) -> None:
        if self._pending:
            self.breaches.append(
                f"{len(self._pending)} requests never resolved, e.g. "
                f"{sorted(self._pending)[:3]}")
            self.failed += len(self._pending)
            self._pending.clear()
        if self.sent != self.ok + self.failed:
            self.breaches.append(
                f"books do not balance: sent {self.sent} != ok {self.ok} "
                f"+ failed {self.failed}")


def prediction_bytes(prediction) -> tuple:
    """A served prediction as exactly comparable fields (floats by bits)."""
    return (prediction.record_id, prediction.building_id,
            int(prediction.floor), float(prediction.mac_overlap).hex(),
            float(prediction.distance).hex())


class IdentityGate:
    """Seeded sample of served predictions, re-computed by the reference.

    ``installed`` is the serving state a request was planned against: the
    ``(building_id, model, vocabulary)`` triples in registration order.
    """

    def __init__(self) -> None:
        self._samples: list[tuple[tuple, object, object]] = []

    def add(self, installed: tuple, record, served) -> None:
        self._samples.append((installed, record, served))

    def __len__(self) -> int:
        return len(self._samples)

    def check(self, config) -> list[str]:
        mismatches = []
        references: dict[int, MultiBuildingFloorService] = {}
        for installed, record, served in self._samples:
            reference = references.get(id(installed))
            if reference is None:
                reference = MultiBuildingFloorService(config)
                for building_id, model, vocabulary in installed:
                    reference.install_model(building_id, model,
                                            vocabulary=vocabulary)
                references[id(installed)] = reference
            expected = prediction_bytes(reference.predict(record))
            got = prediction_bytes(served)
            if got != expected:
                mismatches.append(f"{record.record_id}: served {got} != "
                                  f"reference {expected}")
        return mismatches


def installed_state(service, building_ids) -> tuple:
    """The models and vocabularies a request planned now would be served by."""
    return tuple((building_id, service.model_for(building_id),
                  service.vocabulary_for(building_id))
                 for building_id in building_ids)


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, int(round(fraction * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


#: Reference runs on each side of a stand-alone tick.
PROBE_REFERENCES = 5

# The reference: fixed mini-batch skip-gram steps on fixed embedding-sized
# tables, written here so that no change to the program can change it.
_REF_RNG = np.random.default_rng(20221107)
_EGO = _REF_RNG.standard_normal((2625, 16)) * 0.1
_CONTEXT = _REF_RNG.standard_normal((2625, 16)) * 0.1
_HEADS = _REF_RNG.integers(0, len(_EGO), size=32)
_TAILS = _REF_RNG.integers(0, len(_EGO), size=32)
_NEGATIVES = _REF_RNG.integers(0, len(_EGO), size=(32, 5))
_EGO_WORK = np.empty_like(_EGO)
_CONTEXT_WORK = np.empty_like(_CONTEXT)
#: Steps per reference run.
REFERENCE_STEPS = 8
#: CPU seconds a reference run is taken to need on a quiet 2-CPU host
#: (an estimate, see METRICS.md); timings are reported at that host speed.
REFERENCE_SECONDS = 0.6e-3


def _skipgram_steps() -> None:
    np.copyto(_EGO_WORK, _EGO)
    np.copyto(_CONTEXT_WORK, _CONTEXT)
    for _ in range(REFERENCE_STEPS):
        source = _EGO_WORK[_HEADS]
        positive = _CONTEXT_WORK[_TAILS]
        negative = _CONTEXT_WORK[_NEGATIVES]
        pos = 1.0 / (1.0 + np.exp(-np.einsum("bd,bd->b", source, positive)))
        neg = 1.0 / (1.0 + np.exp(-np.einsum("bd,bkd->bk", source, negative)))
        grad = (pos - 1.0)[:, None] * positive + np.einsum("bk,bkd->bd", neg,
                                                           negative)
        np.add.at(_EGO_WORK, _HEADS, -0.025 * grad)
        np.add.at(_CONTEXT_WORK, _TAILS, -0.025 * (pos - 1.0)[:, None] * source)
        np.add.at(_CONTEXT_WORK, _NEGATIVES.ravel(),
                  (-0.025 * neg[:, :, None] * source[:, None, :]).reshape(-1, 16))


def host_reference() -> float:
    """How much slower than the tuning host this CPU runs right now.

    The reference is the kind of work the program's calls are made of:
    many small numpy calls driven from Python.  On a shared 2-CPU virtual
    machine, under contention from other tenants, it followed the CPU time
    of cold predictions and of cache hits more closely than a pure-Python
    loop, a numpy loop without the kernel's shape or gathers from a large
    array.
    """
    started = time.thread_time()
    _skipgram_steps()
    return (time.thread_time() - started) / REFERENCE_SECONDS


class Tick:
    """One short stretch of timed work and the host speed around it."""

    __slots__ = ("seconds", "wall", "ref", "latencies")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.wall = 0.0
        self.ref = 0.0
        self.latencies: list[float] = []


class Timing:
    """One timing, made of parts that may lie in different ticks."""

    __slots__ = ("parts",)

    def __init__(self, *parts: tuple[float, Tick]) -> None:
        self.parts = parts

    @property
    def raw(self) -> float:
        return sum(seconds for seconds, _ in self.parts)

    @property
    def scaled(self) -> float:
        return sum(seconds / tick.ref for seconds, tick in self.parts)


class Meter:
    """Times work in ticks and reports it at the reference host speed.

    Two kinds of host noise are taken out.  Time the host gives to others
    (hypervisor steal, other programs on the same CPU) is not counted at
    all: every timing is read from :data:`clock`, which counts CPU time.
    What is left is the speed of the CPU itself, which on the shared 2-CPU
    hosts this runs on changes by 2x and more between runs and from one
    millisecond to the next within one.  So the fixed reference work
    (:func:`host_reference`) is timed, in CPU time, right before and right
    after every tick, and a tick's timings are divided by ``ref``, the
    median of the slowdowns measured around it.  Ticks are short -- one
    call, one round, one stream record -- so the reference is taken within
    milliseconds of what it scales; back-to-back ticks share the reference
    between them.  The reference runs between ticks, while the program is
    idle, so work the program adds to its own calls is never scaled away;
    only a program thread that keeps the CPU busy between calls would slow
    the reference as well.  Raw figures are reported alongside.
    """

    #: A reference that ended less than this long before a tick starts is
    #: also that tick's "before" reference.
    ADJACENT_SECONDS = 1e-3
    #: A tick that ran longer than this (a stream retrain, a checkpoint) is
    #: followed by PROBE_REFERENCES references, like a stand-alone tick:
    #: one reference is too short a look at the host for such a tick.
    LONG_SECONDS = 0.05

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last: tuple[float, float] | None = None   # (ended, slowdown)

    def reference(self) -> float:
        sample = host_reference()
        self.samples.append(sample)
        return sample

    @contextmanager
    def tick(self, references: int = 1):
        """Time a block; the reference runs ``references`` times each side.

        Ticks that stand alone (a set-up, a probe) take the median of
        several, so one disturbed reference cannot skew their only sample.
        """
        tick = Tick()
        last = self._last
        if (references == 1 and last is not None
                and wall_clock() - last[0] < self.ADJACENT_SECONDS):
            around = [last[1]]
        else:
            around = [self.reference() for _ in range(references)]
        clock.refresh()
        started, wall_started = clock(), wall_clock()
        try:
            yield tick
        finally:
            clock.refresh()
            tick.seconds = clock() - started
            tick.wall = wall_clock() - wall_started
            if tick.wall > self.LONG_SECONDS:
                references = max(references, PROBE_REFERENCES)
            after = [self.reference() for _ in range(references)]
            tick.ref = statistics.median(around + after)
            self._last = (wall_clock(), after[-1])


def timed_setup(meter: Meter, build: Callable[[], object], repeats: int,
                dispose: Callable[[object], None]) -> tuple[object, list]:
    """Run ``build`` ``repeats`` times; keep the last, return every timing."""
    timings = []
    built = None
    for _ in range(repeats):
        if built is not None:
            dispose(built)
        with meter.tick(references=PROBE_REFERENCES) as tick:
            built = build()
        timings.append(Timing((tick.seconds, tick)))
    return built, timings


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def quality(truth: dict[str, int], predicted: dict[str, int]) -> tuple[float, float]:
    report = evaluate_predictions(truth, predicted)
    return report.micro_f, report.macro_f
