"""Span recording for the traced run, from the benchmark's own files.

:class:`SpanRecorder` wraps the program's public functions and methods where
their callers look them up (class attributes for methods, the importing
module's namespace for functions imported by name) and records one span per
call: name, start, end, parent, request id, plus the span's *self* time (its
duration minus its children's).  A call into the same layer as the open span
(``predict`` → ``predict_batch``) extends that span instead of nesting a new
one.  Spans live in memory until :meth:`SpanRecorder.write`; the wrappers are
removed again by :meth:`SpanRecorder.uninstall`, so untraced phases run the
program exactly as shipped.

Spans carry two inherited tags: the path (``"fit"`` inside ``GRAFICS.fit``,
``"online"`` inside online inference) and the model size class
(``"small"``/``"large"``), which splits the cold-path ledger by building size.
"""

from __future__ import annotations

import functools
import threading
import time
from pathlib import Path

clock = time.perf_counter

#: Graphs with more records than this are the "large" ledger class.
LARGE_RECORDS = 1000

_NO_TAGS = ("", "")


def _size(model) -> str:
    graph = getattr(model, "graph", None)
    return ("large" if graph is not None and graph.num_records > LARGE_RECORDS
            else "small")


def _online_tags(args, kwargs):
    return ("online", _size(args[0]))


def _fit_tags(args, kwargs):
    records = args[1] if len(args) > 1 else kwargs["records"]
    count = len(records)
    return ("fit", "large" if count > LARGE_RECORDS else "small")


def _records_of(args, kwargs) -> int:
    """Units for online-inference spans: the number of records predicted."""
    records = args[1] if len(args) > 1 else kwargs.get("record",
                                                       kwargs.get("records"))
    return len(records) if isinstance(records, (list, tuple)) else 1


def _targets():
    """(owner, attribute, span name, tagger, units) for every traced call."""
    from repro.core import pipeline as core_pipeline
    from repro.core.clustering.hierarchical import ProximityClustering
    from repro.core.clustering.model import ClusterModel
    from repro.core.embedding.eline import ELINEEmbedder
    from repro.core.embedding.kernels import FusedKernel, ReferenceKernel
    from repro.core.embedding.sampler import (AliasTable, DeltaNegativeSampler,
                                              EdgeSampler, NegativeSampler)
    from repro.core.embedding.trainer import EdgeSamplingTrainer
    from repro.core.inference import OnlineInferenceEngine
    from repro.core.overlay import GraphOverlay
    from repro.core.pipeline import GRAFICS
    from repro.serving import service as serving_service
    from repro.serving import sharding as serving_sharding
    from repro.serving.batcher import MicroBatcher
    from repro.serving.cache import PredictionCache
    from repro.serving.pool import ComputePool
    from repro.serving.router import MacInvertedRouter
    from repro.serving.service import FloorServingService
    from repro.serving.sharding import ShardedRouter, ShardedServingService
    from repro.stream import pipeline as stream_pipeline
    from repro.stream.drift import DriftDetector
    from repro.stream.executor import RetrainExecutor
    from repro.stream.ingest import StreamIngestor
    from repro.stream.pipeline import ContinuousLearningPipeline
    from repro.stream.scheduler import RetrainScheduler
    from repro.stream.window import WindowManager

    targets = []

    def add(owner, names, span, tagger=None, units=None):
        for name in names:
            targets.append((owner, name, span, tagger, units))

    facade = ("predict", "predict_batch", "submit", "poll", "drain",
              "install_building", "fit_building", "retrain_building")
    add(FloorServingService, facade, "serving.facade")
    add(ShardedServingService, facade, "serving.facade")
    add(MacInvertedRouter, ("route",), "serving.router")
    add(ShardedRouter, ("route",), "serving.router")
    add(PredictionCache, ("get",), "serving.cache.get")
    add(PredictionCache, ("put",), "serving.cache.put")
    add(PredictionCache, ("invalidate_building",), "serving.cache.invalidate")
    add(serving_service, ("fingerprint_key",), "serving.cache.key")
    add(serving_sharding, ("fingerprint_key",), "serving.cache.key")
    add(MicroBatcher, ("enqueue", "due", "drain", "evict"), "serving.batcher")
    add(ComputePool, ("compute",), "serving.pool.compute",
        units=lambda args, kwargs: len(args[3]))

    add(GRAFICS, ("predict", "predict_batch"), "core.inference",
        tagger=_online_tags, units=_records_of)
    add(OnlineInferenceEngine, ("predict", "predict_batch"), "core.inference")
    add(GRAFICS, ("fit",), "core.fit", tagger=_fit_tags)
    add(GraphOverlay, ("add_record",), "core.overlay.add_record")
    add(EdgeSampler, ("__init__",), "core.embedding.sampler.alias_build")
    add(NegativeSampler, ("__init__",), "core.embedding.sampler.alias_build")
    add(DeltaNegativeSampler, ("__init__",),
        "core.embedding.sampler.alias_build")
    add(AliasTable, ("__init__",), "core.embedding.sampler.alias_table")
    add(EdgeSampler, ("sample",), "core.embedding.sampler.sample")
    add(NegativeSampler, ("sample", "sample_flat"),
        "core.embedding.sampler.sample")
    add(DeltaNegativeSampler, ("sample",), "core.embedding.sampler.sample")
    add(AliasTable, ("sample",), "core.embedding.sampler.sample")
    add(ReferenceKernel, ("train_batch",), "core.embedding.kernels")
    add(FusedKernel, ("train_batch",), "core.embedding.kernels")
    add(EdgeSamplingTrainer, ("__init__", "initial_embeddings"),
        "core.embedding.trainer")
    add(EdgeSamplingTrainer, ("train",), "core.embedding.trainer.train",
        units=lambda args, kwargs: (kwargs.get("total_samples")
                                    or args[0].total_samples()))
    add(ELINEEmbedder, ("fit", "embed_new_nodes", "embed_new_nodes_arrays"),
        "core.embedding.trainer")
    add(core_pipeline, ("build_graph",), "core.graph.build")
    add(ProximityClustering, ("fit",), "core.clustering.fit")
    add(ClusterModel, ("from_clustering",), "core.clustering.fit")
    add(ClusterModel, ("predict_with_distance",), "core.clustering.predict")

    add(ContinuousLearningPipeline, ("process",), "stream.pipeline")
    add(ContinuousLearningPipeline, ("checkpoint",),
        "core.persistence.checkpoint")
    add(stream_pipeline, ("save_registry", "save_stream_state"),
        "core.persistence.checkpoint")
    add(StreamIngestor, ("submit", "drain"), "stream.ingest")
    add(WindowManager, ("append",), "stream.window.append")
    add(DriftDetector, ("observe_routing", "observe_distance",
                        "check_vocabulary"), "stream.drift")
    add(RetrainScheduler, ("maybe_retrain", "note_append", "note_drift",
                           "collect"), "stream.scheduler")
    add(RetrainExecutor, ("submit",), "stream.executor")
    return targets


class SpanRecorder:
    """In-memory span log plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: (name, start, end, parent index, request id, path, size, self
        #: seconds, units); parent index -1 marks a top-level span.
        self.spans: list[tuple] = []
        self.request_id = ""
        #: Spans are recorded only while active (the timed part of a phase).
        self.active = False
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- wrappers
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, span, tagger, units):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == span:
                return fn(*args, **kwargs)
            tags = (tagger(args, kwargs) if tagger is not None
                    else (parent[4] if parent is not None else _NO_TAGS))
            count = units(args, kwargs) if units is not None else 1
            index = len(recorder.spans)
            recorder.spans.append(None)
            # [name, start, index, child seconds, tags]
            frame = [span, 0.0, index, 0.0, tags]
            stack.append(frame)
            frame[1] = started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                duration = ended - started
                if parent is not None:
                    parent[3] += duration
                recorder.spans[index] = (
                    span, started, ended,
                    parent[2] if parent is not None else -1,
                    recorder.request_id, tags[0], tags[1],
                    duration - frame[3], count)

        return traced

    def install(self) -> None:
        for owner, attribute, span, tagger, units in _targets():
            original = owner.__dict__[attribute]
            if isinstance(original, (staticmethod, classmethod)):
                wrapped = type(original)(
                    self._wrap(original.__func__, span, tagger, units))
            else:
                wrapped = self._wrap(original, span, tagger, units)
            self._installed.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # ----------------------------------------------------------- aggregates
    def totals(self) -> dict[tuple[str, str, str], list[float]]:
        """(span name, path, size) -> [calls, self seconds, wall seconds, units]."""
        totals: dict[tuple[str, str, str], list[float]] = {}
        for span in self.spans:
            if span is None:
                continue
            name, started, ended, _, _, path, size, self_seconds, units = span
            row = totals.setdefault((name, path, size), [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += self_seconds
            row[2] += ended - started
            row[3] += units
        return totals

    def top_level_seconds(self) -> float:
        return sum(span[2] - span[1] for span in self.spans
                   if span is not None and span[3] == -1)

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write("index\tname\tstart\tend\tparent\trequest\tpath\t"
                         "size\tself_s\tunits\n")
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, started, ended, parent, request, path_tag, size, \
                    self_seconds, units = span
                handle.write(f"{index}\t{name}\t{started:.9f}\t{ended:.9f}\t"
                             f"{parent}\t{request}\t{path_tag}\t{size}\t"
                             f"{self_seconds:.9f}\t{units}\n")
