"""Tracing must never change what the engine computes — bit for bit.

The tracer's no-RNG / injected-clock design exists so that the exact same
models and predictions come out whether observability is off (production
default), or on.  These tests enforce that end to end: offline fits and
online predictions are compared bytewise between a disabled run and a
traced run, and the traced run must additionally report a sane stage
breakdown (the profiling payoff that justifies the instrumentation).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import GRAFICS, GraficsConfig, EmbeddingConfig
from repro.data import make_experiment_split, small_test_building
from repro.obs import runtime as obs
from repro.obs.tracer import SpanTracer, stage_breakdown

from obs_helpers import FakeClock


@pytest.fixture(scope="module")
def split():
    dataset = small_test_building(num_floors=2, records_per_floor=20,
                                  aps_per_floor=10, seed=3)
    return make_experiment_split(dataset, labels_per_floor=4, seed=0)


CONFIG = GraficsConfig(
    embedding=EmbeddingConfig(samples_per_edge=20.0, seed=0),
    allow_unreachable_clusters=True)


def _fit(split):
    model = GRAFICS(CONFIG)
    model.fit(list(split.train_records), split.labels)
    return model


class TestFitIdentity:
    def test_fit_is_byte_identical_with_tracing_enabled(self, split):
        obs.disable()
        baseline = _fit(split)

        tracer, _ = obs.enable(tracer=SpanTracer(clock=FakeClock(tick=0.01)))
        try:
            traced = _fit(split)
        finally:
            obs.disable()

        assert np.array_equal(baseline.embedding.ego, traced.embedding.ego)
        assert np.array_equal(baseline.embedding.context,
                              traced.embedding.context)
        assert baseline.embedding.training_loss \
            == traced.embedding.training_loss

        # ... and the traced run must actually have produced the per-stage
        # fit spans the profiling hooks promise.
        names = {span.name for span in tracer.spans()}
        assert {"fit", "fit.graph", "fit.embedding", "fit.clustering",
                "embed.alias_build", "embed.sampling",
                "embed.kernel"} <= names

    def test_fit_stage_breakdown_partitions_embedding_time(self, split):
        tracer, _ = obs.enable(tracer=SpanTracer(clock=FakeClock(tick=0.01)))
        try:
            _fit(split)
        finally:
            obs.disable()
        stages = stage_breakdown(tracer.spans(), prefix="embed.")
        assert set(stages) == {"embed.alias_build", "embed.sampling",
                               "embed.kernel"}
        assert sum(info["share"] for info in stages.values()) \
            == pytest.approx(1.0)
        assert all(info["seconds"] >= 0.0 for info in stages.values())


class TestPredictionIdentity:
    def test_online_predictions_byte_identical_with_tracing(self, split):
        model = _fit(split)
        probes = [record.without_floor()
                  for record in split.test_records[:5]]

        obs.disable()
        baseline = [model.predict(probe) for probe in probes]

        obs.enable(tracer=SpanTracer(clock=FakeClock(tick=0.01)))
        try:
            traced = [model.predict(probe) for probe in probes]
        finally:
            obs.disable()

        for before, after in zip(baseline, traced):
            assert before.floor == after.floor
            assert before.distance == after.distance
            assert np.array_equal(before.embedding, after.embedding)

    def test_traced_prediction_reports_the_online_pipeline(self, split):
        model = _fit(split)
        probe = split.test_records[0].without_floor()
        tracer, _ = obs.enable(tracer=SpanTracer(clock=FakeClock(tick=0.01)))
        try:
            model.predict(probe)
        finally:
            obs.disable()
        names = [span.name for span in tracer.spans()]
        for expected in ("online.predict", "online.stage", "online.embed",
                         "online.classify", "embed.alias_build",
                         "embed.kernel"):
            assert expected in names
        # Every span of the prediction belongs to one trace.
        assert len({span.trace_id for span in tracer.spans()}) == 1
