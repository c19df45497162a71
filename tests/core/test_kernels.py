"""Tests for the pluggable training-kernel layer (reference vs fused)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import GRAFICS, GraficsConfig
from repro.core.embedding import EmbeddingConfig, KERNEL_NAMES, make_kernel
from repro.core.embedding.trainer import EdgeSamplingTrainer, ObjectiveTerms
from repro.core.graph import build_graph
from repro.core.types import SignalRecord
from repro.data import make_experiment_split, small_test_building
from repro.obs import runtime as obs

ELINE_TERMS = ObjectiveTerms(second_order=True, symmetric=True)

FUSED_CONFIG = GraficsConfig(embedding=EmbeddingConfig(kernel="fused"),
                             allow_unreachable_clusters=True)


def record(rid, rss):
    return SignalRecord(record_id=rid, rss=rss)


@pytest.fixture(scope="module")
def medium_graph():
    records = [record(f"r{i}", {f"m{j}": -45.0 - j
                                for j in range(i % 5, i % 5 + 5)})
               for i in range(16)]
    return build_graph(records)


@pytest.fixture(scope="module")
def preset_split():
    dataset = small_test_building(records_per_floor=30)
    return make_experiment_split(dataset, labels_per_floor=4, seed=0)


class TestKernelSelection:
    def test_known_kernels(self):
        assert set(KERNEL_NAMES) == {"reference", "fused"}
        for name in KERNEL_NAMES:
            assert make_kernel(name).name == name

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown training kernel"):
            make_kernel("turbo")
        with pytest.raises(ValueError, match="unknown training kernel"):
            EmbeddingConfig(kernel="turbo")

    def test_default_is_reference(self):
        assert EmbeddingConfig().kernel == "reference"

    def test_trainer_reports_kernel(self, medium_graph):
        config = EmbeddingConfig(seed=0, kernel="fused")
        trainer = EdgeSamplingTrainer(medium_graph, config, ELINE_TERMS)
        assert trainer.kernel_name == "fused"


def _train(graph, kernel, *, dropout=0.1, seed=0, total_samples=None,
           terms=ELINE_TERMS, samples_per_edge=40.0):
    config = EmbeddingConfig(seed=seed, dropout=dropout, kernel=kernel,
                             samples_per_edge=samples_per_edge, batch_size=128)
    trainer = EdgeSamplingTrainer(graph, config, terms)
    ego, context = trainer.initial_embeddings()
    losses = trainer.train(ego, context, total_samples=total_samples)
    return ego, context, losses, trainer


class TestFusedKernelNumerics:
    def test_seed_deterministic(self, medium_graph):
        ego1, context1, losses1, _ = _train(medium_graph, "fused")
        ego2, context2, losses2, _ = _train(medium_graph, "fused")
        np.testing.assert_array_equal(ego1, ego2)
        np.testing.assert_array_equal(context1, context2)
        assert losses1 == losses2

    def test_rng_stream_matches_reference(self, medium_graph):
        """Fused consumes the RNG exactly like the reference, by design."""
        *_, trainer_ref = _train(medium_graph, "reference")
        *_, trainer_fused = _train(medium_graph, "fused")
        assert (trainer_ref._rng.bit_generator.state
                == trainer_fused._rng.bit_generator.state)

    def test_single_batch_single_term_matches_reference(self, medium_graph):
        """One batch, one term: only float summation order may differ."""
        terms = ObjectiveTerms(second_order=True)
        ego_r, context_r, losses_r, _ = _train(
            medium_graph, "reference", dropout=0.0, total_samples=128,
            terms=terms)
        ego_f, context_f, losses_f, _ = _train(
            medium_graph, "fused", dropout=0.0, total_samples=128,
            terms=terms)
        np.testing.assert_allclose(ego_f, ego_r, rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(context_f, context_r, rtol=1e-7, atol=1e-9)
        assert losses_f[0] == pytest.approx(losses_r[0], rel=1e-9)

    # Single-term cases admit only summation-order noise; with two or more
    # terms the reference applies terms sequentially within the batch while
    # the fused kernel evaluates all of them against the pre-batch tables,
    # so the gap is O(lr * grad^2) per batch.
    @pytest.mark.parametrize("terms,atol", [
        (ObjectiveTerms(second_order=True), 1e-9),
        (ObjectiveTerms(first_order=True, second_order=False), 1e-9),
        (ObjectiveTerms(second_order=True, symmetric=True), 2e-2),
        (ObjectiveTerms(first_order=True, second_order=True), 2e-2),
        (ObjectiveTerms(first_order=True, second_order=True, symmetric=True),
         2e-2),
    ])
    def test_term_combinations_single_batch(self, medium_graph, terms, atol):
        ego_r, context_r, *_ = _train(medium_graph, "reference", dropout=0.0,
                                      total_samples=128, terms=terms)
        ego_f, context_f, *_ = _train(medium_graph, "fused", dropout=0.0,
                                      total_samples=128, terms=terms)
        np.testing.assert_allclose(ego_f, ego_r, rtol=1e-7, atol=atol)
        np.testing.assert_allclose(context_f, context_r, rtol=1e-7, atol=atol)

    def test_full_run_stays_close_to_reference(self, medium_graph):
        ego_r, *_ = _train(medium_graph, "reference")
        ego_f, *_ = _train(medium_graph, "fused")
        # Term updates are applied Jacobi-style within a batch, so the runs
        # diverge slowly; they must stay in the same neighbourhood.
        assert np.abs(ego_f - ego_r).max() < 0.25

    def test_frozen_rows_never_change(self, medium_graph):
        """Fused never trains a frozen subset: it refuses a trainable mask
        (frozen training is the reference kernel's, see test_trainer)."""
        trainable = np.zeros(medium_graph.index_capacity, dtype=bool)
        trainable[:3] = True
        config = EmbeddingConfig(seed=0, kernel="fused", samples_per_edge=50.0)
        trainer = EdgeSamplingTrainer(medium_graph, config, ELINE_TERMS)
        ego, context = trainer.initial_embeddings()
        with pytest.raises(ValueError, match="full tables only"):
            trainer.train(ego, context, trainable=trainable)

    def test_training_reduces_loss(self, medium_graph):
        *_, losses, _ = _train(medium_graph, "fused", dropout=0.0,
                               samples_per_edge=300.0)
        assert np.mean(losses[-3:]) < np.mean(losses[:3])

    def test_compact_scatter_path_matches_direct(self, medium_graph):
        """The large-table compaction branch computes the same update.

        The two branches combine the dense and outer contributions in a
        different order (one fused subtraction vs. two), so equality holds
        to the last few ulps rather than bit-for-bit.
        """
        from repro.core.embedding.kernels import FusedKernel

        ego_direct, context_direct, *_ = _train(medium_graph, "fused",
                                                total_samples=256)
        original = FusedKernel._COMPACT_RATIO
        FusedKernel._COMPACT_RATIO = 0      # always compact
        try:
            ego_compact, context_compact, *_ = _train(medium_graph, "fused",
                                                      total_samples=256)
        finally:
            FusedKernel._COMPACT_RATIO = original
        np.testing.assert_allclose(ego_compact, ego_direct,
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(context_compact, context_direct,
                                   rtol=1e-10, atol=1e-12)


class TestEndToEndParity:
    def _accuracy(self, split, kernel):
        config = GraficsConfig(embedding=EmbeddingConfig(kernel=kernel),
                               allow_unreachable_clusters=True)
        model = GRAFICS(config).fit(list(split.train_records), split.labels)
        probes = [r.without_floor() for r in split.test_records]
        truth = [r.floor for r in split.test_records]
        predictions = model.predict_batch(probes)
        hits = sum(1 for p, t in zip(predictions, truth) if p.floor == t)
        return hits / len(truth)

    def test_fused_matches_reference_floor_accuracy(self):
        """fit -> cluster -> predict parity on the paper's campus preset."""
        from repro.data import three_story_campus_building

        dataset = three_story_campus_building(records_per_floor=60, seed=7)
        split = make_experiment_split(dataset, labels_per_floor=6, seed=0)
        accuracy_reference = self._accuracy(split, "reference")
        accuracy_fused = self._accuracy(split, "fused")
        assert accuracy_fused == accuracy_reference
        assert accuracy_reference > 0.9

    def test_fused_accuracy_near_reference_on_hard_preset(self, preset_split):
        """On the deliberately small/hard preset, parity within one flip."""
        accuracy_reference = self._accuracy(preset_split, "reference")
        accuracy_fused = self._accuracy(preset_split, "fused")
        n = len(preset_split.test_records)
        assert abs(accuracy_fused - accuracy_reference) <= 1.5 / n

    def test_fit_kernel_override_recorded(self, preset_split):
        """The fitted kernel is recorded, but drives the fit only: the
        online update runs the reference kernel's frozen-subset path."""
        model = GRAFICS(FUSED_CONFIG).fit(list(preset_split.train_records),
                                    preset_split.labels)
        assert model.embedding.config.kernel == "fused"
        tracer, _ = obs.enable()
        try:
            model.predict(preset_split.test_records[0].without_floor())
        finally:
            obs.disable()
        kernels = [span.attributes["kernel"] for span in tracer.spans()
                   if span.name == "embed.kernel"]
        assert kernels == ["reference"]

    def test_online_update_ignores_fit_kernel(self, preset_split):
        """A fused-fit model predicts byte-identically to the same fitted
        state relabelled as a reference fit."""
        fused = GRAFICS(FUSED_CONFIG).fit(list(preset_split.train_records),
                                          preset_split.labels)
        relabelled = GRAFICS(FUSED_CONFIG)
        relabelled.graph = fused.graph
        relabelled.embedding = replace(
            fused.embedding,
            config=replace(fused.embedding.config, kernel="reference"))
        relabelled.clustering = fused.clustering
        relabelled.cluster_model = fused.cluster_model
        for probe in preset_split.test_records[:6]:
            probe = probe.without_floor()
            expected = fused.predict(probe)
            got = relabelled.predict(probe)
            assert got.floor == expected.floor
            assert got.distance == expected.distance
            np.testing.assert_array_equal(got.embedding, expected.embedding)


class TestWarmStartVectorisation:
    def test_bulk_row_copy_matches_naive_loop(self, preset_split):
        """The fancy-indexed warm-start copy equals the per-node dict loop."""
        from repro.core.graph import NodeKind

        config = GraficsConfig(allow_unreachable_clusters=True)
        previous = GRAFICS(config).fit(list(preset_split.train_records),
                                       preset_split.labels)
        # A shifted window: drop some records, keep the rest.
        survivors = list(preset_split.train_records)[10:]
        graph = build_graph(survivors)
        embedding_config = config.resolved_embedding_config()
        trainer = EdgeSamplingTrainer(graph, embedding_config, ELINE_TERMS)
        ego, context = trainer.initial_embeddings(
            warm_start=previous.embedding)

        # Naive reference: same random draw, then the historical loop.
        rng = np.random.default_rng(embedding_config.seed)
        scale = embedding_config.init_scale / embedding_config.dimension
        shape = (graph.index_capacity, embedding_config.dimension)
        naive_ego = rng.uniform(-scale, scale, size=shape)
        naive_context = rng.uniform(-scale, scale, size=shape)
        warm = previous.embedding
        for node in graph.nodes():
            index_map = (warm.record_index if node.kind is NodeKind.RECORD
                         else warm.mac_index)
            old_row = index_map.get(node.key)
            if old_row is not None:
                naive_ego[node.index] = warm.ego[old_row]
                naive_context[node.index] = warm.context[old_row]
        np.testing.assert_array_equal(ego, naive_ego)
        np.testing.assert_array_equal(context, naive_context)

    def test_dimension_mismatch_rejected(self, preset_split):
        config = GraficsConfig(allow_unreachable_clusters=True)
        previous = GRAFICS(config).fit(list(preset_split.train_records),
                                       preset_split.labels)
        graph = build_graph(list(preset_split.train_records))
        other = replace(config.resolved_embedding_config(), dimension=4)
        trainer = EdgeSamplingTrainer(graph, other, ELINE_TERMS)
        with pytest.raises(ValueError, match="dimension"):
            trainer.initial_embeddings(warm_start=previous.embedding)


class TestKernelThreading:
    """The configured kernel rides through serving and streaming retrains."""

    def test_serving_retrain_kernel(self, preset_split, tmp_path):
        from repro.core.types import FingerprintDataset
        from repro.serving import FloorServingService

        dataset = FingerprintDataset(records=list(preset_split.train_records),
                                     building_id="bldg-a")
        service = FloorServingService(grafics_config=FUSED_CONFIG)
        service.fit_building(dataset, preset_split.labels)
        model = service.retrain_building(dataset, preset_split.labels,
                                         warm_start=True)
        assert model.embedding.config.kernel == "fused"
        assert service.model_for("bldg-a") is model
        # Round-tripped through persistence the kernel survives.
        path = tmp_path / "bldg-a.npz"
        reloaded = service.retrain_building(dataset, preset_split.labels,
                                            model_path=path)
        assert reloaded.embedding.config.kernel == "fused"

    def test_executor_kernel(self, preset_split):
        from repro.core.types import FingerprintDataset
        from repro.serving import FloorServingService
        from repro.stream import RetrainExecutor

        dataset = FingerprintDataset(records=list(preset_split.train_records),
                                     building_id="bldg-b")
        service = FloorServingService(
            grafics_config=GraficsConfig(allow_unreachable_clusters=True))
        service.fit_building(dataset, preset_split.labels)
        executor = RetrainExecutor(service, max_workers=0, kernel="fused")
        completion = executor.submit("bldg-b", dataset, preset_split.labels,
                                     trigger="test")
        assert completion.swapped
        assert service.model_for("bldg-b").embedding.config.kernel == "fused"

    def test_stream_config_kernel(self):
        from repro.serving import FloorServingService
        from repro.stream import ContinuousLearningPipeline, StreamConfig

        service = FloorServingService(
            grafics_config=GraficsConfig(allow_unreachable_clusters=True))
        pipeline = ContinuousLearningPipeline(
            service, StreamConfig(retrain_kernel="fused"))
        assert pipeline.executor.kernel == "fused"
        # Default keeps the reference kernel (and its byte-identity).
        assert ContinuousLearningPipeline(service).executor.kernel is None

    def test_invalid_kernel_fails_at_construction(self):
        """Bad kernel names fail fast, not at the first retrain."""
        from repro.serving import FloorServingService
        from repro.stream import RetrainExecutor, StreamConfig

        with pytest.raises(ValueError, match="unknown training kernel"):
            StreamConfig(retrain_kernel="fussed")
        service = FloorServingService(
            grafics_config=GraficsConfig(allow_unreachable_clusters=True))
        with pytest.raises(ValueError, match="unknown training kernel"):
            RetrainExecutor(service, kernel="fussed")

    def test_sharded_retrain_kernel(self, preset_split):
        """A multi-shard service retrains with its configured kernel too."""
        from repro.core.types import FingerprintDataset
        from repro.serving import ShardedServingService

        dataset = FingerprintDataset(records=list(preset_split.train_records),
                                     building_id="bldg-c")
        service = ShardedServingService(grafics_config=FUSED_CONFIG,
                                        num_shards=2)
        service.fit_building(dataset, preset_split.labels)
        model = service.retrain_building(dataset, preset_split.labels,
                                         warm_start=True)
        assert model.embedding.config.kernel == "fused"
        assert service.model_for("bldg-c") is model
