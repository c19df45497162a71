"""Tests for the two training kernels: fused fits and the frozen update.

Every fit dispatches to ``FusedKernel`` (in ``EdgeSamplingTrainer``) and
the frozen online update to ``ReferenceKernel`` (outside it); there is no
setting.  The
historical full-table fit step lives on as a test oracle
(``kernel_oracle``), against which the fused kernel is pinned per batch and
by floor accuracy over whole test splits.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import GRAFICS, GraficsConfig
from repro.core.embedding import EmbeddingConfig
from repro.core.embedding.kernels import FusedKernel, ReferenceKernel
from repro.core.embedding.sampler import AliasTable, EdgeSampler
from repro.core.embedding.trainer import (
    EdgeSamplingTrainer,
    ObjectiveTerms,
    batch_schedule,
)
from repro.core.graph import build_graph
from repro.core.types import FingerprintDataset, SignalRecord
from repro.data import (
    make_experiment_split,
    small_test_building,
    three_story_campus_building,
)

sys.path.insert(0, str(Path(__file__).parent))

from kernel_oracle import oracle_fits  # noqa: E402

ELINE_TERMS = ObjectiveTerms(second_order=True, symmetric=True)

CONFIG = GraficsConfig(allow_unreachable_clusters=True)


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


@pytest.fixture()
def dispatches(monkeypatch):
    """Count ``train_batch`` calls per kernel, wrapping each class's own
    definition the way the benchmark's tracer does."""
    counts = {"fused": 0, "reference": 0}
    for name, owner in (("fused", FusedKernel),
                        ("reference", ReferenceKernel)):
        original = owner.__dict__["train_batch"]

        def counted(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(owner, "train_batch", counted)
    return counts


def _reset(counts):
    counts.update(fused=0, reference=0)


def _building(split, building_id):
    return FingerprintDataset(records=list(split.train_records),
                              building_id=building_id)


class TestFitDispatch:
    """Fits run the fused kernel in :class:`EdgeSamplingTrainer`; the frozen
    online update runs the reference kernel's frozen-row step, outside it."""

    def test_fit_batches_run_fused(self, preset_split, dispatches):
        model = GRAFICS(CONFIG).fit(list(preset_split.train_records),
                                    preset_split.labels)
        batches = len(model.embedding.training_loss)
        assert batches > 1
        assert dispatches == {"fused": batches, "reference": 0}

    def test_cold_predict_runs_frozen_path_only(self, preset_split,
                                                dispatches, monkeypatch):
        model = GRAFICS(CONFIG).fit(list(preset_split.train_records),
                                    preset_split.labels)
        _reset(dispatches)
        built = {EdgeSamplingTrainer: 0, EdgeSampler: 0, AliasTable: 0}
        for owner in built:
            original = owner.__dict__["__init__"]

            def counted(self, *args, _owner=owner, _original=original,
                        **kwargs):
                built[_owner] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(owner, "__init__", counted)
        probes = [r.without_floor() for r in preset_split.test_records[:4]]
        for probe in probes:
            # A fresh scan composes its delta negative table and nothing
            # else: the base tables are cached, positives need no table.
            tables = built[AliasTable]
            model.predict(probe)
            assert built[AliasTable] - tables <= 1
        model.predict_batch(probes)
        model.predict_batch(probes, independent=True)
        assert dispatches["fused"] == 0
        assert dispatches["reference"] > 0
        assert built[EdgeSamplingTrainer] == 0
        assert built[EdgeSampler] == 0


def _train(graph, *, oracle=False, dropout=0.1, seed=0, total_samples=None,
           terms=ELINE_TERMS, samples_per_edge=40.0):
    config = EmbeddingConfig(seed=seed, dropout=dropout,
                             samples_per_edge=samples_per_edge, batch_size=128)
    trainer = EdgeSamplingTrainer(graph, config, terms)
    ego, context = trainer.initial_embeddings()
    with oracle_fits() if oracle else nullcontext():
        losses = trainer.train(ego, context, total_samples=total_samples)
    return ego, context, losses, trainer


class TestFusedKernelNumerics:
    def test_seed_deterministic(self, medium_graph):
        ego1, context1, losses1, _ = _train(medium_graph)
        ego2, context2, losses2, _ = _train(medium_graph)
        np.testing.assert_array_equal(ego1, ego2)
        np.testing.assert_array_equal(context1, context2)
        assert losses1 == losses2

    def test_rng_stream_matches_reference(self, medium_graph):
        """Fused consumes the RNG exactly like the oracle, by design."""
        *_, trainer_ref = _train(medium_graph, oracle=True)
        *_, trainer_fused = _train(medium_graph)
        assert (trainer_ref._rng.bit_generator.state
                == trainer_fused._rng.bit_generator.state)

    def test_single_batch_single_term_matches_reference(self, medium_graph):
        """One batch, one term: only float summation order may differ."""
        terms = ObjectiveTerms(second_order=True)
        ego_r, context_r, losses_r, _ = _train(
            medium_graph, oracle=True, dropout=0.0, total_samples=128,
            terms=terms)
        ego_f, context_f, losses_f, _ = _train(
            medium_graph, dropout=0.0, total_samples=128, terms=terms)
        np.testing.assert_allclose(ego_f, ego_r, rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(context_f, context_r, rtol=1e-7, atol=1e-9)
        assert losses_f[0] == pytest.approx(losses_r[0], rel=1e-9)

    # Single-term cases admit only summation-order noise; with two or more
    # terms the oracle applies terms sequentially within the batch while
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
        ego_r, context_r, *_ = _train(medium_graph, oracle=True, dropout=0.0,
                                      total_samples=128, terms=terms)
        ego_f, context_f, *_ = _train(medium_graph, dropout=0.0,
                                      total_samples=128, terms=terms)
        np.testing.assert_allclose(ego_f, ego_r, rtol=1e-7, atol=atol)
        np.testing.assert_allclose(context_f, context_r, rtol=1e-7, atol=atol)

    def test_full_run_stays_close_to_reference(self, medium_graph):
        ego_r, *_ = _train(medium_graph, oracle=True)
        ego_f, *_ = _train(medium_graph)
        # Term updates are applied Jacobi-style within a batch, so the runs
        # diverge slowly; they must stay in the same neighbourhood.
        assert np.abs(ego_f - ego_r).max() < 0.25

    def test_frozen_rows_never_change(self, medium_graph):
        """The frozen update's step: the frozen tables keep their bytes,
        the slot tables of the rows past them move."""
        config = EmbeddingConfig(seed=0, samples_per_edge=50.0)
        trainer = EdgeSamplingTrainer(medium_graph, config, ELINE_TERMS)
        full_ego, full_context = trainer.initial_embeddings()
        frozen = full_ego.shape[0] - 3
        frozen_ego, frozen_context = full_ego[:frozen], full_context[:frozen]
        ego_before = full_ego.copy()
        context_before = full_context.copy()
        ego, context = full_ego[frozen:].copy(), full_context[frozen:].copy()
        kernel = ReferenceKernel(frozen_ego, frozen_context)
        rng = np.random.default_rng(0)
        for start, stop, lr in batch_schedule(config, trainer.total_samples()):
            heads, tails, negatives = trainer._sample_batch(stop - start)
            kernel.train_batch(ego, context, heads, tails, negatives,
                               learning_rate=lr, terms=ELINE_TERMS,
                               config=config, rng=rng)
        np.testing.assert_array_equal(full_ego, ego_before)
        np.testing.assert_array_equal(full_context, context_before)
        assert not np.array_equal(ego, ego_before[frozen:])
        assert not np.array_equal(context, context_before[frozen:])

    def test_training_reduces_loss(self, medium_graph):
        *_, losses, _ = _train(medium_graph, dropout=0.0,
                               samples_per_edge=300.0)
        assert np.mean(losses[-3:]) < np.mean(losses[:3])

    def test_compact_scatter_path_matches_direct(self, medium_graph):
        """The large-table compaction branch computes the same update.

        The two branches combine the dense and outer contributions in a
        different order (one fused subtraction vs. two), so equality holds
        to the last few ulps rather than bit-for-bit.
        """
        ego_direct, context_direct, *_ = _train(medium_graph,
                                                total_samples=256)
        original = FusedKernel._COMPACT_RATIO
        FusedKernel._COMPACT_RATIO = 0      # always compact
        try:
            ego_compact, context_compact, *_ = _train(medium_graph,
                                                      total_samples=256)
        finally:
            FusedKernel._COMPACT_RATIO = original
        np.testing.assert_allclose(ego_compact, ego_direct,
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(context_compact, context_direct,
                                   rtol=1e-10, atol=1e-12)


def _hits(split, *, oracle=False):
    """Correct floors over the whole test split, predicted as one batch."""
    with oracle_fits() if oracle else nullcontext():
        model = GRAFICS(CONFIG).fit(list(split.train_records), split.labels)
    probes = [r.without_floor() for r in split.test_records]
    predictions = model.predict_batch(probes)
    return sum(p.floor == r.floor
               for p, r in zip(predictions, split.test_records))


class TestEndToEndParity:
    def test_fused_matches_reference_floor_accuracy(self):
        """fit -> cluster -> predict parity on the paper's campus preset."""
        dataset = three_story_campus_building(records_per_floor=60, seed=7)
        split = make_experiment_split(dataset, labels_per_floor=6, seed=0)
        hits_reference = _hits(split, oracle=True)
        hits_fused = _hits(split)
        assert hits_fused == hits_reference
        assert hits_reference > 0.9 * len(split.test_records)

    def test_fused_accuracy_near_reference_on_hard_preset(self, preset_split):
        """On the deliberately small/hard preset, parity within one flip."""
        hits_reference = _hits(preset_split, oracle=True)
        hits_fused = _hits(preset_split)
        assert abs(hits_fused - hits_reference) <= 1

    @pytest.mark.parametrize("records_per_floor,nodes", [(100, 315),
                                                         (400, 945)],
                             ids=["315-nodes", "945-nodes"])
    def test_accuracy_gate_over_seeds_and_sizes(self, records_per_floor,
                                                nodes):
        """Fused fits trail the oracle by at most three records per size.

        Correct counts are summed over the whole campus test split on three
        data seeds, because one split swings by several points on the seed
        alone; the kernels differ in within-batch term ordering, so
        borderline records may flip either way (measured: oracle 263/270,
        fused 262/270 at 315 nodes; 1066/1080 and 1065/1080 at 945).
        """
        oracle_total = fused_total = 0
        for seed in (7, 11, 13):
            dataset = three_story_campus_building(
                records_per_floor=records_per_floor, seed=seed)
            split = make_experiment_split(dataset, labels_per_floor=4, seed=0)
            assert build_graph(list(split.train_records)).num_nodes == nodes
            oracle_total += _hits(split, oracle=True)
            fused_total += _hits(split)
        assert fused_total >= oracle_total - 3


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
    """Service, executor and stream retrains all fit on the fused kernel;
    the retired kernel options survive only as shims."""

    def test_serving_retrain_kernel(self, preset_split, tmp_path,
                                    dispatches):
        from repro.serving import FloorServingService

        dataset = _building(preset_split, "bldg-a")
        service = FloorServingService(grafics_config=CONFIG)
        service.fit_building(dataset, preset_split.labels)
        _reset(dispatches)
        model = service.retrain_building(dataset, preset_split.labels,
                                         warm_start=True)
        assert service.model_for("bldg-a") is model
        assert dispatches == {"fused": len(model.embedding.training_loss),
                              "reference": 0}
        # Round-tripped through persistence, the retrain fits the same way.
        _reset(dispatches)
        service.retrain_building(dataset, preset_split.labels,
                                 model_path=tmp_path / "bldg-a.npz")
        assert dispatches["fused"] > 0
        assert dispatches["reference"] == 0

    def test_executor_kernel(self, preset_split, dispatches):
        from repro.serving import FloorServingService
        from repro.stream import RetrainExecutor

        dataset = _building(preset_split, "bldg-b")
        service = FloorServingService(grafics_config=CONFIG)
        service.fit_building(dataset, preset_split.labels)
        _reset(dispatches)
        executor = RetrainExecutor(service, max_workers=0)
        completion = executor.submit("bldg-b", dataset, preset_split.labels,
                                     trigger="test")
        assert completion.swapped
        model = service.model_for("bldg-b")
        assert dispatches == {"fused": len(model.embedding.training_loss),
                              "reference": 0}

    def test_stream_config_kernel(self, preset_split, dispatches):
        """A stream retrain fits every batch on the fused kernel, whether
        the retired ``retrain_kernel`` shim is left unset or says so."""
        from repro.serving import FloorServingService
        from repro.stream import (
            ContinuousLearningPipeline,
            SchedulerConfig,
            StreamConfig,
        )

        for retrain_kernel in (None, "fused"):
            service = FloorServingService(grafics_config=CONFIG)
            service.fit_building(_building(preset_split, "bldg-d"),
                                 preset_split.labels)
            pipeline = ContinuousLearningPipeline(service, StreamConfig(
                scheduler=SchedulerConfig(retrain_every_records=12,
                                          min_window_records=12),
                retrain_kernel=retrain_kernel))
            _reset(dispatches)
            stream = [SignalRecord(record_id=f"stream-{i}", rss=r.rss,
                                   floor=r.floor if i % 3 == 0 else None)
                      for i, r in enumerate(preset_split.test_records[:12])]
            results = pipeline.process_stream(stream)
            pipeline.close()
            assert sum(r.retrain is not None and r.retrain.swapped
                       for r in results) == 1
            model = service.model_for("bldg-d")
            # The stream's predictions ran the frozen path; the retrain
            # ran fused, one call per training batch.
            assert dispatches["fused"] == len(model.embedding.training_loss)
            assert dispatches["reference"] > 0

    def test_invalid_kernel_fails_at_construction(self):
        """Only the shim values ``None``/``"fused"`` remain; any other name,
        the retired ``"reference"`` included, fails fast."""
        from repro.stream import StreamConfig

        for name in ("reference", "fussed"):
            with pytest.raises(ValueError, match="retired"):
                StreamConfig(retrain_kernel=name)

    def test_sharded_retrain_kernel(self, preset_split, dispatches):
        """A multi-shard service retrains on the fused kernel too."""
        from repro.serving import ShardedServingService

        dataset = _building(preset_split, "bldg-c")
        service = ShardedServingService(grafics_config=CONFIG, num_shards=2)
        service.fit_building(dataset, preset_split.labels)
        _reset(dispatches)
        model = service.retrain_building(dataset, preset_split.labels,
                                         warm_start=True)
        assert service.model_for("bldg-c") is model
        assert dispatches == {"fused": len(model.embedding.training_loss),
                              "reference": 0}
