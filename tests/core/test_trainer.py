"""Tests for the shared edge-sampling SGD engine."""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.embedding import eline as eline_module
from repro.core.embedding.base import EmbeddingConfig
from repro.core.embedding.eline import ELINEEmbedder
from repro.core.embedding.kernels import ReferenceKernel
from repro.core.embedding.trainer import EdgeSamplingTrainer, ObjectiveTerms, sigmoid
from repro.core.graph import NodeKind, build_graph
from repro.core.overlay import GraphOverlay
from repro.core.types import SignalRecord

sys.path.insert(0, str(Path(__file__).parent))

import kernel_oracle  # noqa: E402


def record(rid, rss):
    return SignalRecord(record_id=rid, rss=rss)


@pytest.fixture()
def small_graph(tiny_records):
    return build_graph(tiny_records)


class TestSigmoid:
    def test_range_and_midpoint(self):
        assert sigmoid(np.array([0.0])) == pytest.approx(0.5)
        values = sigmoid(np.array([-1000.0, 1000.0]))
        assert 0.0 <= values[0] < 1e-6
        assert 1.0 - 1e-6 < values[1] <= 1.0

    def test_no_overflow_warning(self):
        with np.errstate(over="raise"):
            sigmoid(np.array([-1e9, 1e9]))


class TestObjectiveTerms:
    def test_requires_at_least_one_term(self):
        with pytest.raises(ValueError):
            ObjectiveTerms(first_order=False, second_order=False, symmetric=False)


class TestEmbeddingConfig:
    @pytest.mark.parametrize("kwargs", [
        {"dimension": 0},
        {"learning_rate": 0.0},
        {"negative_samples": 0},
        {"samples_per_edge": 0.0},
        {"batch_size": 0},
        {"dropout": 1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            EmbeddingConfig(**kwargs)


class TestEdgeSamplingTrainer:
    def test_rejects_empty_graph(self):
        from repro.core.graph import BipartiteGraph

        with pytest.raises(ValueError):
            EdgeSamplingTrainer(BipartiteGraph(), EmbeddingConfig(),
                                ObjectiveTerms())

    def test_initial_embeddings_shape(self, small_graph):
        config = EmbeddingConfig(dimension=6, seed=0)
        trainer = EdgeSamplingTrainer(small_graph, config, ObjectiveTerms())
        ego, context = trainer.initial_embeddings()
        assert ego.shape == (small_graph.index_capacity, 6)
        assert context.shape == ego.shape
        assert not np.array_equal(ego, context)

    def test_total_samples_scales_with_edges(self, small_graph):
        config = EmbeddingConfig(samples_per_edge=10.0)
        trainer = EdgeSamplingTrainer(small_graph, config, ObjectiveTerms())
        assert trainer.total_samples() == 10 * small_graph.num_edges

    def test_training_reduces_loss(self, small_graph):
        config = EmbeddingConfig(samples_per_edge=200.0, seed=0, dropout=0.0,
                                 batch_size=64)
        trainer = EdgeSamplingTrainer(small_graph, config,
                                      ObjectiveTerms(second_order=True,
                                                     symmetric=True))
        ego, context = trainer.initial_embeddings()
        losses = trainer.train(ego, context)
        assert len(losses) > 3
        early = np.mean(losses[:3])
        late = np.mean(losses[-3:])
        assert late < early

    def test_shape_validation(self, small_graph):
        config = EmbeddingConfig(seed=0)
        trainer = EdgeSamplingTrainer(small_graph, config, ObjectiveTerms())
        ego, context = trainer.initial_embeddings()
        with pytest.raises(ValueError):
            trainer.train(ego, context[:, :4])
        with pytest.raises(ValueError):
            trainer.train(ego[:2], context[:2])

    def test_second_order_pulls_neighbors_together(self):
        """Two records sharing all MACs should end closer than unrelated ones."""
        records = [
            record("x1", {"a": -50.0, "b": -55.0}),
            record("x2", {"a": -52.0, "b": -57.0}),
            record("y1", {"c": -50.0, "d": -55.0}),
            record("y2", {"c": -52.0, "d": -57.0}),
        ]
        graph = build_graph(records)
        config = EmbeddingConfig(samples_per_edge=400.0, seed=1, dropout=0.0)
        trainer = EdgeSamplingTrainer(graph, config,
                                      ObjectiveTerms(second_order=True,
                                                     symmetric=True))
        ego, context = trainer.initial_embeddings()
        trainer.train(ego, context)
        index = graph.record_index_map()
        same = np.linalg.norm(ego[index["x1"]] - ego[index["x2"]])
        cross = np.linalg.norm(ego[index["x1"]] - ego[index["y1"]])
        assert same < cross


def probe():
    return record("p0", {"m1": -55.0, "m4": -60.0, "fresh": -70.0})


class TestFrozenUpdate:
    """The online update trains only the new nodes' rows (Section V-A)."""

    @pytest.fixture()
    def fitted(self, small_graph):
        embedder = ELINEEmbedder(EmbeddingConfig(samples_per_edge=50.0,
                                                 seed=0))
        return embedder, embedder.fit(small_graph)

    @staticmethod
    def staged(graph):
        overlay = GraphOverlay(graph.freeze())
        overlay.add_record(probe())
        return overlay

    def test_frozen_rows_never_change(self, small_graph, fitted,
                                      monkeypatch):
        embedder, embedding = fitted
        snapshot = (embedding.ego.tobytes(), embedding.context.tobytes())
        overlay = self.staged(small_graph)
        staged = overlay.index_capacity - overlay.base_capacity
        ego, context, _ = embedder.embed_new_nodes_arrays(
            overlay, embedding, ["p0"])
        assert ego.shape == context.shape == (staged, embedding.dimension)
        assert (embedding.ego.tobytes(),
                embedding.context.tobytes()) == snapshot

        # Every staged row moves away from its initial draw: compare with
        # an update whose kernel steps change nothing.
        monkeypatch.setattr(ReferenceKernel, "train_batch",
                            lambda self, *args, **kwargs: 0.0)
        ego_init, context_init, _ = embedder.embed_new_nodes_arrays(
            self.staged(small_graph), embedding, ["p0"])
        for row in range(staged):
            assert not np.array_equal(ego[row], ego_init[row])
            assert not np.array_equal(context[row], context_init[row])

    def test_positive_edges_are_the_new_nodes_incident_edges(
            self, small_graph, fitted):
        _, embedding = fitted
        base = small_graph.index_capacity
        overlay = self.staged(small_graph)
        (sources, targets, weights), _ = eline_module._frozen_inputs(overlay)
        record_index = overlay.get_node(NodeKind.RECORD, "p0").index
        assert sources.size == len(probe().rss)
        assert set(targets.tolist()) == {record_index}

        # The legacy mutated-graph route trains the named record plus the
        # MACs the embedding lacks -- the staged rows -- on the same edges.
        small_graph.add_record(probe())
        trainable, edges, _ = kernel_oracle.legacy_frozen_inputs(
            small_graph, embedding, ["p0"])
        np.testing.assert_array_equal(trainable,
                                      np.arange(base, overlay.index_capacity))
        for arrays, legacy in zip((sources, targets, weights), edges):
            np.testing.assert_array_equal(arrays, legacy)

    def test_empty_overlay_rejected(self, small_graph, fitted):
        embedder, embedding = fitted
        with pytest.raises(ValueError, match="selects no edges"):
            embedder.embed_new_nodes_arrays(GraphOverlay(small_graph.freeze()),
                                            embedding, [])

    @pytest.mark.parametrize("rows", [-1, 1], ids=["one-too-few",
                                                   "one-too-many"])
    def test_embedding_must_match_base_capacity(self, small_graph, fitted,
                                                rows):
        """The kernel treats every index past the embedding's rows as a
        staged row, so an embedding that does not end at the base capacity
        is rejected instead of reading a wrong row."""
        embedder, embedding = fitted
        size = small_graph.index_capacity + rows
        grown = np.zeros((max(size, embedding.ego.shape[0]),
                          embedding.dimension))
        grown[:embedding.ego.shape[0]] = embedding.ego
        mismatched = replace(embedding, ego=grown[:size],
                             context=grown[:size].copy())
        with pytest.raises(ValueError, match="rows"):
            embedder.embed_new_nodes_arrays(self.staged(small_graph),
                                            mismatched, ["p0"])

    def test_plain_graph_rejected(self, small_graph, fitted):
        embedder, embedding = fitted
        small_graph.add_record(probe())
        for method in (embedder.embed_new_nodes,
                       embedder.embed_new_nodes_arrays):
            with pytest.raises(TypeError, match="GraphOverlay"):
                method(small_graph, embedding, ["p0"])
