"""Tests for the LINE and E-LINE embedders (paper Section IV-B, V-A)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.embedding import ELINEEmbedder, EmbeddingConfig, LINEEmbedder
from repro.core.graph import build_graph
from repro.core.overlay import GraphOverlay
from repro.core.types import SignalRecord


def record(rid, rss, floor=None):
    return SignalRecord(record_id=rid, rss=rss, floor=floor)


FAST = EmbeddingConfig(samples_per_edge=30.0, seed=0, batch_size=128)


@pytest.fixture(scope="module")
def two_floor_graph():
    """Two 'floors' with internally-overlapping but mutually-disjoint MAC sets."""
    records = []
    for i in range(8):
        records.append(record(f"f0-{i}", {f"a{j}": -50.0 - j
                                          for j in range(i % 3, i % 3 + 3)}))
        records.append(record(f"f1-{i}", {f"b{j}": -50.0 - j
                                          for j in range(i % 3, i % 3 + 3)}))
    return build_graph(records)


class TestLINEEmbedder:
    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            LINEEmbedder(order="third")

    @pytest.mark.parametrize("order", ["first", "second", "combined"])
    def test_fit_produces_addressable_embeddings(self, two_floor_graph, order):
        embedding = LINEEmbedder(FAST, order=order).fit(two_floor_graph)
        assert embedding.dimension == FAST.dimension
        vec = embedding.record_vector("f0-0")
        assert vec.shape == (FAST.dimension,)
        assert embedding.mac_vector("a0").shape == (FAST.dimension,)
        assert np.isfinite(vec).all()

    def test_unknown_record_raises(self, two_floor_graph):
        embedding = LINEEmbedder(FAST).fit(two_floor_graph)
        with pytest.raises(KeyError):
            embedding.record_vector("missing")
        with pytest.raises(KeyError):
            embedding.mac_vector("missing")


class TestELINEEmbedder:
    def test_fit_separates_disjoint_floors(self, two_floor_graph):
        config = EmbeddingConfig(samples_per_edge=150.0, seed=0, dropout=0.0)
        embedding = ELINEEmbedder(config).fit(two_floor_graph)
        f0 = embedding.record_matrix([f"f0-{i}" for i in range(8)])
        f1 = embedding.record_matrix([f"f1-{i}" for i in range(8)])
        within = np.linalg.norm(f0 - f0.mean(axis=0), axis=1).mean()
        between = np.linalg.norm(f0.mean(axis=0) - f1.mean(axis=0))
        assert between > within

    def test_record_matrix_row_alignment(self, two_floor_graph):
        embedding = ELINEEmbedder(FAST).fit(two_floor_graph)
        ids = ["f0-0", "f1-3", "f0-5"]
        matrix = embedding.record_matrix(ids)
        for row, rid in zip(matrix, ids):
            np.testing.assert_array_equal(row, embedding.record_vector(rid))

    def test_training_loss_recorded(self, two_floor_graph):
        embedding = ELINEEmbedder(FAST).fit(two_floor_graph)
        assert len(embedding.training_loss) > 0
        assert all(np.isfinite(embedding.training_loss))


class TestIncrementalEmbedding:
    def test_embed_new_nodes_keeps_existing_frozen(self, two_floor_graph):
        embedder = ELINEEmbedder(FAST)
        embedding = embedder.fit(two_floor_graph)
        old_vector = embedding.record_vector("f0-0").copy()

        overlay = GraphOverlay(two_floor_graph)
        overlay.add_record(record("online-1", {"a0": -55.0, "a1": -60.0}))
        enlarged = embedder.embed_new_nodes(overlay, embedding, ["online-1"])
        assert enlarged.has_record("online-1")
        np.testing.assert_array_equal(enlarged.record_vector("f0-0"),
                                      old_vector)
        assert np.isfinite(enlarged.record_vector("online-1")).all()
        # The original embedding object is untouched.
        assert not embedding.has_record("online-1")

    def test_new_record_lands_near_its_neighborhood(self, two_floor_graph):
        config = EmbeddingConfig(samples_per_edge=150.0, seed=0, dropout=0.0)
        embedder = ELINEEmbedder(config)
        embedding = embedder.fit(two_floor_graph)
        overlay = GraphOverlay(two_floor_graph)
        overlay.add_record(record("online-2", {"a0": -50.0, "a1": -52.0,
                                               "a2": -54.0}))
        enlarged = embedder.embed_new_nodes(overlay, embedding, ["online-2"])
        vec = enlarged.record_vector("online-2")
        f0_centroid = enlarged.record_matrix(
            [f"f0-{i}" for i in range(8)]).mean(axis=0)
        f1_centroid = enlarged.record_matrix(
            [f"f1-{i}" for i in range(8)]).mean(axis=0)
        assert np.linalg.norm(vec - f0_centroid) < np.linalg.norm(vec - f1_centroid)

    def test_embed_new_nodes_validation(self, two_floor_graph):
        embedder = ELINEEmbedder(FAST)
        embedding = embedder.fit(two_floor_graph)
        overlay = GraphOverlay(two_floor_graph)
        with pytest.raises(ValueError):
            embedder.embed_new_nodes(overlay, embedding, ["f0-0"])
        with pytest.raises(ValueError):
            embedder.embed_new_nodes(overlay, embedding, ["not-there"])

    def test_empty_new_ids_is_noop(self, two_floor_graph):
        embedder = ELINEEmbedder(FAST)
        embedding = embedder.fit(two_floor_graph)
        assert embedder.embed_new_nodes(GraphOverlay(two_floor_graph),
                                        embedding, []) is embedding


class TestWarmStart:
    """Warm-start initialisation for continuous-learning retrains."""

    def test_warm_start_is_deterministic(self, two_floor_graph):
        embedder = ELINEEmbedder(FAST)
        previous = embedder.fit(two_floor_graph)
        once = ELINEEmbedder(FAST).fit(two_floor_graph, warm_start=previous)
        twice = ELINEEmbedder(FAST).fit(two_floor_graph, warm_start=previous)
        assert np.array_equal(once.ego, twice.ego)
        assert np.array_equal(once.context, twice.context)

    def test_warm_start_changes_initialisation(self, two_floor_graph):
        embedder = ELINEEmbedder(FAST)
        previous = embedder.fit(two_floor_graph)
        cold = ELINEEmbedder(FAST).fit(two_floor_graph)
        warm = ELINEEmbedder(FAST).fit(two_floor_graph, warm_start=previous)
        assert not np.array_equal(cold.ego, warm.ego)

    def test_surviving_nodes_start_from_previous_vectors(self, two_floor_graph):
        from repro.core.embedding.trainer import EdgeSamplingTrainer, ObjectiveTerms

        embedder = ELINEEmbedder(FAST)
        previous = embedder.fit(two_floor_graph)
        trainer = EdgeSamplingTrainer(two_floor_graph, FAST,
                                      ObjectiveTerms(second_order=True))
        ego, context = trainer.initial_embeddings(warm_start=previous)
        for record_id, row in previous.record_index.items():
            assert np.array_equal(ego[row], previous.ego[row])
            assert np.array_equal(context[row], previous.context[row])

    def test_new_nodes_keep_random_initialisation(self, two_floor_graph):
        """A node absent from the previous embedding draws a fresh vector."""
        from repro.core.embedding.trainer import EdgeSamplingTrainer, ObjectiveTerms
        from repro.core.graph import build_graph as rebuild

        embedder = ELINEEmbedder(FAST)
        previous = embedder.fit(two_floor_graph)
        enlarged = rebuild(
            [record(n.key, {m: -50.0 for m in ("a0", "a1")})
             for n in two_floor_graph.record_nodes()]
            + [record("brand-new", {"a0": -40.0, "never-seen": -45.0})])
        trainer = EdgeSamplingTrainer(enlarged, FAST,
                                      ObjectiveTerms(second_order=True))
        ego, _ = trainer.initial_embeddings(warm_start=previous)
        new_index = enlarged.record_index_map()["brand-new"]
        scale = FAST.init_scale / FAST.dimension
        assert np.all(np.abs(ego[new_index]) <= scale)
        assert not np.array_equal(ego[new_index], np.zeros(FAST.dimension))

    def test_dimension_mismatch_rejected(self, two_floor_graph):
        previous = ELINEEmbedder(FAST).fit(two_floor_graph)
        smaller = EmbeddingConfig(dimension=4, samples_per_edge=30.0, seed=0)
        with pytest.raises(ValueError, match="dimension"):
            ELINEEmbedder(smaller).fit(two_floor_graph, warm_start=previous)

    def test_line_supports_warm_start_too(self, two_floor_graph):
        previous = LINEEmbedder(FAST).fit(two_floor_graph)
        warm = LINEEmbedder(FAST).fit(two_floor_graph, warm_start=previous)
        assert warm.dimension == previous.dimension
