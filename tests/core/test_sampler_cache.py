"""Tests for the version-keyed sampler cache and the online fast paths.

The cache lets repeated trainer constructions over an unchanged graph reuse
the alias samplers instead of re-running the O(V+E) builds; the regression
tests here pin the core guarantee — predictions are byte-identical with and
without caching — and the graph bookkeeping it relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import GRAFICS, GraficsConfig
from repro.core.embedding import ELINEEmbedder
from repro.core.embedding.sampler import EdgeSampler, NegativeSampler
from repro.core.embedding.trainer import (
    _SAMPLER_CACHE,
    EdgeSamplingTrainer,
    ObjectiveTerms,
    clear_sampler_cache,
)
from repro.core.graph import build_graph
from repro.core.overlay import GraphOverlay
from repro.core.types import SignalRecord
from repro.data import make_experiment_split, small_test_building

ELINE_TERMS = ObjectiveTerms(second_order=True, symmetric=True)


def record(rid, rss):
    return SignalRecord(record_id=rid, rss=rss)


@pytest.fixture()
def graph():
    records = [record(f"r{i}", {f"m{j}": -50.0 - j
                                for j in range(i % 3, i % 3 + 4)})
               for i in range(10)]
    return build_graph(records)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_sampler_cache()
    yield
    clear_sampler_cache()


class TestSamplerCache:
    def test_same_version_reuses_samplers(self, graph):
        config = GraficsConfig().resolved_embedding_config()
        first = EdgeSamplingTrainer(graph, config, ELINE_TERMS)
        second = EdgeSamplingTrainer(graph, config, ELINE_TERMS)
        assert second._edge_sampler is first._edge_sampler
        assert second._negative_sampler is first._negative_sampler
        assert _SAMPLER_CACHE.hits == 2

    def test_mutation_invalidates(self, graph):
        config = GraficsConfig().resolved_embedding_config()
        first = EdgeSamplingTrainer(graph, config, ELINE_TERMS)
        graph.add_record(record("extra", {"m0": -50.0}))
        second = EdgeSamplingTrainer(graph, config, ELINE_TERMS)
        assert second._edge_sampler is not first._edge_sampler
        assert second._negative_sampler is not first._negative_sampler
        assert second._edge_sampler.num_edges == first._edge_sampler.num_edges + 1

    def test_bypass_builds_fresh(self, graph):
        config = GraficsConfig().resolved_embedding_config()
        cached = EdgeSamplingTrainer(graph, config, ELINE_TERMS)
        clear_sampler_cache()
        cold = EdgeSamplingTrainer(graph, config, ELINE_TERMS)
        assert cold._edge_sampler is not cached._edge_sampler
        assert cold._negative_sampler is not cached._negative_sampler
        # Identical construction either way: same training trajectory.
        ego_a, context_a = cached.initial_embeddings()
        cached.train(ego_a, context_a)
        ego_b, context_b = cold.initial_embeddings()
        cold.train(ego_b, context_b)
        np.testing.assert_array_equal(ego_a, ego_b)
        np.testing.assert_array_equal(context_a, context_b)

    def test_cached_hit_trains_identically(self, graph):
        """A cache hit is byte-identical to a cold construction."""
        config = GraficsConfig().resolved_embedding_config()
        EdgeSamplingTrainer(graph, config, ELINE_TERMS)   # warm the cache
        warm = EdgeSamplingTrainer(graph, config, ELINE_TERMS)
        assert _SAMPLER_CACHE.hits >= 2
        # The cold reference trains on samplers built directly, bypassing
        # the cache.
        cold = EdgeSamplingTrainer(graph, config, ELINE_TERMS)
        cold._edge_sampler = EdgeSampler(*graph.edge_arrays())
        cold._negative_sampler = NegativeSampler(graph.degree_array())
        assert cold._edge_sampler is not warm._edge_sampler
        ego_w, context_w = warm.initial_embeddings()
        warm.train(ego_w, context_w)
        ego_c, context_c = cold.initial_embeddings()
        cold.train(ego_c, context_c)
        np.testing.assert_array_equal(ego_w, ego_c)
        np.testing.assert_array_equal(context_w, context_c)


class TestOnlineSamplerReuse:
    """Frozen updates at an unchanged version reuse cached tables, and
    predictions stay byte-identical."""

    @pytest.fixture()
    def fitted(self):
        dataset = small_test_building(records_per_floor=20)
        split = make_experiment_split(dataset, labels_per_floor=4, seed=0)
        model = GRAFICS(GraficsConfig(allow_unreachable_clusters=True)).fit(
            list(split.train_records), split.labels)
        probes = [r.without_floor() for r in split.test_records[:4]]
        return model, probes

    def test_same_version_reuses_negative_sampler(self, fitted):
        model, probes = fitted
        graph, embedding = model.graph, model.embedding
        version_before = graph.version
        embedder = ELINEEmbedder(embedding.config)
        overlays = []
        for probe in probes[:2]:
            overlay = GraphOverlay(graph)
            overlay.add_record(probe)
            overlays.append(overlay)

        clear_sampler_cache()
        ego_a, _, _ = embedder.embed_new_nodes_arrays(
            overlays[0], embedding, [probes[0].record_id])
        misses_after_first = _SAMPLER_CACHE.misses
        ego_b, _, _ = embedder.embed_new_nodes_arrays(
            overlays[1], embedding, [probes[1].record_id])
        # Second update at the same graph version: its delta sampler is
        # composed over the cached base negative sampler.
        assert graph.version == version_before
        assert _SAMPLER_CACHE.hits >= 1
        assert _SAMPLER_CACHE.misses == misses_after_first
        composed = [_SAMPLER_CACHE.delta_negative_sampler(overlay)
                    for overlay in overlays]
        assert composed[0]._base_sampler is composed[1]._base_sampler
        assert ego_a.shape == ego_b.shape

    def test_predictions_byte_identical_with_and_without_cache(self, fitted):
        """Before/after-caching regression for the online prediction path."""
        model, probes = fitted

        clear_sampler_cache()
        with_cache = [model.predict(p) for p in probes]

        # Cold path: every predict rebuilds its samplers from scratch.
        cold = []
        for probe in probes:
            clear_sampler_cache()
            cold.append(model.predict(probe))

        for a, b in zip(with_cache, cold):
            assert a.record_id == b.record_id
            assert a.floor == b.floor
            assert a.distance == b.distance
            np.testing.assert_array_equal(a.embedding, b.embedding)


class TestCacheAccounting:
    def test_eviction_counts_each_discarded_sampler(self, graph):
        """Replacing a stale entry evicts every object it held, not one.

        A trainer construction caches both an edge and a negative sampler
        for the graph version; when a mutation bumps the version, the next
        lookup discards *two* samplers and the eviction counter (and its
        ``sampler_cache_evictions_total`` mirror) must say two, not one.
        """
        config = GraficsConfig().resolved_embedding_config()
        EdgeSamplingTrainer(graph, config, ELINE_TERMS)
        assert _SAMPLER_CACHE.evictions == 0
        graph.add_record(record("extra", {"m0": -50.0}))
        EdgeSamplingTrainer(graph, config, ELINE_TERMS)
        assert _SAMPLER_CACHE.evictions == 2

    def test_two_threads_racing_same_miss_both_build(self, graph):
        """Regression: concurrent same-key misses must not deadlock.

        Construction deliberately happens outside the cache lock, so two
        threads hitting the same cold key both miss and both build; the
        samplers are identical and the last insert wins.  The barrier
        inside the build function forces the overlap: if either thread
        held the lock across its build, the other could never reach the
        barrier and the join would time out.
        """
        import threading

        from repro.core.embedding.sampler import NegativeSampler

        barrier = threading.Barrier(2, timeout=10)
        built = []

        def build():
            barrier.wait()
            sampler = NegativeSampler(graph.degree_array())
            built.append(sampler)
            return sampler

        results = [None, None]

        def worker(slot):
            results[slot] = _SAMPLER_CACHE._get_with_state(
                graph, "negative", build)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert all(not thread.is_alive() for thread in threads)

        assert len(built) == 2
        assert _SAMPLER_CACHE.misses == 2
        assert all(not hit for _, hit in results)
        # The winning insert serves subsequent lookups.
        cached, hit = _SAMPLER_CACHE._get_with_state(
            graph, "negative", lambda: pytest.fail("expected a cache hit"))
        assert hit
        assert cached in built
