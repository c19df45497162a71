"""Tests for the delta-composed negative sampler of the online cold path.

The delta sampler replaces a per-predict O(V) negative alias rebuild with a
composition of the base graph's version-cached table and a tiny table over
the overlay-affected indices; it is the only negative sampler on overlay
graphs.  The load-bearing guarantee, pinned by a hypothesis property here,
is that the *composed per-index probabilities equal a full rebuild's
exactly* — same floats, not merely close — under arbitrary stage/grow
churn.  The RNG consumption differs from a rebuild's; accuracy parity with
the legacy rebuild route is gated in ``test_online_identity.py``.  The
retired ``sampler_mode`` knob survives only as shims that accept
``"delta"``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GRAFICS, GraficsConfig, EmbeddingConfig
from repro.core.embedding.sampler import (
    DeltaNegativeSampler,
    NegativeSampler,
    SamplerCache,
    unigram_power_distribution,
)
from repro.core.embedding.trainer import clear_sampler_cache
from repro.core.graph import build_graph
from repro.core.overlay import GraphOverlay
from repro.core.types import SignalRecord
from repro.data import make_experiment_split, three_story_campus_building
from repro.obs import runtime as obs_runtime

KNOWN_MACS = [f"m{i}" for i in range(6)]


def record(rid, rss):
    return SignalRecord(record_id=rid, rss=rss)


def base_graph():
    records = [record(f"r{i}", {KNOWN_MACS[j]: -45.0 - 3.0 * j
                                for j in range(i % 3, i % 3 + 3)})
               for i in range(8)]
    return build_graph(records)


def full_rebuild_probabilities(overlay) -> np.ndarray:
    """Per-index probabilities of ``NegativeSampler(overlay.degree_array())``."""
    weights = unigram_power_distribution(overlay.degree_array())
    live = np.flatnonzero(weights > 0)
    compact = weights[live]
    expanded = np.zeros(overlay.index_capacity, dtype=np.float64)
    expanded[live] = compact / compact.sum()
    return expanded


@st.composite
def staged_record_batches(draw):
    """0–3 records mixing known (boundary) and brand-new MACs.

    Degenerate shapes are first-class citizens: an empty batch (no staged
    node at all) and all-boundary records (only known MACs, no new node
    on the MAC side) both have dedicated branches in the sampler.
    """
    count = draw(st.integers(min_value=0, max_value=3))
    records = []
    for i in range(count):
        known = draw(st.lists(st.sampled_from(KNOWN_MACS),
                              min_size=0, max_size=4, unique=True))
        fresh = draw(st.lists(st.integers(min_value=0, max_value=4),
                              min_size=0, max_size=3, unique=True))
        macs = known + [f"new{j}" for j in fresh]
        if not macs:
            macs = [KNOWN_MACS[i % len(KNOWN_MACS)]]
        rss = {mac: -40.0 - float(draw(st.integers(0, 30))) for mac in macs}
        records.append(record(f"staged{i}", rss))
    return records


class TestComposedDistribution:
    @given(first=staged_record_batches(), second=staged_record_batches())
    @settings(max_examples=40, deadline=None)
    def test_probabilities_equal_full_rebuild_under_churn(self, first, second):
        """Composed probabilities == full rebuild, exactly, across base growth.

        Stage a batch, compare; add it to the base; stage another
        batch on the *mutated* base (version bump → cache invalidation and
        re-priming) and compare again.  Equality is exact float equality:
        the composition reuses the cached base weight vector verbatim and
        recomputes only the patched entries, so there is no tolerance to
        hide behind.
        """
        graph = base_graph()
        cache = SamplerCache()
        for tag, batch in (("a", first), ("b", second)):
            staged_records = [record(f"{tag}-{staged.record_id}", staged.rss)
                              for staged in batch]
            overlay = GraphOverlay(graph)
            for staged in staged_records:
                overlay.add_record(staged)
            sampler = cache.delta_negative_sampler(overlay)
            np.testing.assert_array_equal(
                sampler.probabilities, full_rebuild_probabilities(overlay))
            for staged in staged_records:
                graph.add_record(staged)

    def test_no_staged_delta_falls_back_to_base(self):
        graph = base_graph()
        overlay = GraphOverlay(graph)
        sampler = SamplerCache().delta_negative_sampler(overlay)
        assert sampler.delta_size == 0
        np.testing.assert_array_equal(
            sampler.probabilities, full_rebuild_probabilities(overlay))
        draws = sampler.sample(64, 4, np.random.default_rng(0))
        assert draws.shape == (64, 4)

    def test_all_boundary_batch(self):
        """A record observing only known MACs patches no new-node weight."""
        graph = base_graph()
        overlay = GraphOverlay(graph)
        overlay.add_record(record("probe", {m: -50.0 for m in KNOWN_MACS[:3]}))
        sampler = SamplerCache().delta_negative_sampler(overlay)
        np.testing.assert_array_equal(
            sampler.probabilities, full_rebuild_probabilities(overlay))

    def test_empirical_distribution_tracks_probabilities(self):
        graph = base_graph()
        overlay = GraphOverlay(graph)
        overlay.add_record(record("probe", {"m0": -50.0, "newA": -55.0}))
        sampler = SamplerCache().delta_negative_sampler(overlay)
        rng = np.random.default_rng(3)
        counts = np.zeros(overlay.index_capacity)
        for _ in range(40):
            np.add.at(counts, sampler.sample(512, 4, rng).ravel(), 1.0)
        empirical = counts / counts.sum()
        np.testing.assert_allclose(empirical, sampler.probabilities,
                                   atol=5e-3)
        # Zero-probability indices must never be drawn.
        assert counts[sampler.probabilities == 0.0].sum() == 0.0

    def test_all_live_base_indices_patched_disables_base_branch(self):
        """The rejection loop must be unreachable when every live base
        index is patched — otherwise it could never terminate."""
        degrees = np.array([1.0, 2.0])
        stub = SimpleNamespace(base_capacity=2, index_capacity=3)
        patch = (np.array([0, 1, 2], dtype=np.int64),
                 np.array([3.0, 4.0, 5.0]))
        sampler = DeltaNegativeSampler(stub, NegativeSampler(degrees),
                                       patch=patch)
        assert sampler._base_mass == 0.0
        draws = sampler.sample(256, 2, np.random.default_rng(1))
        patched_weights = unigram_power_distribution(patch[1])
        expected = np.zeros(3)
        expected[:] = patched_weights / patched_weights.sum()
        np.testing.assert_array_equal(sampler.probabilities, expected)
        assert set(np.unique(draws).tolist()) <= {0, 1, 2}


class TestDeltaMemo:
    def test_identical_patch_returns_memoised_sampler(self):
        graph = base_graph()
        cache = SamplerCache()
        probe = record("probe", {"m0": -50.0, "newA": -60.0})
        first_overlay = GraphOverlay(graph)
        first_overlay.add_record(probe)
        second_overlay = GraphOverlay(graph)
        second_overlay.add_record(probe)
        first = cache.delta_negative_sampler(first_overlay)
        second = cache.delta_negative_sampler(second_overlay)
        assert second is first

    def test_different_patch_builds_fresh(self):
        graph = base_graph()
        cache = SamplerCache()
        one = GraphOverlay(graph)
        one.add_record(record("a", {"m0": -50.0}))
        other = GraphOverlay(graph)
        other.add_record(record("a", {"m0": -70.0}))
        assert (cache.delta_negative_sampler(one)
                is not cache.delta_negative_sampler(other))

    def test_base_mutation_invalidates_memo(self):
        graph = base_graph()
        cache = SamplerCache()
        probe = record("probe", {"m0": -50.0})
        overlay = GraphOverlay(graph)
        overlay.add_record(probe)
        first = cache.delta_negative_sampler(overlay)
        graph.add_record(record("committed", {"m1": -48.0}))
        fresh_overlay = GraphOverlay(graph)
        fresh_overlay.add_record(probe)
        assert cache.delta_negative_sampler(fresh_overlay) is not first

    def test_hit_and_rebuild_counters(self):
        clear_sampler_cache()
        tracer, metrics = obs_runtime.enable()
        try:
            dataset = three_story_campus_building(records_per_floor=10,
                                                  seed=7)
            split = make_experiment_split(dataset, labels_per_floor=4,
                                          seed=0)
            model = GRAFICS(GraficsConfig(
                allow_unreachable_clusters=True)).fit(
                    list(split.train_records), split.labels)
            # Like a freshly loaded model: the fit's cached base sampler is
            # gone, so the first composition rebuilds it.
            clear_sampler_cache()
            probe = split.test_records[0].without_floor()
            engine = model.engine
            engine.predict(probe)
            assert metrics.counter("delta_sampler_rebuilds_total") >= 1
            hits_before = metrics.counter("delta_sampler_hits_total")
            engine.predict(probe)
            assert metrics.counter("delta_sampler_hits_total") > hits_before
        finally:
            obs_runtime.disable()
            clear_sampler_cache()


def fit_small_campus(**fit_kwargs):
    """A small fitted campus model and its split."""
    dataset = three_story_campus_building(records_per_floor=10, seed=7)
    split = make_experiment_split(dataset, labels_per_floor=4, seed=0)
    return GRAFICS(GraficsConfig(allow_unreachable_clusters=True)).fit(
        list(split.train_records), split.labels, **fit_kwargs), split


class TestSamplerModePlumbing:
    """The retired ``sampler_mode`` knob: only ``"delta"`` is accepted, by
    the shims kept for callers written when the sampler was selectable."""

    def test_embedding_config_validates_mode(self):
        with pytest.raises(TypeError):
            EmbeddingConfig(sampler_mode="delta")
        model, split = fit_small_campus()
        for retired in ("exact", "bogus"):
            with pytest.raises(ValueError, match="retired"):
                model.with_sampler_mode(retired)
            with pytest.raises(ValueError, match="retired"):
                GRAFICS(model.config).fit(list(split.train_records),
                                          split.labels, sampler_mode=retired)

    def test_with_sampler_mode_clone_shares_fitted_state(self):
        model, split = fit_small_campus()
        clone = model.with_sampler_mode("delta")
        assert clone is not model
        assert clone.config.sampler_mode == model.config.sampler_mode == "delta"
        assert clone.graph is model.graph
        assert clone.embedding.ego is model.embedding.ego
        assert clone.embedding.context is model.embedding.context
        assert clone.cluster_model is model.cluster_model
        assert clone.engine is not model.engine
        probe = split.test_records[0].without_floor()
        first, second = model.predict(probe), clone.predict(probe)
        assert first.distance == second.distance
        assert first.embedding.tobytes() == second.embedding.tobytes()

    def test_fit_records_sampler_mode(self):
        model, split = fit_small_campus(sampler_mode="delta")
        plain, _ = fit_small_campus()
        assert model.config == plain.config
        assert model.config.sampler_mode == "delta"
        probe = split.test_records[0].without_floor()
        assert (model.predict(probe).embedding.tobytes()
                == plain.predict(probe).embedding.tobytes())


class TestDeltaModeServing:
    @pytest.fixture(scope="class")
    def campus(self):
        clear_sampler_cache()
        dataset = three_story_campus_building(records_per_floor=40, seed=7)
        split = make_experiment_split(dataset, labels_per_floor=4, seed=0)
        model = GRAFICS(GraficsConfig(
            embedding=EmbeddingConfig(samples_per_edge=40.0, seed=0),
            allow_unreachable_clusters=True)).fit(
                list(split.train_records), split.labels)
        return model, split

    def test_delta_predictions_deterministic(self, campus):
        model, split = campus
        engine = model.engine
        probe = split.test_records[1].without_floor()
        first = engine.predict(probe)
        second = engine.predict(probe)
        assert first.floor == second.floor
        assert first.distance == second.distance
        np.testing.assert_array_equal(first.embedding, second.embedding)
