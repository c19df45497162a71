"""A fitted model serves from a frozen view of its training graph.

Online inference reads the node indices, the MAC vocabulary and the
weighted degrees of the training graph, never its edges, so ``GRAFICS``
keeps a :class:`~repro.core.graph.ServedGraph` instead of the mutable
``BipartiteGraph``.  Pinned here, for every way a model is made: the view
reports what ``build_graph(train_records)`` would, no adjacency rides in
the model's pickle, and the fit's negative sampler is handed to the view
rather than rebuilt by the first predict.
"""

from __future__ import annotations

import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import GRAFICS, GraficsConfig, load_model, save_model
from repro.core.embedding import EmbeddingConfig
from repro.core.embedding.trainer import _SAMPLER_CACHE, clear_sampler_cache
from repro.core.graph import ServedGraph, build_graph
from repro.data import make_experiment_split, three_story_campus_building
from repro.obs import runtime as obs_runtime

sys.path.insert(0, str(Path(__file__).parent))

from legacy_model_file import save_format1_model  # noqa: E402

CONFIG = GraficsConfig(embedding=EmbeddingConfig(samples_per_edge=40.0, seed=0),
                       allow_unreachable_clusters=True)
FLAVOURS = ["fitted", "pickled", "format-1-loaded", "format-2-loaded",
            "warm-started", "line"]


@pytest.fixture(scope="module")
def split():
    dataset = three_story_campus_building(records_per_floor=20, seed=7)
    return make_experiment_split(dataset, labels_per_floor=4, seed=0)


def fit(split, config=CONFIG):
    return GRAFICS(config).fit(list(split.train_records), split.labels)


def make_model(flavour, split, tmp_path):
    """A model made the ``flavour`` way, and the records it was fitted on."""
    records = list(split.train_records)
    if flavour == "fitted":
        return fit(split), records
    if flavour == "pickled":
        return pickle.loads(pickle.dumps(fit(split))), records
    if flavour in ("format-1-loaded", "format-2-loaded"):
        path = tmp_path / "model.npz"
        if flavour == "format-1-loaded":
            save_format1_model(fit(split), records, path)
        else:
            save_model(fit(split), path)
        return load_model(path), records
    if flavour == "warm-started":
        kept = records[len(records) // 4:]
        kept_ids = {r.record_id for r in kept}
        labels = {rid: floor for rid, floor in split.labels.items()
                  if rid in kept_ids}
        return GRAFICS(CONFIG).fit(kept, labels,
                                   warm_start=fit(split).embedding), kept
    config = GraficsConfig(embedding=CONFIG.embedding, embedder="line",
                           allow_unreachable_clusters=True)
    return fit(split, config), records


@pytest.mark.parametrize("flavour", FLAVOURS)
def test_view_matches_the_graph_it_replaces(flavour, split, tmp_path):
    model, records = make_model(flavour, split, tmp_path)
    served, graph = model.graph, build_graph(records)
    assert isinstance(served, ServedGraph)
    assert served.num_records == graph.num_records
    assert served.num_macs == graph.num_macs
    assert served.num_edges == graph.num_edges
    assert served.num_nodes == graph.num_nodes
    assert served.index_capacity == graph.index_capacity
    assert served.mac_vocabulary() == graph.mac_vocabulary()
    degrees, expected = served.degree_array(), graph.degree_array()
    if flavour == "format-1-loaded":
        # Format 1 stores the edges MAC-major, so loading re-sums a
        # record's degree in MAC order rather than in its scan's order:
        # MAC degrees are bit-identical, record degrees equal to rounding.
        macs = list(graph.mac_index_map().values())
        assert degrees[macs].tobytes() == expected[macs].tobytes()
        np.testing.assert_allclose(degrees, expected, rtol=1e-12, atol=0)
    else:
        assert degrees.tobytes() == expected.tobytes()
    assert served.record_index_map() == graph.record_index_map()
    assert served.mac_index_map() == graph.mac_index_map()
    # The view shares the embedding's maps rather than copying them.
    assert served.record_index_map() is model.embedding.record_index
    assert served.mac_index_map() is model.embedding.mac_index


@pytest.mark.parametrize("flavour", FLAVOURS)
def test_no_adjacency_in_the_pickle(flavour, split, tmp_path):
    model, _ = make_model(flavour, split, tmp_path)
    model.predict(split.test_records[0].without_floor())
    blob = pickle.dumps(model)
    assert b"BipartiteGraph" not in blob
    assert b"_adjacency" not in blob
    assert b"ServedGraph" in blob


class TestSamplerHandover:
    @pytest.fixture(autouse=True)
    def metrics(self):
        clear_sampler_cache()
        _, metrics = obs_runtime.enable()
        yield metrics
        obs_runtime.disable()
        clear_sampler_cache()

    def test_fit_hands_its_negative_sampler_to_the_view(self, split, metrics):
        model = fit(split)
        assert model.graph.negative_sampler is not None
        misses = _SAMPLER_CACHE.misses
        probes = [r.without_floor() for r in split.test_records[:3]]
        model.predict(probes[0])
        model.predict_batch(probes)
        model.predict_batch(probes, independent=True)
        assert metrics.counter("delta_sampler_rebuilds_total") == 0
        assert _SAMPLER_CACHE.misses == misses

    def test_pickled_twin_rebuilds_once(self, split, metrics):
        twin = pickle.loads(pickle.dumps(fit(split)))
        assert twin.graph.negative_sampler is None
        probes = [r.without_floor() for r in split.test_records[:3]]
        twin.predict(probes[0])
        twin.predict_batch(probes)
        twin.predict_batch(probes, independent=True)
        assert metrics.counter("delta_sampler_rebuilds_total") == 1
        assert twin.graph.negative_sampler is not None
