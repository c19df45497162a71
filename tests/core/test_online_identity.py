"""Mutation-free online inference vs the legacy mutate-the-graph path.

Before online inference staged probes on a ``GraphOverlay``, every
prediction mutated the shared graph: the probe record was inserted,
embedded against the frozen model and removed again.  The reference below
*is* that legacy implementation, re-enacted with ``BipartiteGraph.add_record``
and the legacy frozen update kept as an oracle (``kernel_oracle``).

The overlay path composes its negative sampler from the base graph's
cached table (``DeltaNegativeSampler``) instead of rebuilding it per
prediction, so its draw sequence — and with it the prediction bytes —
differs from the legacy route's.  What must still hold exactly:

* the sampler *inputs*: for single and joint staging, the positive edge
  arrays and the negative-sampling probabilities equal the mutated twin's
  full rebuild bit for bit, also on models grown by the legacy route's
  persisting mode;
* the overlay path's own byte-identities: an independent batch equals
  per-record singles;
* floor accuracy: equal to the legacy route's over a whole test split on
  three data seeds.

Also pinned: a served model is immutable — predictions never bump
``BipartiteGraph.version``, leave the pickled model byte-identical, and a
twin pickled after them serves the same bytes; the version-keyed
``SamplerCache`` entry survives a sequence of cold predicts instead of
being evicted by each one; and every cold predict restricts training to
staged overlay nodes, because a served model's embedding covers every
MAC of its graph.
"""

from __future__ import annotations

import inspect
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import GRAFICS, GraficsConfig, load_model, save_model
from repro.core.embedding import ELINEEmbedder, EmbeddingConfig
from repro.core.embedding import eline as eline_module
from repro.core.embedding.kernels import ReferenceKernel
from repro.core.embedding.trainer import (
    _SAMPLER_CACHE,
    EdgeSamplingTrainer,
    ObjectiveTerms,
    clear_sampler_cache,
)
from repro.core.graph import BipartiteGraph, NodeKind
from repro.core.inference import FloorPrediction, OnlineInferenceEngine
from repro.core.types import SignalRecord
from repro.data import make_experiment_split, three_story_campus_building

sys.path.insert(0, str(Path(__file__).parent))

import kernel_oracle  # noqa: E402

CONFIG = GraficsConfig(embedding=EmbeddingConfig(samples_per_edge=40.0, seed=0),
                       allow_unreachable_clusters=True)


def legacy_predict_group(model: GRAFICS, records, persist=False):
    """The pre-overlay online path: mutate, embed, classify, restore.

    A faithful re-enactment of the historical ``_predict_group`` using the
    public mutating graph API and the legacy frozen update
    (``kernel_oracle.legacy_embed_new_nodes``).  ``persist=True`` keeps the
    records and installs the enlarged embedding on the model, growing a
    consistent base for follow-up checks.
    """
    engine = model.engine
    graph, embedding = engine.graph, engine.embedding
    known_macs = set(graph.mac_index_map())
    for record in records:
        assert not graph.has_node(NodeKind.RECORD, record.record_id)
        assert set(record.rss) & known_macs

    added_macs = []
    for record in records:
        for mac in record.rss:
            if not graph.has_node(NodeKind.MAC, mac):
                added_macs.append(mac)
        graph.add_record(record)

    new_ids = [record.record_id for record in records]
    enlarged = kernel_oracle.legacy_embed_new_nodes(
        graph, embedding, new_ids, engine.embedder.config)

    predictions = []
    for record in records:
        vector = enlarged.record_vector(record.record_id)
        floor, distance = engine.cluster_model.predict_with_distance(vector)
        predictions.append(FloorPrediction(record_id=record.record_id,
                                           floor=floor, distance=distance,
                                           embedding=vector.copy()))
    if persist:
        engine.embedding = model.embedding = enlarged
    else:
        for record in records:
            graph.remove_record(record.record_id)
        for mac in added_macs:
            node = graph.get_node(NodeKind.MAC, mac)
            if graph.degree(node.index) == 0:
                graph.remove_mac(mac)
    return predictions


def legacy_predict_batch(model, records, persist=False, independent=False):
    if independent:
        return [legacy_predict_group(model, [record], persist=persist)[0]
                for record in records]
    return legacy_predict_group(model, list(records), persist=persist)


def assert_identical(new_predictions, legacy_predictions):
    assert len(new_predictions) == len(legacy_predictions)
    for new, old in zip(new_predictions, legacy_predictions):
        assert new.record_id == old.record_id
        assert new.floor == old.floor
        assert new.distance == old.distance
        assert new.embedding.tobytes() == old.embedding.tobytes()


@pytest.fixture(scope="module")
def campus_split():
    dataset = three_story_campus_building(records_per_floor=40, seed=7)
    return make_experiment_split(dataset, labels_per_floor=4, seed=0)


def fit_campus(campus_split) -> GRAFICS:
    """A deterministic fit — two calls produce byte-identical models."""
    return GRAFICS(CONFIG).fit(list(campus_split.train_records),
                               campus_split.labels)


@pytest.fixture(scope="module")
def probes(campus_split):
    return [r.without_floor() for r in campus_split.test_records[:8]]


@pytest.fixture()
def updates(monkeypatch):
    """The sampler inputs of every frozen online update run while the
    fixture is active — on an overlay or by the legacy route — with whether
    it ran on an overlay; full fits run no frozen update and are not
    recorded."""
    built = []
    overlay_inputs = eline_module._frozen_inputs
    legacy_inputs = kernel_oracle.legacy_frozen_inputs

    def on_overlay(overlay):
        edges, negatives = overlay_inputs(overlay)
        built.append((True, sampler_inputs(overlay, edges, negatives)))
        return edges, negatives

    def on_graph(graph, embedding, new_record_ids):
        inputs = legacy_inputs(graph, embedding, new_record_ids)
        built.append((False, sampler_inputs(graph, *inputs[1:])))
        return inputs

    monkeypatch.setattr(eline_module, "_frozen_inputs", on_overlay)
    monkeypatch.setattr(kernel_oracle, "legacy_frozen_inputs", on_graph)
    return built


def sampler_inputs(graph, edges, negatives) -> tuple[bytes, ...]:
    """The exact inputs of a frozen update's draws, as bytes (read at build
    time: the legacy route's graph grows retired indices afterwards).

    The positive edge arrays with their normalised weights (the sampling
    probabilities), and the negative-sampling probabilities expanded to the
    graph's index space (a legacy ``NegativeSampler`` stores them compacted
    to live indices).
    """
    sources, targets, weights = edges
    if hasattr(negatives, "_live"):
        probabilities = np.zeros(graph.index_capacity)
        probabilities[negatives._live] = negatives._table.probabilities
    else:
        probabilities = negatives.probabilities
    return (sources.tobytes(), targets.tobytes(),
            (weights / weights.sum()).tobytes(), probabilities.tobytes())


def assert_same_sampler_inputs(overlay_updates, legacy_updates):
    assert len(overlay_updates) == len(legacy_updates)
    for (on_overlay, overlay_inputs), (on_legacy_overlay, legacy_inputs) in zip(
            overlay_updates, legacy_updates):
        assert on_overlay and not on_legacy_overlay
        assert overlay_inputs == legacy_inputs


class TestByteIdentityToLegacyPath:
    """Acceptance: the overlay path trains on the legacy path's exact
    sampler inputs, and its own predict modes agree byte for byte."""

    def test_single_predicts(self, campus_split, probes, updates):
        model = fit_campus(campus_split)
        pristine = pickle.dumps(model)
        for probe in probes:
            model.predict(probe)
        overlay_updates = updates[:]
        # Each legacy predict runs on a fresh twin: the mutate-and-restore
        # route retires the probe's node index, so a second probe on the
        # same graph would land on a different index than the overlay's.
        for probe in probes:
            legacy_predict_group(pickle.loads(pristine), [probe])
        assert_same_sampler_inputs(overlay_updates,
                                   updates[len(overlay_updates):])

    def test_independent_batch(self, campus_split, probes):
        model_batch, model_single = (fit_campus(campus_split),
                                     fit_campus(campus_split))
        assert_identical(model_batch.predict_batch(probes, independent=True),
                         [model_single.predict(p) for p in probes])

    def test_joint_batch(self, campus_split, probes, updates):
        model_new, model_old = fit_campus(campus_split), fit_campus(campus_split)
        model_new.predict_batch(probes)
        legacy_predict_batch(model_old, probes)
        assert len(updates) == 2
        assert_same_sampler_inputs(updates[:1], updates[1:])

    def test_persist_single_then_follow_ups(self, campus_split, probes,
                                            updates):
        # Both twins grow by the same legacy persisting singles, so their
        # graphs are equal; follow-ups then train on the same sampler
        # inputs on the overlay and on the mutated twin.
        model_new, model_old = fit_campus(campus_split), fit_campus(campus_split)
        for model in (model_new, model_old):
            legacy_predict_batch(model, probes[:3], persist=True,
                                 independent=True)
        del updates[:]
        model_new.predict_batch(probes[3:], independent=True)
        overlay_updates = updates[:]
        grown_old = pickle.dumps(model_old)
        for probe in probes[3:]:
            legacy_predict_group(pickle.loads(grown_old), [probe])
        assert_same_sampler_inputs(overlay_updates,
                                   updates[len(overlay_updates):])

    def test_persist_joint_batch(self, campus_split, probes, updates):
        model_new, model_old = fit_campus(campus_split), fit_campus(campus_split)
        for model in (model_new, model_old):
            legacy_predict_batch(model, probes[:4], persist=True)
        del updates[:]
        model_new.predict(probes[5])
        legacy_predict_group(model_old, [probes[5]])
        assert_same_sampler_inputs(updates[:1], updates[1:])

    def test_repeated_predicts_stay_identical(self, campus_split, probes):
        """Repeat predictions of one record never drift (no hidden state)."""
        model = fit_campus(campus_split)
        first = model.predict(probes[0])
        for _ in range(3):
            again = model.predict(probes[0])
            assert again.floor == first.floor
            assert again.distance == first.distance
            assert again.embedding.tobytes() == first.embedding.tobytes()


def test_floor_accuracy_parity_with_legacy_path():
    """Same objective, same noise distribution → same floor accuracy.

    Scored over the whole campus test split on three data seeds, because
    one split swings by several points on the seed alone.  The draw
    sequences differ, so individual borderline records may flip either
    way; summed over the seeds the overlay path may trail the legacy route
    by at most three records (measured: legacy 233/270, overlay 234/270).
    """
    legacy_hits = overlay_hits = 0
    for seed in (7, 11, 13):
        dataset = three_story_campus_building(records_per_floor=100, seed=seed)
        split = make_experiment_split(dataset, labels_per_floor=4, seed=0)
        model = fit_campus(split)
        probes = [(r.without_floor(), r.floor) for r in split.test_records]
        # Overlay first: each legacy predict retires its probe's indices,
        # growing the graph past the embedding the overlay route freezes.
        overlay_hits += sum(model.predict(probe).floor == floor
                            for probe, floor in probes)
        legacy_hits += sum(legacy_predict_group(model, [probe])[0].floor == floor
                           for probe, floor in probes)
    assert overlay_hits >= legacy_hits - 3


class TestMutationFreeRegression:
    """Satellite: no version bumps, sampler-cache entries survive predicts."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_sampler_cache()
        yield
        clear_sampler_cache()

    def test_cold_predicts_do_not_bump_version(self, campus_split, probes):
        model = fit_campus(campus_split)
        version = model.graph.version
        for probe in probes:
            model.predict(probe)
        model.predict_batch(probes, independent=True)
        model.predict_batch(probes)
        assert model.graph.version == version

    def test_sampler_cache_survives_cold_predicts(self, campus_split, probes):
        model = fit_campus(campus_split)
        terms = ObjectiveTerms(second_order=True, symmetric=True)
        config = CONFIG.resolved_embedding_config()
        # Populate the cache for the model's graph at its current version.
        EdgeSamplingTrainer(model.graph, config, terms)
        edge_sampler = _SAMPLER_CACHE.edge_sampler(model.graph)
        misses_before = _SAMPLER_CACHE.misses
        evictions_before = _SAMPLER_CACHE.evictions
        version = model.graph.version

        for probe in probes[:4]:
            model.predict(probe)
        model.predict_batch(probes, independent=True)
        model.predict_batch(probes)

        # Cold predicts read the entry (the composed negative sampler reuses
        # the cached base sampler) but never miss, evict or rebuild it: the
        # version is unchanged and the edge sampler is the same object.
        assert _SAMPLER_CACHE.evictions == evictions_before
        assert model.graph.version == version
        assert _SAMPLER_CACHE.misses == misses_before
        trainer = EdgeSamplingTrainer(model.graph, config, terms)
        assert trainer._edge_sampler is edge_sampler

    def test_predicts_do_not_grow_index_capacity(self, campus_split, probes):
        """The legacy path retired one index per transient record; the
        overlay path allocates past the base capacity without consuming it."""
        model = fit_campus(campus_split)
        capacity = model.graph.index_capacity
        for probe in probes:
            model.predict(probe)
        assert model.graph.index_capacity == capacity


class TestServedModelImmutable:
    """A prediction never writes the served model: its pickle (what the
    compute pool ships) is unchanged, and a twin pickled after predicts
    serves the next probes byte-identically."""

    @staticmethod
    def predict_every_mode(model, probes):
        model.predict(probes[1])
        model.predict_batch(probes[2:5])
        model.predict_batch(probes[2:5], independent=True)

    def test_predicts_leave_the_pickle_unchanged(self, campus_split, probes):
        model = fit_campus(campus_split)
        # Taken before the first predict: the read caches a cold predict
        # fills (the graph's index maps and MAC vocabulary, the embedding's
        # MAC key set) are derived and stay out of the pickle.
        before = pickle.dumps(model)
        arrays_before = (model.graph.degree_array().tobytes(),
                         model.embedding.ego.tobytes(),
                         model.embedding.context.tobytes())
        model.predict(probes[0])
        self.predict_every_mode(model, probes)
        assert pickle.dumps(model) == before
        assert (model.graph.degree_array().tobytes(),
                model.embedding.ego.tobytes(),
                model.embedding.context.tobytes()) == arrays_before

    def test_twin_pickled_after_predicts_serves_same_bytes(self, campus_split,
                                                           probes):
        model = fit_campus(campus_split)
        self.predict_every_mode(model, probes)
        twin = pickle.loads(pickle.dumps(model))
        assert_identical(twin.predict_batch(probes[5:], independent=True),
                         model.predict_batch(probes[5:], independent=True))
        assert_identical(twin.predict_batch(probes[5:]),
                         model.predict_batch(probes[5:]))

    def test_no_predict_method_takes_a_persist_flag(self):
        # No **kwargs either, so passing the retired flag is a TypeError.
        for method in (GRAFICS.predict, GRAFICS.predict_batch,
                       OnlineInferenceEngine.predict,
                       OnlineInferenceEngine.predict_batch,
                       OnlineInferenceEngine._predict_group):
            parameters = inspect.signature(method).parameters
            assert "persist" not in parameters
            assert all(p.kind is not p.VAR_KEYWORD
                       for p in parameters.values())


def test_one_online_route_keeps_no_legacy_knob():
    """The frozen update runs on overlays only: the mutated-graph route's
    per-call edge budget, the kernel's trainable-row mask and the graph's
    restricted edge view are gone."""
    for method in (ELINEEmbedder.embed_new_nodes,
                   ELINEEmbedder.embed_new_nodes_arrays):
        parameters = inspect.signature(method).parameters
        assert "samples_per_new_edge" not in parameters
        assert all(p.kind is not p.VAR_KEYWORD for p in parameters.values())
    assert list(inspect.signature(ReferenceKernel.__init__).parameters) == [
        "self", "frozen_ego", "frozen_context"]
    assert not hasattr(BipartiteGraph, "incident_edge_arrays")


def _warm_started(split):
    previous = fit_campus(split)
    records = list(split.train_records)
    kept = records[len(records) // 4:]
    labels = {rid: floor for rid, floor in split.labels.items()
              if rid in {r.record_id for r in kept}}
    return GRAFICS(CONFIG).fit(kept, labels, warm_start=previous.embedding)


def _loaded(split, tmp_path):
    path = tmp_path / "model.npz"
    save_model(fit_campus(split), path)
    return load_model(path)


@pytest.mark.parametrize("flavour", ["fitted", "pickled", "loaded",
                                     "warm-started", "line"])
def test_cold_path_restriction_is_delta_only(flavour, campus_split, probes,
                                             monkeypatch, tmp_path):
    """Guard for the frozen update training only staged overlay rows.

    A served model's embedding covers every MAC of its graph, however the
    model was made: it has one row per base index, the boundary past which
    the frozen-row step trains, so a cold predict trains exactly the staged
    overlay nodes (every index past the base capacity), and its positive
    edges, the overlay's delta-only ``incident_edge_arrays``, join a staged
    record each and touch every staged node.
    """
    if flavour == "fitted":
        model = fit_campus(campus_split)
    elif flavour == "pickled":
        model = pickle.loads(pickle.dumps(fit_campus(campus_split)))
    elif flavour == "loaded":
        model = _loaded(campus_split, tmp_path)
    elif flavour == "warm-started":
        model = _warm_started(campus_split)
    else:
        model = GRAFICS(GraficsConfig(
            embedding=CONFIG.embedding, embedder="line",
            allow_unreachable_clusters=True)).fit(
                list(campus_split.train_records), campus_split.labels)
    assert model.graph.unknown_mac_indices(model.embedding.mac_key_set()) == []

    trained = []
    original = eline_module._frozen_update

    def recording(overlay, embedding, config):
        ego, context, losses = original(overlay, embedding, config)
        sources, targets, _ = overlay.incident_edge_arrays()
        trained.append((overlay.base_capacity, overlay.index_capacity,
                        embedding.ego.shape[0], ego.shape[0],
                        sources, targets))
        return ego, context, losses

    monkeypatch.setattr(eline_module, "_frozen_update", recording)
    model.predict(SignalRecord(record_id="with-fresh-mac",
                               rss={**probes[0].rss, "never-seen-mac": -70.0}))
    model.predict_batch(probes[1:4])
    model.predict_batch(probes[1:4], independent=True)
    assert len(trained) == 5
    for base_capacity, capacity, frozen, rows, sources, targets in trained:
        assert frozen == base_capacity
        assert rows == capacity - base_capacity > 0
        assert targets.min() >= base_capacity
        touched = np.union1d(sources, targets)
        np.testing.assert_array_equal(touched[touched >= base_capacity],
                                      np.arange(base_capacity, capacity))


def test_uncovered_base_mac_rejected_once_per_engine(campus_split, probes,
                                                    monkeypatch):
    """The premise above is checked when an engine first predicts: a model
    whose embedding lacks a base MAC raises instead of training only the
    staged rows, and a covered engine does not check again."""
    model = fit_campus(campus_split)
    model.graph.add_mac("grown-after-fit")
    with pytest.raises(ValueError, match="base index"):
        model.predict(probes[0])

    checks = []
    original = BipartiteGraph.unknown_mac_indices

    def counted(self, known):
        checks.append(self)
        return original(self, known)

    monkeypatch.setattr(BipartiteGraph, "unknown_mac_indices", counted)
    covered = fit_campus(campus_split)
    covered.predict(probes[0])
    covered.predict_batch(probes[1:4])
    covered.predict_batch(probes[1:4], independent=True)
    assert checks == [covered.graph]
