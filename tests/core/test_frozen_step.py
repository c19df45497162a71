"""The frozen-row online step against the masked full-table step it replaced.

``ReferenceKernel`` trains a cold predict's staged rows (the rows past the
frozen tables) as ``(T, D)`` slot tables and reads every other row in
place; it scores a frozen-head row's positive and only its trainable
negatives.  The masked step (the oracle in
``kernel_oracle``) scored everything over capacity-sized copies.  Both must
move the trainable rows alike, within float summation order, and consume
the generator identically.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.embedding import ELINEEmbedder, EmbeddingConfig
from repro.core.embedding import eline as eline_module
from repro.core.embedding.kernels import ReferenceKernel
from repro.core.embedding.trainer import ObjectiveTerms, batch_schedule
from repro.core.graph import build_graph
from repro.core.overlay import GraphOverlay
from repro.core.types import SignalRecord
from repro.data import small_test_building

sys.path.insert(0, str(Path(__file__).parent))

from kernel_oracle import MaskedOnlineOracle, oracle_online  # noqa: E402

CONFIG = EmbeddingConfig(samples_per_edge=40.0, seed=3)


def record(rid, rss):
    return SignalRecord(record_id=rid, rss=rss)


@pytest.fixture(scope="module")
def building():
    """A fitted small building and four held-out scans."""
    dataset = small_test_building(num_floors=3, records_per_floor=30,
                                  aps_per_floor=15, seed=5)
    train, probes = list(dataset.records[:-4]), list(dataset.records[-4:])
    graph = build_graph(train)
    return train, graph, _fitted(graph, CONFIG), probes


@pytest.fixture(scope="module")
def tiny():
    """Six records and six MACs: the staged record is a likely negative."""
    graph = build_graph([
        record("a0", {"m1": -50.0, "m2": -60.0}),
        record("a1", {"m2": -55.0, "m3": -65.0}),
        record("a2", {"m1": -52.0, "m3": -70.0}),
        record("b0", {"m4": -48.0, "m5": -58.0}),
        record("b1", {"m5": -62.0, "m6": -72.0}),
        record("b2", {"m4": -51.0, "m6": -66.0}),
    ])
    return graph, [record("p0", {"m1": -51.0, "m5": -57.0, "m6": -64.0})]


def _fitted(graph, config):
    return ELINEEmbedder(config).fit(graph)


def _run(kernel, graph, embedding, ids, config):
    """One frozen update on ``kernel``: its result, the generator state
    after each batch and each batch's heads, tails and negatives."""
    states, batches = [], []
    original = kernel.train_batch

    def recording(self, ego, context, heads, tails, negatives, *, rng,
                  **kwargs):
        loss = original(self, ego, context, heads, tails, negatives,
                        rng=rng, **kwargs)
        states.append(rng.bit_generator.state)
        batches.append((heads, tails, negatives))
        return loss

    kernel.train_batch = recording
    try:
        with (oracle_online() if kernel is MaskedOnlineOracle
              else nullcontext()):
            result = ELINEEmbedder(config).embed_new_nodes_arrays(
                graph, embedding, ids)
    finally:
        kernel.train_batch = original
    return result, states, batches


def _assert_parity(overlay, embedding, ids, config):
    frozen = embedding.ego.tobytes(), embedding.context.tobytes()
    (ego, context, losses), states, batches = _run(
        ReferenceKernel, overlay, embedding, ids, config)
    (ego_o, context_o, losses_o), states_o, _ = _run(
        MaskedOnlineOracle, overlay, embedding, ids, config)
    staged = overlay.index_capacity - overlay.base_capacity
    assert ego.shape == ego_o.shape == (staged, config.dimension)
    assert np.abs(ego - ego_o).max() <= 1e-10
    assert np.abs(context - context_o).max() <= 1e-10
    assert states == states_o
    assert len(losses) == len(losses_o) == len(states)
    # The frozen rows keep the embedding's bytes.
    assert (embedding.ego.tobytes(), embedding.context.tobytes()) == frozen
    return batches


def _trainable(overlay):
    """A flag per index of the enlarged space: is the row trained?"""
    flags = np.zeros(overlay.index_capacity, dtype=bool)
    flags[overlay.base_capacity:] = True
    return flags


class TestParityWithMaskedStep:
    def test_single_record_overlay(self, building):
        _, graph, embedding, probes = building
        overlay = GraphOverlay(graph)
        overlay.add_record(probes[0])
        _assert_parity(overlay, embedding, [probes[0].record_id], CONFIG)

    def test_joint_batch_overlay(self, building):
        _, graph, embedding, probes = building
        overlay = GraphOverlay(graph)
        for probe in probes:
            overlay.add_record(probe)
        ids = [probe.record_id for probe in probes]
        assert overlay.index_capacity - overlay.base_capacity == len(probes)
        _assert_parity(overlay, embedding, ids, CONFIG)

    def test_unseen_mac(self, building):
        """Record-new-MAC edges: head and tail both trainable."""
        _, graph, embedding, probes = building
        overlay = GraphOverlay(graph)
        probe = record("fresh-scan", dict(probes[1].rss, unseen=-61.0,
                                          unseen2=-70.0))
        overlay.add_record(probe)
        assert overlay.index_capacity - overlay.base_capacity == 3
        batches = _assert_parity(overlay, embedding, ["fresh-scan"], CONFIG)
        trained = _trainable(overlay)
        assert any((trained[h] & trained[t]).any() for h, t, _ in batches)

    @pytest.mark.parametrize("config", [
        CONFIG, replace(CONFIG, dropout=0.0), replace(CONFIG,
                                                      negative_samples=1)],
        ids=["default", "dropout0", "k1"])
    def test_trainable_negative_of_frozen_head(self, tiny, config):
        graph, probes = tiny
        embedding = _fitted(graph, config)
        overlay = GraphOverlay(graph)
        overlay.add_record(probes[0])
        batches = _assert_parity(overlay, embedding, ["p0"], config)
        trained = _trainable(overlay)
        assert any((~trained[h][:, None] & trained[n]).any()
                   for h, _, n in batches)

    @pytest.mark.parametrize("config", [
        replace(CONFIG, dropout=0.0), replace(CONFIG, negative_samples=1)],
        ids=["dropout0", "k1"])
    def test_settings_on_building(self, building, config):
        train, graph, _, probes = building
        embedding = _fitted(graph, config)
        overlay = GraphOverlay(graph)
        overlay.add_record(probes[0])
        overlay.add_record(probes[1])
        _assert_parity(overlay, embedding,
                       [probes[0].record_id, probes[1].record_id], config)


class TestKernelParity:
    """``train_batch`` on arbitrary batches: every head/target kind (frozen
    rows, trainable rows past them) and every objective-term combination."""

    @pytest.mark.parametrize("terms", [
        ObjectiveTerms(second_order=True, symmetric=True),
        ObjectiveTerms(second_order=True),
        ObjectiveTerms(first_order=True, second_order=True),
        ObjectiveTerms(first_order=True, second_order=True, symmetric=True),
    ], ids=["eline", "second", "first+second", "all"])
    @pytest.mark.parametrize("trainable", [[16], [16, 17, 18]],
                             ids=["one-slot", "three-slots"])
    def test_matches_masked_step(self, terms, trainable):
        data = np.random.default_rng(1)
        frozen_ego = data.uniform(-0.5, 0.5, size=(16, 8))
        frozen_context = data.uniform(-0.5, 0.5, size=(16, 8))
        frozen_before = frozen_ego.copy(), frozen_context.copy()
        trainable = np.asarray(trainable)
        start = data.uniform(-0.1, 0.1, size=(2, trainable.size, 8))
        capacity = 16 + trainable.size     # the trainable rows trail the frozen ones
        tables = {}
        for name, kernel_class in (("step", ReferenceKernel),
                                   ("oracle", MaskedOnlineOracle)):
            kernel = kernel_class(frozen_ego, frozen_context)
            ego, context = start[0].copy(), start[1].copy()
            rng = np.random.default_rng(7)
            batches = np.random.default_rng(2)
            for lr in (0.025, 0.02, 0.01):
                heads = batches.integers(0, capacity, size=64)
                tails = batches.integers(0, capacity, size=64)
                negatives = batches.integers(0, capacity, size=(64, 5))
                kernel.train_batch(ego, context, heads, tails, negatives,
                                   learning_rate=lr, terms=terms,
                                   config=CONFIG, rng=rng)
            tables[name] = (ego, context, rng.bit_generator.state)
        ego, context, state = tables["step"]
        ego_o, context_o, state_o = tables["oracle"]
        np.testing.assert_allclose(ego, ego_o, rtol=0, atol=1e-10)
        np.testing.assert_allclose(context, context_o, rtol=0, atol=1e-10)
        assert state == state_o
        # The slot tables moved; the frozen tables were only read.
        assert not np.allclose(ego, start[0])
        assert not np.allclose(context, start[1])
        np.testing.assert_array_equal(frozen_ego, frozen_before[0])
        np.testing.assert_array_equal(frozen_context, frozen_before[1])


class TestOnlineLoss:
    def test_one_loss_per_batch(self, building):
        """``embed_new_nodes`` appends one averaged loss per batch of the
        frozen update to the fit's history."""
        train, _, _, probes = building
        graph = build_graph(train)
        config = replace(CONFIG, batch_size=64)
        embedder = ELINEEmbedder(config)
        embedding = embedder.fit(graph)
        overlay = GraphOverlay(graph)
        overlay.add_record(probes[0])
        (sources, _, _), _ = eline_module._frozen_inputs(overlay)
        total = int(config.samples_per_edge * sources.size)
        batches = len(list(batch_schedule(config, total)))
        assert batches > 1
        enlarged = embedder.embed_new_nodes(overlay, embedding,
                                            [probes[0].record_id])
        assert enlarged.training_loss[:len(embedding.training_loss)] == \
            embedding.training_loss
        added = enlarged.training_loss[len(embedding.training_loss):]
        assert len(added) == batches
        assert all(np.isfinite(added)) and all(loss > 0 for loss in added)
