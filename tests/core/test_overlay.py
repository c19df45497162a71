"""Tests for the GraphOverlay delta view (mutation-free online inference).

The overlay's contract is exact equivalence: every composed view must match
— bit for bit — what the same reads would return on a base graph that had
the staged records added directly, while the base graph itself stays
untouched.  These tests pin that equivalence (including a hypothesis sweep
over random staging patterns) and the guard rails.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import BipartiteGraph, NodeKind, build_graph
from repro.core.overlay import GraphOverlay, StaleOverlayError
from repro.core.types import SignalRecord


def record(rid, rss):
    return SignalRecord(record_id=rid, rss=rss)


def base_records(n=8):
    return [record(f"r{i}", {f"m{j}": -50.0 - j
                             for j in range(i % 3, i % 3 + 4)})
            for i in range(n)]


def probe_records():
    """Staged records mixing known MACs, new MACs and shared new MACs."""
    return [
        record("p0", {"m0": -55.0, "m2": -60.0}),
        record("p1", {"m1": -48.0, "fresh-a": -70.0}),
        record("p2", {"fresh-a": -66.0, "fresh-b": -72.0, "m4": -51.0}),
    ]


@pytest.fixture()
def graph():
    return build_graph(base_records())


def mutated_twin(probes):
    """A graph that had the probes added directly (the legacy behaviour)."""
    twin = build_graph(base_records())
    for probe in probes:
        twin.add_record(probe)
    return twin


def assert_staged_edges_match_twin(overlay, twin):
    """The staged edges are the twin's edges incident to a staged node,
    kept by a mask filter over its full edge arrays, in the same order."""
    sources, targets, weights = twin.edge_arrays()
    staged = np.zeros(twin.index_capacity, dtype=bool)
    staged[[node.index for node in overlay.delta_nodes()]] = True
    keep = staged[sources] | staged[targets]
    for arrays, twin_arrays in zip(
            overlay.incident_edge_arrays(),
            (sources[keep], targets[keep], weights[keep])):
        np.testing.assert_array_equal(arrays, twin_arrays)


def assert_same_node_indices(overlay, twin):
    """Every node of the mutated twin sits at the same index on the overlay."""
    for node in twin.nodes():
        assert overlay.get_node(node.kind, node.key).index == node.index
    assert overlay.num_nodes == twin.num_nodes


class TestStaging:
    def test_indices_allocated_past_base_capacity(self, graph):
        overlay = GraphOverlay(graph)
        base_capacity = graph.index_capacity
        node = overlay.add_record(record("p0", {"m0": -55.0, "nu": -60.0}))
        assert node.index == base_capacity
        assert overlay.get_node(NodeKind.MAC, "nu").index == base_capacity + 1
        assert overlay.index_capacity == base_capacity + 2
        assert overlay.base_capacity == base_capacity

    def test_same_indices_as_direct_mutation(self, graph):
        probes = probe_records()
        overlay = GraphOverlay(graph)
        for probe in probes:
            overlay.add_record(probe)
        twin = mutated_twin(probes)
        assert overlay.index_capacity == twin.index_capacity
        assert_same_node_indices(overlay, twin)

    def test_base_graph_untouched(self, graph):
        version = graph.version
        num_nodes, num_edges = graph.num_nodes, graph.num_edges
        overlay = GraphOverlay(graph)
        for probe in probe_records():
            overlay.add_record(probe)
        assert graph.version == version
        assert graph.num_nodes == num_nodes
        assert graph.num_edges == num_edges
        assert not graph.has_node(NodeKind.RECORD, "p0")
        assert not graph.has_node(NodeKind.MAC, "fresh-a")

    def test_lookups_resolve_base_and_delta(self, graph):
        overlay = GraphOverlay(graph)
        overlay.add_record(record("p0", {"m0": -55.0, "nu": -60.0}))
        assert overlay.has_node(NodeKind.RECORD, "r0")
        assert overlay.has_node(NodeKind.RECORD, "p0")
        assert overlay.has_node(NodeKind.MAC, "nu")
        assert not overlay.has_node(NodeKind.RECORD, "absent")
        assert (overlay.get_node(NodeKind.MAC, "m0").index
                == graph.get_node(NodeKind.MAC, "m0").index)
        assert overlay.num_edges == graph.num_edges + 2
        assert overlay.num_nodes == graph.num_nodes + 2
        assert [n.key for n in overlay.delta_nodes()] == ["p0", "nu"]

    def test_duplicate_record_rejected(self, graph):
        overlay = GraphOverlay(graph)
        with pytest.raises(ValueError, match="already in the graph"):
            overlay.add_record(record("r0", {"m0": -50.0}))
        overlay.add_record(record("p0", {"m0": -55.0}))
        with pytest.raises(ValueError, match="already in the graph"):
            overlay.add_record(record("p0", {"m1": -55.0}))


class TestComposedViews:
    def test_degree_array_matches_mutated_twin(self, graph):
        probes = probe_records()
        overlay = GraphOverlay(graph)
        for probe in probes:
            overlay.add_record(probe)
        np.testing.assert_array_equal(overlay.degree_array(),
                                      mutated_twin(probes).degree_array())

    def test_incident_edges_delta_restriction_matches_twin(self, graph):
        probes = probe_records()
        overlay = GraphOverlay(graph)
        for probe in probes:
            overlay.add_record(probe)
        twin = mutated_twin(probes)
        assert_staged_edges_match_twin(overlay, twin)


class TestGuardRails:
    def test_stale_after_base_mutation(self, graph):
        overlay = GraphOverlay(graph)
        overlay.add_record(record("p0", {"m0": -55.0}))
        graph.add_record(record("interloper", {"m0": -45.0}))
        with pytest.raises(StaleOverlayError):
            overlay.degree_array()
        with pytest.raises(StaleOverlayError):
            overlay.add_record(record("p1", {"m1": -52.0}))
        with pytest.raises(StaleOverlayError):
            overlay.incident_edge_arrays()


@st.composite
def staged_probes(draw):
    """Random staged records over a key space straddling base and new MACs."""
    count = draw(st.integers(1, 5))
    probes = []
    for i in range(count):
        macs = draw(st.lists(
            st.sampled_from([f"m{j}" for j in range(6)]
                            + [f"x{j}" for j in range(4)]),
            min_size=1, max_size=5, unique=True))
        probes.append(record(
            f"p{i}", {mac: -40.0 - draw(st.integers(0, 50)) for mac in macs}))
    return probes


class TestOverlayEquivalenceProperty:
    @given(staged_probes())
    @settings(max_examples=40, deadline=None)
    def test_views_match_mutated_twin(self, probes):
        graph = build_graph(base_records())
        overlay = GraphOverlay(graph)
        for probe in probes:
            overlay.add_record(probe)
        twin = mutated_twin(probes)

        np.testing.assert_array_equal(overlay.degree_array(),
                                      twin.degree_array())
        assert_same_node_indices(overlay, twin)
        assert overlay.num_edges == twin.num_edges
        assert_staged_edges_match_twin(overlay, twin)


class TestGraphFastViews:
    """The satellite graph caches the overlay fast path rides on."""

    def test_num_edges_counter_matches_recount(self, graph):
        assert graph.num_edges == sum(
            1 for _ in graph.edges())
        graph.add_record(record("extra", {"m0": -50.0, "zz": -60.0}))
        assert graph.num_edges == sum(1 for _ in graph.edges())
        graph.remove_record("extra", prune_orphaned_macs=True)
        assert graph.num_edges == sum(1 for _ in graph.edges())

    def test_mac_vocabulary_cached_per_version(self, graph):
        first = graph.mac_vocabulary()
        assert first is graph.mac_vocabulary()      # cached object
        assert first == frozenset(graph.mac_index_map())
        graph.add_record(record("extra", {"brand-new": -60.0}))
        second = graph.mac_vocabulary()
        assert second is not first
        assert "brand-new" in second

    def test_index_maps_cached_per_version(self, graph):
        first = graph.mac_index_map()
        assert first is graph.mac_index_map()
        records_first = graph.record_index_map()
        assert records_first is graph.record_index_map()
        graph.add_record(record("extra", {"m0": -60.0}))
        assert graph.mac_index_map() is not first
        assert graph.record_index_map() is not records_first
        assert "extra" in graph.record_index_map()

    def test_unknown_mac_indices(self, graph):
        assert graph.unknown_mac_indices(graph.mac_vocabulary()) == []
        known = graph.mac_vocabulary() - {"m1", "m3"}
        expected = {graph.get_node(NodeKind.MAC, "m1").index,
                    graph.get_node(NodeKind.MAC, "m3").index}
        assert set(graph.unknown_mac_indices(known)) == expected


def test_empty_base_graph_overlay():
    graph = BipartiteGraph()
    overlay = GraphOverlay(graph)
    node = overlay.add_record(record("p0", {"a": -50.0, "b": -60.0}))
    assert node.index == 0
    assert overlay.num_edges == 2
    degrees = overlay.degree_array()
    assert degrees.shape == (3,)
    assert graph.num_nodes == 0 and graph.num_edges == 0
