"""Tests for the graph version counter and the array views.

``BipartiteGraph.version`` is the key the fit's sampler cache builds on;
these tests pin the two invariants everything relies on:

* any mutation bumps the version (and versions are never reused), and
* the array views always equal a from-scratch rebuild, bit for bit,
  through arbitrary churn.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import BipartiteGraph
from repro.core.types import SignalRecord


def record(rid, rss):
    return SignalRecord(record_id=rid, rss=rss)


def naive_degree_array(graph: BipartiteGraph) -> np.ndarray:
    """The historical from-scratch implementation."""
    degrees = np.zeros(graph.index_capacity, dtype=np.float64)
    for node in graph.nodes():
        degrees[node.index] = graph.weighted_degree(node.index)
    return degrees


class TestVersionCounter:
    def test_every_mutation_bumps(self):
        graph = BipartiteGraph()
        seen = {graph.version}

        def check():
            assert graph.version not in seen
            seen.add(graph.version)

        graph.add_record(record("r0", {"m0": -50.0, "m1": -60.0}))
        check()
        graph.add_mac("m2")
        check()
        graph.add_record(record("r1", {"m0": -55.0}))
        check()
        graph.remove_record("r1")
        check()
        graph.remove_mac("m2")
        check()

    def test_fetching_existing_node_does_not_bump(self):
        graph = BipartiteGraph()
        graph.add_record(record("r0", {"m0": -50.0}))
        version = graph.version
        graph.add_mac("m0")            # already present
        assert graph.version == version

    def test_reads_do_not_bump(self):
        graph = BipartiteGraph()
        graph.add_record(record("r0", {"m0": -50.0, "m1": -60.0}))
        version = graph.version
        graph.edge_arrays()
        graph.degree_array()
        graph.nodes()
        assert graph.version == version


class TestEdgeArraysOwnership:
    def test_returned_arrays_are_safe_to_mutate(self):
        graph = BipartiteGraph()
        graph.add_record(record("r0", {"m0": -50.0, "m1": -60.0}))
        sources, targets, weights = graph.edge_arrays()
        weights[:] = -1.0
        sources2, targets2, weights2 = graph.edge_arrays()
        assert (weights2 > 0).all()
        np.testing.assert_array_equal(sources, sources2)


@st.composite
def churn_script(draw):
    """A sequence of add/remove operations over a small key space."""
    steps = draw(st.lists(st.tuples(st.sampled_from(["add", "remove"]),
                                    st.integers(0, 14)),
                          min_size=1, max_size=40))
    return steps


class TestIncrementalViewsUnderChurn:
    @given(churn_script())
    @settings(max_examples=60, deadline=None)
    def test_views_match_fresh_rebuild(self, steps):
        graph = BipartiteGraph()
        live = {}
        counter = 0
        rng = np.random.default_rng(0)
        for action, slot in steps:
            if action == "add" and slot not in live:
                rid = f"r{counter}"
                counter += 1
                macs = {f"m{(slot + j) % 6}": -40.0 - float(rng.integers(0, 50))
                        for j in range(1 + slot % 3)}
                graph.add_record(record(rid, macs))
                live[slot] = rid
            elif action == "remove" and slot in live:
                graph.remove_record(live.pop(slot),
                                    prune_orphaned_macs=bool(slot % 2))
        if not live:
            return

        # Degree array == per-node recompute, bit for bit.
        np.testing.assert_array_equal(graph.degree_array(),
                                      naive_degree_array(graph))
        # Memoised edge arrays == a mirror built by iterating edges().
        sources, targets, weights = graph.edge_arrays()
        mirror = [(e.mac_index, e.record_index, e.weight)
                  for e in graph.edges()]
        np.testing.assert_array_equal(sources, [m for m, _, _ in mirror])
        np.testing.assert_array_equal(targets, [r for _, r, _ in mirror])
        np.testing.assert_array_equal(weights, [w for _, _, w in mirror])
