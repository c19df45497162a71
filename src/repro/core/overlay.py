"""Read-only delta views over a frozen bipartite graph.

The paper's online phase (Section V-A) embeds every new RF sample against
the *frozen* trained model: the sample is conceptually appended to the
bipartite graph, embedded, classified — and forgotten again.  Implementing
that literally (mutate the shared graph, predict, undo the mutation) makes
read-mostly serving traffic pay for graph churn it immediately reverts:
every prediction bumps :attr:`BipartiteGraph.version` (evicting the sampler
cache), dirties the degree array and must hold the serving write lock.

:class:`GraphOverlay` gives the online path the same enlarged-graph view
without touching the base graph.  Staged records (and the MAC nodes they
introduce) are allocated dense indices *past* the base graph's
``index_capacity``, and every composed view — the staged edges, the
weighted degree array, node lookups — is built from base + delta exactly as
a graph with the records added would have built it, bit for bit
(test-enforced).  The frozen online update, which runs on overlays only,
therefore optimises the objective of that enlarged graph: its positive
edges are the staged edges, and its negative sampler is composed from the
base graph's cached table with per-index probabilities equal to a full
rebuild's.

Nothing staged on an overlay is ever written back to the base.  An
overlay is a short-lived, single-threaded view.  It pins the base graph's
version at construction and refuses to operate once the base has been
mutated underneath it (:class:`StaleOverlayError`); concurrent readers each
build their own overlay over the shared immutable base.
"""

from __future__ import annotations

import numpy as np

from .graph import BipartiteGraph, Node, NodeKind
from .types import SignalRecord

__all__ = ["StaleOverlayError", "GraphOverlay"]


class StaleOverlayError(RuntimeError):
    """Raised when an overlay is used after its base graph was mutated."""


class GraphOverlay:
    """A bipartite-graph delta view: base graph + staged records, no mutation.

    Duck-types the subset of :class:`BipartiteGraph` the cold online path
    reads (``index_capacity``, ``num_edges``, node lookups,
    ``degree_array``) and adds the staged views the frozen update trains
    on (``incident_edge_arrays``, ``delta_degree_patch``), with every view
    composed from the immutable base and the overlay's private delta.
    """

    def __init__(self, base: BipartiteGraph) -> None:
        self.base = base
        self._base_version = base.version
        self._base_capacity = base.index_capacity
        self._next_index = base.index_capacity
        self._delta_nodes: dict[tuple[NodeKind, str], Node] = {}
        self._delta_by_index: dict[int, Node] = {}
        #: Delta adjacency, keyed by node index.  Keys are delta node
        #: indices *and* base MAC indices that gained delta edges; for the
        #: latter the mapping holds only the delta part.
        self._delta_adjacency: dict[int, dict[int, float]] = {}
        self._delta_edges = 0

    # ------------------------------------------------------------ guard rails
    def _check_live(self) -> None:
        if self.base.version != self._base_version:
            raise StaleOverlayError(
                "base graph was mutated since this overlay was created; the "
                "composed views are no longer valid")

    # ---------------------------------------------------------------- lookups
    @property
    def weight_function(self):
        return self.base.weight_function

    @property
    def index_capacity(self) -> int:
        """One past the largest index (base capacity + staged delta nodes)."""
        return self._next_index

    @property
    def base_capacity(self) -> int:
        """The base graph's index capacity; delta indices start here."""
        return self._base_capacity

    @property
    def num_edges(self) -> int:
        return self.base.num_edges + self._delta_edges

    @property
    def num_nodes(self) -> int:
        return self.base.num_nodes + len(self._delta_nodes)

    def has_node(self, kind: NodeKind, key: str) -> bool:
        return ((kind, key) in self._delta_nodes
                or self.base.has_node(kind, key))

    def get_node(self, kind: NodeKind, key: str) -> Node:
        node = self._delta_nodes.get((kind, key))
        if node is not None:
            return node
        return self.base.get_node(kind, key)

    def delta_nodes(self) -> list[Node]:
        """Staged nodes (records and MACs unseen by the base graph), by index."""
        return list(self._delta_by_index.values())

    # ---------------------------------------------------------------- staging
    def add_record(self, record: SignalRecord) -> Node:
        """Stage a signal record (and any new MAC nodes) in the delta.

        Mirrors :meth:`BipartiteGraph.add_record` exactly — same index
        allocation order (record node first, then unseen MACs in RSS order),
        same weight validation — without touching the base graph.
        """
        self._check_live()
        key = record.record_id
        if self.has_node(NodeKind.RECORD, key):
            raise ValueError(f"record {key!r} is already in the graph")
        record_node = self._add_delta_node(NodeKind.RECORD, key)
        for mac, rss in record.rss.items():
            mac_node = self._delta_nodes.get((NodeKind.MAC, mac))
            if mac_node is None:
                if self.base.has_node(NodeKind.MAC, mac):
                    mac_node = self.base.get_node(NodeKind.MAC, mac)
                else:
                    mac_node = self._add_delta_node(NodeKind.MAC, mac)
            weight = self.weight_function.validate(rss)
            self._delta_adjacency.setdefault(mac_node.index, {})[
                record_node.index] = weight
            self._delta_adjacency[record_node.index][mac_node.index] = weight
            self._delta_edges += 1
        return record_node

    def _add_delta_node(self, kind: NodeKind, key: str) -> Node:
        node = Node(kind=kind, key=key, index=self._next_index)
        self._next_index += 1
        self._delta_nodes[(kind, key)] = node
        self._delta_by_index[node.index] = node
        self._delta_adjacency[node.index] = {}
        return node

    # ------------------------------------------------------------ array views
    def degree_array(self) -> np.ndarray:
        """Weighted degrees over base + delta, bit-identical to a mutated base.

        The base graph recomputes a touched node's degree as a left fold of
        ``sum(neighbors.values())``; the composed value here continues the
        same fold from the base degree (the fold's prefix), so every entry
        matches the mutated graph's recompute bit for bit.
        """
        self._check_live()
        degrees = np.empty(self._next_index, dtype=np.float64)
        degrees[:self._base_capacity] = self.base.degree_array()
        degrees[self._base_capacity:] = 0.0
        for index, neighbors in self._delta_adjacency.items():
            if not neighbors:
                continue
            value = degrees[index]
            for weight in neighbors.values():
                value += weight
            degrees[index] = value
        return degrees

    def delta_degree_patch(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indices, degrees)`` for the nodes whose degree the delta moved.

        The indices are every node holding delta edges — staged nodes plus
        boundary base MACs that gained edges — in ascending order; the
        degrees are the composed (base + delta) values, computed with the
        same left fold :meth:`degree_array` uses so each entry matches the
        full composed array bit for bit.  O(delta), never materialises the
        base degree array; this is what :class:`DeltaNegativeSampler`
        patches the cached base noise distribution with.
        """
        self._check_live()
        touched = sorted(index for index, neighbors
                         in self._delta_adjacency.items() if neighbors)
        indices = np.asarray(touched, dtype=np.int64)
        degrees = np.zeros(len(touched), dtype=np.float64)
        boundary = indices < self._base_capacity
        if boundary.any():
            degrees[boundary] = self.base.degrees_at(indices[boundary])
        for position, index in enumerate(touched):
            value = degrees[position]
            for weight in self._delta_adjacency[index].values():
                value += weight
            degrees[position] = value
        return indices, degrees

    def incident_edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(sources, targets, weights)`` over the staged edges.

        Exactly the edges a mask filter over the mutated graph's
        :meth:`~BipartiteGraph.edge_arrays` keeps for the staged nodes, in
        the same order (MAC nodes by index, per-MAC adjacency in insertion
        order).  These are the positive edges of the frozen online update.
        Every edge incident to a staged node is a staged edge, so only the
        delta is walked: O(staged edges), independent of both |E| and the
        degree of the touched MACs.
        """
        self._check_live()
        source_chunks: list[int] = []
        target_chunks: list[int] = []
        weight_chunks: list[float] = []
        for mac_index in sorted(self._delta_adjacency):
            node = self._delta_by_index.get(mac_index)
            if node is not None and node.kind is NodeKind.RECORD:
                continue
            for record_index, weight in self._delta_adjacency[
                    mac_index].items():
                source_chunks.append(mac_index)
                target_chunks.append(record_index)
                weight_chunks.append(weight)
        return (np.asarray(source_chunks, dtype=np.int64),
                np.asarray(target_chunks, dtype=np.int64),
                np.asarray(weight_chunks, dtype=np.float64))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"GraphOverlay(base={self.base!r}, "
                f"delta_nodes={len(self._delta_nodes)}, "
                f"delta_edges={self._delta_edges})")
