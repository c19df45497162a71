"""Read-only delta views over a served graph.

The paper's online phase (Section V-A) embeds every new RF sample against
the *frozen* trained model: the sample is conceptually appended to the
bipartite graph, embedded, classified — and forgotten again.

:class:`GraphOverlay` gives the online path that enlarged-graph view over
the model's immutable :class:`~repro.core.graph.ServedGraph`.  Staged
records (and the MAC nodes they introduce) are allocated dense indices
*past* the served graph's ``index_capacity``, and every composed view — the
staged edges, the weighted degree array, node lookups — is built from base
+ delta exactly as the training graph with the records added would have
built it, bit for bit (test-enforced).  The frozen online update, which
runs on overlays only, therefore optimises the objective of that enlarged
graph: its positive edges are the staged edges, and its negative sampler
is composed from the served graph's base sampler with per-index
probabilities equal to a full rebuild's.

Nothing staged on an overlay is ever written back, and the served graph
cannot change underneath it.  An overlay is a short-lived, single-threaded
view; concurrent readers each build their own over the shared base.
"""

from __future__ import annotations

import numpy as np

from .graph import Node, NodeKind, ServedGraph
from .types import SignalRecord

__all__ = ["GraphOverlay"]


class GraphOverlay:
    """A bipartite-graph delta view: served graph + staged records.

    Reads like the training graph with the records added
    (``index_capacity``, ``num_edges``, node lookups, ``degree_array``)
    and adds the staged views the frozen update trains on
    (``incident_edge_arrays``, ``delta_degree_patch``), with every view
    composed from the immutable base and the overlay's private delta.
    """

    def __init__(self, base: ServedGraph) -> None:
        if not isinstance(base, ServedGraph):
            raise TypeError("an overlay stages records over a ServedGraph "
                            f"(BipartiteGraph.freeze()), not a "
                            f"{type(base).__name__}")
        self.base = base
        self._base_capacity = base.index_capacity
        self._next_index = base.index_capacity
        self._delta_nodes: dict[tuple[NodeKind, str], Node] = {}
        self._delta_by_index: dict[int, Node] = {}
        #: Delta adjacency, keyed by node index.  Keys are delta node
        #: indices *and* base MAC indices that gained delta edges; for the
        #: latter the mapping holds only the delta part.
        self._delta_adjacency: dict[int, dict[int, float]] = {}
        self._delta_edges = 0

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
        """The served graph's index capacity; delta indices start here."""
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
        same weight validation — without touching the served graph.
        """
        key = record.record_id
        if self.has_node(NodeKind.RECORD, key):
            raise ValueError(f"record {key!r} is already in the graph")
        record_node = self._add_delta_node(NodeKind.RECORD, key)
        base_macs = self.base.mac_index_map()
        for mac, rss in record.rss.items():
            mac_index = base_macs.get(mac)
            if mac_index is None:
                mac_node = self._delta_nodes.get((NodeKind.MAC, mac))
                if mac_node is None:
                    mac_node = self._add_delta_node(NodeKind.MAC, mac)
                mac_index = mac_node.index
            weight = self.weight_function.validate(rss)
            self._delta_adjacency.setdefault(mac_index, {})[
                record_node.index] = weight
            self._delta_adjacency[record_node.index][mac_index] = weight
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
        """Weighted degrees over base + delta, bit-identical to a mutated graph.

        A graph computes a node's degree as a left fold of
        ``sum(neighbors.values())``; the composed value here continues the
        same fold from the served degree (the fold's prefix), so every entry
        matches the mutated graph's bit for bit.
        """
        degrees = np.empty(self._next_index, dtype=np.float64)
        degrees[:self._base_capacity] = self.base.degrees
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
        patches the served graph's base noise distribution with.
        """
        touched = sorted(index for index, neighbors
                         in self._delta_adjacency.items() if neighbors)
        indices = np.asarray(touched, dtype=np.int64)
        degrees = np.zeros(len(touched), dtype=np.float64)
        boundary = indices < self._base_capacity
        if boundary.any():
            degrees[boundary] = self.base.degrees[indices[boundary]]
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
