"""Read-only delta views over a frozen bipartite graph.

The paper's online phase (Section V-A) embeds every new RF sample against
the *frozen* trained model: the sample is conceptually appended to the
bipartite graph, embedded, classified — and, unless it is persisted,
forgotten again.  Implementing that literally (mutate the shared graph,
predict, undo the mutation) makes read-mostly serving traffic pay for graph
churn it immediately reverts: every prediction bumps
:attr:`BipartiteGraph.version` (evicting the sampler cache), dirties the
degree array and must hold the serving write lock.

:class:`GraphOverlay` gives the online path the same enlarged-graph view
without touching the base graph.  Staged records (and the MAC nodes they
introduce) are allocated dense indices *past* the base graph's
``index_capacity``, and every composed view — incident-edge arrays, the
weighted degree array, index maps — is built from base + delta exactly as
the mutated graph would have built it, bit for bit (test-enforced).  The
embedding trainer therefore optimises exactly the objective the historical
mutating path did: the same positive edges, and a negative sampler composed
from the base graph's cached table whose per-index probabilities equal a
full rebuild's.

``persist=True`` predictions become an explicit :meth:`GraphOverlay.commit`:
the staged records are replayed onto the base graph in staging order, which
reproduces the exact node indices and adjacency insertion order a direct
``add_record`` sequence would have produced.

An overlay is a short-lived, single-threaded view.  It pins the base
graph's version at construction and refuses to operate once the base has
been mutated underneath it (:class:`StaleOverlayError`); concurrent readers
each build their own overlay over the shared immutable base.
"""

from __future__ import annotations

import numpy as np

from ..obs import runtime as obs
from .graph import BipartiteGraph, EdgeArrayScratch, Node, NodeKind
from .types import SignalRecord

__all__ = ["StaleOverlayError", "GraphOverlay"]


class StaleOverlayError(RuntimeError):
    """Raised when an overlay is used after its base graph was mutated."""


class GraphOverlay:
    """A bipartite-graph delta view: base graph + staged records, no mutation.

    Duck-types the subset of :class:`BipartiteGraph` the incremental
    embedding path reads (``index_capacity``, ``num_edges``, node lookups,
    ``incident_edge_arrays``, ``degree_array``, index maps), with every view
    composed from the immutable base and the overlay's private delta.
    """

    #: Marks overlay views for code that must treat them differently from a
    #: real graph (the trainer's sampler cache keys on graph identity and
    #: version; an ephemeral overlay is never worth caching against).
    is_overlay = True

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
        self._staged_records: list[SignalRecord] = []
        self._committed = False

    # ------------------------------------------------------------ guard rails
    def _check_live(self) -> None:
        if self._committed:
            raise StaleOverlayError(
                "overlay has been committed; build a new overlay for further "
                "staging")
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

    @property
    def num_delta_nodes(self) -> int:
        return len(self._delta_nodes)

    @property
    def staged_records(self) -> list[SignalRecord]:
        return list(self._staged_records)

    def has_node(self, kind: NodeKind, key: str) -> bool:
        return ((kind, key) in self._delta_nodes
                or self.base.has_node(kind, key))

    def get_node(self, kind: NodeKind, key: str) -> Node:
        node = self._delta_nodes.get((kind, key))
        if node is not None:
            return node
        return self.base.get_node(kind, key)

    def node_at(self, index: int) -> Node:
        node = self._delta_by_index.get(index)
        if node is not None:
            return node
        return self.base.node_at(index)

    def delta_mac_nodes(self) -> list[Node]:
        """Staged MAC nodes (MACs unseen by the base graph), by index."""
        return [node for node in self._delta_by_index.values()
                if node.kind is NodeKind.MAC]

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
        self._staged_records.append(record)
        return record_node

    def _add_delta_node(self, kind: NodeKind, key: str) -> Node:
        node = Node(kind=kind, key=key, index=self._next_index)
        self._next_index += 1
        self._delta_nodes[(kind, key)] = node
        self._delta_by_index[node.index] = node
        self._delta_adjacency[node.index] = {}
        return node

    # ----------------------------------------------------------------- commit
    def commit(self) -> list[Node]:
        """Apply the staged records to the base graph (the ``persist`` path).

        Replays the records through :meth:`BipartiteGraph.add_record` in
        staging order, which assigns exactly the indices the overlay already
        handed out (the overlay allocates from the base's ``index_capacity``
        in the same order).  The overlay is spent afterwards.
        """
        self._check_live()
        nodes = [self.base.add_record(record)
                 for record in self._staged_records]
        self._committed = True
        obs.metric_increment("overlay_commits_total")
        obs.metric_increment("overlay_committed_records_total",
                             len(self._staged_records))
        obs.metric_increment("overlay_committed_nodes_total",
                             len(self._delta_nodes))
        obs.metric_increment("overlay_committed_edges_total",
                             self._delta_edges)
        return nodes

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

    def incident_edge_arrays(
            self, node_indices: np.ndarray,
            scratch: EdgeArrayScratch | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(sources, targets, weights)`` over edges incident to given nodes.

        Exactly the arrays :meth:`BipartiteGraph.incident_edge_arrays` would
        return on the mutated graph, in the same order (MAC nodes by index,
        per-MAC adjacency in insertion order with base edges before delta
        edges).  When every requested node is a delta node — the online
        inference case — only the delta is walked with set membership
        instead of an O(index_capacity) mask: O(staged edges), independent
        of both |E| and the degree of the touched MACs.  ``scratch``
        optionally reuses a previous call's output buffers when the edge
        count matches; the returned values are identical either way.
        """
        self._check_live()
        wanted_indices = np.asarray(node_indices, dtype=np.int64)
        delta_only = (wanted_indices.size == 0
                      or int(wanted_indices.min()) >= self._base_capacity)

        source_chunks: list[int] = []
        target_chunks: list[int] = []
        weight_chunks: list[float] = []
        if delta_only:
            # Every wanted node lives in the delta, so membership is a tiny
            # set and no base edge can qualify (neither endpoint is wanted):
            # the base sweep is skipped wholesale.
            wanted_set = set(map(int, wanted_indices))
            mac_indices: set[int] = set()
            for index in wanted_set:
                node = self._delta_by_index.get(index)
                if node is None:
                    continue
                if node.kind is NodeKind.MAC:
                    mac_indices.add(index)
                else:
                    mac_indices.update(
                        self._delta_adjacency.get(index, ()))
            for mac_index in sorted(mac_indices):
                mac_wanted = mac_index in wanted_set
                for record_index, weight in self._delta_adjacency.get(
                        mac_index, {}).items():
                    if mac_wanted or record_index in wanted_set:
                        source_chunks.append(mac_index)
                        target_chunks.append(record_index)
                        weight_chunks.append(weight)
        else:
            wanted = np.zeros(self._next_index, dtype=bool)
            wanted[wanted_indices] = True

            mac_indices = set()
            for index in np.flatnonzero(wanted):
                node = self._delta_by_index.get(int(index))
                if node is None:
                    try:
                        node = self.base.node_at(int(index))
                    except KeyError:
                        continue    # retired base index selects nothing
                if node.kind is NodeKind.MAC:
                    mac_indices.add(int(index))
                else:
                    mac_indices.update(self._iter_adjacency_keys(int(index)))

            for mac_index in sorted(mac_indices):
                mac_wanted = wanted[mac_index]
                # Base edges come first, exactly as the mutated adjacency
                # dict would iterate them.
                for record_index, weight in self._base_neighbors(mac_index):
                    if mac_wanted or wanted[record_index]:
                        source_chunks.append(mac_index)
                        target_chunks.append(record_index)
                        weight_chunks.append(weight)
                for record_index, weight in self._delta_adjacency.get(
                        mac_index, {}).items():
                    if mac_wanted or wanted[record_index]:
                        source_chunks.append(mac_index)
                        target_chunks.append(record_index)
                        weight_chunks.append(weight)
        if scratch is not None:
            return scratch.fill(source_chunks, target_chunks, weight_chunks)
        return (np.asarray(source_chunks, dtype=np.int64),
                np.asarray(target_chunks, dtype=np.int64),
                np.asarray(weight_chunks, dtype=np.float64))

    def _base_neighbors(self, index: int):
        """Base-graph adjacency items of a live base index ([] otherwise)."""
        if index >= self._base_capacity:
            return ()
        try:
            return self.base.neighbors(index).items()
        except KeyError:
            return ()

    def _iter_adjacency_keys(self, index: int):
        """Neighbor indices of a node: base part (if any) then delta part."""
        if index < self._base_capacity:
            yield from self.base.neighbors(index)
        yield from self._delta_adjacency.get(index, ())

    # ------------------------------------------------------------- index maps
    def record_index_map(self) -> dict[str, int]:
        """Record id -> index over base + delta (fresh dict, safe to keep)."""
        self._check_live()
        mapping = dict(self.base.record_index_map())
        for (kind, key), node in self._delta_nodes.items():
            if kind is NodeKind.RECORD:
                mapping[key] = node.index
        return mapping

    def mac_index_map(self) -> dict[str, int]:
        """MAC -> index over base + delta (fresh dict, safe to keep)."""
        self._check_live()
        mapping = dict(self.base.mac_index_map())
        for (kind, key), node in self._delta_nodes.items():
            if kind is NodeKind.MAC:
                mapping[key] = node.index
        return mapping

    def unknown_mac_indices(self, known: frozenset[str] | set[str]) -> list[int]:
        """Indices of base + delta MAC nodes missing from ``known``.

        The base part is one cached set difference
        (:meth:`BipartiteGraph.unknown_mac_indices`); the delta part only
        walks the staged MACs, keeping the online hot path O(delta).
        """
        self._check_live()
        indices = self.base.unknown_mac_indices(known)
        for (kind, key), node in self._delta_nodes.items():
            if kind is NodeKind.MAC and key not in known:
                indices.append(node.index)
        return indices

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"GraphOverlay(base={self.base!r}, "
                f"staged_records={len(self._staged_records)}, "
                f"delta_nodes={len(self._delta_nodes)})")
