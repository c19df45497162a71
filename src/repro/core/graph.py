"""Weighted bipartite graph model of crowdsourced RF signal records.

The graph (paper Section IV-A) has two node types:

* **MAC nodes** — one per sensed MAC address (access point BSSID).
* **Record nodes** — one per RF signal record.

An edge connects MAC ``m`` and record ``v`` whenever ``m`` appears in ``v``,
with weight ``c_mv = f(RSS_mv)`` for a strictly positive weight function
``f`` (see :mod:`repro.core.weighting`).  The graph is deliberately
incremental: new records and new MACs can be added at any time (online
inference, paper Section V-A), and MAC nodes can be removed to model AP
removal (paper Section III-A).

Nodes are identified by ``(kind, key)`` pairs externally and by dense integer
indices internally; the dense indices are what the embedding algorithms
operate on.  Removing a node retires its index (indices are never reused), so
embedding matrices indexed by node index stay valid across removals.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .types import FingerprintDataset, SignalRecord
from .weighting import OffsetWeight, WeightFunction

__all__ = ["NodeKind", "Node", "Edge", "BipartiteGraph", "build_graph"]


class NodeKind(str, Enum):
    """The two sides of the bipartite graph."""

    MAC = "mac"
    RECORD = "record"


@dataclass(frozen=True)
class Node:
    """A node handle: its kind, external key and dense internal index."""

    kind: NodeKind
    key: str
    index: int


@dataclass(frozen=True)
class Edge:
    """An undirected weighted edge between a MAC node and a record node."""

    mac_index: int
    record_index: int
    weight: float


class BipartiteGraph:
    """Incrementally-built weighted bipartite graph of MACs and records.

    Parameters
    ----------
    weight_function:
        Maps RSS (dBm) to a strictly positive edge weight.  Defaults to the
        paper's ``f(RSS) = RSS + 120``.
    """

    def __init__(self, weight_function: WeightFunction | None = None) -> None:
        self.weight_function = weight_function or OffsetWeight()
        self._nodes: dict[tuple[NodeKind, str], Node] = {}
        self._nodes_by_index: dict[int, Node] = {}
        self._adjacency: dict[int, dict[int, float]] = {}
        self._next_index = 0
        self._total_weight = 0.0
        self._num_edges = 0
        #: Monotonic mutation counter; bumped by every node/edge change and
        #: never reused, so ``(graph, version)`` identifies one exact graph
        #: state.  Samplers and the array views below are cached against it.
        self._version = 0
        #: Weighted degrees by dense index, maintained incrementally: nodes
        #: whose edge set changed are marked dirty and lazily recomputed with
        #: the same ``sum(neighbors.values())`` a full rebuild would run, so
        #: ``degree_array()`` stays bit-identical while costing O(dirty)
        #: instead of O(V+E) per call.
        self._degrees = np.zeros(16, dtype=np.float64)
        self._dirty_degrees: set[int] = set()
        #: Serialises the lazy dirty-degree flush in :meth:`degree_array`.
        #: Mutation-free serving reads one graph from many threads without
        #: any outer lock; if the graph still has dirty degrees at that
        #: point (e.g. it was just rebuilt by the persistence layer), two
        #: concurrent readers must not race the flush.  Mutations
        #: themselves are not covered — a graph is never mutated while
        #: being served (the overlay path exists precisely for that).
        self._degree_flush_lock = threading.Lock()
        #: Version-keyed caches of the index maps and the MAC vocabulary.
        #: The cached containers are never mutated in place — a version bump
        #: builds fresh ones — so handing them out by reference is safe as
        #: long as callers treat them as read-only (they all do: the maps
        #: feed lookups and set operations, never item assignment).
        self._record_map_cache: tuple[int, dict[str, int]] | None = None
        self._mac_map_cache: tuple[int, dict[str, int]] | None = None
        self._mac_vocabulary_cache: tuple[int, frozenset[str]] | None = None

    # ------------------------------------------------------------------ pickling
    def __getstate__(self) -> dict:
        """Pickle support: only the graph's content is state.

        A pickled graph is the serialization seam of the compute-pool /
        process-per-shard path: read-only model snapshots ship to worker
        processes once per generation.  The content round-trips by value
        (arrays, adjacency dicts, version counter), so the restored graph
        is bit-identical to the source.  The flush lock is process-local,
        and the version-keyed index-map and vocabulary caches are derived:
        they are dropped and rebuilt lazily, so a graph pickles to the same
        bytes whether or not it has served.
        """
        state = self.__dict__.copy()
        state["_degree_flush_lock"] = None
        state["_record_map_cache"] = None
        state["_mac_map_cache"] = None
        state["_mac_vocabulary_cache"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._degree_flush_lock = threading.Lock()

    # ------------------------------------------------------------------ nodes
    @property
    def num_nodes(self) -> int:
        """Number of live nodes (MACs + records)."""
        return len(self._nodes)

    @property
    def num_macs(self) -> int:
        return sum(1 for node in self._nodes.values() if node.kind is NodeKind.MAC)

    @property
    def num_records(self) -> int:
        return sum(1 for node in self._nodes.values() if node.kind is NodeKind.RECORD)

    @property
    def index_capacity(self) -> int:
        """One past the largest index ever assigned (size for embedding matrices)."""
        return self._next_index

    @property
    def version(self) -> int:
        """Monotonic mutation counter (bumped on every node/edge change).

        Two reads returning the same version guarantee the graph content is
        unchanged between them; the counter is never reused, so caches keyed
        on ``(graph, version)`` can serve their entries without revalidation.
        """
        return self._version

    def nodes(self, kind: NodeKind | None = None) -> list[Node]:
        """All live nodes, optionally filtered by kind, in insertion order."""
        nodes = sorted(self._nodes.values(), key=lambda n: n.index)
        if kind is None:
            return nodes
        return [n for n in nodes if n.kind is kind]

    def mac_nodes(self) -> list[Node]:
        return self.nodes(NodeKind.MAC)

    def record_nodes(self) -> list[Node]:
        return self.nodes(NodeKind.RECORD)

    def has_node(self, kind: NodeKind, key: str) -> bool:
        return (kind, key) in self._nodes

    def get_node(self, kind: NodeKind, key: str) -> Node:
        try:
            return self._nodes[(kind, key)]
        except KeyError:
            raise KeyError(f"no {kind.value} node with key {key!r}") from None

    def node_at(self, index: int) -> Node:
        try:
            return self._nodes_by_index[index]
        except KeyError:
            raise KeyError(f"no live node with index {index}") from None

    def _add_node(self, kind: NodeKind, key: str) -> Node:
        existing = self._nodes.get((kind, key))
        if existing is not None:
            return existing
        node = Node(kind=kind, key=key, index=self._next_index)
        self._next_index += 1
        self._nodes[(kind, key)] = node
        self._nodes_by_index[node.index] = node
        self._adjacency[node.index] = {}
        if node.index >= self._degrees.size:
            grown = np.zeros(max(self._degrees.size * 2, node.index + 1),
                             dtype=np.float64)
            grown[:self._degrees.size] = self._degrees
            self._degrees = grown
        self._degrees[node.index] = 0.0
        self._version += 1
        return node

    def add_mac(self, mac: str) -> Node:
        """Add (or fetch) the node for a MAC address."""
        return self._add_node(NodeKind.MAC, mac)

    # ---------------------------------------------------------------- records
    def add_record(self, record: SignalRecord) -> Node:
        """Add a signal record and its edges to the sensed MAC nodes.

        New MAC nodes are created on demand (paper: the graph "is easily
        extendable for new RF records" and adapts to AP installation).
        """
        key = record.record_id
        if (NodeKind.RECORD, key) in self._nodes:
            raise ValueError(f"record {key!r} is already in the graph")
        record_node = self._add_node(NodeKind.RECORD, key)
        for mac, rss in record.rss.items():
            mac_node = self.add_mac(mac)
            weight = self.weight_function.validate(rss)
            self._set_edge(mac_node.index, record_node.index, weight)
        return record_node

    def add_records(self, records: Iterable[SignalRecord]) -> list[Node]:
        return [self.add_record(record) for record in records]

    def remove_record(self, record_id: str,
                      prune_orphaned_macs: bool = False) -> list[str]:
        """Remove a record node and all of its edges.

        With ``prune_orphaned_macs`` MAC nodes left without any incident edge
        by the removal are removed too (their keys are returned).  This is
        what keeps the graph's memory bounded under sliding-window streaming
        ingestion: a window eviction takes the record *and* any AP that only
        that record ever observed with it.
        """
        node = self.get_node(NodeKind.RECORD, record_id)
        neighbor_indices = list(self._adjacency[node.index])
        self._remove_node(node)
        if not prune_orphaned_macs:
            return []
        pruned = []
        for index in neighbor_indices:
            mac_node = self._nodes_by_index.get(index)
            if mac_node is not None and not self._adjacency[index]:
                self._remove_node(mac_node)
                pruned.append(mac_node.key)
        return pruned

    def remove_mac(self, mac: str) -> None:
        """Remove a MAC node (models AP removal) and all of its edges."""
        node = self.get_node(NodeKind.MAC, mac)
        self._remove_node(node)

    def _remove_node(self, node: Node) -> None:
        for neighbor_index in list(self._adjacency[node.index]):
            weight = self._adjacency[node.index].pop(neighbor_index)
            del self._adjacency[neighbor_index][node.index]
            self._total_weight -= weight
            self._num_edges -= 1
            self._dirty_degrees.add(neighbor_index)
        del self._adjacency[node.index]
        del self._nodes[(node.kind, node.key)]
        del self._nodes_by_index[node.index]
        self._degrees[node.index] = 0.0
        self._dirty_degrees.discard(node.index)
        self._version += 1

    # ------------------------------------------------------------------ edges
    def _set_edge(self, mac_index: int, record_index: int, weight: float) -> None:
        previous = self._adjacency[mac_index].get(record_index)
        if previous is not None:
            self._total_weight -= previous
        else:
            self._num_edges += 1
        self._adjacency[mac_index][record_index] = weight
        self._adjacency[record_index][mac_index] = weight
        self._total_weight += weight
        self._dirty_degrees.add(mac_index)
        self._dirty_degrees.add(record_index)
        self._version += 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (O(1): maintained incrementally)."""
        return self._num_edges

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights (each undirected edge counted once)."""
        return self._total_weight

    def edge_weight(self, mac: str, record_id: str) -> float:
        """Weight of the edge between a MAC and a record (KeyError if absent)."""
        mac_node = self.get_node(NodeKind.MAC, mac)
        record_node = self.get_node(NodeKind.RECORD, record_id)
        try:
            return self._adjacency[mac_node.index][record_node.index]
        except KeyError:
            raise KeyError(f"no edge between {mac!r} and {record_id!r}") from None

    def neighbors(self, index: int) -> dict[int, float]:
        """Mapping neighbor-index -> edge weight for a live node index."""
        try:
            return dict(self._adjacency[index])
        except KeyError:
            raise KeyError(f"no live node with index {index}") from None

    def degree(self, index: int) -> int:
        """Number of neighbors of a node."""
        return len(self._adjacency[index])

    def weighted_degree(self, index: int) -> float:
        """Sum of incident edge weights of a node."""
        return float(sum(self._adjacency[index].values()))

    def edges(self) -> Iterator[Edge]:
        """Iterate over all undirected edges, each reported once."""
        for node in self.nodes(NodeKind.MAC):
            for record_index, weight in self._adjacency[node.index].items():
                yield Edge(mac_index=node.index, record_index=record_index,
                           weight=weight)

    # ------------------------------------------------------------ array views
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(sources, targets, weights)`` arrays over undirected edges.

        ``sources`` holds MAC node indices and ``targets`` record node indices.
        These arrays feed the alias samplers used by LINE / E-LINE training;
        the samplers themselves are cached per graph version one level up
        (:class:`~repro.core.embedding.sampler.SamplerCache`), so this build
        runs once per graph state on the training paths.
        """
        source_chunks: list[np.ndarray] = []
        target_chunks: list[np.ndarray] = []
        weight_chunks: list[np.ndarray] = []
        for node in self.nodes(NodeKind.MAC):
            neighbors = self._adjacency[node.index]
            if not neighbors:
                continue
            count = len(neighbors)
            source_chunks.append(np.full(count, node.index, dtype=np.int64))
            target_chunks.append(np.fromiter(neighbors.keys(), dtype=np.int64,
                                             count=count))
            weight_chunks.append(np.fromiter(neighbors.values(),
                                             dtype=np.float64, count=count))
        if not source_chunks:
            empty_int = np.empty(0, dtype=np.int64)
            return empty_int, empty_int.copy(), np.empty(0, dtype=np.float64)
        return (np.concatenate(source_chunks),
                np.concatenate(target_chunks),
                np.concatenate(weight_chunks))

    def _flush_degrees(self) -> None:
        if self._dirty_degrees:
            # The unlocked truthiness peek keeps the clean (serving) case
            # lock-free; the flush itself is serialised so concurrent
            # readers of a just-rebuilt graph cannot race the iteration.
            with self._degree_flush_lock:
                for index in self._dirty_degrees:
                    neighbors = self._adjacency.get(index)
                    if neighbors is not None:
                        self._degrees[index] = sum(neighbors.values())
                self._dirty_degrees.clear()

    def degree_array(self) -> np.ndarray:
        """Weighted degrees indexed by dense node index (zeros for retired indices)."""
        self._flush_degrees()
        return self._degrees[:self.index_capacity].copy()

    def degrees_at(self, indices: np.ndarray) -> np.ndarray:
        """Weighted degrees at the given dense indices (a fresh small array).

        The same values :meth:`degree_array` reports at those positions,
        without the O(V) copy — the delta-composed negative sampler reads a
        handful of boundary-MAC degrees per prediction.
        """
        self._flush_degrees()
        return self._degrees[np.asarray(indices, dtype=np.int64)]

    def record_index_map(self) -> dict[str, int]:
        """Mapping record id -> dense node index for all live record nodes.

        Cached per :attr:`version`; treat the returned dict as read-only
        (mutations would corrupt the shared cache entry).
        """
        cached = self._record_map_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        mapping = {node.key: node.index for node in self.record_nodes()}
        self._record_map_cache = (self._version, mapping)
        return mapping

    def mac_index_map(self) -> dict[str, int]:
        """Mapping MAC address -> dense node index for all live MAC nodes.

        Cached per :attr:`version`; treat the returned dict as read-only.
        """
        cached = self._mac_map_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        mapping = {node.key: node.index for node in self.mac_nodes()}
        self._mac_map_cache = (self._version, mapping)
        return mapping

    def mac_vocabulary(self) -> frozenset[str]:
        """The set of live MAC addresses, cached per :attr:`version`.

        This is the view the online unknown-environment check and building
        attribution need; caching it means a read-mostly serving path never
        rebuilds an O(|vocabulary|) set per prediction.
        """
        cached = self._mac_vocabulary_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        vocabulary = frozenset(self.mac_index_map())
        self._mac_vocabulary_cache = (self._version, vocabulary)
        return vocabulary

    def unknown_mac_indices(self, known: frozenset[str] | set[str]) -> list[int]:
        """Dense indices of live MAC nodes whose key is not in ``known``.

        Used by the incremental embedder to find MAC nodes that an existing
        embedding does not cover.  The set difference runs over the cached
        vocabulary, so the common serving case (every MAC already embedded)
        costs one C-level set difference instead of a Python sweep over all
        MAC nodes.
        """
        unknown = self.mac_vocabulary() - known
        if not unknown:
            return []
        mac_map = self.mac_index_map()
        return [mac_map[key] for key in unknown]

    # ------------------------------------------------------------------ misc
    def connected_components(self) -> list[set[int]]:
        """Connected components over live node indices (BFS)."""
        unvisited = set(self._adjacency)
        components: list[set[int]] = []
        while unvisited:
            start = unvisited.pop()
            component = {start}
            frontier = [start]
            while frontier:
                current = frontier.pop()
                for neighbor in self._adjacency[current]:
                    if neighbor in unvisited:
                        unvisited.discard(neighbor)
                        component.add(neighbor)
                        frontier.append(neighbor)
            components.append(component)
        return components

    def to_networkx(self):
        """Export to a :class:`networkx.Graph` (for analysis and debugging)."""
        import networkx as nx

        graph = nx.Graph()
        for node in self.nodes():
            graph.add_node(node.index, kind=node.kind.value, key=node.key)
        for edge in self.edges():
            graph.add_edge(edge.mac_index, edge.record_index, weight=edge.weight)
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BipartiteGraph(macs={self.num_macs}, records={self.num_records}, "
                f"edges={self.num_edges})")


def build_graph(dataset: FingerprintDataset | Sequence[SignalRecord],
                weight_function: WeightFunction | None = None) -> BipartiteGraph:
    """Build a bipartite graph from a dataset or a sequence of records."""
    graph = BipartiteGraph(weight_function=weight_function)
    records = dataset.records if isinstance(dataset, FingerprintDataset) else dataset
    graph.add_records(records)
    return graph
