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

A fitted model serves from a :class:`ServedGraph` instead: the graph frozen
after the fit, without its edges.  Embedding a new sample against the frozen
model reads the node indices, the MAC vocabulary and the weighted degrees
(the negative-sampling distribution), never the training edges.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .types import FingerprintDataset, SignalRecord
from .weighting import OffsetWeight, WeightFunction

__all__ = ["NodeKind", "Node", "Edge", "BipartiteGraph", "ServedGraph",
           "build_graph"]


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
        #: state.  The fit's samplers are cached against it.
        self._version = 0

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
        del self._adjacency[node.index]
        del self._nodes[(node.kind, node.key)]
        del self._nodes_by_index[node.index]
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

    def degree_array(self) -> np.ndarray:
        """Weighted degrees indexed by dense node index (zeros for retired indices)."""
        degrees = np.zeros(self._next_index, dtype=np.float64)
        for index, neighbors in self._adjacency.items():
            degrees[index] = sum(neighbors.values())
        return degrees

    def record_index_map(self) -> dict[str, int]:
        """Mapping record id -> dense node index for all live record nodes."""
        return {node.key: node.index for node in self.record_nodes()}

    def mac_index_map(self) -> dict[str, int]:
        """Mapping MAC address -> dense node index for all live MAC nodes."""
        return {node.key: node.index for node in self.mac_nodes()}

    def mac_vocabulary(self) -> frozenset[str]:
        """The set of live MAC addresses."""
        return frozenset(self.mac_index_map())

    def freeze(self, record_index: dict[str, int] | None = None,
               mac_index: dict[str, int] | None = None,
               negative_sampler=None) -> ServedGraph:
        """This graph's current state as an immutable :class:`ServedGraph`.

        ``record_index``/``mac_index`` let a fit hand over the maps its
        embedding already holds (they must equal this graph's maps), so
        the view and the embedding share them; by default fresh maps are
        built.  ``negative_sampler`` hands over a :class:`NegativeSampler`
        already built over :meth:`degree_array`.
        """
        return ServedGraph(
            record_index=(self.record_index_map() if record_index is None
                          else record_index),
            mac_index=self.mac_index_map() if mac_index is None else mac_index,
            degrees=self.degree_array(), num_edges=self._num_edges,
            weight_function=self.weight_function,
            negative_sampler=negative_sampler)

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


class ServedGraph:
    """The immutable graph a fitted model serves from (no adjacency).

    Holds exactly what online inference reads: the record and MAC
    key→index maps, the weighted-degree vector (its length is the index
    capacity), the edge count and the weight function.  A fit builds it
    with :meth:`BipartiteGraph.freeze` from the maps its embedding holds,
    so the two share them; a loaded model file builds it from the saved
    maps and degrees.  Nothing mutates it: new samples are staged on a
    :class:`~repro.core.overlay.GraphOverlay` over it.

    It also carries the base :class:`NegativeSampler` over its degrees,
    which a fit hands over from its own sampler cache entry.  The sampler
    and the MAC vocabulary set are derived: they are dropped on pickling,
    so a view pickles to the same bytes whether or not it has served, and
    rebuilt on first use.
    """

    def __init__(self, record_index: dict[str, int], mac_index: dict[str, int],
                 degrees: np.ndarray, num_edges: int,
                 weight_function: WeightFunction, negative_sampler=None) -> None:
        self._record_index = record_index
        self._mac_index = mac_index
        self.degrees = np.array(degrees, dtype=np.float64)
        self.degrees.setflags(write=False)
        self.num_edges = int(num_edges)
        self.weight_function = weight_function
        #: The base noise sampler; ``None`` until the sampler cache rebuilds
        #: it after an unpickle or a load.
        self.negative_sampler = negative_sampler
        self._vocabulary: frozenset[str] | None = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["negative_sampler"] = None
        state["_vocabulary"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.degrees.setflags(write=False)

    @property
    def num_records(self) -> int:
        return len(self._record_index)

    @property
    def num_macs(self) -> int:
        return len(self._mac_index)

    @property
    def num_nodes(self) -> int:
        return len(self._record_index) + len(self._mac_index)

    @property
    def index_capacity(self) -> int:
        return self.degrees.size

    def has_node(self, kind: NodeKind, key: str) -> bool:
        return key in self._index_map(kind)

    def get_node(self, kind: NodeKind, key: str) -> Node:
        try:
            return Node(kind=kind, key=key, index=self._index_map(kind)[key])
        except KeyError:
            raise KeyError(f"no {kind.value} node with key {key!r}") from None

    def _index_map(self, kind: NodeKind) -> dict[str, int]:
        return self._record_index if kind is NodeKind.RECORD else self._mac_index

    def record_index_map(self) -> dict[str, int]:
        """Record id -> dense index; shared, treat it as read-only."""
        return self._record_index

    def mac_index_map(self) -> dict[str, int]:
        """MAC address -> dense index; shared, treat it as read-only."""
        return self._mac_index

    def mac_vocabulary(self) -> frozenset[str]:
        """The MAC addresses, as a set built once per view."""
        if self._vocabulary is None:
            self._vocabulary = frozenset(self._mac_index)
        return self._vocabulary

    def degree_array(self) -> np.ndarray:
        """A writable copy of :attr:`degrees`."""
        return self.degrees.copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ServedGraph(macs={self.num_macs}, records={self.num_records}, "
                f"edges={self.num_edges})")


def build_graph(dataset: FingerprintDataset | Sequence[SignalRecord],
                weight_function: WeightFunction | None = None) -> BipartiteGraph:
    """Build a bipartite graph from a dataset or a sequence of records."""
    graph = BipartiteGraph(weight_function=weight_function)
    records = dataset.records if isinstance(dataset, FingerprintDataset) else dataset
    graph.add_records(records)
    return graph
