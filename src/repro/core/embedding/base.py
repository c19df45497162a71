"""Common interfaces and result container for graph embedding algorithms."""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..graph import BipartiteGraph

__all__ = ["EmbeddingConfig", "GraphEmbedding", "GraphEmbedder"]


@dataclass(frozen=True)
class EmbeddingConfig:
    """Hyperparameters shared by LINE and E-LINE.

    The defaults mirror the paper's experiment settings (Section VI-A):
    8-dimensional embeddings, learning rate 0.001, dropout 0.1, and five
    negative samples per positive edge.

    Attributes
    ----------
    dimension:
        Length of the ego and context embedding vectors.
    learning_rate:
        Initial SGD learning rate (decays linearly to ``min_learning_rate``).
    min_learning_rate:
        Floor of the linear learning-rate decay.
    negative_samples:
        Number of negative nodes drawn per positive edge (``K`` in Eq. 10).
    samples_per_edge:
        Total number of edge samples drawn during training, expressed as a
        multiple of the number of edges in the graph.
    batch_size:
        Number of edges per SGD mini-batch.
    dropout:
        Probability of zeroing an embedding coordinate in the forward pass of
        a training step (a light regulariser; the paper reports 0.1).
    init_scale:
        Embeddings are initialised uniformly in ``[-init_scale, init_scale]``.
    seed:
        Seed of the training random generator (``None`` for nondeterministic).

    There is no kernel or sampler setting: fits always run the fused
    kernel over alias-sampled edges, and the frozen online update always
    runs the reference kernel's frozen-row step, which trains only the new
    rows, over inverse-CDF draws of the new nodes' incident edges (see
    :mod:`repro.core.embedding.kernels` and
    ``ELINEEmbedder.embed_new_nodes_arrays``).
    """

    dimension: int = 8
    learning_rate: float = 0.025
    min_learning_rate: float = 1e-4
    negative_samples: int = 5
    samples_per_edge: float = 40.0
    batch_size: int = 512
    dropout: float = 0.1
    init_scale: float = 0.5
    seed: int | None = 0

    def __post_init__(self) -> None:
        if self.dimension <= 0:
            raise ValueError("dimension must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.negative_samples < 1:
            raise ValueError("negative_samples must be at least 1")
        if self.samples_per_edge <= 0:
            raise ValueError("samples_per_edge must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


@dataclass
class GraphEmbedding:
    """Learned ego/context embeddings, addressable by record id or MAC.

    Attributes
    ----------
    ego:
        Array of shape ``(index_capacity, dimension)``; row ``i`` is the ego
        embedding of the node with dense index ``i``.
    context:
        Context embeddings, same shape as ``ego``.
    record_index:
        Mapping from record id to dense node index.
    mac_index:
        Mapping from MAC address to dense node index.
    config:
        The configuration the embeddings were trained with.
    """

    ego: np.ndarray
    context: np.ndarray
    record_index: dict[str, int]
    mac_index: dict[str, int]
    config: EmbeddingConfig
    training_loss: list[float] = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return int(self.ego.shape[1])

    def record_vector(self, record_id: str) -> np.ndarray:
        """Ego embedding of one record (the representation used downstream)."""
        try:
            index = self.record_index[record_id]
        except KeyError:
            raise KeyError(f"no embedding for record {record_id!r}") from None
        return self.ego[index]

    def mac_vector(self, mac: str) -> np.ndarray:
        """Ego embedding of one MAC node."""
        try:
            index = self.mac_index[mac]
        except KeyError:
            raise KeyError(f"no embedding for MAC {mac!r}") from None
        return self.ego[index]

    def record_matrix(self, record_ids: Sequence[str]) -> np.ndarray:
        """Stack the ego embeddings of the given records into an array."""
        rows = [self.record_index[r] for r in record_ids]
        return self.ego[rows]

    def has_record(self, record_id: str) -> bool:
        return record_id in self.record_index


class GraphEmbedder(ABC):
    """Base class for algorithms that embed the bipartite graph's nodes."""

    def __init__(self, config: EmbeddingConfig | None = None) -> None:
        self.config = config or EmbeddingConfig()

    @abstractmethod
    def fit(self, graph: BipartiteGraph,
            warm_start: GraphEmbedding | None = None) -> GraphEmbedding:
        """Learn embeddings for every node currently in the graph.

        ``warm_start`` optionally carries the embedding of a previous fit;
        nodes surviving from the previous graph are initialised from their
        old vectors (continuous-learning retrains converge from where the
        previous model left off), while nodes new to the graph are
        initialised randomly as usual.
        """

    @staticmethod
    def _index_maps(graph: BipartiteGraph) -> tuple[dict[str, int], dict[str, int]]:
        # Fresh maps; a fit's served graph shares them with the embedding,
        # and both treat them as read-only.
        return graph.record_index_map(), graph.mac_index_map()
