"""E-LINE: the paper's extension of LINE (Section IV-B).

E-LINE keeps LINE's second-order proximity term (Eq. 5) and adds a symmetric
term (Eq. 8) in which the roles of ego and context embeddings are swapped:
the conditional probability of the *ego* of ``j`` given the *context* of
``i``.  Minimising the combined objective (Eq. 9) — in practice its
negative-sampling surrogate (Eq. 10) — makes the ego embeddings of nodes that
are reachable from each other through short local paths similar, even when
they share few direct neighbours.  This matters for floor identification
because two records from the same floor frequently observe disjoint MAC sets
that only overlap through intermediate records.

The class also implements *incremental embedding* of nodes added after the
initial fit (Section V-A): the new node's ego and context vectors are trained
while every other embedding stays frozen, which is cheap enough for real-time
online inference.  Fits run the fused kernel; the frozen update runs the
reference kernel's trainable-row path (the trainer picks by call).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import replace

import numpy as np

from ...obs import runtime as obs
from ..graph import BipartiteGraph, NodeKind
from .base import GraphEmbedder, GraphEmbedding
from .trainer import EdgeSamplingTrainer, ObjectiveTerms

__all__ = ["ELINEEmbedder"]

_ELINE_TERMS = ObjectiveTerms(first_order=False, second_order=True, symmetric=True)


class ELINEEmbedder(GraphEmbedder):
    """E-LINE graph embedding (second-order + symmetric ego/context term)."""

    def fit(self, graph: BipartiteGraph,
            warm_start: GraphEmbedding | None = None) -> GraphEmbedding:
        """Learn E-LINE embeddings for every node currently in ``graph``.

        With ``warm_start`` the ego/context vectors of nodes that also exist
        in the previous embedding are used as the starting point (streaming
        retrains, Section V-A): surviving records and MACs resume from their
        learned positions instead of re-converging from random noise.
        """
        trainer = EdgeSamplingTrainer(graph, self.config, _ELINE_TERMS)
        ego, context = trainer.initial_embeddings(warm_start=warm_start)
        losses = trainer.train(ego, context)
        record_index, mac_index = self._index_maps(graph)
        return GraphEmbedding(ego=ego, context=context,
                              record_index=record_index, mac_index=mac_index,
                              config=self.config, training_loss=losses)

    def embed_new_nodes(self, graph: BipartiteGraph, embedding: GraphEmbedding,
                        new_record_ids: Iterable[str],
                        samples_per_new_edge: float | None = None) -> GraphEmbedding:
        """Embed records added to ``graph`` after ``embedding`` was fitted.

        The records named in ``new_record_ids`` (and any MAC nodes that are
        not yet in ``embedding``) get fresh embeddings trained against the
        frozen embeddings of all pre-existing nodes, as described in the
        paper's online-inference section.  Returns a new
        :class:`GraphEmbedding` that covers the enlarged graph; the original
        embedding object is not modified.

        This is the mutate-the-graph route: ``graph`` is a plain
        :class:`BipartiteGraph` that the records were added to.  The online
        engine never takes it; it reads the new rows straight from
        :meth:`embed_new_nodes_arrays` over a read-only overlay.

        Parameters
        ----------
        graph:
            The bipartite graph after the new records were added.
        embedding:
            The embedding learned before the new records arrived.
        new_record_ids:
            Ids of the records to embed; each must already be a node of
            ``graph`` and must not be present in ``embedding``.
        samples_per_new_edge:
            Edge-sample budget per incident edge of the new nodes (defaults to
            the config's ``samples_per_edge``).
        """
        new_ids = list(new_record_ids)
        if not new_ids:
            return embedding
        ego, context, losses = self.embed_new_nodes_arrays(graph, embedding,
                                                           new_ids,
                                                           samples_per_new_edge)
        record_index, mac_index = self._index_maps(graph)
        return GraphEmbedding(ego=ego, context=context,
                              record_index=record_index, mac_index=mac_index,
                              config=self.config,
                              training_loss=list(embedding.training_loss) + losses)

    def embed_new_nodes_arrays(
            self, graph: BipartiteGraph, embedding: GraphEmbedding,
            new_record_ids: list[str],
            samples_per_new_edge: float | None = None,
            edge_scratch=None,
    ) -> tuple[np.ndarray, np.ndarray, list[float]]:
        """The array-level core of :meth:`embed_new_nodes`.

        Returns ``(ego, context, losses)`` over the enlarged index space
        without assembling a :class:`GraphEmbedding`: the online engine
        looks up the new rows by index and never reads the index maps or
        the training-loss history.  ``graph`` may be the mutated base graph
        or a :class:`~repro.core.overlay.GraphOverlay` presenting the staged
        records over a frozen base; neither ``graph`` nor ``embedding`` is
        written.  Both train on the same positive edges
        and the same negative-sampling distribution; the overlay composes
        its negative sampler from the base graph's cached parts, so its draw
        sequence differs from the mutated graph's.  ``edge_scratch``
        optionally carries an :class:`~repro.core.graph.EdgeArrayScratch`
        reused across consecutive same-shaped calls (the serving engine's
        per-thread buffers); results are identical with or without it.
        """
        with obs.span("online.embed") as embed_span:
            embed_span.set("new_records", len(new_record_ids))
            return self._embed_new_nodes_arrays(graph, embedding,
                                                new_record_ids,
                                                samples_per_new_edge,
                                                edge_scratch=edge_scratch)

    def _embed_new_nodes_arrays(
            self, graph: BipartiteGraph, embedding: GraphEmbedding,
            new_record_ids: list[str],
            samples_per_new_edge: float | None = None,
            edge_scratch=None,
    ) -> tuple[np.ndarray, np.ndarray, list[float]]:
        for record_id in new_record_ids:
            if embedding.has_record(record_id):
                raise ValueError(f"record {record_id!r} is already embedded")
            if not graph.has_node(NodeKind.RECORD, record_id):
                raise ValueError(f"record {record_id!r} is not in the graph")

        capacity = graph.index_capacity
        dim = self.config.dimension
        rng = np.random.default_rng(self.config.seed)
        scale = self.config.init_scale / dim

        trainable = np.zeros(capacity, dtype=bool)
        for record_id in new_record_ids:
            node = graph.get_node(NodeKind.RECORD, record_id)
            trainable[node.index] = True
        # MAC nodes unseen by the original embedding are trainable too.
        for index in graph.unknown_mac_indices(embedding.mac_key_set()):
            trainable[index] = True

        # Frozen rows are copied; only the trainable rows draw fresh random
        # vectors.  Drawing a full capacity-sized matrix instead would tie
        # the initialisation (and hence the prediction) to how many retired
        # indices the graph has accumulated, making repeated online
        # predictions of the same record drift apart.  Rows that are neither
        # frozen nor trainable are retired indices; they are never read.
        ego = np.zeros((capacity, dim))
        context = np.zeros((capacity, dim))
        old_rows = min(embedding.ego.shape[0], capacity)
        ego[:old_rows] = embedding.ego[:old_rows]
        context[:old_rows] = embedding.context[:old_rows]
        new_indices = np.flatnonzero(trainable)
        if new_indices.size:
            # One block draw, shaped so the generator consumes doubles in
            # the historical per-row order (ego row, then context row, per
            # index) — byte-identical to the former per-index loop.
            fresh = rng.uniform(-scale, scale,
                                size=(new_indices.size, 2, dim))
            ego[new_indices] = fresh[:, 0, :]
            context[new_indices] = fresh[:, 1, :]

        # The objective restricted to the new nodes only involves their own
        # incident edges, so the positive sampler is built over that subset:
        # this is what makes online inference cheap (Section V-A).  The
        # ``trainable`` mask routes every batch to the reference kernel's
        # frozen path, which touches only the handful of trainable rows.
        per_edge = (samples_per_new_edge if samples_per_new_edge is not None
                    else self.config.samples_per_edge)
        incremental_config = replace(self.config, samples_per_edge=per_edge)
        trainer = EdgeSamplingTrainer(graph, incremental_config, _ELINE_TERMS,
                                      restrict_to_nodes=new_indices,
                                      edge_scratch=edge_scratch)
        losses = trainer.train(ego, context, trainable=trainable)
        return ego, context, losses
