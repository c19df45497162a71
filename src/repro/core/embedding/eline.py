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
online inference.  Fits run :class:`EdgeSamplingTrainer` (the fused kernel);
the frozen update is a function of its own that trains only the new rows,
as small slot tables, with the reference kernel's frozen-row step.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ...obs import runtime as obs
from ..graph import BipartiteGraph, NodeKind
from ..overlay import GraphOverlay
from .base import EmbeddingConfig, GraphEmbedder, GraphEmbedding
from .kernels import ReferenceKernel
from .sampler import DeltaNegativeSampler, NegativeSampler
from .trainer import (
    _SAMPLER_CACHE,
    EdgeSamplingTrainer,
    ObjectiveTerms,
    batch_schedule,
)

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
            self, graph: BipartiteGraph | GraphOverlay,
            embedding: GraphEmbedding, new_record_ids: list[str],
            samples_per_new_edge: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray, list[float]]:
        """The array-level core of :meth:`embed_new_nodes`: the frozen update.

        Returns ``(ego, context, losses)`` over the enlarged index space
        without assembling a :class:`GraphEmbedding`: the online engine
        looks up the new rows by index and never reads the index maps or
        the training-loss history.  ``graph`` may be the mutated base graph
        or a :class:`~repro.core.overlay.GraphOverlay` presenting the staged
        records over a frozen base; neither ``graph`` nor ``embedding`` is
        written.

        The trainable rows are the overlay's staged nodes (every index past
        the base capacity) or, on a mutated graph, the named records plus
        the MACs ``embedding`` lacks.  Their fresh rows are trained against
        the frozen rest with the reference kernel's frozen-row step; positive
        edges are the trainable nodes' incident edges, drawn by inverse CDF,
        and negatives come from the noise distribution of the whole
        (enlarged) graph.  Both routes train on the same positive edges and
        the same negative-sampling distribution; the overlay composes its
        negative sampler from the base graph's cached parts, so its draw
        sequence differs from the mutated graph's.  Rows of the enlarged
        space that are neither embedded nor trained (another record added
        to a mutated graph, a retired index) read as zeros.

        ``losses`` holds one entry per batch: the batch's summed loss over
        the pairs the step scores, divided by the batch size.  The step
        scores every target of a sample whose head is trainable, but only
        the positive and the trainable negatives of a sample whose head is
        frozen, so this is not the full objective of the batch; it serves
        as a training trace (``embed_new_nodes`` appends it to
        ``training_loss``), and nothing in serving reads it.
        """
        with obs.span("online.embed") as embed_span:
            embed_span.set("new_records", len(new_record_ids))
            for record_id in new_record_ids:
                if embedding.has_record(record_id):
                    raise ValueError(
                        f"record {record_id!r} is already embedded")
                if not graph.has_node(NodeKind.RECORD, record_id):
                    raise ValueError(
                        f"record {record_id!r} is not in the graph")
            per_edge = (samples_per_new_edge
                        if samples_per_new_edge is not None
                        else self.config.samples_per_edge)
            return _frozen_update(graph, embedding, new_record_ids,
                                  self.config, per_edge)


def _frozen_inputs(graph: BipartiteGraph | GraphOverlay,
                   embedding: GraphEmbedding, new_record_ids: list[str],
                   ) -> tuple[np.ndarray,
                              tuple[np.ndarray, np.ndarray, np.ndarray],
                              NegativeSampler | DeltaNegativeSampler]:
    """What the frozen update trains on.

    Returns the sorted trainable node indices, the ``(sources, targets,
    weights)`` arrays of their incident edges and the negative sampler.
    On an overlay the trainable rows are exactly the staged ones: the
    online engine has checked once that its embedding covers every base
    MAC, so no base row needs training, and the negatives patch the
    version-cached base sampler with the staged delta.  On a mutated graph
    they are the named records plus the MACs ``embedding`` lacks, and the
    negatives come from the graph's full, version-cached sampler.
    """
    if isinstance(graph, GraphOverlay):
        trainable = np.arange(graph.base_capacity, graph.index_capacity,
                              dtype=np.int64)
        negatives = _SAMPLER_CACHE.delta_negative_sampler(graph)
    else:
        indices = [graph.get_node(NodeKind.RECORD, record_id).index
                   for record_id in new_record_ids]
        indices += graph.unknown_mac_indices(embedding.mac_key_set())
        trainable = np.unique(np.asarray(indices, dtype=np.int64))
        negatives = _SAMPLER_CACHE.negative_sampler(graph)
    edges = graph.incident_edge_arrays(trainable)
    if edges[0].size == 0:
        raise ValueError("the frozen update selects no edges; the new nodes "
                         "are isolated")
    return trainable, edges, negatives


def _frozen_update(graph: BipartiteGraph | GraphOverlay,
                   embedding: GraphEmbedding, new_record_ids: list[str],
                   config: EmbeddingConfig, samples_per_edge: float,
                   ) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Train the new nodes' rows against the frozen embedding (Section V-A).

    Everything is drawn up front — the fresh rows, then every positive
    edge and its negatives — and the batches run through
    :meth:`ReferenceKernel.train_batch` on the trainable rows' slot tables,
    on the learning-rate schedule of a fit.  The enlarged tables are put
    together once, after the last batch.
    """
    with obs.span("embed.alias_build") as alias_span:
        trainable, (sources, targets, weights), negative_sampler = \
            _frozen_inputs(graph, embedding, new_record_ids)
        alias_span.set("edges", sources.size)
        alias_span.set("negatives", "delta" if isinstance(graph, GraphOverlay)
                       else "full")

    capacity = graph.index_capacity
    dim = config.dimension
    scale = config.init_scale / dim
    rng = np.random.default_rng(config.seed)
    # Only the trainable rows draw fresh random vectors; the kernel reads
    # every other row in place.  Drawing a full capacity-sized matrix
    # instead would tie the initialisation (and hence the prediction) to how
    # many retired indices the graph has accumulated, making repeated
    # online predictions of the same record drift apart.  The block draw
    # consumes doubles per row in the order ego row, then context row.
    fresh = rng.uniform(-scale, scale, size=(trainable.size, 2, dim))
    ego, context = fresh[:, 0], fresh[:, 1]
    frozen_rows = min(embedding.ego.shape[0], capacity)
    frozen_ego = embedding.ego[:frozen_rows]
    frozen_context = embedding.context[:frozen_rows]

    total = max(1, int(samples_per_edge * sources.size))
    with obs.span("embed.sampling") as sampling_span:
        sampling_span.set("samples", total)
        # Following LINE, each undirected edge is two directed edges of its
        # weight; one uniform per sample picks a directed edge by inverse
        # CDF over the handful of incident edges.  ``u * cdf[-1] <
        # cdf[-1]`` for every ``u < 1`` under round-to-nearest, so a
        # right-sided search never runs past the last edge.
        cdf = np.cumsum(np.concatenate((weights, weights)))
        picks = np.searchsorted(cdf, rng.random(total) * cdf[-1],
                                side="right")
        heads = np.concatenate((sources, targets))[picks]
        tails = np.concatenate((targets, sources))[picks]
        negatives = negative_sampler.sample(total, config.negative_samples,
                                            rng)

    kernel = ReferenceKernel(frozen_ego, frozen_context, trainable, capacity)
    losses: list[float] = []
    with obs.span("embed.kernel") as kernel_span:
        kernel_span.set("samples", total)
        for start, stop, lr in batch_schedule(config, total):
            loss = kernel.train_batch(
                ego, context, heads[start:stop], tails[start:stop],
                negatives[start:stop], learning_rate=lr, terms=_ELINE_TERMS,
                config=config, rng=rng)
            losses.append(loss / (stop - start))

    # The enlarged tables: frozen rows as they were, trained rows in their
    # slots and void rows (past the frozen ones, not trained) zero.
    ego_out = np.zeros((capacity, dim))
    context_out = np.zeros((capacity, dim))
    ego_out[:frozen_rows] = frozen_ego
    context_out[:frozen_rows] = frozen_context
    ego_out[trainable] = ego
    context_out[trainable] = context
    return ego_out, context_out, losses
