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
initial fit (Section V-A): records staged on a
:class:`~repro.core.overlay.GraphOverlay` get ego and context vectors trained
while every fitted embedding stays frozen, which is cheap enough for
real-time online inference.  Fits run :class:`EdgeSamplingTrainer` (the
fused kernel); the frozen update is a function of its own that trains only
the staged rows, as small slot tables, with the reference kernel's
frozen-row step.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ...obs import runtime as obs
from ..graph import BipartiteGraph, NodeKind
from ..overlay import GraphOverlay
from .base import EmbeddingConfig, GraphEmbedder, GraphEmbedding
from .kernels import ReferenceKernel
from .sampler import DeltaNegativeSampler
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

    def embed_new_nodes(self, overlay: GraphOverlay, embedding: GraphEmbedding,
                        new_record_ids: Iterable[str]) -> GraphEmbedding:
        """Embed the records staged on ``overlay`` after ``embedding`` was fitted.

        The records named in ``new_record_ids`` (and any MAC nodes staged
        with them) get fresh embeddings trained against the frozen
        embeddings of all base nodes, as described in the paper's
        online-inference section.  Returns a new :class:`GraphEmbedding`
        over the base rows followed by the staged rows, whose index maps
        are ``embedding``'s plus the staged nodes; neither ``overlay`` nor
        ``embedding`` is modified.  The online engine does not assemble
        this; it reads the staged rows straight from
        :meth:`embed_new_nodes_arrays`.

        Parameters
        ----------
        overlay:
            A :class:`~repro.core.overlay.GraphOverlay` over the served
            graph of the model ``embedding`` belongs to, with the new
            records staged.
        embedding:
            The embedding learned before the new records arrived.
        new_record_ids:
            Ids of the records to embed; each must be staged on ``overlay``
            and must not be present in ``embedding``.
        """
        _check_overlay(overlay)
        new_ids = list(new_record_ids)
        if not new_ids:
            return embedding
        ego, context, losses = self.embed_new_nodes_arrays(overlay, embedding,
                                                           new_ids)
        record_index = dict(embedding.record_index)
        mac_index = dict(embedding.mac_index)
        for node in overlay.delta_nodes():
            maps = record_index if node.kind is NodeKind.RECORD else mac_index
            maps[node.key] = node.index
        return GraphEmbedding(
            ego=np.concatenate((embedding.ego, ego)),
            context=np.concatenate((embedding.context, context)),
            record_index=record_index, mac_index=mac_index,
            config=self.config,
            training_loss=list(embedding.training_loss) + losses)

    def embed_new_nodes_arrays(
            self, overlay: GraphOverlay, embedding: GraphEmbedding,
            new_record_ids: list[str],
    ) -> tuple[np.ndarray, np.ndarray, list[float]]:
        """The array-level core of :meth:`embed_new_nodes`: the frozen update.

        Returns ``(ego, context, losses)``, where ``ego`` and ``context``
        hold the ``(T, D)`` rows of the ``T`` nodes staged on ``overlay``,
        ordered by index: the node at overlay index ``i`` is row ``i -
        overlay.base_capacity``.  No :class:`GraphEmbedding` is assembled
        and neither ``overlay`` nor ``embedding`` is written.

        Every staged node is trained (a served model's embedding covers
        every base MAC, so no base row needs training) against the frozen
        rest with the reference kernel's frozen-row step; positive edges
        are the staged edges, drawn by inverse CDF, and negatives come from
        the noise distribution of the whole enlarged graph, composed from
        the served graph's base sampler and the staged delta.
        ``embedding`` must have exactly one row per base index.

        ``losses`` holds one entry per batch: the batch's summed loss over
        the pairs the step scores, divided by the batch size.  The step
        scores every target of a sample whose head is trainable, but only
        the positive and the trainable negatives of a sample whose head is
        frozen, so this is not the full objective of the batch; it serves
        as a training trace (``embed_new_nodes`` appends it to
        ``training_loss``), and nothing in serving reads it.
        """
        _check_overlay(overlay)
        with obs.span("online.embed") as embed_span:
            embed_span.set("new_records", len(new_record_ids))
            for record_id in new_record_ids:
                if embedding.has_record(record_id):
                    raise ValueError(
                        f"record {record_id!r} is already embedded")
                if not overlay.has_node(NodeKind.RECORD, record_id):
                    raise ValueError(
                        f"record {record_id!r} is not in the graph")
            return _frozen_update(overlay, embedding, self.config)


def _check_overlay(graph) -> None:
    if not isinstance(graph, GraphOverlay):
        raise TypeError("the frozen update stages new records on a "
                        f"GraphOverlay, not a {type(graph).__name__}")


def _frozen_inputs(overlay: GraphOverlay,
                   ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray],
                              DeltaNegativeSampler]:
    """What the frozen update trains on.

    Returns the ``(sources, targets, weights)`` arrays of the staged edges
    and the negative sampler, which patches the served graph's base
    sampler with the staged delta.
    """
    negatives = _SAMPLER_CACHE.delta_negative_sampler(overlay)
    edges = overlay.incident_edge_arrays()
    if edges[0].size == 0:
        raise ValueError("the frozen update selects no edges; nothing is "
                         "staged on the overlay")
    return edges, negatives


def _frozen_update(overlay: GraphOverlay, embedding: GraphEmbedding,
                   config: EmbeddingConfig,
                   ) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Train the staged nodes' rows against the frozen embedding (Section V-A).

    Everything is drawn up front — the fresh rows, then every positive
    edge and its negatives — and the batches run through
    :meth:`ReferenceKernel.train_batch` on the staged rows' slot tables,
    on the learning-rate schedule of a fit.
    """
    if embedding.ego.shape[0] != overlay.base_capacity:
        # The kernel tells frozen rows from trainable ones by this boundary.
        raise ValueError(
            f"embedding has {embedding.ego.shape[0]} rows; the overlay's base "
            f"graph has {overlay.base_capacity} indices")
    with obs.span("embed.alias_build") as alias_span:
        (sources, targets, weights), negative_sampler = \
            _frozen_inputs(overlay)
        alias_span.set("edges", sources.size)
        alias_span.set("negatives", "delta")

    dim = config.dimension
    scale = config.init_scale / dim
    rng = np.random.default_rng(config.seed)
    # Only the staged rows draw fresh random vectors; the kernel reads
    # every frozen row in place.  The block draw consumes doubles per row
    # in the order ego row, then context row.
    slots = overlay.index_capacity - overlay.base_capacity
    fresh = rng.uniform(-scale, scale, size=(slots, 2, dim))
    ego, context = fresh[:, 0], fresh[:, 1]

    total = max(1, int(config.samples_per_edge * sources.size))
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

    kernel = ReferenceKernel(embedding.ego, embedding.context)
    losses: list[float] = []
    with obs.span("embed.kernel") as kernel_span:
        kernel_span.set("samples", total)
        for start, stop, lr in batch_schedule(config, total):
            loss = kernel.train_batch(
                ego, context, heads[start:stop], tails[start:stop],
                negatives[start:stop], learning_rate=lr, terms=_ELINE_TERMS,
                config=config, rng=rng)
            losses.append(loss / (stop - start))
    return ego, context, losses
