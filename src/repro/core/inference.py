"""Online inference for GRAFICS (paper Section V).

Given a trained graph, embedding and cluster model, the
:class:`OnlineInferenceEngine` handles newly arriving RF samples:

1. the sample is staged as a new record node on a
   :class:`~repro.core.overlay.GraphOverlay` over the model's immutable
   :class:`~repro.core.graph.ServedGraph` (new MAC nodes are staged on
   demand);
2. its ego/context embeddings are trained against the overlay while every
   previously learned embedding stays frozen
   (:meth:`ELINEEmbedder.embed_new_nodes_arrays`, which trains exactly the
   staged rows, as small slot tables, and reads every frozen row in place);
3. its floor is predicted as the label of the cluster whose centroid is
   nearest in the ego embedding space.

Inference is therefore *mutation-free*: a served model is immutable.  A
prediction writes neither the graph nor the embedding, so concurrent
predictions against one model need no mutual exclusion, and a pickled
twin serves the same bytes (test-enforced).  The overlay is the only
online route: the frozen update trains on the staged edges and a negative
sampler composed from the served graph's base table, whose inputs equal a
full rebuild over the enlarged graph bit for bit (test-enforced against
the historical mutate-the-graph route, which the test suite keeps as an
oracle) while its draw sequence differs.  Training only the staged rows
is exact because the served graph's index maps are the embedding's own:
every base node has an embedding row.

A sample whose MAC addresses are *all* unseen carries no information that
connects it to the building; the paper discards such samples as likely
collected outside the building, and this engine raises
:class:`UnknownEnvironmentError` for them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..obs import runtime as obs
from .clustering.model import ClusterModel
from .embedding.base import GraphEmbedding
from .embedding.eline import ELINEEmbedder
from .graph import NodeKind, ServedGraph
from .overlay import GraphOverlay
from .types import SignalRecord

__all__ = ["UnknownEnvironmentError", "FloorPrediction", "OnlineInferenceEngine"]


class UnknownEnvironmentError(ValueError):
    """Raised when an online sample shares no MAC with the training graph."""


@dataclass(frozen=True)
class FloorPrediction:
    """The outcome of one online inference."""

    record_id: str
    floor: int
    distance: float
    embedding: np.ndarray


class OnlineInferenceEngine:
    """Embeds and classifies new RF samples against a trained GRAFICS model.

    Parameters
    ----------
    graph:
        The model's served graph (the training graph frozen without its
        edges); predictions are staged on an overlay over it.
    embedding:
        The embedding trained offline, with one row per index of
        ``graph``; never mutated.
    cluster_model:
        The nearest-centroid floor classifier from the offline clustering.
    embedder:
        The embedder used for the incremental (frozen) embedding step.
    """

    def __init__(self, graph: ServedGraph, embedding: GraphEmbedding,
                 cluster_model: ClusterModel,
                 embedder: ELINEEmbedder | None = None) -> None:
        self.graph = graph
        self.embedding = embedding
        self.cluster_model = cluster_model
        self.embedder = embedder or ELINEEmbedder(embedding.config)

    # -------------------------------------------------------------- inference
    def predict(self, record: SignalRecord) -> FloorPrediction:
        """Predict the floor of one new RF sample.

        ``record`` is the online measurement; its id must not collide with
        a record already in the graph.  The model is left unchanged.
        """
        return self._predict_group([record])[0]

    def predict_batch(self, records: Sequence[SignalRecord],
                      independent: bool = False) -> list[FloorPrediction]:
        """Predict the floors of a batch of new RF samples.

        Parameters
        ----------
        records:
            The online measurements.
        independent:
            When ``False`` (default) the whole batch is embedded jointly in
            one SGD run over the union of the new nodes' edges — the
            transductive fast path used by the experiment harness, where
            batch members reinforce each other through shared MACs.  When
            ``True`` every record is embedded on its own against the frozen
            model, exactly as :meth:`predict` would: the result for a record
            does not depend on which other records happen to share its
            batch, and ``predict_batch(rs, independent=True)`` is identical
            to ``[predict(r) for r in rs]``.  The serving layer uses this
            mode so that micro-batching and caching never change what a
            request would have received on its own.
        """
        records = list(records)
        if not records:
            return []
        if independent:
            return [self._predict_group([record])[0] for record in records]
        return self._predict_group(records)

    def _predict_group(self, records: Sequence[SignalRecord]
                       ) -> list[FloorPrediction]:
        """Embed ``records`` jointly against the frozen model and classify them.

        The records are staged on a :class:`GraphOverlay`; the frozen update
        returns only the staged rows, read by overlay index past the base
        capacity, so no :class:`GraphEmbedding` is assembled and neither the
        graph nor ``self.embedding`` is written.
        """
        with obs.span("online.predict") as predict_span:
            predict_span.set("records", len(records))
            with obs.span("online.stage"):
                known_macs = self.graph.mac_vocabulary()
                for record in records:
                    if self.graph.has_node(NodeKind.RECORD, record.record_id):
                        raise ValueError(f"record {record.record_id!r} is "
                                         "already part of the model")
                    if known_macs.isdisjoint(record.rss):
                        raise UnknownEnvironmentError(
                            f"record {record.record_id!r} contains only MAC "
                            "addresses never observed in the building; it was "
                            "likely collected outside the building")

                overlay = GraphOverlay(self.graph)
                rows = [overlay.add_record(record).index
                        - overlay.base_capacity for record in records]

            ego, _, _ = self.embedder.embed_new_nodes_arrays(
                overlay, self.embedding,
                [record.record_id for record in records])

            with obs.span("online.classify"):
                predictions = []
                for record, row in zip(records, rows):
                    vector = ego[row]
                    floor, distance = \
                        self.cluster_model.predict_with_distance(vector)
                    predictions.append(FloorPrediction(
                        record_id=record.record_id, floor=floor,
                        distance=distance, embedding=vector.copy()))
            return predictions
