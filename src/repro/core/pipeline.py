"""End-to-end GRAFICS pipeline: offline training and online inference.

:class:`GRAFICS` ties together the four stages of the paper:

1. bipartite graph construction from the crowdsourced records
   (:mod:`repro.core.graph`),
2. E-LINE (or, for ablations, LINE) graph embedding
   (:mod:`repro.core.embedding`),
3. proximity-based hierarchical clustering with the few floor-labeled samples
   (:mod:`repro.core.clustering`),
4. online inference for new samples (:mod:`repro.core.inference`).

Typical usage::

    from repro import GRAFICS, GraficsConfig

    model = GRAFICS(GraficsConfig(embedding_dimension=8))
    model.fit(training_records, labels={"r17": 2, "r903": 0, ...})
    floor = model.predict(new_record).floor
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from ..obs import runtime as obs
from .clustering.hierarchical import ClusteringResult, ProximityClustering
from .clustering.model import ClusterModel
from .embedding.base import EmbeddingConfig, GraphEmbedding
from .embedding.eline import ELINEEmbedder
from .embedding.line import LINEEmbedder
from .graph import BipartiteGraph, build_graph
from .inference import FloorPrediction, OnlineInferenceEngine
from .types import FingerprintDataset, SignalRecord
from .weighting import OffsetWeight, WeightFunction

__all__ = ["GraficsConfig", "GRAFICS"]


@dataclass(frozen=True)
class GraficsConfig:
    """Configuration of the whole GRAFICS pipeline.

    Attributes
    ----------
    embedding_dimension:
        Length of the ego/context embedding vectors (paper default: 8).
    embedder:
        ``"eline"`` for the paper's algorithm, ``"line"``, ``"line-first"`` or
        ``"line-combined"`` for the LINE ablations of Fig. 13 / Section VI-C.
    weight_function:
        Edge weight function (paper default: ``f(RSS) = RSS + 120``).
    embedding:
        Full embedding hyperparameters.  ``embedding_dimension`` overrides
        the dimension stored here so the common case needs a single knob.
    allow_unreachable_clusters:
        Forwarded to :class:`ProximityClustering`.
    """

    embedding_dimension: int = 8
    embedder: str = "eline"
    weight_function: WeightFunction = field(default_factory=OffsetWeight)
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    allow_unreachable_clusters: bool = False

    @property
    def sampler_mode(self) -> str:
        """Always ``"delta"``: the online cold path has one negative sampler.

        Kept read-only for callers written when the sampler was selectable.
        """
        return "delta"

    def resolved_embedding_config(self) -> EmbeddingConfig:
        """The embedding config with ``embedding_dimension`` applied."""
        config = self.embedding
        if config.dimension != self.embedding_dimension:
            config = replace(config, dimension=self.embedding_dimension)
        return config

    def make_embedder(self):
        """Instantiate the configured graph embedder."""
        config = self.resolved_embedding_config()
        if self.embedder == "eline":
            return ELINEEmbedder(config)
        if self.embedder == "line":
            return LINEEmbedder(config, order="second")
        if self.embedder == "line-first":
            return LINEEmbedder(config, order="first")
        if self.embedder == "line-combined":
            return LINEEmbedder(config, order="combined")
        raise ValueError(f"unknown embedder {self.embedder!r}; expected one of "
                         "'eline', 'line', 'line-first', 'line-combined'")


def _check_sampler_mode(sampler_mode: str) -> None:
    """Reject every retired negative-sampler mode (only ``"delta"`` remains)."""
    if sampler_mode != "delta":
        raise ValueError(
            f"sampler_mode {sampler_mode!r} is not available: the exact "
            "negative sampler was retired; 'delta' is the only sampler")


class GRAFICS:
    """Graph embedding-based floor identification (the paper's full system)."""

    def __init__(self, config: GraficsConfig | None = None) -> None:
        self.config = config or GraficsConfig()
        self.graph: BipartiteGraph | None = None
        self.embedding: GraphEmbedding | None = None
        self.clustering: ClusteringResult | None = None
        self.cluster_model: ClusterModel | None = None
        self._engine: OnlineInferenceEngine | None = None
        self._embedder = None

    # ---------------------------------------------------------------- training
    def fit(self, records: FingerprintDataset | Sequence[SignalRecord],
            labels: Mapping[str, int] | None = None,
            warm_start: GraphEmbedding | None = None,
            sampler_mode: str | None = None) -> "GRAFICS":
        """Run the offline training phase.

        Parameters
        ----------
        records:
            All crowdsourced training records (labeled and unlabeled).  Floor
            attributes on the records themselves are ignored for training —
            only ``labels`` determines which records act as labeled samples —
            so that evaluation code can keep ground truth on the records
            without leaking it.
        labels:
            Mapping record id -> floor for the few labeled samples.  When
            ``None``, the labels are taken from records whose ``floor``
            attribute is set (useful for fully labeled toy examples).
        warm_start:
            Optional embedding of a previously trained model.  Records and
            MACs shared with the previous graph start training from their
            old vectors — the continuous-learning retrain path, where most
            of the sliding window survives from one model generation to the
            next.  Clustering and inference are unaffected beyond the
            embedding initialisation.
        sampler_mode:
            ``None`` or ``"delta"``, the only online negative sampler;
            accepted for callers written when the sampler was selectable.
            Any other value raises :class:`ValueError`.
        """
        if sampler_mode is not None:
            _check_sampler_mode(sampler_mode)
        record_list = list(records.records if isinstance(records, FingerprintDataset)
                           else records)
        if not record_list:
            raise ValueError("cannot fit GRAFICS on an empty record collection")
        if labels is None:
            labels = {r.record_id: r.floor for r in record_list if r.floor is not None}
        labels = {str(k): int(v) for k, v in labels.items()}
        if not labels:
            raise ValueError("GRAFICS requires at least one floor-labeled record")
        known_ids = {r.record_id for r in record_list}
        missing = set(labels) - known_ids
        if missing:
            raise ValueError(
                f"labels reference records that are not in the training set: "
                f"{sorted(missing)[:5]}")

        with obs.span("fit") as fit_span:
            fit_span.set("records", len(record_list))
            fit_span.set("labels", len(labels))
            with obs.span("fit.graph"):
                self.graph = build_graph(
                    record_list, weight_function=self.config.weight_function)
            self._embedder = self.config.make_embedder()
            with obs.span("fit.embedding") as embed_span:
                embed_span.set("warm_start", warm_start is not None)
                self.embedding = self._embedder.fit(self.graph,
                                                    warm_start=warm_start)

            record_ids = [r.record_id for r in record_list]
            vectors = self.embedding.record_matrix(record_ids)
            with obs.span("fit.clustering"):
                clustering = ProximityClustering(
                    allow_unreachable=self.config.allow_unreachable_clusters)
                self.clustering = clustering.fit(record_ids, vectors, labels)
                self.cluster_model = ClusterModel.from_clustering(
                    self.clustering, self.embedding)
        self._engine = None
        return self

    # ------------------------------------------------------------------ pickling
    def __getstate__(self) -> dict:
        """Pickle support: ship a fitted model as a read-only snapshot.

        The lazily-built online engine holds per-thread scratch buffers
        (process-local by design) and is fully reconstructible from the
        graph + embedding + cluster model, so it is dropped rather than
        serialized; the restored model rebuilds it on first use and —
        because online inference is deterministic — predicts byte-identically
        to the source model.  This is what lets compute-pool workers hold
        pickled model snapshots keyed by ``(building, generation)``.
        """
        state = self.__dict__.copy()
        state["_engine"] = None
        return state

    @property
    def is_fitted(self) -> bool:
        return self.cluster_model is not None

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("GRAFICS model is not fitted; call fit() first")

    # --------------------------------------------------------------- inference
    @property
    def engine(self) -> OnlineInferenceEngine:
        """The lazily created online-inference engine."""
        self._require_fitted()
        if self._engine is None:
            self._engine = OnlineInferenceEngine(
                self.graph, self.embedding, self.cluster_model,
                embedder=ELINEEmbedder(self.embedding.config))
        return self._engine

    def with_sampler_mode(self, sampler_mode: str) -> "GRAFICS":
        """A clone of this fitted model; ``sampler_mode`` must be ``"delta"``.

        Kept for callers written when the cold-path sampler was selectable.
        The clone shares the graph, embedding and cluster model (no refit)
        and has its own online-inference engine, so it predicts exactly
        like this model.  Any other mode raises :class:`ValueError`.
        """
        self._require_fitted()
        _check_sampler_mode(sampler_mode)
        clone = GRAFICS(self.config)
        clone.graph = self.graph
        clone.embedding = self.embedding
        clone.clustering = self.clustering
        clone.cluster_model = self.cluster_model
        return clone

    def predict(self, record: SignalRecord) -> FloorPrediction:
        """Predict the floor of one new RF sample (online inference).

        The fitted model is never written, so a twin pickled after any
        number of predictions serves the same bytes.
        """
        return self.engine.predict(record)

    def predict_batch(self, records: Sequence[SignalRecord],
                      independent: bool = False) -> list[FloorPrediction]:
        """Predict the floors of several new RF samples in one embedding pass.

        ``independent=True`` embeds each record on its own (deterministic
        regardless of batch composition) instead of jointly; see
        :meth:`OnlineInferenceEngine.predict_batch`.
        """
        return self.engine.predict_batch(records, independent=independent)

    def predict_floors(self, records: Sequence[SignalRecord]) -> np.ndarray:
        """Convenience wrapper returning only the predicted floor numbers."""
        predictions = self.predict_batch(records)
        return np.array([p.floor for p in predictions], dtype=np.int64)

    # ----------------------------------------------------------- introspection
    @property
    def known_macs(self) -> frozenset[str]:
        """The MAC vocabulary of the training graph (building attribution key)."""
        self._require_fitted()
        return self.graph.mac_vocabulary()

    def training_floor_assignments(self) -> dict[str, int]:
        """Virtual floor labels assigned to every training record by clustering."""
        self._require_fitted()
        return {rid: self.clustering.cluster_labels[cid]
                for rid, cid in self.clustering.assignments.items()}

    def record_embedding(self, record_id: str) -> np.ndarray:
        """Ego embedding of a training record."""
        self._require_fitted()
        return self.embedding.record_vector(record_id)

    def training_summary(self) -> dict[str, object]:
        """A small dictionary of model statistics (for logging and examples)."""
        self._require_fitted()
        return {
            "num_records": self.graph.num_records,
            "num_macs": self.graph.num_macs,
            "num_edges": self.graph.num_edges,
            "num_clusters": self.cluster_model.num_clusters,
            "floors": self.cluster_model.floors,
            "embedding_dimension": self.embedding.dimension,
            "embedder": self.config.embedder,
        }


def predict_transductively(model: GRAFICS,
                           test_records: Iterable[SignalRecord]) -> dict[str, int]:
    """Predict floors for many held-out records in one incremental batch.

    Helper used by the experiment harness: equivalent to
    ``model.predict_batch`` but returns a plain ``{record_id: floor}`` map.
    """
    predictions = model.predict_batch(list(test_records))
    return {p.record_id: p.floor for p in predictions}
