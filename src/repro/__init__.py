"""repro — a reproduction of GRAFICS (ICDCS 2022).

GRAFICS identifies the floor on which a crowdsourced RF (WiFi RSS) sample was
collected using a bipartite graph model, the E-LINE graph embedding and a
proximity-based hierarchical clustering that needs only a handful of
floor-labeled samples per floor.

Public entry points:

* :class:`repro.GRAFICS` / :class:`repro.GraficsConfig` — the end-to-end system.
* :class:`repro.FloorServingService` — the production serving stack (routing,
  caching, micro-batching, telemetry, hot swap), partitioned across
  ``num_shards`` shards (default 1); ``repro.ShardedServingService`` is the
  same class.
* :mod:`repro.core` — graph, embeddings, clustering, online inference.
* :mod:`repro.serving` — router, prediction cache, micro-batcher, telemetry.
* :mod:`repro.stream` — streaming ingestion, sliding-window graph
  maintenance, drift detection and continuous-learning retrains
  (:class:`repro.ContinuousLearningPipeline`).
* :mod:`repro.obs` — tracing, metrics, SLOs, health scorecards and the
  :class:`repro.ObsServer` HTTP endpoint.
* :mod:`repro.faults` — deterministic fault injection (failpoints, seeded
  fault plans) for chaos-testing the serving and learning loop.
* :mod:`repro.data` — synthetic crowdsourced datasets, loaders, splits, statistics.
* :mod:`repro.baselines` — Scalable-DNN, SAE, Autoencoder+Prox, MDS+Prox, matrix+Prox.
* :mod:`repro.evaluation` — micro/macro F metrics and the experiment harness.
* :mod:`repro.nn` — the NumPy neural-network substrate used by the baselines.
"""

from .core import (
    GRAFICS,
    MultiBuildingFloorService,
    BipartiteGraph,
    ELINEEmbedder,
    EmbeddingConfig,
    FingerprintDataset,
    FloorPrediction,
    GraficsConfig,
    GraphEmbedding,
    LINEEmbedder,
    OffsetWeight,
    PowerWeight,
    SignalRecord,
    UnknownEnvironmentError,
    build_graph,
    load_model,
    load_registry,
    save_model,
    save_registry,
)
from . import faults
from .obs import HealthMonitor, ObsServer, SLOMonitor
from .serving import (
    FloorServingService,
    ServingConfig,
    ServingResult,
    ShardedServingService,
)
from .stream import ContinuousLearningPipeline, StreamConfig, StreamResult

__version__ = "1.2.0"

__all__ = [
    "GRAFICS",
    "GraficsConfig",
    "SignalRecord",
    "FingerprintDataset",
    "BipartiteGraph",
    "build_graph",
    "EmbeddingConfig",
    "GraphEmbedding",
    "ELINEEmbedder",
    "LINEEmbedder",
    "OffsetWeight",
    "PowerWeight",
    "FloorPrediction",
    "UnknownEnvironmentError",
    "MultiBuildingFloorService",
    "FloorServingService",
    "ShardedServingService",
    "ServingConfig",
    "ServingResult",
    "ContinuousLearningPipeline",
    "StreamConfig",
    "StreamResult",
    "ObsServer",
    "HealthMonitor",
    "SLOMonitor",
    "faults",
    "save_model",
    "load_model",
    "save_registry",
    "load_registry",
    "__version__",
]
