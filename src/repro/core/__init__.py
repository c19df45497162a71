"""GRAFICS core: bipartite graph, E-LINE embeddings, clustering and inference."""

from .clustering import ClusterModel, ClusteringResult, ProximityClustering
from .embedding import ELINEEmbedder, EmbeddingConfig, GraphEmbedding, LINEEmbedder
from .graph import BipartiteGraph, Edge, Node, NodeKind, ServedGraph, build_graph
from .inference import FloorPrediction, OnlineInferenceEngine, UnknownEnvironmentError
from .overlay import GraphOverlay
from .persistence import (
    load_model,
    load_registry,
    load_stream_state,
    save_model,
    save_registry,
    save_stream_state,
)
from .pipeline import GRAFICS, GraficsConfig
from .registry import BuildingPrediction, MultiBuildingFloorService
from .types import FingerprintDataset, SignalRecord, records_to_matrix
from .weighting import (
    ClippedOffsetWeight,
    OffsetWeight,
    PowerWeight,
    WeightFunction,
    get_weight_function,
)

__all__ = [
    "GRAFICS",
    "GraficsConfig",
    "save_model",
    "load_model",
    "save_registry",
    "save_stream_state",
    "load_stream_state",
    "load_registry",
    "MultiBuildingFloorService",
    "BuildingPrediction",
    "BipartiteGraph",
    "build_graph",
    "ServedGraph",
    "GraphOverlay",
    "Node",
    "NodeKind",
    "Edge",
    "SignalRecord",
    "FingerprintDataset",
    "records_to_matrix",
    "EmbeddingConfig",
    "GraphEmbedding",
    "ELINEEmbedder",
    "LINEEmbedder",
    "ProximityClustering",
    "ClusteringResult",
    "ClusterModel",
    "OnlineInferenceEngine",
    "FloorPrediction",
    "UnknownEnvironmentError",
    "WeightFunction",
    "OffsetWeight",
    "PowerWeight",
    "ClippedOffsetWeight",
    "get_weight_function",
]
