"""Graph embedding algorithms for the GRAFICS bipartite graph."""

from .base import EmbeddingConfig, GraphEmbedder, GraphEmbedding
from .eline import ELINEEmbedder
from .kernels import FusedKernel, ReferenceKernel
from .line import LINEEmbedder
from .sampler import AliasTable, EdgeSampler, NegativeSampler, SamplerCache
from .trainer import EdgeSamplingTrainer, ObjectiveTerms, clear_sampler_cache

__all__ = [
    "EmbeddingConfig",
    "GraphEmbedder",
    "GraphEmbedding",
    "ELINEEmbedder",
    "LINEEmbedder",
    "AliasTable",
    "EdgeSampler",
    "NegativeSampler",
    "EdgeSamplingTrainer",
    "ObjectiveTerms",
    "ReferenceKernel",
    "FusedKernel",
    "SamplerCache",
    "clear_sampler_cache",
]
