"""Shared edge-sampling SGD engine for LINE and E-LINE.

Both algorithms minimise a negative-sampling objective over sampled edges
(paper Eq. 10).  The engine below is vectorised over mini-batches of edges and
supports three objective terms that the concrete embedders combine:

* ``first_order``   — pull the *ego* embeddings of edge endpoints together
  (LINE's first-order proximity; not useful on a bipartite graph, kept for the
  ablation discussed in Section IV-B / VI-C).
* ``second_order``  — for a directed edge ``i -> j``, pull ``u_i`` (ego of the
  source) towards ``u'_j`` (context of the target); this is LINE's
  second-order proximity.
* ``symmetric``     — E-LINE's additional term: also pull ``u'_i`` towards
  ``u_j`` (Eq. 8), which propagates similarity through multi-hop local
  neighbourhoods.

The engine trains fits: every node's rows, over edges sampled from the whole
graph, one :class:`~repro.core.embedding.kernels.FusedKernel` step per
mini-batch.  The frozen online update of new records (Section V-A) is a
separate function, ``ELINEEmbedder.embed_new_nodes_arrays``; it shares only
the learning-rate schedule (:func:`batch_schedule`) and the sampler cache
with this engine.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial

import numpy as np

from ...obs import runtime as obs
from ..graph import BipartiteGraph
from .base import EmbeddingConfig
from .kernels import FusedKernel, sigmoid
from .sampler import SamplerCache

__all__ = ["ObjectiveTerms", "EdgeSamplingTrainer", "batch_schedule",
           "sigmoid", "clear_sampler_cache"]

#: Process-wide sampler cache: rebuilding alias tables for an unchanged graph
#: (same ``BipartiteGraph.version``) returns the previously built samplers
#: instead of re-running the O(V+E) construction.  Entries are weakly keyed
#: on the graph, so they die with it.
_SAMPLER_CACHE = SamplerCache()


def clear_sampler_cache() -> None:
    """Drop all cached samplers (tests, and explicit memory reclamation)."""
    _SAMPLER_CACHE.clear()


def batch_schedule(config: EmbeddingConfig, total: int
                   ) -> Iterator[tuple[int, int, float]]:
    """``(start, stop, learning_rate)`` for each mini-batch of a run.

    ``total`` samples are split into ``config.batch_size`` batches (the
    last one may be short); the learning rate decays linearly with the
    progress made before the batch, floored at ``min_learning_rate``.
    Fits and the frozen online update share this schedule.
    """
    remaining = total
    while remaining > 0:
        batch = min(config.batch_size, remaining)
        progress = 1.0 - remaining / total
        start = total - remaining
        yield start, start + batch, max(config.min_learning_rate,
                                        config.learning_rate * (1.0 - progress))
        remaining -= batch


@dataclass(frozen=True)
class ObjectiveTerms:
    """Which objective terms the trainer optimises."""

    first_order: bool = False
    second_order: bool = True
    symmetric: bool = False

    def __post_init__(self) -> None:
        if not (self.first_order or self.second_order or self.symmetric):
            raise ValueError("at least one objective term must be enabled")


class EdgeSamplingTrainer:
    """Vectorised negative-sampling SGD over edges sampled from a whole graph.

    This is the fit; the frozen online update does not use it.
    """

    def __init__(self, graph: BipartiteGraph, config: EmbeddingConfig,
                 terms: ObjectiveTerms) -> None:
        """Create a trainer that samples positive edges from the whole graph.

        The alias samplers come from the process-wide version-keyed cache:
        a hit is byte-identical to a fresh construction, so repeated
        trainers over an unchanged graph skip the O(V+E) builds.
        """
        if graph.num_edges == 0:
            raise ValueError("cannot train embeddings on a graph with no edges")
        self.graph = graph
        self.config = config
        self.terms = terms
        with obs.span("embed.alias_build") as alias_span:
            self._edge_sampler = _SAMPLER_CACHE.edge_sampler(graph)
            self._negative_sampler = _SAMPLER_CACHE.negative_sampler(graph)
            alias_span.set("edges", self._edge_sampler.num_edges)
            alias_span.set("negatives", "full")
        self._rng = np.random.default_rng(config.seed)

    # ------------------------------------------------------------------ setup
    def initial_embeddings(self, warm_start=None) -> tuple[np.ndarray, np.ndarray]:
        """Uniformly initialised ego and context matrices sized to the graph.

        Parameters
        ----------
        warm_start:
            Optional :class:`GraphEmbedding` from a previous fit.  Nodes of
            the current graph whose ``(kind, key)`` also appears in the
            previous embedding start from their previous vectors instead of
            random initialisation; nodes new to the graph keep the random
            draw.  The full random matrices are drawn either way, so the RNG
            stream — and therefore everything sampled after initialisation —
            is identical with and without a warm start.
        """
        capacity = self.graph.index_capacity
        dim = self.config.dimension
        scale = self.config.init_scale / dim
        ego = self._rng.uniform(-scale, scale, size=(capacity, dim))
        context = self._rng.uniform(-scale, scale, size=(capacity, dim))
        if warm_start is not None:
            if warm_start.dimension != dim:
                raise ValueError(
                    f"warm-start embedding has dimension {warm_start.dimension}, "
                    f"expected {dim}")
            # Bulk row copy: resolve the shared (kind, key) pairs into index
            # arrays, then fancy-index both matrices once each.  Same rows
            # as the per-node loop this replaces; the RNG stream is untouched
            # because the full random draw above already happened.
            current_rows: list[int] = []
            previous_rows: list[int] = []
            for current_map, previous_map in (
                    (self.graph.record_index_map(), warm_start.record_index),
                    (self.graph.mac_index_map(), warm_start.mac_index)):
                shared = current_map.keys() & previous_map.keys()
                current_rows.extend(current_map[key] for key in shared)
                previous_rows.extend(previous_map[key] for key in shared)
            if current_rows:
                current_index = np.asarray(current_rows, dtype=np.int64)
                previous_index = np.asarray(previous_rows, dtype=np.int64)
                ego[current_index] = warm_start.ego[previous_index]
                context[current_index] = warm_start.context[previous_index]
        return ego, context

    def total_samples(self) -> int:
        """Total number of edge samples for a full training run."""
        return max(1, int(self.config.samples_per_edge
                          * self._edge_sampler.num_edges))

    # --------------------------------------------------------------- training
    def train(self, ego: np.ndarray, context: np.ndarray,
              total_samples: int | None = None) -> list[float]:
        """Run SGD in place on ``ego`` and ``context``; return per-batch losses.

        Every row may receive updates; each batch runs
        :class:`~repro.core.embedding.kernels.FusedKernel`.

        Parameters
        ----------
        ego, context:
            Embedding matrices of shape ``(index_capacity, dimension)``,
            modified in place.
        total_samples:
            Override for the number of edge samples (defaults to
            ``samples_per_edge * num_edges``).
        """
        config = self.config
        if ego.shape != context.shape:
            raise ValueError("ego and context must have the same shape")
        if ego.shape[0] < self.graph.index_capacity:
            raise ValueError("embedding matrices are smaller than the graph")
        step = partial(FusedKernel().train_batch, terms=self.terms,
                       config=config, rng=self._rng)

        total = total_samples if total_samples is not None else self.total_samples()
        losses: list[float] = []
        tracer = obs.active_tracer()
        if tracer is None:
            # Disabled-path loop: no clock reads, no extra allocation — the
            # byte-for-byte hot path benchmarks run against.
            for start, stop, lr in batch_schedule(config, total):
                heads, tails, negatives = self._sample_batch(stop - start)
                loss = step(ego, context, heads, tails, negatives,
                            learning_rate=lr)
                losses.append(loss / (stop - start))
            return losses

        # Traced loop: accumulate per-phase time in local floats on the
        # tracer's clock and report two aggregate spans at the end — one
        # tracer call per fit, not one per batch.  Sampling and the kernel
        # consume the RNG identically to the untraced loop, so losses (and
        # the resulting embedding) are bit-identical either way.
        clock = tracer.clock
        sampling_seconds = 0.0
        kernel_seconds = 0.0
        for start, stop, lr in batch_schedule(config, total):
            started = clock()
            heads, tails, negatives = self._sample_batch(stop - start)
            sampled = clock()
            loss = step(ego, context, heads, tails, negatives,
                        learning_rate=lr)
            sampling_seconds += sampled - started
            kernel_seconds += clock() - sampled
            losses.append(loss / (stop - start))
        tracer.add_span("embed.sampling", sampling_seconds,
                        {"samples": total})
        tracer.add_span("embed.kernel", kernel_seconds, {"samples": total})
        elapsed = sampling_seconds + kernel_seconds
        if elapsed > 0.0:
            obs.set_gauge("train_edge_samples_per_s", total / elapsed)
        return losses

    def _sample_batch(self, batch: int) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]:
        """Draw one batch of positive edges and their negative samples."""
        heads, tails = self._edge_sampler.sample(batch, self._rng)
        negatives = self._negative_sampler.sample(
            batch, self.config.negative_samples, self._rng)
        return heads, tails, negatives
