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

The engine also supports *frozen* training used during online inference
(Section V-A): only the rows listed in ``trainable`` receive gradient updates,
so a newly added record can be embedded in real time without perturbing the
previously learned embeddings.

The per-batch update itself is delegated to a kernel
(:mod:`repro.core.embedding.kernels`) chosen by the call: a full fit (no
``trainable`` mask) runs :class:`~repro.core.embedding.kernels.FusedKernel`,
the frozen update runs
:class:`~repro.core.embedding.kernels.ReferenceKernel`.  Sampling, the
learning-rate schedule and the RNG stream live here, shared by both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ...obs import runtime as obs
from ..graph import BipartiteGraph
from .base import EmbeddingConfig
from .kernels import FusedKernel, ReferenceKernel, sigmoid
from .sampler import EdgeSampler, NegativeSampler, SamplerCache

__all__ = ["ObjectiveTerms", "EdgeSamplingTrainer", "sigmoid",
           "clear_sampler_cache"]

#: Process-wide sampler cache: rebuilding alias tables for an unchanged graph
#: (same ``BipartiteGraph.version``) returns the previously built samplers
#: instead of re-running the O(V+E) construction.  Entries are weakly keyed
#: on the graph, so they die with it.
_SAMPLER_CACHE = SamplerCache()


def clear_sampler_cache() -> None:
    """Drop all cached samplers (tests, and explicit memory reclamation)."""
    _SAMPLER_CACHE.clear()


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
    """Vectorised negative-sampling SGD over sampled edges of a bipartite graph."""

    def __init__(self, graph: BipartiteGraph, config: EmbeddingConfig,
                 terms: ObjectiveTerms,
                 restrict_to_nodes: np.ndarray | None = None,
                 use_sampler_cache: bool = True,
                 edge_scratch=None) -> None:
        """Create a trainer over all edges or, optionally, a node-incident subset.

        Parameters
        ----------
        restrict_to_nodes:
            Optional array of node indices.  When given, only edges incident
            to at least one of these nodes are sampled as positive examples
            (used for the frozen-graph online embedding of new nodes, whose
            objective only contains terms for their own incident edges).
            Negative samples are still drawn from the full graph.
        use_sampler_cache:
            Reuse the full-graph alias samplers previously built for the
            same graph at the same :attr:`BipartiteGraph.version` (default).
            Samplers are immutable once built, so a cache hit is
            byte-identical to a fresh construction; disable only to
            benchmark or test the cold path.  Restricted edge samplers are
            always memoised by content, and overlays always compose their
            negative sampler from the base graph's cached parts.
        edge_scratch:
            Optional :class:`~repro.core.graph.EdgeArrayScratch` reused for
            the restricted incident-edge arrays across consecutive trainers
            (the per-predict path stages same-shaped deltas back to back).
            The caller owns the buffers' lifetime; they must not outlive the
            next fill or be shared across threads.
        """
        if graph.num_edges == 0:
            raise ValueError("cannot train embeddings on a graph with no edges")
        self.graph = graph
        self.config = config
        self.terms = terms
        # Overlay views are ephemeral (one per online prediction) and have
        # no mutation-versioned identity of their own; caching samplers
        # against them would only churn the cache.  Their negative sampler
        # is instead *composed* from the base graph's cached sampler plus
        # the staged delta — same distribution, no O(V) rebuild.
        overlay = getattr(graph, "is_overlay", False)
        if overlay:
            use_sampler_cache = False
        with obs.span("embed.alias_build") as alias_span:
            if restrict_to_nodes is None:
                if use_sampler_cache:
                    self._edge_sampler = _SAMPLER_CACHE.edge_sampler(graph)
                else:
                    self._edge_sampler = EdgeSampler(*graph.edge_arrays())
            else:
                # Built straight from the adjacency of the restricted nodes —
                # O(incident edges), not O(E) — in exactly the order a filtered
                # ``edge_arrays()`` would produce.
                sources, targets, weights = graph.incident_edge_arrays(
                    restrict_to_nodes, scratch=edge_scratch)
                if sources.size == 0:
                    raise ValueError("restrict_to_nodes selects no edges; "
                                     "the nodes are isolated")
                # A re-predicted record stages an identical delta, so the
                # restricted arrays — and the sampler over them — recur byte
                # for byte; memoise by content under the underlying graph.
                self._edge_sampler = _SAMPLER_CACHE.restricted_edge_sampler(
                    graph.base if overlay else graph, sources, targets,
                    weights)
            self._num_sampled_edges = self._edge_sampler.num_edges
            if overlay:
                self._negative_sampler = (
                    _SAMPLER_CACHE.delta_negative_sampler(graph))
            elif use_sampler_cache:
                self._negative_sampler = _SAMPLER_CACHE.negative_sampler(graph)
            else:
                self._negative_sampler = NegativeSampler(graph.degree_array())
            alias_span.set("edges", self._num_sampled_edges)
            alias_span.set("cached", use_sampler_cache)
            alias_span.set("negatives", "delta" if overlay else "full")
        self._rng = np.random.default_rng(config.seed)
        # On overlays the RNG stream is not contracted (only the sampled
        # distribution is), so the per-batch draws are served as row slices
        # of one pooled draw per run — the composed mixture's fixed numpy
        # costs (coins, rejection filter, scatter) are paid once instead of
        # once per batch.  Plain graphs keep strict per-batch draws, which
        # fixes every fit's RNG consumption.
        self._pooled_draws = overlay
        self._positive_pool: tuple[np.ndarray, np.ndarray] | None = None
        self._negative_pool: np.ndarray | None = None
        self._pool_used = 0

    @property
    def num_sampled_edges(self) -> int:
        """Number of edges the positive-example sampler draws from."""
        return self._num_sampled_edges

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
        return max(1, int(self.config.samples_per_edge * self._num_sampled_edges))

    # --------------------------------------------------------------- training
    def train(self, ego: np.ndarray, context: np.ndarray,
              trainable: np.ndarray | None = None,
              total_samples: int | None = None) -> list[float]:
        """Run SGD in place on ``ego`` and ``context``; return per-batch losses.

        Parameters
        ----------
        ego, context:
            Embedding matrices of shape ``(index_capacity, dimension)``,
            modified in place.
        trainable:
            Optional boolean mask over node indices.  When given, gradient
            updates are applied only to rows where the mask is ``True``
            (frozen-graph online inference, run by ``ReferenceKernel``).
            When ``None`` every row is trainable (a fit, run by
            ``FusedKernel``).
        total_samples:
            Override for the number of edge samples (defaults to
            ``samples_per_edge * num_edges``).
        """
        config = self.config
        if ego.shape != context.shape:
            raise ValueError("ego and context must have the same shape")
        if ego.shape[0] < self.graph.index_capacity:
            raise ValueError("embedding matrices are smaller than the graph")
        if trainable is None:
            step = partial(FusedKernel().train_batch, terms=self.terms,
                           config=config, rng=self._rng)
        else:
            trainable = np.asarray(trainable, dtype=bool)
            if trainable.shape[0] != ego.shape[0]:
                raise ValueError("trainable mask must match embedding rows")
            step = partial(ReferenceKernel().train_batch, terms=self.terms,
                           config=config, rng=self._rng, trainable=trainable)

        remaining = total_samples if total_samples is not None else self.total_samples()
        total = remaining
        losses: list[float] = []
        tracer = obs.active_tracer()
        if tracer is None:
            # Disabled-path loop: no clock reads, no extra allocation — the
            # byte-for-byte hot path benchmarks run against.
            while remaining > 0:
                batch = min(config.batch_size, remaining)
                progress = 1.0 - remaining / total
                lr = max(config.min_learning_rate,
                         config.learning_rate * (1.0 - progress))
                heads, tails, negatives = self._sample_batch(batch)
                loss = step(ego, context, heads, tails, negatives,
                            learning_rate=lr)
                losses.append(loss / batch)
                remaining -= batch
            return losses

        # Traced loop: accumulate per-phase time in local floats on the
        # tracer's clock and report two aggregate spans at the end — one
        # tracer call per fit, not one per batch.  Sampling and the kernel
        # consume the RNG identically to the untraced loop, so losses (and
        # the resulting embedding) are bit-identical either way.
        clock = tracer.clock
        sampling_seconds = 0.0
        kernel_seconds = 0.0
        while remaining > 0:
            batch = min(config.batch_size, remaining)
            progress = 1.0 - remaining / total
            lr = max(config.min_learning_rate,
                     config.learning_rate * (1.0 - progress))
            started = clock()
            heads, tails, negatives = self._sample_batch(batch)
            sampled = clock()
            loss = step(ego, context, heads, tails, negatives,
                        learning_rate=lr)
            sampling_seconds += sampled - started
            kernel_seconds += clock() - sampled
            losses.append(loss / batch)
            remaining -= batch
        tracer.add_span("embed.sampling", sampling_seconds,
                        {"samples": total})
        tracer.add_span("embed.kernel", kernel_seconds, {"samples": total})
        elapsed = sampling_seconds + kernel_seconds
        if elapsed > 0.0:
            obs.set_gauge("train_edge_samples_per_s", total / elapsed)
        return losses

    #: Upper bound on pooled-draw rows per refill (memory guard; online
    #: runs are ~1e3 examples, far below it).
    _POOL_ROW_CAP = 1 << 16

    def _sample_batch(self, batch: int) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]:
        """Draw one batch of positive edges and their negative samples.

        With pooled draws enabled (overlay graphs) the batch is a row
        slice of one bulk draw covering the whole run; the slices partition
        the pool, so examples are i.i.d. exactly as if drawn per batch.
        """
        if not self._pooled_draws:
            heads, tails = self._edge_sampler.sample(batch, self._rng)
            negatives = self._negative_sampler.sample(
                batch, self.config.negative_samples, self._rng)
            return heads, tails, negatives
        pool = self._negative_pool
        if pool is None or self._pool_used + batch > pool.shape[0]:
            rows = min(max(batch, self.total_samples()), self._POOL_ROW_CAP)
            self._positive_pool = self._edge_sampler.sample(rows, self._rng)
            self._negative_pool = pool = self._negative_sampler.sample(
                rows, self.config.negative_samples, self._rng)
            self._pool_used = 0
        start = self._pool_used
        self._pool_used = end = start + batch
        heads, tails = self._positive_pool
        return heads[start:end], tails[start:end], pool[start:end]
