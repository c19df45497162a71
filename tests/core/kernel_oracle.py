"""The historical full-table training steps, kept as test oracles.

Until the fused kernel became the only fit kernel, fits ran this math: one
skip-gram step per objective term (second-order, symmetric, first-order,
applied one after another), each gathering its own rows and scattering its
gradients through ``np.add.at``.  The fused kernel is pinned to it within
tolerance per batch and at equal floor accuracy over whole test splits.

:func:`oracle_fits` points the trainer's fit dispatch at this oracle for the
duration of a ``with`` block, so whole ``GRAFICS`` fits can run on it.

The frozen online update ran the same step over capacity-sized copies of
the tables under a mask of the trainable rows, scoring every target of
every batch row.  :class:`MaskedOnlineOracle` keeps that step behind
``ReferenceKernel``'s interface, and :func:`oracle_online` points the
frozen update at it, so the frozen-row step can be pinned to it row by row.

Online inference once mutated the shared graph: add the records, embed
them against the frozen model, remove them again.  :func:`legacy_frozen_update`
and :func:`legacy_embed_new_nodes` re-enact that route end to end on a
mutated :class:`~repro.core.graph.BipartiteGraph`, for the tests that pin
the overlay's sampler inputs and floor accuracy to it:

* trainable rows: the named records plus the MACs the embedding lacks;
* positives: a mask filter over ``graph.edge_arrays()``;
* negatives: the graph's full (version-cached) ``NegativeSampler``;
* the step: :class:`MaskedOnlineOracle` over capacity-sized tables, on
  which a row that is neither frozen nor trainable (another record added
  to the graph, a retired index) reads as zeros and never moves.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.embedding import eline as eline_module
from repro.core.embedding import trainer as trainer_module
from repro.core.embedding.base import GraphEmbedder, GraphEmbedding
from repro.core.embedding.kernels import sigmoid
from repro.core.embedding.trainer import _SAMPLER_CACHE, batch_schedule
from repro.core.graph import NodeKind

_LOG_FLOOR = 1e-12


class ReferenceFitOracle:
    """Per-term full-table skip-gram steps, the pre-fused fit update."""

    def train_batch(self, ego, context, heads, tails, negatives, *,
                    learning_rate, terms, config, rng):
        loss = 0.0
        if terms.second_order:
            loss += _skipgram_step(ego, context, heads, tails, negatives,
                                   learning_rate, config, rng)
        if terms.symmetric:
            loss += _skipgram_step(context, ego, heads, tails, negatives,
                                   learning_rate, config, rng)
        if terms.first_order:
            loss += _skipgram_step(ego, ego, heads, tails, negatives,
                                   learning_rate, config, rng)
        return loss


def _skipgram_step(source_table, target_table, heads, tails, negatives, lr,
                   config, rng) -> float:
    """Pull source[heads] towards target[tails], away from target[negatives]."""
    source = source_table[heads]                      # (B, D)
    positive_target = target_table[tails]             # (B, D)
    negative_target = target_table[negatives]         # (B, K, D)

    if config.dropout > 0.0:
        keep = 1.0 - config.dropout
        mask = (rng.random(source.shape) < keep) / keep
        source = source * mask

    pos_sig = sigmoid(np.einsum("bd,bd->b", source, positive_target))
    neg_sig = sigmoid(np.einsum("bd,bkd->bk", source, negative_target))
    pos_coeff = pos_sig - 1.0                          # (B,)
    neg_coeff = neg_sig                                # (B, K)

    grad_source = (pos_coeff[:, None] * positive_target
                   + np.einsum("bk,bkd->bd", neg_coeff, negative_target))
    grad_positive = pos_coeff[:, None] * source
    grad_negative = neg_coeff[:, :, None] * source[:, None, :]

    np.add.at(source_table, heads, -lr * grad_source)
    np.add.at(target_table, tails, -lr * grad_positive)
    np.add.at(target_table, negatives.ravel(),
              -lr * grad_negative.reshape(-1, grad_negative.shape[-1]))

    with np.errstate(divide="ignore"):
        pos_loss = -np.log(np.maximum(pos_sig, _LOG_FLOOR)).sum()
        neg_loss = -np.log(np.maximum(1.0 - neg_sig, _LOG_FLOOR)).sum()
    return float(pos_loss + neg_loss)


@contextmanager
def oracle_fits():
    """Run every fit started inside the block on :class:`ReferenceFitOracle`.

    The frozen online update is unaffected: it keeps dispatching to
    ``ReferenceKernel``.
    """
    original = trainer_module.FusedKernel
    trainer_module.FusedKernel = ReferenceFitOracle
    try:
        yield
    finally:
        trainer_module.FusedKernel = original


class MaskedOnlineOracle:
    """The pre-frozen-row online step: masked skip-gram on full tables.

    Same constructor and ``train_batch`` as ``ReferenceKernel``: the
    trainable rows are the ones past the frozen tables, as many as the
    first batch's slot tables hold.  The legacy route instead names its
    ``trainable`` rows in an index space of ``capacity`` rows, which may
    hold rows that are neither (void).  It keeps capacity-sized copies of
    the tables (frozen rows copied, void rows zero), copies the caller's
    slot tables into them before each batch and back after it.
    """

    def __init__(self, frozen_ego, frozen_context, trainable=None,
                 capacity=None):
        self.frozen = frozen_ego, frozen_context
        self.rows = None
        if trainable is not None:
            self._allocate(trainable, capacity)

    def _allocate(self, trainable, capacity):
        frozen_ego, frozen_context = self.frozen
        dim = frozen_ego.shape[1]
        self.ego = np.zeros((capacity, dim))
        self.context = np.zeros((capacity, dim))
        self.ego[:frozen_ego.shape[0]] = frozen_ego
        self.context[:frozen_context.shape[0]] = frozen_context
        self.rows = trainable
        self.mask = np.zeros(capacity, dtype=bool)
        self.mask[trainable] = True

    def train_batch(self, ego, context, heads, tails, negatives, *,
                    learning_rate, terms, config, rng):
        if self.rows is None:
            frozen = self.frozen[0].shape[0]
            capacity = frozen + ego.shape[0]
            self._allocate(np.arange(frozen, capacity), capacity)
        self.ego[self.rows] = ego
        self.context[self.rows] = context
        loss = 0.0
        for source, target, enabled in (
                (self.ego, self.context, terms.second_order),
                (self.context, self.ego, terms.symmetric),
                (self.ego, self.ego, terms.first_order)):
            if enabled:
                loss += _masked_skipgram_step(source, target, heads, tails,
                                              negatives, learning_rate,
                                              self.mask, config, rng)
        ego[:] = self.ego[self.rows]
        context[:] = self.context[self.rows]
        return loss


def _masked_skipgram_step(source_table, target_table, heads, tails,
                          negatives, lr, trainable, config, rng) -> float:
    """The full-batch step, scattering only onto ``trainable`` rows."""
    source = source_table[heads]                      # (B, D)
    positive_target = target_table[tails]             # (B, D)
    negative_target = target_table[negatives]         # (B, K, D)

    if config.dropout > 0.0:
        keep = 1.0 - config.dropout
        mask = (rng.random(source.shape) < keep) / keep
        source = source * mask

    pos_sig = sigmoid(np.einsum("bd,bd->b", source, positive_target))
    neg_sig = sigmoid(np.einsum("bd,bkd->bk", source, negative_target))
    pos_coeff = pos_sig - 1.0                          # (B,)
    neg_coeff = neg_sig                                # (B, K)

    head_rows = np.flatnonzero(trainable[heads])
    if head_rows.size:
        grad_source = (
            pos_coeff[head_rows][:, None] * positive_target[head_rows]
            + np.einsum("bk,bkd->bd", neg_coeff[head_rows],
                        negative_target[head_rows]))
        np.add.at(source_table, heads[head_rows], -lr * grad_source)
    tail_rows = np.flatnonzero(trainable[tails])
    if tail_rows.size:
        grad_positive = pos_coeff[tail_rows][:, None] * source[tail_rows]
        np.add.at(target_table, tails[tail_rows], -lr * grad_positive)
    negative_mask = trainable[negatives]
    if negative_mask.any():
        rows, cols = np.nonzero(negative_mask)         # row-major order
        grad_negative = neg_coeff[rows, cols][:, None] * source[rows]
        np.add.at(target_table, negatives[rows, cols], -lr * grad_negative)

    with np.errstate(divide="ignore"):
        pos_loss = -np.log(np.maximum(pos_sig, _LOG_FLOOR)).sum()
        neg_loss = -np.log(np.maximum(1.0 - neg_sig, _LOG_FLOOR)).sum()
    return float(pos_loss + neg_loss)


@contextmanager
def oracle_online():
    """Run every frozen update started inside the block on
    :class:`MaskedOnlineOracle`."""
    original = eline_module.ReferenceKernel
    eline_module.ReferenceKernel = MaskedOnlineOracle
    try:
        yield
    finally:
        eline_module.ReferenceKernel = original


def legacy_frozen_inputs(graph, embedding, new_record_ids):
    """What the legacy route trained on: the sorted trainable indices, the
    ``(sources, targets, weights)`` of their incident edges and the graph's
    full negative sampler."""
    indices = [graph.get_node(NodeKind.RECORD, record_id).index
               for record_id in new_record_ids]
    mac_index = graph.mac_index_map()
    indices += [mac_index[mac]
                for mac in mac_index.keys() - embedding.mac_index.keys()]
    trainable = np.unique(np.asarray(indices, dtype=np.int64))
    negatives = _SAMPLER_CACHE.negative_sampler(graph)
    sources, targets, weights = graph.edge_arrays()
    wanted = np.zeros(graph.index_capacity, dtype=bool)
    wanted[trainable] = True
    keep = wanted[sources] | wanted[targets]
    return trainable, (sources[keep], targets[keep], weights[keep]), negatives


def legacy_frozen_update(graph, embedding, new_record_ids, config):
    """The legacy frozen update on a mutated graph.

    Returns ``(ego, context, losses)`` over the graph's whole index space:
    frozen rows as they were, trained rows in place, void rows zero.  Draws
    like the overlay route (fresh rows, then inverse-CDF positives, then
    negatives), from its own inputs.
    """
    trainable, (sources, targets, weights), negative_sampler = \
        legacy_frozen_inputs(graph, embedding, new_record_ids)
    capacity = graph.index_capacity
    dim = config.dimension
    scale = config.init_scale / dim
    rng = np.random.default_rng(config.seed)
    fresh = rng.uniform(-scale, scale, size=(trainable.size, 2, dim))
    ego, context = fresh[:, 0], fresh[:, 1]
    frozen_rows = min(embedding.ego.shape[0], capacity)
    frozen_ego = embedding.ego[:frozen_rows]
    frozen_context = embedding.context[:frozen_rows]

    total = max(1, int(config.samples_per_edge * sources.size))
    cdf = np.cumsum(np.concatenate((weights, weights)))
    picks = np.searchsorted(cdf, rng.random(total) * cdf[-1], side="right")
    heads = np.concatenate((sources, targets))[picks]
    tails = np.concatenate((targets, sources))[picks]
    negatives = negative_sampler.sample(total, config.negative_samples, rng)

    kernel = MaskedOnlineOracle(frozen_ego, frozen_context, trainable,
                                capacity)
    losses = []
    for start, stop, lr in batch_schedule(config, total):
        loss = kernel.train_batch(
            ego, context, heads[start:stop], tails[start:stop],
            negatives[start:stop], learning_rate=lr,
            terms=eline_module._ELINE_TERMS, config=config, rng=rng)
        losses.append(loss / (stop - start))

    ego_out = np.zeros((capacity, dim))
    context_out = np.zeros((capacity, dim))
    ego_out[:frozen_rows] = frozen_ego
    context_out[:frozen_rows] = frozen_context
    ego_out[trainable] = ego
    context_out[trainable] = context
    return ego_out, context_out, losses


def legacy_embed_new_nodes(graph, embedding, new_record_ids, config):
    """The legacy route's enlarged :class:`GraphEmbedding` over ``graph``,
    which the records were added to."""
    ego, context, losses = legacy_frozen_update(graph, embedding,
                                                list(new_record_ids), config)
    record_index, mac_index = GraphEmbedder._index_maps(graph)
    return GraphEmbedding(ego=ego, context=context,
                          record_index=record_index, mac_index=mac_index,
                          config=config,
                          training_loss=list(embedding.training_loss) + losses)
