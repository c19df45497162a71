"""The historical full-table fit step, kept as a test oracle.

Until the fused kernel became the only fit kernel, fits ran this math: one
skip-gram step per objective term (second-order, symmetric, first-order,
applied one after another), each gathering its own rows and scattering its
gradients through ``np.add.at``.  The fused kernel is pinned to it within
tolerance per batch and at equal floor accuracy over whole test splits.

:func:`oracle_fits` points the trainer's fit dispatch at this oracle for the
duration of a ``with`` block, so whole ``GRAFICS`` fits can run on it.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.embedding import trainer as trainer_module
from repro.core.embedding.kernels import sigmoid

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
