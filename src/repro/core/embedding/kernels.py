"""Mini-batch update kernels of the edge-sampling SGD engine.

The caller owns *what* to train on (sampled edges, negatives, the
learning-rate schedule); a kernel owns *how* one mini-batch updates the
embedding tables.  Each caller has its own kernel — there is no setting:

* :class:`FusedKernel` trains every full fit (``GRAFICS.fit``, ``fit_model``,
  service and stream retrains), called by
  :class:`~repro.core.embedding.trainer.EdgeSamplingTrainer`.  It processes
  all enabled objective terms from one pre-batch snapshot of the tables:

  - the positive target and the ``K`` negative targets are gathered as one
    ``(B, K+1)`` row block, so scores, sigmoids and loss terms for positives
    and negatives fuse into single vectorised passes over preallocated
    buffers;
  - scatters are one weighted ``np.bincount`` segment-sum per table over
    flattened ``row * D + d`` bins, covering the ``B`` source-row gradients
    and the ``B*(K+1)`` target updates together; no ``(B, K, D)``
    negative-gradient tensor is allocated per batch — the
    coefficient-times-source products broadcast straight into a slice of one
    reusable weight buffer;
  - all enabled terms share the sampled edges/negatives and the gathered row
    blocks, and their updates are applied after all terms are evaluated
    (Jacobi-style within a batch).

  It draws its dropout masks per term, in the order second-order, symmetric,
  first-order, so it is seed-deterministic: the same seed always yields the
  same embeddings.  Against the historical per-term ``np.add.at`` step
  (applied Gauss-Seidel-style, one term after another), it differs only
  through float summation order and the within-batch term ordering; the test
  suite keeps that step as an oracle and pins the fused kernel to it within
  tolerance per batch and at equal floor accuracy over whole test splits.

* :class:`ReferenceKernel` is the step of the frozen online update of new
  records (Section V-A, ``ELINEEmbedder.embed_new_nodes_arrays``).  Only the
  new rows can move: they are the rows past the frozen tables (an overlay's
  staged nodes), trained as small ``(T, D)`` slot tables, while every row
  of the frozen embedding is read in place with ``np.take``; no table is
  copied while it trains.  Per batch it runs one skip-gram step per
  objective term, in the order second-order, symmetric, first-order, each
  scoring from the tables as the previous term left them (Gauss-Seidel
  across terms, which a cold predict's two or three batches need).  A row
  whose head is trainable scores its positive and its ``K`` negatives; a
  row whose head is frozen scores its positive and only its trainable
  negatives, since nothing else it touches can move.  Gradients are summed
  onto the slot tables (a plain sum for one slot, a bincount over slots
  otherwise).  It draws one ``(B, D)`` dropout mask per term per batch, the
  generator stream of a full-table step under a mask of the trainable rows;
  the test suite keeps that masked step as an oracle and pins this one to
  it row by row.

A kernel may keep scratch buffers, so one instance serves one training run
(it is not shared across threads).
"""

from __future__ import annotations

import numpy as np

__all__ = ["ReferenceKernel", "FusedKernel", "sigmoid"]

#: Clip for the sigmoid argument to avoid overflow in exp().
_SIGMOID_CLIP = 30.0

#: Floor inside the log() of the loss, mirroring the reference step.
_LOG_FLOOR = 1e-12


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically safe logistic function."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -_SIGMOID_CLIP, _SIGMOID_CLIP)))


class ReferenceKernel:
    """The frozen online update: skip-gram steps on the rows that can move.

    One instance serves one frozen update.  It is built over the frozen
    ``ego``/``context`` tables, which it only reads.  An index below their
    length is a frozen row, read in place; an index at or past it is a
    trainable row, whose current values live at slot ``index - length`` of
    the caller's ``(T, D)`` slot tables.
    """

    def __init__(self, frozen_ego: np.ndarray,
                 frozen_context: np.ndarray) -> None:
        self._frozen_ego = frozen_ego
        self._frozen_context = frozen_context
        self._frozen_rows = frozen_ego.shape[0]

    def train_batch(self, ego, context, heads, tails, negatives, *,
                    learning_rate, terms, config, rng):
        """Apply one mini-batch update to the slot tables; return the loss.

        ``ego``/``context`` are the ``(T, D)`` slot tables of the trainable
        rows (updated in place), ``heads``/``tails`` the sampled directed
        edges (shape ``(B,)``), ``negatives`` the sampled noise nodes (shape
        ``(B, K)``) and ``terms`` an ``ObjectiveTerms``.  The terms run one
        after another, each scoring from the tables as the previous term
        left them, and each draws one ``(B, D)`` dropout mask.  The loss
        covers the pairs the step scores: every target of a row whose head
        is trainable, and the positive plus any trainable negative of a row
        whose head is not.
        """
        pairs = self._pairs(heads, tails, negatives)
        loss = 0.0
        if terms.second_order:
            loss += self._step(ego, context, self._frozen_ego,
                               self._frozen_context, pairs, learning_rate,
                               config, rng)
        if terms.symmetric:
            loss += self._step(context, ego, self._frozen_context,
                               self._frozen_ego, pairs, learning_rate,
                               config, rng)
        if terms.first_order:
            loss += self._step(ego, ego, self._frozen_ego, self._frozen_ego,
                               pairs, learning_rate, config, rng)
        return loss

    def _pairs(self, heads, tails, negatives) -> dict:
        """The (row, target) pairs of a batch that can move a trainable row.

        A row whose head is trainable scores its positive and all ``K``
        negatives (its gradient needs them all); a row whose head is frozen
        scores its positive and only those negatives that are trainable,
        since no other target of it can change.  Sources are laid out
        trainable-head rows first, and pairs in three blocks: the ``(n,
        K+1)`` targets of the trainable-head rows, row-major with the
        positive first; the positives of the other rows; their trainable
        negatives.
        """
        frozen = self._frozen_rows
        block = negatives.shape[1] + 1
        trained_rows = np.flatnonzero(heads >= frozen)
        other_rows = np.flatnonzero(heads < frozen)
        trained = trained_rows.size
        trained_targets = np.empty((trained, block), dtype=np.int64)
        trained_targets[:, 0] = tails[trained_rows]
        trained_targets[:, 1:] = negatives[trained_rows]
        other_negatives = negatives[other_rows]
        extra_rows, extra_cols = np.nonzero(other_negatives >= frozen)
        targets = np.concatenate((trained_targets.ravel(), tails[other_rows],
                                  other_negatives[extra_rows, extra_cols]))
        moving = np.flatnonzero(targets >= frozen)
        trained_slot = heads[trained_rows] - frozen
        other_sources = trained + np.concatenate(
            (np.arange(other_rows.size), extra_rows))
        pair_source = np.concatenate((np.repeat(np.arange(trained), block),
                                      other_sources))
        return {
            "order": np.concatenate((trained_rows, other_rows)),
            "trained": trained,
            "block": block,
            "positives_end": trained * block + other_rows.size,
            "trained_slot": trained_slot,
            "pair_slot": np.repeat(trained_slot, block),
            "other_heads": heads[other_rows],
            "other_sources": other_sources,
            "targets": targets,
            "moving": moving,
            "moving_slot": targets[moving] - frozen,
            "moving_source": pair_source[moving],
        }

    def _step(self, source_table, target_table, frozen_source, frozen_target,
              pairs, lr, config, rng) -> float:
        """One negative-sampling step over the scored pairs of a batch.

        ``source_table``/``target_table`` are the slot tables that play the
        "input" and "output" role and ``frozen_source``/``frozen_target``
        the frozen tables behind them; (ego, context) gives the
        second-order term, (context, ego) the E-LINE symmetric term and
        (ego, ego) the first-order term.  Both sides are gathered before
        either is updated.
        """
        trained, block = pairs["trained"], pairs["block"]
        split, positives_end = trained * block, pairs["positives_end"]
        order = pairs["order"]
        dim = source_table.shape[1]

        source = np.empty((order.size, dim))
        np.take(source_table, pairs["trained_slot"], axis=0,
                out=source[:trained])
        np.take(frozen_source, pairs["other_heads"], axis=0,
                out=source[trained:], mode="clip")
        if config.dropout > 0.0:
            # The mask is drawn in batch-row order; `src * bool * (1/keep)`
            # is bit-equal to `src * ((u < keep) / keep)`.
            keep = 1.0 - config.dropout
            source *= np.take(rng.random(source.shape) < keep, order, axis=0)
            source *= 1.0 / keep
        target = np.take(frozen_target, pairs["targets"], axis=0, mode="clip")
        moving = pairs["moving"]
        target[moving] = target_table[pairs["moving_slot"]]

        sig = np.empty(target.shape[0])
        np.einsum("bkd,bd->bk", target[:split].reshape(trained, block, dim),
                  source[:trained], out=sig[:split].reshape(trained, block))
        np.einsum("pd,pd->p", target[split:], source[pairs["other_sources"]],
                  out=sig[split:])
        np.clip(sig, -_SIGMOID_CLIP, _SIGMOID_CLIP, out=sig)
        np.negative(sig, out=sig)
        np.exp(sig, out=sig)
        sig += 1.0
        np.reciprocal(sig, out=sig)
        # Loss -log sigma(pos) - sum_k log sigma(-neg_k); its gradient
        # coefficient is sigma - 1 on a positive and sigma on a negative.
        likelihood = 1.0 - sig
        likelihood[:split:block] = sig[:split:block]
        likelihood[split:positives_end] = sig[split:positives_end]
        np.maximum(likelihood, _LOG_FLOOR, out=likelihood)
        loss = -float(np.log(likelihood, out=likelihood).sum())
        sig[:split:block] -= 1.0
        sig[split:positives_end] -= 1.0

        grad_source = _reduce(sig[:split], target[:split],
                              pairs["pair_slot"], source_table.shape)
        grad_target = _reduce(sig[moving], source[pairs["moving_source"]],
                              pairs["moving_slot"], target_table.shape)
        source_table -= lr * grad_source
        target_table -= lr * grad_target
        return loss


def _reduce(coeff, rows, slots, shape) -> np.ndarray:
    """Sum ``coeff * rows`` onto a slot table of ``shape`` ``(T, D)``."""
    if shape[0] == 1:
        return (coeff @ rows)[None, :]
    dim = shape[1]
    bins = (slots[:, None] * dim + np.arange(dim)).ravel()
    totals = np.bincount(bins, weights=(coeff[:, None] * rows).ravel(),
                         minlength=shape[0] * dim)
    return totals.reshape(shape)


class FusedKernel:
    """The fit kernel: one segment-sum scatter per table, terms fused."""

    #: When the table is more than this many times larger than the per-batch
    #: update count, the scatter compacts the touched rows via ``np.unique``
    #: instead of running a full-table bincount.  The compact branch applies
    #: the dense and outer contributions in two subtractions instead of one,
    #: so the paths agree to the last few ulps (test-enforced), not
    #: bit-for-bit.  The choice depends on the batch size, so a truncated
    #: final batch of a large-table run may take the compact branch while
    #: the full batches took the direct one; for a given (config, graph,
    #: sample budget) the branch sequence is still deterministic.
    _COMPACT_RATIO = 4

    def __init__(self) -> None:
        self._scratch: dict = {}

    # -------------------------------------------------------------- scratch
    def _buffers(self, count: int, batch: int, block: int, dim: int) -> dict:
        """Per-(terms, B, K+1, D) scratch buffers, reused across batches."""
        buffers = self._scratch.get((count, batch, block, dim))
        if buffers is None:
            flat = batch * block
            bins = np.empty(batch * dim + flat * dim, dtype=np.int64)
            buffers = {
                "tgt_idx": np.empty((batch, block), dtype=np.int64),
                "sources": np.empty((count, batch, dim)),
                "targets": np.empty((count, flat, dim)),
                "uniform": np.empty((count, batch, dim)),
                "mask": np.empty((count, batch, dim), dtype=bool),
                "sig": np.empty((count * batch, block)),
                "lbuf": np.empty((count * batch, block)),
                "grads": np.empty((count * batch, dim)),
                # Flattened (row, dim) -> row * dim + d scatter bins; the
                # head bins and the target bins live in one contiguous
                # buffer so the common one-dense-one-outer scatter needs no
                # concatenation at all.
                "bins": bins,
                "head_bins": bins[:batch * dim].reshape(batch, dim),
                "target_bins": bins[batch * dim:].reshape(flat, dim),
                "head_scaled": np.empty(batch, dtype=np.int64),
                "target_scaled": np.empty(flat, dtype=np.int64),
                "dim_range": np.arange(dim, dtype=np.int64),
                "weights": np.empty(batch * dim + flat * dim),
            }
            self._scratch[(count, batch, block, dim)] = buffers
        return buffers

    # ---------------------------------------------------------------- batch
    def train_batch(self, ego, context, heads, tails, negatives, *,
                    learning_rate, terms, config, rng):
        """Apply one mini-batch update to the full tables; return the loss.

        ``ego``/``context`` are the full tables, every row of which may
        receive updates; ``heads``/``tails`` are the sampled directed edges
        (shape ``(B,)``), ``negatives`` the sampled noise nodes (shape
        ``(B, K)``) and ``terms`` an ``ObjectiveTerms``.
        """
        batch, num_negatives = negatives.shape
        dim = ego.shape[1]
        block = num_negatives + 1

        # Same term ordering as the reference kernel (second, symmetric,
        # first), so the dropout-mask RNG stream is consumed in the
        # historical order.
        term_tables = []
        if terms.second_order:
            term_tables.append((ego, context))
        if terms.symmetric:
            term_tables.append((context, ego))
        if terms.first_order:
            term_tables.append((ego, ego))
        count = len(term_tables)
        buffers = self._buffers(count, batch, block, dim)

        # One (B, K+1) index block per batch: column 0 is the positive
        # target, columns 1..K the negatives — one gather, one score einsum
        # and one sigmoid pass cover both roles; stacking the terms on a
        # leading axis turns per-term passes into single calls.
        target_idx = buffers["tgt_idx"]
        target_idx[:, 0] = tails
        target_idx[:, 1:] = negatives
        target_flat = target_idx.ravel()

        sources = buffers["sources"]                   # (T, B, D)
        targets = buffers["targets"]                   # (T, B*(K+1), D)
        for slot, (source_table, target_table) in enumerate(term_tables):
            np.take(source_table, heads, axis=0, out=sources[slot],
                    mode="clip")
            np.take(target_table, target_flat, axis=0, out=targets[slot],
                    mode="clip")
        if config.dropout > 0.0:
            keep = 1.0 - config.dropout
            # One (T, B, D) draw consumes the stream exactly like T
            # consecutive (B, D) draws; `src * mask < keep / keep` and
            # `(src * bool) * (1/keep)` are bit-equal, and the boolean
            # product avoids materialising a float mask.
            rng.random(out=buffers["uniform"])
            np.less(buffers["uniform"], keep, out=buffers["mask"])
            sources *= buffers["mask"]
            sources *= 1.0 / keep

        flat_sources = sources.reshape(count * batch, dim)
        flat_targets = targets.reshape(count * batch, block, dim)
        sig = buffers["sig"]
        np.einsum("bkd,bd->bk", flat_targets, flat_sources, out=sig)
        np.clip(sig, -_SIGMOID_CLIP, _SIGMOID_CLIP, out=sig)
        np.negative(sig, out=sig)
        np.exp(sig, out=sig)
        sig += 1.0
        np.reciprocal(sig, out=sig)

        # Loss: -log(sig) for the positive column, -log(1 - sig) for the
        # negatives, floored like the reference.
        lbuf = buffers["lbuf"]
        np.subtract(1.0, sig, out=lbuf)
        lbuf[:, 0] = sig[:, 0]
        np.maximum(lbuf, _LOG_FLOOR, out=lbuf)
        np.log(lbuf, out=lbuf)
        loss = -float(lbuf.sum())

        # Gradient coefficients reuse the sigmoid buffer in place: sig - 1
        # on the positive column, sig on the negatives.  grad wrt a source
        # row is its coefficient row times its target block.
        sig[:, 0] -= 1.0
        grad_sources = buffers["grads"]
        np.einsum("bk,bkd->bd", sig, flat_targets, out=grad_sources)
        coeff = sig.reshape(count, batch, block)
        grads = grad_sources.reshape(count, batch, dim)

        # The scatter-bin vector (see _scatter) only depends on the
        # per-table part structure — every dense part scatters to ``heads``
        # and every outer part to ``target_flat`` — so tables with the same
        # structure share one bin build per batch.
        index_cache: dict = {}
        for table in (ego, context):
            dense = [grads[slot] for slot, (source_table, _)
                     in enumerate(term_tables) if source_table is table]
            outer = [(coeff[slot], sources[slot]) for slot, (_, target_table)
                     in enumerate(term_tables) if target_table is table]
            if dense or outer:
                self._scatter(table, dense, outer, heads, target_flat,
                              learning_rate, index_cache, buffers)
        return loss

    # -------------------------------------------------------------- scatter
    def _scatter(self, table, dense, outer, heads, target_flat, lr,
                 index_cache, buffers):
        """One fused segment-sum per table — no (B, K, D) gradient tensor.

        Every update is a (row, dim) -> value triple; flattening the pair to
        ``row * dim + d`` turns the whole scatter (source-row gradients and
        per-negative coefficient-times-source products alike) into a single
        weighted ``np.bincount``.  The weights are written into one
        preallocated buffer — broadcast products for the outer parts land
        directly in their slice, so the per-example gradient block is never
        allocated per batch.
        """
        rows, dim = table.shape
        dense_size = heads.size * dim
        outer_size = target_flat.size * dim
        total_size = len(dense) * dense_size + len(outer) * outer_size
        if rows * dim > self._COMPACT_RATIO * total_size:
            self._scatter_compact(table, dense, outer, heads, target_flat,
                                  lr, buffers)
            return
        if not index_cache:
            # First scatter of this batch: fill the shared bin arrays.
            np.multiply(heads, dim, out=buffers["head_scaled"])
            np.add(buffers["head_scaled"][:, None], buffers["dim_range"],
                   out=buffers["head_bins"])
            np.multiply(target_flat, dim, out=buffers["target_scaled"])
            np.add(buffers["target_scaled"][:, None], buffers["dim_range"],
                   out=buffers["target_bins"])
            index_cache["filled"] = True
        key = (len(dense), len(outer))
        index = index_cache.get(key)
        if index is None:
            if key == (1, 1):
                index = buffers["bins"]
            elif key == (1, 0):
                index = buffers["bins"][:dense_size]
            elif key == (0, 1):
                index = buffers["bins"][dense_size:]
            else:
                index = np.concatenate(
                    [buffers["bins"][:dense_size]] * len(dense)
                    + [buffers["bins"][dense_size:]] * len(outer))
            index_cache[key] = index
        shared = buffers["weights"]
        weights = (shared[:index.size] if index.size <= shared.size
                   else np.empty(index.size))
        offset = 0
        for grad in dense:
            weights[offset:offset + dense_size].reshape(grad.shape)[:] = grad
            offset += dense_size
        for coeff, source in outer:
            block = weights[offset:offset + outer_size]
            np.einsum("bk,bd->bkd", coeff, source,
                      out=block.reshape(coeff.shape + (dim,)))
            offset += outer_size
        totals = np.bincount(index, weights=weights, minlength=rows * dim)
        np.multiply(totals, lr, out=totals)
        table -= totals.reshape(rows, dim)

    def _scatter_compact(self, table, dense, outer, heads, target_flat, lr,
                         buffers):
        """Large sparse tables: scatter the few dense rows directly and
        compact the outer updates to the touched rows before bincounting."""
        for grad in dense:
            np.add.at(table, heads, grad * (-lr))
        if not outer:
            return
        dim = table.shape[1]
        outer_size = target_flat.size * dim
        unique, inverse = np.unique(target_flat, return_inverse=True)
        compact = (inverse[:, None] * dim
                   + buffers["dim_range"]).ravel()
        weights = np.empty(len(outer) * outer_size)
        offset = 0
        for coeff, source in outer:
            block = weights[offset:offset + outer_size]
            np.einsum("bk,bd->bkd", coeff, source,
                      out=block.reshape(coeff.shape + (dim,)))
            offset += outer_size
        if len(outer) > 1:
            compact = np.tile(compact, len(outer))
        totals = np.bincount(compact, weights=weights,
                             minlength=unique.size * dim)
        table[unique] -= lr * totals.reshape(unique.size, dim)
