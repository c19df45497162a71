"""Sampling utilities for LINE / E-LINE training.

Both algorithms are trained by *edge sampling* with *negative sampling*
(paper Section IV-B, Eq. 10):

* positive examples are edges drawn with probability proportional to their
  weight ``c_ij``;
* negative examples are nodes drawn from the noise distribution
  ``Pr(z) ∝ d_z^{3/4}`` where ``d_z`` is the (weighted) degree of ``z``.

Drawing from an arbitrary discrete distribution in O(1) per sample uses
Walker's alias method, implemented here as :class:`AliasTable`.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from ...obs import runtime as obs

__all__ = ["AliasTable", "EdgeSampler", "NegativeSampler",
           "DeltaNegativeSampler", "SamplerCache",
           "unigram_power_distribution"]


class AliasTable:
    """O(1) sampling from a discrete distribution via Walker's alias method.

    The build partitions and assembles with numpy and runs the sequential
    Walker pairing over native floats — bit-identical to the historical
    pure-Python-list construction (test-enforced by a hypothesis property),
    because every comparison and residual subtraction happens on the same
    IEEE-754 doubles in the same order; only the bookkeeping around them was
    vectorised.

    Parameters
    ----------
    weights:
        Non-negative, not-all-zero weights; they are normalised internally.
    """

    def __init__(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")
        total = weights.sum()
        if total <= 0:
            raise ValueError("weights must not all be zero")

        n = weights.size
        with np.errstate(over="ignore"):
            scale = n / total
        if not np.isfinite(scale):
            # A subnormal total overflows the normalisation; the historical
            # build silently produced a table that sampled zero-weight
            # entries in this regime.
            raise ValueError("weights sum is too small to normalise")
        probabilities = weights * scale
        # Entries never claimed by the pairing loop below are the historical
        # "leftover" entries: probability one, aliased to themselves.
        self._prob = np.ones(n, dtype=np.float64)
        self._alias = np.arange(n, dtype=np.int64)
        self._n = n
        self._weights = weights / total

        if n <= 2:
            # Closed form of the Walker pairing for tiny tables (a delta
            # negative table over one or two overlay-affected indices): a
            # single entry is always a leftover, and two entries
            # pair at most once — only when exactly one of them is small,
            # which writes the small entry's scaled probability and aliases
            # it to the other.  Bit-identical to the general loop below
            # (test-enforced), without the list conversions.
            if n == 2:
                first, second = probabilities.tolist()
                if (first < 1.0) != (second < 1.0):
                    small_index = 0 if first < 1.0 else 1
                    self._prob[small_index] = first if first < 1.0 else second
                    self._alias[small_index] = 1 - small_index
            return

        scaled = probabilities.tolist()
        small = np.flatnonzero(probabilities < 1.0).tolist()
        large = np.flatnonzero(probabilities >= 1.0).tolist()
        paired_index: list[int] = []
        paired_prob: list[float] = []
        paired_alias: list[int] = []
        while small and large:
            s = small.pop()
            g = large.pop()
            residual_s = scaled[s]
            paired_index.append(s)
            paired_prob.append(residual_s)
            paired_alias.append(g)
            residual_g = scaled[g] - (1.0 - residual_s)
            scaled[g] = residual_g
            if residual_g < 1.0:
                small.append(g)
            else:
                large.append(g)
        if paired_index:
            index = np.asarray(paired_index, dtype=np.int64)
            self._prob[index] = paired_prob
            self._alias[index] = paired_alias

    @property
    def size(self) -> int:
        return self._n

    @property
    def probabilities(self) -> np.ndarray:
        """The normalised target distribution (for tests and diagnostics)."""
        return self._weights.copy()

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` independent indices from the distribution."""
        if count < 0:
            raise ValueError("count must be non-negative")
        columns = rng.integers(0, self._n, size=count)
        coins = rng.random(count)
        accept = coins < self._prob[columns]
        return np.where(accept, columns, self._alias[columns])


def unigram_power_distribution(degrees: np.ndarray, power: float = 0.75) -> np.ndarray:
    """The noise distribution ``Pr(z) ∝ d_z^power`` over node indices.

    Indices with zero degree (retired or isolated nodes) get probability zero.
    """
    degrees = np.asarray(degrees, dtype=np.float64)
    if np.any(degrees < 0):
        raise ValueError("degrees must be non-negative")
    weights = np.power(degrees, power, where=degrees > 0,
                       out=np.zeros_like(degrees))
    return weights


class EdgeSampler:
    """Samples directed edges proportionally to their weight.

    The bipartite graph is undirected; following LINE, every undirected edge
    ``(m, v)`` is interpreted as the two directed edges ``m -> v`` and
    ``v -> m`` with the same weight, so a directed sample is an undirected
    sample plus a fair coin for direction.
    """

    def __init__(self, sources: np.ndarray, targets: np.ndarray,
                 weights: np.ndarray) -> None:
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if not (sources.shape == targets.shape == weights.shape):
            raise ValueError("sources, targets and weights must have equal shapes")
        if sources.size == 0:
            raise ValueError("cannot build an EdgeSampler with no edges")
        self._sources = sources
        self._targets = targets
        self._table = AliasTable(weights)

    @property
    def num_edges(self) -> int:
        return self._sources.size

    def sample(self, count: int,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(heads, tails)`` of ``count`` sampled directed edges."""
        picks = self._table.sample(count, rng)
        sources = self._sources[picks]
        targets = self._targets[picks]
        flip = rng.random(count) < 0.5
        heads = np.where(flip, targets, sources)
        tails = np.where(flip, sources, targets)
        return heads, tails


class NegativeSampler:
    """Samples negative nodes from ``Pr(z) ∝ d_z^{3/4}``.

    The alias table is built over the *positive-degree* indices only and the
    drawn positions are mapped back to the original index space.  Zero-degree
    slots could never be sampled anyway, but keeping them inside the table
    would make the RNG consumption (``rng.integers(0, table_size)``) depend
    on how many retired node indices the graph has accumulated — repeated
    online predictions on the same model would then drift apart.  Compacting
    makes sampling a function of the live degree distribution alone, and is
    bit-for-bit identical to the uncompacted table when no degree is zero
    (the offline training case).
    """

    def __init__(self, degrees: np.ndarray, power: float = 0.75) -> None:
        weights = unigram_power_distribution(degrees, power=power)
        live = np.flatnonzero(weights > 0)
        if live.size == 0:
            raise ValueError("cannot build a NegativeSampler: all degrees are zero")
        #: The full-length ``d^power`` vector over the index space and its
        #: sum (read-only).  :class:`DeltaNegativeSampler` reuses the
        #: unpatched entries verbatim, which is what makes its composed
        #: probabilities bit-identical to a full rebuild's.
        self.weights = weights
        self.total = float(weights.sum())
        self._live = live
        # With no zero-degree slots (the offline training case) the live map
        # is the identity; skip the remap gather on the sampling hot path.
        self._identity = live.size == degrees.size
        self._table = AliasTable(weights[live])

    @property
    def live_count(self) -> int:
        """Number of positive-weight indices the table draws from."""
        return self._live.size

    def sample_flat(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` draws as a flat, caller-owned index array.

        Composition helper for :class:`DeltaNegativeSampler`; the returned
        array is freshly allocated, so callers may mutate it.
        """
        flat = self._table.sample(count, rng)
        if not self._identity:
            flat = self._live[flat]
        return flat

    def sample(self, count: int, negatives_per_example: int,
               rng: np.random.Generator) -> np.ndarray:
        """Return an ``(count, negatives_per_example)`` array of node indices."""
        flat = self.sample_flat(count * negatives_per_example, rng)
        return flat.reshape(count, negatives_per_example)


class DeltaNegativeSampler:
    """Negative sampler for an overlay, composed from base + staged delta.

    A ``NegativeSampler(overlay.degree_array())`` rebuild pays an O(V)
    unigram-weight recompute plus an O(V) Walker pairing on *every* cold
    prediction, even though the overlay only changes a handful of degrees
    (the staged nodes and the boundary MACs they attach to).  This sampler
    reuses the base graph's version-cached :class:`NegativeSampler` (its
    alias table and unigram weight vector) and builds a tiny alias table
    over only the overlay-affected indices, then samples the exact
    composed distribution ``Pr(z) ∝ d_z^power`` via a weighted two-level
    mixture:

    * with probability ``W_base' / W`` draw from the base table, reject-
      redrawing any patched index (their base weight mass is exactly the
      mass subtracted from ``W_base'``, so acceptance re-normalises to the
      unpatched base distribution);
    * otherwise draw from the delta table over the composed weights of the
      patched and staged indices.

    The composed per-index probabilities equal a full rebuild's
    :attr:`AliasTable.probabilities` bit for bit (hypothesis-enforced via
    :attr:`probabilities`); the RNG *consumption* differs from a rebuild's,
    so it is the distribution, not the draw sequence, that is contracted.
    """

    def __init__(self, overlay, base_sampler: NegativeSampler,
                 power: float = 0.75,
                 patch: tuple[np.ndarray, np.ndarray] | None = None) -> None:
        if patch is None:
            patch = overlay.delta_degree_patch()
        indices, degrees = patch
        base_capacity = overlay.base_capacity
        self._capacity = int(overlay.index_capacity)
        self._base_sampler = base_sampler
        self._base_weights = base_weights = base_sampler.weights
        base_total = base_sampler.total
        self._patch_indices = indices
        self._patch_weights = unigram_power_distribution(degrees, power=power)

        boundary = indices[indices < base_capacity]
        self._patched = np.zeros(base_capacity, dtype=bool)
        self._patched[boundary] = True
        # The rejection filter gathers this mask per draw; precomputing the
        # complement keeps an O(draws) invert off the sampling hot path.
        self._unpatched = ~self._patched
        patched_base = base_weights[boundary]
        base_mass = base_total - float(patched_base.sum())
        if np.count_nonzero(patched_base > 0) >= base_sampler.live_count:
            # Every live base index is patched: the base branch must be
            # unreachable (the rejection loop could never terminate), and
            # float cancellation must not leave a residue as its mass.
            base_mass = 0.0
        self._base_mass = max(base_mass, 0.0)
        # Weighted acceptance rate of the rejection loop: the fraction of
        # base-table mass that is *not* patched.  Sizes the oversampled
        # one-shot draw in :meth:`_sample_base`.
        self._base_accept = (self._base_mass / base_total
                             if base_total > 0.0 else 0.0)

        live = np.flatnonzero(self._patch_weights > 0)
        self._delta_indices = indices[live]
        if live.size:
            delta_weights = self._patch_weights[live]
            self._delta_mass = float(delta_weights.sum())
            self._delta_table: AliasTable | None = AliasTable(delta_weights)
        else:
            self._delta_mass = 0.0
            self._delta_table = None

        total = self._base_mass + self._delta_mass
        if total <= 0.0:
            raise ValueError("cannot compose a DeltaNegativeSampler: all "
                             "composed degrees are zero")
        self._base_fraction = self._base_mass / total
        self._probability_cache: np.ndarray | None = None

    @property
    def delta_size(self) -> int:
        """Number of positive-weight overlay-affected indices."""
        return self._delta_indices.size

    @property
    def probabilities(self) -> np.ndarray:
        """Composed per-index probabilities over the overlay index space.

        Bit-identical to expanding ``NegativeSampler(overlay.degree_array())``
        back to index space: unpatched entries reuse the cached base weight
        vector (the elementwise ``d^power`` of the very same degrees), the
        patched/staged entries were recomputed from the overlay's composed
        degrees at construction, and the normalising sum runs over the same
        live-compacted array a full rebuild would sum.  O(V) — diagnostics
        and the distribution-equality property tests only; the sampling
        path never materialises this.
        """
        if self._probability_cache is None:
            weights = np.zeros(self._capacity, dtype=np.float64)
            weights[:self._base_weights.size] = self._base_weights
            weights[self._patch_indices] = self._patch_weights
            live = np.flatnonzero(weights > 0)
            compact = weights[live]
            expanded = np.zeros(self._capacity, dtype=np.float64)
            expanded[live] = compact / compact.sum()
            self._probability_cache = expanded
        return self._probability_cache.copy()

    def sample(self, count: int, negatives_per_example: int,
               rng: np.random.Generator) -> np.ndarray:
        """Return a ``(count, negatives_per_example)`` array of node indices."""
        total = count * negatives_per_example
        if self._delta_table is None:
            flat = self._base_sampler.sample_flat(total, rng)
        elif self._base_mass == 0.0:
            flat = self._delta_indices[self._delta_table.sample(total, rng)]
        else:
            coins = rng.random(total)
            from_base = coins < self._base_fraction
            n_base = int(np.count_nonzero(from_base))
            flat = np.empty(total, dtype=np.int64)
            if n_base:
                flat[from_base] = self._sample_base(n_base, rng)
            if n_base != total:
                picks = self._delta_table.sample(total - n_base, rng)
                np.logical_not(from_base, out=from_base)
                flat[from_base] = self._delta_indices[picks]
        return flat.reshape(count, negatives_per_example)

    def _sample_base(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Base-table draws conditioned (by rejection) on unpatched indices.

        Oversamples by the known acceptance rate so one draw-filter round
        almost always fills the request (accepted draws are i.i.d. from the
        conditional distribution, so keeping a prefix and discarding the
        surplus is exact); any shortfall loops with the same oversampling.
        """
        accept = max(self._base_accept, 0.05)
        request = int(count / accept * 1.08) + 16
        draws = self._base_sampler.sample_flat(request, rng)
        kept = draws[self._unpatched[draws]]
        if kept.size >= count:
            return kept[:count]
        out = np.empty(count, dtype=np.int64)
        out[:kept.size] = kept
        filled = kept.size
        while filled < count:
            need = count - filled
            request = int(need / accept * 1.08) + 16
            draws = self._base_sampler.sample_flat(request, rng)
            kept = draws[self._unpatched[draws]]
            take = min(kept.size, need)
            out[filled:filled + take] = kept[:take]
            filled += take
        return out


class SamplerCache:
    """Reuses :class:`EdgeSampler`/:class:`NegativeSampler` per graph version.

    Keyed weakly on the graph object and strongly on its monotonic
    :attr:`~repro.core.graph.BipartiteGraph.version` counter: any mutation
    bumps the version, so a cached sampler is only ever returned for the
    exact graph state it was built from — a hit is byte-identical to a fresh
    construction (samplers are immutable once built).  Repeated fits and
    ablations over an *unchanged* graph reuse the alias tables instead of
    re-running the O(V+E) builds.  Online
    inference stages its probe records on a ``GraphOverlay`` instead of
    mutating the graph, so the graph's version — and therefore any entry
    cached here — survives arbitrarily many predictions.
    An overlay (an ephemeral view, one per prediction) is never a cache
    key itself: its negative sampler is *composed* from the base graph's
    cached negative sampler (:meth:`delta_negative_sampler`), shrinking
    the per-predict build to the staged delta; its positive edges are
    drawn without an alias table.  Cold predicts therefore only read an
    entry a fit in this process already populated; a loaded or unpickled
    model's first cold predict adds the base negative sampler.

    Lookups take a short global lock; sampler construction itself happens
    outside it, so concurrent builds for different graphs (sharded serving)
    never serialise behind each other.  Two threads racing on the same miss
    may both build; the samplers are identical and the last insert wins.
    """

    def __init__(self) -> None:
        self._entries: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _lookup(self, graph, kind: str):
        """Return the cached sampler for the graph's current version."""
        entry = self._entries.get(graph)
        if entry is None or entry["version"] != graph.version:
            if entry is not None:
                # A stale entry for an older graph version is being replaced
                # — the cache's only eviction besides the weakref reaping a
                # dead graph.  Every cached object in the entry is built for
                # the old version and discarded with it, so count one
                # eviction *per object* (the entry holds them under their
                # kind keys, plus the "version" marker): replacing an entry
                # holding both an edge and a negative sampler evicts two
                # samplers, and ``sampler_cache_evictions_total`` must say
                # so.
                discarded = len(entry) - 1
                if discarded:
                    self.evictions += discarded
                    obs.metric_increment("sampler_cache_evictions_total",
                                         discarded)
            entry = {"version": graph.version}
            self._entries[graph] = entry
            return entry, None
        return entry, entry.get(kind)

    def _get(self, graph, kind: str, build) -> object:
        return self._get_with_state(graph, kind, build)[0]

    def _get_with_state(self, graph, kind: str, build) -> tuple[object, bool]:
        """Like :meth:`_get`, but also report whether it was a cache hit."""
        with self._lock:
            entry, sampler = self._lookup(graph, kind)
            if sampler is not None:
                self.hits += 1
                obs.metric_increment("sampler_cache_hits_total")
                return sampler, True
            self.misses += 1
            obs.metric_increment("sampler_cache_misses_total")
        sampler = build()
        with self._lock:
            # Insert only if the graph state is still the one we built for.
            current = self._entries.get(graph)
            if current is not None and current["version"] == graph.version:
                current[kind] = sampler
        return sampler, False

    def edge_sampler(self, graph) -> EdgeSampler:
        """The full-graph edge sampler for the graph's current version."""
        return self._get(graph, "edge",
                         lambda: EdgeSampler(*graph.edge_arrays()))

    def negative_sampler(self, graph) -> NegativeSampler:
        """The full-graph negative sampler for the graph's current version."""
        return self._get(graph, "negative",
                         lambda: NegativeSampler(graph.degree_array()))

    #: Bound on memoised delta compositions kept per base-graph version.
    #: Sized to cover a serving fleet cycling through a working set of
    #: repeated probes; overflow clears the memo (the parts it composes
    #: over stay cached, so a refill costs only the tiny delta builds).
    DELTA_MEMO_CAPACITY = 128

    def delta_negative_sampler(self, overlay) -> DeltaNegativeSampler:
        """Compose the overlay's staged delta with its base's cached parts.

        The base negative sampler (with its unigram weight vector) comes
        from this cache (built on first use per base-graph version); only
        the tiny delta table over the overlay-affected indices is
        constructed per call.  Identical staged deltas (the same record
        re-predicted, a fleet replaying a probe working set) skip even
        that: finished
        compositions are memoised per base-graph version, keyed by the
        patch content, and a :class:`DeltaNegativeSampler` is immutable
        after construction, so sharing one across predictions (and
        threads) is exact — every draw depends only on the caller's RNG.
        ``delta_sampler_hits_total`` counts compositions fully served from
        cache (memoised or composed from the cached base sampler),
        ``delta_sampler_rebuilds_total`` those that had to (re)build the
        base sampler first.
        """
        base = overlay.base
        indices, degrees = overlay.delta_degree_patch()
        key = (int(overlay.index_capacity),
               indices.tobytes(), degrees.tobytes())
        with self._lock:
            entry = self._entries.get(base)
            if entry is not None and entry["version"] == base.version:
                memoised = entry.get("delta", {}).get(key)
                if memoised is not None:
                    self.hits += 1
                    obs.metric_increment("sampler_cache_hits_total")
                    obs.metric_increment("delta_sampler_hits_total")
                    return memoised
        sampler, hit = self._get_with_state(
            base, "negative", lambda: NegativeSampler(base.degree_array()))
        obs.metric_increment("delta_sampler_hits_total" if hit
                             else "delta_sampler_rebuilds_total")
        composed = DeltaNegativeSampler(overlay, sampler,
                                        patch=(indices, degrees))
        with self._lock:
            current = self._entries.get(base)
            if current is not None and current["version"] == base.version:
                memo = current.setdefault("delta", {})
                if len(memo) >= self.DELTA_MEMO_CAPACITY:
                    memo.clear()
                memo[key] = composed
        return composed

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
