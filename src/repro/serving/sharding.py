"""Partitioned serving: the names of the sharded serving stack.

The service itself lives in :mod:`repro.serving.service`:
:class:`ShardedServingService` is :class:`FloorServingService` — one class,
partitioned across ``num_shards`` :class:`Shard` objects (default 1) behind
the global-tie-break :class:`ShardedRouter`.  This module re-exports the
partitioning names under their historical import path.
"""

from .cache import fingerprint_key
from .service import Shard, ShardedRouter, ShardedServingService, shard_index

__all__ = ["shard_index", "Shard", "ShardedRouter", "ShardedServingService",
           "fingerprint_key"]
