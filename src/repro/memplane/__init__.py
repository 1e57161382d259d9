"""repro.memplane — the one-copy-per-host memory plane.

Two pieces (see ``docs/memplane.md``):

* :mod:`repro.memplane.arena` — the :class:`DatasetArena`, a
  fingerprint-keyed shared-memory store of relation columns that
  worker pools, service jobs and replicas lease zero-copy (refcounted
  pins, LRU eviction under ``REPRO_FD_ARENA_BUDGET``, append versions
  sharing their parent's pages);
* the shared partition layer of :mod:`repro.partitions.cache` — a
  per-dataset store of low-level stripped partitions reused by every
  ``PartitionCache(relation, shared=True)``; its ``reset_tiers`` and
  ``tier_gauges`` are re-exported here.

Both are always on.  The arena is the only shared-memory transport
for worker pools; the partition layer is a cache, so covers and
rankings are byte-identical whether a job finds it cold or warm.
"""

from typing import Dict

from ..partitions.cache import reset_tiers, tier_gauges
from .arena import (
    ArenaLease,
    DatasetArena,
    ENV_ARENA_OWNER,
    SEGMENT_PREFIX,
    current_arena,
    default_owner,
    get_arena,
    reset_arena,
    sweep_orphans,
)

__all__ = [
    "ArenaLease",
    "DatasetArena",
    "ENV_ARENA_OWNER",
    "SEGMENT_PREFIX",
    "current_arena",
    "default_owner",
    "gauges",
    "get_arena",
    "reset_arena",
    "reset_tiers",
    "sweep_orphans",
    "tier_gauges",
]


def gauges() -> Dict[str, float]:
    """Combined ``memplane.*`` gauges (arena + partition layer) for ``/metrics``.

    Never *creates* an arena: a process that registered no dataset
    reports zeros instead of allocating segments for a metrics scrape.
    """
    arena = current_arena()
    out: Dict[str, float] = (
        arena.gauges()
        if arena is not None
        else {
            "memplane.datasets": 0.0,
            "memplane.pinned_datasets": 0.0,
            "memplane.arena_bytes": 0.0,
            "memplane.attach_hits": 0.0,
            "memplane.attach_misses": 0.0,
            "memplane.evictions": 0.0,
            "memplane.prefix_shared": 0.0,
        }
    )
    out.update(tier_gauges())
    return out
