"""The partition store: where every ``π_X`` in the stack comes from.

:class:`PartitionCache` memoizes the stripped partitions of one
relation keyed by their bitmask.  It seeds ``π_∅`` and every singleton
``π_A`` on construction, derives new entries cheaply from cached
subsets (preferring the largest cached subset so the fewest refinement
steps run), and tracks an approximate memory footprint so benchmarks
can report partition memory the way Table II reports process memory.
The largest cached subset is found through an index of the cached
multi-attribute masks bucketed by attribute count: a lookup walks the
buckets from the widest candidate size down and stops at the first
bucket holding a subset, so every cached entry stays reachable however
many there are.

Who uses which scope:

* the ranking, redundancy and report passes pass ``shared=True``: repeated passes over the same dataset
  reuse its low-level partitions across jobs;
* discovery keeps private stores — the DDM and HyFD take their
  singletons (and :meth:`PartitionCache.best_singleton`) from one,
  TANE and UCC their level-1 partitions, and the brute-force
  ``NaiveFDDiscovery`` oracle everything.  The oracle must never read
  partitions published by the code it checks, and Table II's
  per-algorithm time and memory must not get cheaper because an earlier
  run touched the same data.

The shared layer is one process-wide dict of partitions per
``(fingerprint, null semantics)`` pair, LRU-bounded to
:data:`MAX_TIERS` datasets, holding partitions over at most
:data:`MAX_SHARED_ATTRS` attributes — the wide base of the lattice that
every pass touches.  Sharing is safe because
:class:`~repro.partitions.stripped.StrippedPartition` is immutable and
the key pins down everything that affects cluster bytes.  Caches are
byte-identical whether they find the layer cold, warm or bypassed
(:func:`shared_store` returning None).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..relational import attrset
from ..relational.attrset import AttrSet
from ..relational.relation import Relation
from ..telemetry import current_tracer
from .stripped import StrippedPartition


#: Widest attribute set the shared layer retains — the lattice base
#: levels every ranking/redundancy pass rebuilds; deeper partitions are
#: too pass-specific to be worth pinning process-wide.
MAX_SHARED_ATTRS = 4

#: Datasets with a live shared dict, LRU-bounded.
MAX_TIERS = 32

_shared: "OrderedDict[Tuple[str, str], Dict[AttrSet, StrippedPartition]]" = (
    OrderedDict()
)
_shared_lock = threading.Lock()
#: Shared-layer lookups since the last :func:`reset_tiers`: hits, misses.
_shared_lookups = [0, 0]


def shared_store(relation: Relation) -> Dict[AttrSet, StrippedPartition]:
    """The shared partition dict for ``relation``'s content and semantics.

    This is the one entry point to the shared layer, so patching it to
    return None bypasses the layer entirely.
    """
    key = (relation.fingerprint(), relation.semantics.value)
    with _shared_lock:
        store = _shared.get(key)
        if store is None:
            store = _shared[key] = {}
            while len(_shared) > MAX_TIERS:
                _shared.popitem(last=False)
        else:
            _shared.move_to_end(key)
        return store


def reset_tiers() -> None:
    """Drop every shared partition and lookup count (tests / dataset churn)."""
    with _shared_lock:
        _shared.clear()
        _shared_lookups[:] = [0, 0]


def tier_gauges() -> Dict[str, float]:
    """``memplane.tier_*`` gauge snapshot for ``/metrics`` exports."""
    with _shared_lock:
        stores = [list(store.values()) for store in _shared.values()]
        hits, misses = _shared_lookups
    lookups = hits + misses
    return {
        "memplane.tier_datasets": float(len(stores)),
        "memplane.tier_partitions": float(sum(len(s) for s in stores)),
        "memplane.tier_bytes": float(
            sum(p.memory_bytes() for s in stores for p in s)
        ),
        "memplane.tier_hits": float(hits),
        "memplane.tier_misses": float(misses),
        "memplane.tier_hit_rate": (hits / lookups) if lookups else 0.0,
    }


class PartitionCache:
    """Memoized stripped-partition store for one relation.

    With ``shared=True`` the store joins the relation's shared layer:
    singleton seeds come from it when warm, local misses consult it
    before deriving, and freshly derived low-level partitions are
    published back.  ``hits``/``misses`` count the local store only;
    a local miss served by the shared layer also counts in
    ``shared_hits``.
    """

    def __init__(self, relation: Relation, shared: bool = False):
        self.relation = relation
        self._shared = shared_store(relation) if shared else None
        self._store: Dict[AttrSet, StrippedPartition] = {}
        # Cached masks over two or more attributes, bucketed by
        # attribute count, each bucket in insertion order.
        self._by_count: Dict[int, List[AttrSet]] = {}
        self.hits = 0
        self.misses = 0
        self.shared_hits = 0
        # Instruments resolved once against the tracer current at
        # construction; with telemetry off these are shared no-ops.
        telemetry = current_tracer()
        self._hit_counter = telemetry.counter("partition_cache.hits")
        self._miss_counter = telemetry.counter("partition_cache.misses")
        self._shared_hit_counter = telemetry.counter("partition_cache.shared_hits")
        self._memory_gauge = telemetry.gauge("partition_cache.memory_bytes")
        self.universal = StrippedPartition.universal(relation)
        self._store[attrset.EMPTY] = self.universal
        for attr in range(relation.n_cols):
            mask = attrset.singleton(attr)
            partition = self._shared_get(mask)
            if partition is None:
                partition = StrippedPartition.for_attribute(relation, attr)
                self._publish(partition)
            self._store[mask] = partition

    def _shared_get(self, attrs: AttrSet) -> Optional[StrippedPartition]:
        """Look ``attrs`` up in the shared layer (None when absent)."""
        if self._shared is None:
            return None
        with _shared_lock:
            partition = self._shared.get(attrs)
            _shared_lookups[partition is None] += 1
        if partition is not None:
            self.shared_hits += 1
            self._shared_hit_counter.inc()
        return partition

    def _publish(self, partition: StrippedPartition) -> None:
        """Offer a derived partition to the shared layer.

        First publisher wins — identical inputs produce identical
        partitions, so replacing would only churn references.
        """
        if self._shared is None or attrset.count(partition.attrs) > MAX_SHARED_ATTRS:
            return
        with _shared_lock:
            self._shared.setdefault(partition.attrs, partition)

    def __len__(self) -> int:
        return len(self._store)

    def memory_bytes(self) -> int:
        """Approximate bytes held by all cached partitions."""
        return sum(p.memory_bytes() for p in self._store.values())

    def record_telemetry(self, scope: str = "cache") -> None:
        """Emit a summary event + memory gauge on the current tracer.

        Cheap no-op when telemetry is disabled; callers invoke it once
        at the end of a cache-using pass (ranking, redundancy, naive
        discovery), not per lookup.
        """
        tracer = current_tracer()
        if not tracer.enabled:
            return
        memory = self.memory_bytes()
        self._memory_gauge.set_max(memory)
        tracer.event(
            "partition_cache",
            scope=scope,
            hits=self.hits,
            misses=self.misses,
            shared_hits=self.shared_hits,
            entries=len(self._store),
            memory_bytes=memory,
        )

    def singletons(self) -> List[StrippedPartition]:
        """``π_A`` for every attribute, in attribute order."""
        return [
            self._store[attrset.singleton(attr)]
            for attr in range(self.relation.n_cols)
        ]

    def best_singleton(self, path: AttrSet) -> StrippedPartition:
        """The smallest-``||π_A||`` singleton partition with A in ``path``.

        Ties go to the lowest attribute; an empty path gets ``π_∅``.
        This is line 16 of Algorithm 6 (the cheapest starting partition
        for a default-id node).  Not counted as a lookup.
        """
        best: Optional[StrippedPartition] = None
        for attr in attrset.iter_attrs(path):
            candidate = self._store[attrset.singleton(attr)]
            if best is None or candidate.size < best.size:
                best = candidate
        return best if best is not None else self.universal

    def peek(self, attrs: AttrSet) -> Optional[StrippedPartition]:
        """Return the cached partition for ``attrs`` if present."""
        return self._store.get(attrs)

    def get(self, attrs: AttrSet) -> StrippedPartition:
        """Return ``π_attrs``, building it from the best cached subset."""
        cached = self._store.get(attrs)
        if cached is not None:
            self.hits += 1
            self._hit_counter.inc()
            return cached
        self.misses += 1
        self._miss_counter.inc()
        partition = self._shared_get(attrs)
        if partition is None:
            base = self._best_subset(attrs)
            partition = base.refine_many(
                self.relation,
                attrset.iter_attrs(attrset.difference(attrs, base.attrs)),
            )
            self._publish(partition)
        self._store[attrs] = partition
        width = attrset.count(attrs)
        if width > 1:
            self._by_count.setdefault(width, []).append(attrs)
        return partition

    def _best_subset(self, attrs: AttrSet) -> StrippedPartition:
        """The cached partition over the largest proper subset of ``attrs``.

        Checks the immediate sub-masks (``attrs`` minus one attribute)
        first — the common case when related attribute sets are queried
        in sorted order.  Failing that, walks the count buckets from
        ``|attrs| - 2`` attributes down to 2 (the immediate check has
        already ruled out ``|attrs| - 1``) and returns from the first
        bucket that holds a subset, so e.g. a cached ``π_AB`` seeds
        ``π_ABCD`` with two refinement steps instead of three from a
        singleton.  Within a bucket the smallest ``||π||`` wins, then
        the first inserted.  Every cached mask is reachable; there is no
        scan cap.  Only then falls back to the smallest singleton.
        """
        for attr in attrset.iter_attrs(attrs):
            parent = self._store.get(attrset.remove(attrs, attr))
            if parent is not None:
                return parent
        outside = ~attrs
        for width in range(attrset.count(attrs) - 2, 1, -1):
            best: Optional[StrippedPartition] = None
            for mask in self._by_count.get(width, ()):
                if mask & outside == 0:
                    candidate = self._store[mask]
                    if best is None or candidate.size < best.size:
                        best = candidate
            if best is not None:
                return best
        return self.best_singleton(attrs)
