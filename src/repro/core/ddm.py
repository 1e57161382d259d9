"""The dynamic data manager (DDM, paper §IV-E, Algorithm 3).

The DDM owns two kinds of stripped partitions:

* the pre-computed singleton partitions ``π_A`` for every attribute,
  taken from a private :class:`~repro.partitions.cache.PartitionCache`
  (its ``store``), and
* a *dynamic array* of partitions, one per reusable node of the
  extended FD-tree at the current controlled level ``cl``.

Extended FD-tree node ids index into these: ``id < n_cols`` denotes
``π_id`` (a singleton), ``id >= n_cols`` denotes ``dynamic[id - n_cols]``.
When DHyFD decides (via the efficiency–inefficiency ratio) that deeper
partitions will pay off, :meth:`DynamicDataManager.update` refines each
reusable node's current partition up to the node's full path, replaces
the dynamic array, and rewrites node ids — copying each new id to the
node's descendants so property (8) of extended FD-trees keeps holding.

Lookup accounting distinguishes three outcomes: a *hit* resolves a
dynamic id to its refined partition; a *singleton lookup* resolves an
id below ``n_cols``, which denotes a singleton partition by design; a
*stale fallback* is the only real cache failure — a dynamic id whose
partition no longer matches the node's path (or is out of range), so
the lookup degrades to the cheapest singleton.  The resolutions
:meth:`bases` makes for :meth:`update` are not counted at all.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from ..fdtree.extended import ExtFDNode
from ..partitions.cache import PartitionCache
from ..partitions.stripped import StrippedPartition
from ..relational import attrset
from ..relational.relation import Relation
from ..resilience import faults
from ..telemetry import current_tracer
from .result import DiscoveryStats


class DynamicDataManager:
    """Manages singleton and dynamically refined stripped partitions."""

    def __init__(self, relation: Relation):
        self.relation = relation
        self.n_cols = relation.n_cols
        # Private: Table II must not measure partitions another run
        # published for the same data.
        self.store = PartitionCache(relation)
        self.universal = self.store.universal
        self.singletons: List[StrippedPartition] = self.store.singletons()
        self.dynamic: List[StrippedPartition] = []
        #: Number of Algorithm 3 runs (refinement rounds).
        self.update_count = 0
        #: Dynamic ids resolved to their refined partition.
        self.hits = 0
        #: Ids below ``n_cols`` resolved to a singleton — by design,
        #: not a cache failure.
        self.singleton_lookups = 0
        #: Dynamic ids that were stale (inconsistent or out of range)
        #: and fell back to a singleton — the honest miss count.
        self.stale_fallbacks = 0
        #: Dynamic partitions dropped by refinement rounds.
        self.evictions = 0

    @property
    def misses(self) -> int:
        """Real lookup failures: stale fallbacks only.

        Singleton-id resolutions are by-design and tracked separately
        in :attr:`singleton_lookups`.
        """
        return self.stale_fallbacks

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def _resolve(self, node: ExtFDNode) -> Tuple[StrippedPartition, str]:
        """Resolve a node's id without touching the counters.

        Returns the partition plus the resolution kind: ``"dynamic"``,
        ``"singleton"`` (id below ``n_cols``, by design), or
        ``"stale"`` (dynamic id inconsistent with the node's path).
        """
        if node.id >= self.n_cols:
            index = node.id - self.n_cols
            if index < len(self.dynamic):
                partition = self.dynamic[index]
                if attrset.is_subset(partition.attrs, node.path()):
                    return partition, "dynamic"
            return self.store.best_singleton(node.path()), "stale"
        return self.store.best_singleton(node.path()), "singleton"

    def partition_for_node(self, node: ExtFDNode) -> StrippedPartition:
        """The partition a node's id denotes, with a consistency guard.

        If a dynamic id turns out inconsistent (its partition is not
        over a subset of the node's path — possible for nodes that kept
        a stale inherited id), fall back to the cheapest singleton on
        the path, mirroring the paper's default-id escape hatch.
        """
        partition, kind = self._resolve(node)
        if kind != "singleton" and faults.armed() and faults.should_fire("ddm.stale"):
            # Chaos hook: pretend the dynamic id went stale so the
            # singleton fallback path gets exercised on demand.
            partition, kind = self.store.best_singleton(node.path()), "stale"
        if kind == "dynamic":
            self.hits += 1
        elif kind == "singleton":
            self.singleton_lookups += 1
        else:
            self.stale_fallbacks += 1
        return partition

    # ------------------------------------------------------------------
    # Algorithm 3 — refine the dynamic array to a new controlled level
    # ------------------------------------------------------------------

    def bases(self, nodes: Sequence[ExtFDNode]) -> List[StrippedPartition]:
        """The partition each node's refinement starts from (uncounted).

        Whatever the node's id denotes now — a dynamic partition from the
        previous controlled level, or the best singleton — so work done
        at earlier levels is reused, never repeated.
        """
        return [self._resolve(node)[0] for node in nodes]

    def update(self, nodes: Sequence[ExtFDNode]) -> None:
        """Refine partitions for ``nodes`` (the reusable nodes at vl).

        Each node's partition is refined from its entry in
        :meth:`bases`, so a caller that bounded the cost from those
        partitions refines exactly what it bounded.
        """
        new_array: List[StrippedPartition] = []
        for node, base in zip(nodes, self.bases(nodes)):
            path = node.path()
            partition = base.refine_many(
                self.relation,
                attrset.iter_attrs(attrset.difference(path, base.attrs)),
            )
            new_array.append(partition)
            new_id = self.n_cols + len(new_array) - 1
            _assign_id_to_subtree(node, new_id)
        self.evictions += len(self.dynamic)
        self.dynamic = new_array
        self.update_count += 1

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Approximate bytes held in singleton plus dynamic partitions."""
        total = self.universal.memory_bytes()
        total += sum(p.memory_bytes() for p in self.singletons)
        total += sum(p.memory_bytes() for p in self.dynamic)
        return total

    def dynamic_memory_bytes(self) -> int:
        """Bytes held by the dynamic array only (DHyFD's extra memory)."""
        return sum(p.memory_bytes() for p in self.dynamic)

    def record_telemetry(self, stats: DiscoveryStats) -> None:
        """Copy the counters into ``stats`` and report them once.

        Emits the ``partition_cache`` event (``scope="ddm"``) and adds
        the run's totals to the ``partition_cache.*`` counters; the
        memory gauge takes the run's peak from ``stats``.
        """
        stats.record_cache(self)
        tracer = current_tracer()
        tracer.event(
            "partition_cache",
            scope="ddm",
            hits=self.hits,
            misses=self.misses,
            singleton_lookups=self.singleton_lookups,
            stale_fallbacks=self.stale_fallbacks,
            evictions=self.evictions,
            entries=len(self.dynamic) + len(self.singletons) + 1,
            memory_bytes=self.memory_bytes(),
        )
        metrics = tracer.metrics
        metrics.counter("partition_cache.hits").inc(self.hits)
        metrics.counter("partition_cache.misses").inc(self.misses)
        metrics.counter("partition_cache.evictions").inc(self.evictions)
        metrics.gauge("partition_cache.memory_bytes").set_max(
            stats.partition_memory_peak_bytes
        )

    def shed_dynamic(self) -> int:
        """Drop every dynamic partition; returns the bytes freed.

        Correctness is unaffected because stale dynamic ids resolve to
        singleton fallbacks — only validation speed suffers.
        """
        freed = self.dynamic_memory_bytes()
        self.evictions += len(self.dynamic)
        self.dynamic = []
        return freed


def refine_bound(bases: Iterable[StrippedPartition]) -> int:
    """Bytes that refinements of ``bases`` can hold at most, together.

    A refinement keeps a subset of its base's rows in clusters of at
    least two, so it has at most ``size // 2`` clusters.  That bound is
    not the base's own bytes: one 100-row cluster split into 50 pairs
    needs more ``offsets`` than the base had.
    """
    return sum(
        base.rows.itemsize * base.size
        + base.offsets.itemsize * (base.size // 2 + 1)
        for base in bases
    )


def _assign_id_to_subtree(node: ExtFDNode, node_id: int) -> None:
    """Set ``node_id`` on a node and all descendants (Algorithm 3 l.15)."""
    stack = [node]
    while stack:
        current = stack.pop()
        current.id = node_id
        stack.extend(current.children.values())
