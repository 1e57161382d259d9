"""TANE (Huhtala et al. [9]) — the column-based, level-wise baseline.

Traverses the attribute lattice bottom-up.  Each level's stripped
partitions are built by the partition product of two prefix-sharing
sets from the previous level; validity of ``X − {A} -> A`` is the
classic error-measure test ``e(X − A) = e(X)``.  The ``C+`` candidate
sets implement TANE's RHS pruning and key pruning.

The implementation keeps only two lattice levels of partitions alive at
a time, which is what lets TANE run at all on wider inputs — but, as
the paper stresses, the level-wise strategy still enumerates the whole
lattice when valid FDs sit at many different levels.

Top-k mode (:meth:`~repro.core.base.DiscoveryAlgorithm.discover_top_k`)
adds rank-aware pruning: every FD TANE emits with LHS ``X`` has
null-inclusive redundancy ``||pi_X||``, a size the level-wise sweep
computes anyway, so the running k-th redundancy is maintained for free.
A next-level candidate ``Y`` is generated only if the largest
``||pi_W||`` over its co-atoms ``W`` can still reach that threshold —
every FD emitted at ``Y`` or below has an LHS containing some co-atom
of ``Y``, so its redundancy is bounded by that maximum — and the sweep
terminates as soon as a whole level prunes away.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Tuple

from ..core.base import Deadline, DiscoveryAlgorithm, RunContext
from ..core.result import DiscoveryStats
from ..partitions.cache import PartitionCache
from ..partitions.stripped import StrippedPartition
from ..ranking.topk import TopKTracker
from ..relational import attrset
from ..relational.attrset import AttrSet
from ..relational.fd import FD, FDSet
from ..relational.relation import Relation


class TANE(DiscoveryAlgorithm):
    """Level-wise FD discovery with partition products and C+ pruning."""

    name = "tane"

    def _find_fds(
        self, relation: Relation, deadline: Deadline
    ) -> Tuple[FDSet, DiscoveryStats]:
        return self._search(relation, deadline, tracker=None)

    def _find_top_k(
        self, relation: Relation, k: int, deadline: Deadline
    ) -> Tuple[FDSet, DiscoveryStats]:
        tracker = TopKTracker(k)
        _, stats = self._search(relation, deadline, tracker)
        stats.pruned_candidates += tracker.pruned_candidates
        return tracker.cover(), stats

    def _search(
        self,
        relation: Relation,
        deadline: Deadline,
        tracker: Optional[TopKTracker],
    ) -> Tuple[FDSet, DiscoveryStats]:
        stats = DiscoveryStats()
        n_cols = relation.n_cols
        all_attrs = attrset.full_set(n_cols)
        fds = FDSet()

        store = PartitionCache(relation)  # private: level 1 and π_∅
        universal = store.universal
        partitions: Dict[AttrSet, StrippedPartition] = {attrset.EMPTY: universal}
        errors: Dict[AttrSet, int] = {attrset.EMPTY: universal.error}
        #: ``||pi_X||`` for every partition ever built.  Partitions are
        #: evicted two levels down but the sizes persist (like the
        #: errors) — top-k pruning bounds next-level candidates by the
        #: sizes of their co-atoms, which may predate the live window.
        sizes: Dict[AttrSet, int] = {attrset.EMPTY: universal.size}
        cplus: Dict[AttrSet, AttrSet] = {attrset.EMPTY: all_attrs}

        def emit(lhs: AttrSet, attr: int) -> None:
            fd = FD(lhs, attrset.singleton(attr))
            fds.add(fd)
            if tracker is not None:
                # Exact for free: the null-inclusive redundancy of a
                # singleton-RHS FD is ||pi_lhs||, already computed.
                tracker.add(fd, sizes[lhs])

        if isinstance(deadline, RunContext):
            deadline.stats = stats
            # TANE only ever records exactly-validated FDs, so the
            # anytime snapshot is simply what has accumulated; nothing
            # is materialized ahead of validation to report unverified.
            if tracker is None:
                deadline.set_partial_provider(lambda: (fds.copy(), FDSet()))
            else:
                deadline.set_partial_provider(lambda: (tracker.cover(), FDSet()))
            # No degradation ladder: TANE already keeps just two lattice
            # levels alive — a tripped budget aborts (or goes partial).
            deadline.install_memory_sentinel(
                lambda: sum(p.memory_bytes() for p in partitions.values())
            )

        level: List[AttrSet] = []
        for partition in store.singletons():
            mask = partition.attrs
            partitions[mask] = partition
            errors[mask] = partition.error
            sizes[mask] = partition.size
            level.append(mask)

        while level:
            deadline.check()
            stats.levels_processed += 1
            # --- compute C+ for this level, then dependencies
            for lhs in level:
                candidate = all_attrs
                for attr in attrset.iter_attrs(lhs):
                    candidate &= cplus.get(attrset.remove(lhs, attr), all_attrs)
                cplus[lhs] = candidate
            for lhs in level:
                deadline.check()
                for attr in attrset.iter_attrs(lhs & cplus[lhs]):
                    reduced = attrset.remove(lhs, attr)
                    stats.validations += 1
                    if self._valid(relation, reduced, lhs, partitions, errors, sizes):
                        emit(reduced, attr)
                        cplus[lhs] = attrset.remove(cplus[lhs], attr)
                        cplus[lhs] &= lhs  # drop all B in R − X
            # --- prune
            survivors: List[AttrSet] = []
            for lhs in level:
                if cplus[lhs] == attrset.EMPTY:
                    continue
                if errors[lhs] == 0:  # X is a (super)key
                    for attr in attrset.iter_attrs(
                        attrset.difference(cplus[lhs], lhs)
                    ):
                        if self._key_fd_is_minimal(relation, lhs, attr, errors, sizes):
                            emit(lhs, attr)
                    continue
                survivors.append(lhs)
            # --- generate the next level from prefix blocks
            level = self._next_level(
                relation, survivors, partitions, errors, sizes, deadline, tracker
            )
            stats.partition_memory_peak_bytes = max(
                stats.partition_memory_peak_bytes,
                sum(p.memory_bytes() for p in partitions.values()),
            )
            self._evict(partitions, errors, keep=set(level) | set(survivors))

        return fds, stats

    @staticmethod
    def _valid(
        relation: Relation,
        reduced: AttrSet,
        lhs: AttrSet,
        partitions: Dict[AttrSet, StrippedPartition],
        errors: Dict[AttrSet, int],
        sizes: Dict[AttrSet, int],
    ) -> bool:
        """``reduced -> (lhs − reduced)`` validity via the e-measure."""
        if reduced not in errors:
            partition = StrippedPartition.for_attrs(relation, reduced)
            partitions[reduced] = partition
            errors[reduced] = partition.error
            sizes[reduced] = partition.size
        return errors[reduced] == errors[lhs]

    @staticmethod
    def _key_fd_is_minimal(
        relation: Relation,
        lhs: AttrSet,
        attr: int,
        errors: Dict[AttrSet, int],
        sizes: Dict[AttrSet, int],
    ) -> bool:
        """Is the key FD ``lhs -> attr`` minimal?

        TANE's original condition intersects the C+ sets of the
        sibling sets ``X ∪ {A} − {B}``, which may never have been
        generated once pruning kicks in.  We check minimality directly
        instead: the FD is minimal iff no co-atom ``X − {B}`` already
        determines ``attr``.  Error values for co-atoms persist from
        the previous level; missing ones are recomputed on demand.
        """

        def error_of(mask: AttrSet) -> int:
            if mask not in errors:
                partition = StrippedPartition.for_attrs(relation, mask)
                errors[mask] = partition.error
                sizes[mask] = partition.size
            return errors[mask]

        bit_added = attrset.singleton(attr)
        for other in attrset.iter_attrs(lhs):
            reduced = attrset.remove(lhs, other)
            if error_of(reduced) == error_of(reduced | bit_added):
                return False
        return True

    @staticmethod
    def _next_level(
        relation: Relation,
        survivors: List[AttrSet],
        partitions: Dict[AttrSet, StrippedPartition],
        errors: Dict[AttrSet, int],
        sizes: Dict[AttrSet, int],
        deadline: Deadline,
        tracker: Optional[TopKTracker],
    ) -> List[AttrSet]:
        """Prefix-block generation with the all-subsets-present check.

        In top-k mode a complete candidate ``merged`` is additionally
        bounded before its partition product is paid: every FD emitted
        at ``merged`` or any of its descendants has an LHS containing
        some co-atom of ``merged`` (removing an attribute of ``merged``
        lands on a co-atom; removing any other attribute keeps the LHS
        a superset of ``merged`` itself), so ``max ||pi_co-atom||``
        bounds them all.  Strictly below the running k-th redundancy
        means nothing down there can enter the top-k, even on ties.
        """
        survivor_set = set(survivors)
        blocks: Dict[AttrSet, List[AttrSet]] = {}
        for lhs in survivors:
            prefix = attrset.remove(lhs, attrset.highest(lhs))
            blocks.setdefault(prefix, []).append(lhs)
        next_level: List[AttrSet] = []
        for members in blocks.values():
            members.sort()
            for left, right in combinations(members, 2):
                deadline.check()
                merged = left | right
                complete = all(
                    attrset.remove(merged, attr) in survivor_set
                    for attr in attrset.iter_attrs(merged)
                )
                if not complete:
                    continue
                if tracker is not None:
                    bound = max(
                        sizes[attrset.remove(merged, attr)]
                        for attr in attrset.iter_attrs(merged)
                    )
                    if tracker.can_prune(bound):
                        tracker.pruned_candidates += 1
                        continue
                product = partitions[left].intersect(partitions[right])
                partitions[merged] = product
                errors[merged] = product.error
                sizes[merged] = product.size
                next_level.append(merged)
        return next_level

    @staticmethod
    def _evict(
        partitions: Dict[AttrSet, StrippedPartition],
        errors: Dict[AttrSet, int],
        keep: set,
    ) -> None:
        """Drop partitions below the two live levels (memory discipline)."""
        keep_all = set(keep) | {attrset.EMPTY}
        keep_all.update(k for k in partitions if attrset.count(k) == 1)
        for victim in [k for k in partitions if k not in keep_all]:
            del partitions[victim]
        # errors stay: they are tiny and validity checks may revisit them
