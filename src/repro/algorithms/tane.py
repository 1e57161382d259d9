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
runs this same full sweep and ranks its cover afterwards.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, List, Tuple

from ..core.base import DiscoveryAlgorithm, RunContext
from ..core.result import DiscoveryStats
from ..partitions.cache import PartitionCache
from ..partitions.stripped import StrippedPartition
from ..relational import attrset
from ..relational.attrset import AttrSet
from ..relational.fd import FD, FDSet
from ..relational.relation import Relation
from ..resilience import BudgetExceeded


class TANE(DiscoveryAlgorithm):
    """Level-wise FD discovery with partition products and C+ pruning."""

    name = "tane"

    def _find_fds(
        self, relation: Relation, deadline: RunContext
    ) -> Tuple[FDSet, DiscoveryStats]:
        stats = DiscoveryStats()
        n_cols = relation.n_cols
        all_attrs = attrset.full_set(n_cols)
        fds = FDSet()

        store = PartitionCache(relation)  # private: level 1 and π_∅
        universal = store.universal
        partitions: Dict[AttrSet, StrippedPartition] = {attrset.EMPTY: universal}
        errors: Dict[AttrSet, int] = {attrset.EMPTY: universal.error}
        cplus: Dict[AttrSet, AttrSet] = {attrset.EMPTY: all_attrs}

        def emit(lhs: AttrSet, attr: int) -> None:
            fds.add(FD(lhs, attrset.singleton(attr)))

        singletons = store.singletons()
        #: The universal and singleton partitions, which no run can shed.
        floor = universal.memory_bytes() + sum(p.memory_bytes() for p in singletons)
        held = universal.memory_bytes()  # bytes of the live partitions

        def add(mask: AttrSet, partition: StrippedPartition) -> None:
            # Nothing to give back: above the budget and the floor, abort.
            nonlocal held
            partitions[mask] = partition
            errors[mask] = partition.error
            held += partition.memory_bytes()
            if held > floor and not deadline.fits(held):
                raise BudgetExceeded(
                    self.name, deadline.budget.memory_limit_bytes, held
                )

        deadline.stats = stats
        # TANE only ever records exactly-validated FDs, so the anytime
        # snapshot is simply what has accumulated; nothing is
        # materialized ahead of validation to report unverified.
        deadline.set_partial_provider(lambda: (fds.copy(), FDSet()))

        level: List[AttrSet] = []
        for partition in singletons:
            add(partition.attrs, partition)
            level.append(partition.attrs)

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
                    if self._valid(relation, reduced, lhs, errors, add):
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
                        if self._key_fd_is_minimal(relation, lhs, attr, errors):
                            emit(lhs, attr)
                    continue
                survivors.append(lhs)
            # --- generate the next level from prefix blocks
            level = self._next_level(survivors, partitions, deadline, add)
            stats.partition_memory_peak_bytes = max(
                stats.partition_memory_peak_bytes, held
            )
            held -= self._evict(partitions, keep=set(level) | set(survivors))

        return fds, stats

    @staticmethod
    def _valid(
        relation: Relation,
        reduced: AttrSet,
        lhs: AttrSet,
        errors: Dict[AttrSet, int],
        add: Callable[[AttrSet, StrippedPartition], None],
    ) -> bool:
        """``reduced -> (lhs − reduced)`` validity via the e-measure."""
        if reduced not in errors:
            add(reduced, StrippedPartition.for_attrs(relation, reduced))
        return errors[reduced] == errors[lhs]

    @staticmethod
    def _key_fd_is_minimal(
        relation: Relation,
        lhs: AttrSet,
        attr: int,
        errors: Dict[AttrSet, int],
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
                errors[mask] = StrippedPartition.for_attrs(relation, mask).error
            return errors[mask]

        bit_added = attrset.singleton(attr)
        for other in attrset.iter_attrs(lhs):
            reduced = attrset.remove(lhs, other)
            if error_of(reduced) == error_of(reduced | bit_added):
                return False
        return True

    @staticmethod
    def _next_level(
        survivors: List[AttrSet],
        partitions: Dict[AttrSet, StrippedPartition],
        deadline: RunContext,
        add: Callable[[AttrSet, StrippedPartition], None],
    ) -> List[AttrSet]:
        """Prefix-block generation with the all-subsets-present check."""
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
                add(merged, partitions[left].intersect(partitions[right]))
                next_level.append(merged)
        return next_level

    @staticmethod
    def _evict(
        partitions: Dict[AttrSet, StrippedPartition], keep: set
    ) -> int:
        """Drop partitions below the two live levels; returns the bytes freed."""
        keep_all = set(keep) | {attrset.EMPTY}
        keep_all.update(k for k in partitions if attrset.count(k) == 1)
        freed = 0
        for victim in [k for k in partitions if k not in keep_all]:
            freed += partitions.pop(victim).memory_bytes()
        # errors stay: they are tiny and validity checks may revisit them
        return freed
