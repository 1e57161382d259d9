"""Approximate FD discovery (TANE's g3 error measure).

An extension beyond the paper's exact setting: the FD ``X → A`` holds
*approximately* at error threshold ε when removing at most ``ε · |r|``
rows makes it hold exactly.  TANE's g3 measure computes that minimum
removal count from the stripped partitions: for each cluster of
``π_X``, all rows except the largest A-constant subgroup must go.

This matters in practice because dirty data (the paper's σ4 voter-id
example) breaks exact FDs that are clearly real; an ε of a fraction of
a percent recovers them.  The implementation is level-wise like TANE,
pruning once an (approximate) FD is found.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.base import Deadline, DiscoveryAlgorithm
from ..core.result import DiscoveryStats
from ..partitions.stripped import StrippedPartition
from ..relational import attrset
from ..relational.attrset import AttrSet
from ..relational.fd import FD, FDSet
from ..relational.relation import Relation
from ..resilience import RunBudget


def g3_error(relation: Relation, lhs: AttrSet, rhs_attr: int) -> float:
    """The g3 error of ``lhs -> rhs_attr`` on ``relation``.

    g3 = (minimum number of rows to delete so the FD holds) / |r|.
    """
    if relation.n_rows == 0:
        return 0.0
    partition = StrippedPartition.for_attrs(relation, lhs)
    return _g3_from_partition(relation, partition, rhs_attr)


def _g3_from_partition(
    relation: Relation, partition: StrippedPartition, rhs_attr: int
) -> float:
    if partition.is_key():
        return 0.0
    # each cluster keeps the rows of its most frequent RHS code
    rows, offsets = partition.flat
    cluster_ids = np.repeat(np.arange(partition.num_clusters), np.diff(offsets))
    pairs, counts = np.unique(
        np.stack([cluster_ids, relation.codes(rhs_attr)[rows]]),
        axis=1,
        return_counts=True,
    )
    firsts = np.flatnonzero(np.diff(pairs[0], prepend=-1))
    kept = int(np.maximum.reduceat(counts, firsts).sum())
    return (len(rows) - kept) / relation.n_rows


class ApproximateTANE(DiscoveryAlgorithm):
    """Level-wise discovery of approximate FDs under a g3 threshold.

    With ``error_threshold = 0`` the output coincides with the exact
    left-reduced cover (TANE's special case); larger thresholds admit
    FDs violated by a bounded fraction of rows.  Output FDs are minimal
    in the approximate sense: no proper LHS subset is itself within the
    threshold.
    """

    name = "atane"

    def __init__(
        self,
        error_threshold: float = 0.01,
        time_limit: Optional[float] = None,
        max_lhs_size: Optional[int] = None,
        budget: Optional["RunBudget"] = None,
        on_limit: str = "raise",
    ):
        super().__init__(time_limit, budget=budget, on_limit=on_limit)
        if error_threshold < 0:
            raise ValueError("error threshold must be non-negative")
        self.error_threshold = error_threshold
        self.max_lhs_size = max_lhs_size

    def _find_fds(
        self, relation: Relation, deadline: Deadline
    ) -> Tuple[FDSet, DiscoveryStats]:
        stats = DiscoveryStats()
        n_cols = relation.n_cols
        fds = FDSet()
        # per RHS attribute: minimal approximate LHSs found so far
        minimal: Dict[int, List[AttrSet]] = {a: [] for a in range(n_cols)}

        level: List[AttrSet] = [attrset.EMPTY]
        partitions: Dict[AttrSet, StrippedPartition] = {
            attrset.EMPTY: StrippedPartition.universal(relation)
        }
        size = 0
        while level:
            deadline.check()
            stats.levels_processed += 1
            next_level: List[AttrSet] = []
            next_partitions: Dict[AttrSet, StrippedPartition] = {}
            for lhs in level:
                partition = partitions[lhs]
                open_rhs = []
                for rhs_attr in range(n_cols):
                    if attrset.contains(lhs, rhs_attr):
                        continue
                    if any(
                        attrset.is_subset(m, lhs) for m in minimal[rhs_attr]
                    ):
                        continue
                    stats.validations += 1
                    error = _g3_from_partition(relation, partition, rhs_attr)
                    if error <= self.error_threshold:
                        minimal[rhs_attr].append(lhs)
                        fds.add(FD(lhs, attrset.singleton(rhs_attr)))
                    else:
                        open_rhs.append(rhs_attr)
                if not open_rhs:
                    continue
                if self.max_lhs_size is not None and size >= self.max_lhs_size:
                    continue
                floor = attrset.highest(lhs) if lhs else -1
                for attr in range(floor + 1, n_cols):
                    candidate = attrset.add(lhs, attr)
                    if candidate not in next_partitions:
                        next_partitions[candidate] = partition.refine(
                            relation, attr
                        )
                        next_level.append(candidate)
            level = next_level
            partitions = next_partitions
            size += 1
        return fds, stats
