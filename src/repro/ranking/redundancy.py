"""Redundant data-value occurrences (paper §VI).

Following Vincent's notion, the occurrence of a value at ``(t, A)`` is
*redundant* w.r.t. an FD set Σ when every change of that value to a
different value violates some FD in Σ.  For an FD ``X → Y`` with
``A ∈ Y`` this happens exactly when another tuple shares t's X-values —
i.e. when ``t`` lies in a non-singleton cluster of ``π_X``.

Three counting policies correspond to the paper's columns:

* ``INCLUDE``          — count every redundant occurrence (#red+0);
* ``EXCLUDE_RHS``      — skip occurrences whose own value is a null
  marker (#red in Table IV; the intro's "σ3 causes only 2 instead of
  61" example);
* ``EXCLUDE_LHS_RHS``  — additionally require the witnessing X-values
  to be null-free (#red-0 in §VI-B and the orange series of Fig. 11).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from ..partitions.cache import PartitionCache
from ..partitions.stripped import StrippedPartition
from ..relational import attrset
from ..relational.attrset import AttrSet
from ..relational.fd import FD
from ..relational.relation import Relation
from ..telemetry import current_tracer


class NullPolicy(enum.Enum):
    """Which occurrences involving null markers count as redundant."""

    INCLUDE = "include"
    EXCLUDE_RHS = "exclude_rhs"
    EXCLUDE_LHS_RHS = "exclude_lhs_rhs"


def _lhs_null_mask(relation: Relation, lhs: AttrSet) -> Optional[np.ndarray]:
    """Per-row True where any LHS attribute is null (None when lhs = ∅)."""
    mask: Optional[np.ndarray] = None
    for attr in attrset.iter_attrs(lhs):
        column_mask = relation.null_mask(attr)
        mask = column_mask.copy() if mask is None else mask | column_mask
    return mask


def redundant_rows_for_lhs(
    relation: Relation,
    partition: StrippedPartition,
    policy: NullPolicy,
) -> np.ndarray:
    """Boolean per-row mask of rows whose RHS occurrences are redundant.

    A row is marked when it shares its LHS values with at least one
    other (surviving) row; under ``EXCLUDE_LHS_RHS`` rows with null LHS
    values are dropped before cluster sizes are re-checked.
    """
    marked = np.zeros(relation.n_rows, dtype=bool)
    if partition.is_key():
        return marked
    rows, offsets = partition.flat
    lhs_nulls = (
        _lhs_null_mask(relation, partition.attrs)
        if policy is NullPolicy.EXCLUDE_LHS_RHS
        else None
    )
    if lhs_nulls is None:
        marked[rows] = True
        return marked
    # EXCLUDE_LHS_RHS: drop null-LHS rows, then a cluster only witnesses
    # redundancy if at least two of its rows survive.
    survivors = ~lhs_nulls[rows]
    counts = np.add.reduceat(survivors.astype(np.int64), offsets[:-1])
    keep = survivors & np.repeat(counts >= 2, np.diff(offsets))
    marked[rows[keep]] = True
    return marked


def count_redundant(
    relation: Relation,
    fd: FD,
    policy: NullPolicy = NullPolicy.INCLUDE,
    cache: Optional[PartitionCache] = None,
) -> int:
    """Number of redundant occurrences the FD causes under ``policy``."""
    partition = (
        cache.get(fd.lhs)
        if cache is not None
        else StrippedPartition.for_attrs(relation, fd.lhs)
    )
    rows = redundant_rows_for_lhs(relation, partition, policy)
    total = 0
    for attr in attrset.iter_attrs(fd.rhs):
        if policy is NullPolicy.INCLUDE:
            total += int(rows.sum())
        else:
            total += int((rows & ~relation.null_mask(attr)).sum())
    return total


def redundancy_upper_bound(
    relation: Relation,
    lhs: AttrSet,
    cache: Optional[PartitionCache] = None,
) -> int:
    """Cheap upper bound on ``||pi_lhs||`` from cached partitions.

    Every row a partition strips stays stripped under refinement, so
    for any ``S ⊆ lhs`` it holds that ``||pi_lhs|| <= ||pi_S||`` — and
    the null-inclusive redundancy of a singleton-RHS FD ``lhs -> A`` is
    exactly ``||pi_lhs||``.  The bound therefore also covers every FD
    whose LHS is a *superset* of ``lhs``, which is what lets top-k
    discovery prune whole lattice regions (see
    :mod:`repro.ranking.topk`).

    The exact partition is used when already cached and the smallest
    seeded singleton otherwise (O(|lhs|) dictionary lookups, no
    partition is ever built); without a cache a private store is built.
    """
    if cache is None:
        cache = PartitionCache(relation)
    exact = cache.peek(lhs)
    if exact is not None:
        return exact.size
    return cache.best_singleton(lhs).size


def lhs_row_masks(
    relation: Relation,
    lhs_list: Iterable[AttrSet],
    policy: NullPolicy = NullPolicy.INCLUDE,
    cache: Optional[PartitionCache] = None,
    deadline=None,
) -> Dict[AttrSet, np.ndarray]:
    """Redundant-row mask of ``π_X`` for every distinct ``X`` in ``lhs_list``.

    The one source of per-LHS masks: the §VI ranking, the Table IV
    report and :func:`redundancy_positions` are all built from it, so
    :func:`~repro.profiling.profiler.profile`, which needs ranking and
    report, derives each LHS partition once.  Partitions come from
    ``cache`` (a fresh shared :class:`PartitionCache` when None).

    ``deadline`` (a :class:`~repro.core.base.Deadline` or
    :class:`~repro.core.base.RunContext`) is polled once per LHS.
    """
    if cache is None:
        cache = PartitionCache(relation, shared=True)
    masks: Dict[AttrSet, np.ndarray] = {}
    for lhs in dict.fromkeys(lhs_list):
        if deadline is not None:
            deadline.check()
        masks[lhs] = redundant_rows_for_lhs(relation, cache.get(lhs), policy)
    cache.record_telemetry(scope="redundancy")
    return masks


def _positions_from_masks(
    relation: Relation,
    fds: Sequence[FD],
    masks: Dict[AttrSet, np.ndarray],
    policy: NullPolicy = NullPolicy.INCLUDE,
) -> np.ndarray:
    """OR-merge per-LHS row masks into the ``(n_rows, n_cols)`` matrix.

    Each FD marks its LHS's rows in every RHS column; under a policy
    other than ``INCLUDE`` a marked occurrence must also be non-null.
    """
    marked = np.zeros((relation.n_rows, relation.n_cols), dtype=bool)
    for fd in fds:
        rows = masks[fd.lhs]
        for attr in attrset.iter_attrs(fd.rhs):
            if policy is NullPolicy.INCLUDE:
                marked[:, attr] |= rows
            else:
                marked[:, attr] |= rows & ~relation.null_mask(attr)
    return marked


def redundancy_positions(
    relation: Relation,
    cover: Iterable[FD],
    policy: NullPolicy = NullPolicy.INCLUDE,
    cache: Optional[PartitionCache] = None,
    deadline=None,
) -> np.ndarray:
    """Boolean ``(n_rows, n_cols)`` matrix of redundant positions.

    The union over the cover: a position may be redundant due to
    several FDs but is counted once (the data-set totals of Table IV).
    The per-LHS masks come from :func:`lhs_row_masks` (``deadline`` as
    there).
    """
    fds = list(cover)
    masks = lhs_row_masks(relation, (fd.lhs for fd in fds), policy, cache, deadline)
    return _positions_from_masks(relation, fds, masks, policy)


@dataclass(frozen=True)
class RedundancyReport:
    """One Table IV row: data redundancy of a data set under a cover."""

    n_values: int
    red_excluding_null: int
    red_including_null: int
    seconds: float

    @property
    def red_percent(self) -> float:
        """%red."""
        if self.n_values == 0:
            return 0.0
        return 100.0 * self.red_excluding_null / self.n_values

    @property
    def red_including_percent(self) -> float:
        """%red+0."""
        if self.n_values == 0:
            return 0.0
        return 100.0 * self.red_including_null / self.n_values


def report_from_masks(
    relation: Relation,
    fds: Sequence[FD],
    masks: Dict[AttrSet, np.ndarray],
    started: float,
) -> RedundancyReport:
    """The Table IV row of ``fds`` from their :func:`lhs_row_masks`.

    ``started`` is the :func:`time.perf_counter` reading the timed pass
    began at.
    """
    including = _positions_from_masks(relation, fds, masks)
    null_matrix = np.column_stack(
        [relation.null_mask(attr) for attr in range(relation.n_cols)]
    ) if relation.n_cols else np.zeros((relation.n_rows, 0), dtype=bool)
    return RedundancyReport(
        n_values=relation.n_values,
        red_excluding_null=int((including & ~null_matrix).sum()),
        red_including_null=int(including.sum()),
        seconds=time.perf_counter() - started,
    )


def dataset_redundancy(
    relation: Relation,
    cover: Iterable[FD],
    deadline=None,
) -> RedundancyReport:
    """Compute #values / #red / #red+0 for a relation and cover (timed)."""
    start = time.perf_counter()
    fds = list(cover)
    with current_tracer().span("redundancy", fds=len(fds)):
        masks = lhs_row_masks(relation, (fd.lhs for fd in fds), deadline=deadline)
        return report_from_masks(relation, fds, masks, start)
