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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..partitions import kernels
from ..partitions.cache import PartitionCache
from ..partitions.stripped import StrippedPartition
from ..relational import attrset
from ..relational.attrset import AttrSet
from ..relational.fd import FD, FDSet
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
    if not partition.clusters:
        return marked
    rows, lengths = kernels.flatten_clusters(partition.clusters)
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
    starts = np.concatenate(([0], np.cumsum(lengths[:-1])))
    counts = np.add.reduceat(survivors.astype(np.int64), starts)
    keep = survivors & np.repeat(counts >= 2, lengths)
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


def _parallel_rows_by_lhs(
    relation: Relation,
    unique_lhs: Sequence[AttrSet],
    policy: NullPolicy,
    jobs: Optional[int],
) -> Optional[Dict[AttrSet, np.ndarray]]:
    """Per-LHS redundant-row masks computed across a worker pool.

    Returns ``None`` whenever the serial path should run instead: jobs
    resolve to 1, the relation or FD list is below the parallel
    thresholds, or the pool broke (the caller recomputes serially — the
    masks merge by OR, so the result is identical either way).
    """
    from .. import parallel
    from ..parallel import config as parallel_config

    n_jobs = parallel.resolve_jobs(jobs)
    if (
        n_jobs <= 1
        or relation.n_rows < parallel_config.DEFAULT_MIN_PARALLEL_ROWS
        or len(unique_lhs) < parallel_config.DEFAULT_MIN_PARALLEL_ITEMS
    ):
        return None
    with parallel.ParallelExecutor(relation, jobs=n_jobs) as executor:
        try:
            masks = parallel.redundancy_row_masks(executor, unique_lhs, policy)
        except parallel.PoolBrokenError:
            return None
    return dict(zip(unique_lhs, masks))


def redundancy_positions(
    relation: Relation,
    cover: Iterable[FD],
    policy: NullPolicy = NullPolicy.INCLUDE,
    cache: Optional[PartitionCache] = None,
    jobs: Optional[int] = None,
    deadline=None,
) -> np.ndarray:
    """Boolean ``(n_rows, n_cols)`` matrix of redundant positions.

    The union over the cover: a position may be redundant due to
    several FDs but is counted once (the data-set totals of Table IV).

    With ``jobs`` > 1 (or a process default from ``REPRO_FD_JOBS`` /
    ``--jobs``) the per-LHS row masks are computed by a worker pool —
    one FD LHS per task — and OR-merged here; the result is identical
    to the serial loop for any worker count.

    ``deadline`` (a :class:`~repro.core.base.Deadline` or
    :class:`~repro.core.base.RunContext`) is polled once per FD so a
    driver's time limit also bounds the ranking pass.
    """
    if cache is None:
        cache = PartitionCache(relation, shared=True)
    marked = np.zeros((relation.n_rows, relation.n_cols), dtype=bool)
    fds = list(cover)
    unique_lhs = list(dict.fromkeys(fd.lhs for fd in fds))
    rows_by_lhs = _parallel_rows_by_lhs(relation, unique_lhs, policy, jobs)
    for fd in fds:
        if deadline is not None:
            deadline.check()
        if rows_by_lhs is not None:
            rows = rows_by_lhs[fd.lhs]
        else:
            partition = cache.get(fd.lhs)
            rows = redundant_rows_for_lhs(relation, partition, policy)
        for attr in attrset.iter_attrs(fd.rhs):
            if policy is NullPolicy.INCLUDE:
                marked[:, attr] |= rows
            else:
                marked[:, attr] |= rows & ~relation.null_mask(attr)
    return marked


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


def dataset_redundancy(
    relation: Relation,
    cover: FDSet,
    jobs: Optional[int] = None,
    deadline=None,
) -> RedundancyReport:
    """Compute #values / #red / #red+0 for a relation and cover (timed)."""
    start = time.perf_counter()
    with current_tracer().span("redundancy", fds=len(cover)):
        cache = PartitionCache(relation, shared=True)
        including = redundancy_positions(
            relation, cover, NullPolicy.INCLUDE, cache, jobs=jobs,
            deadline=deadline,
        )
        null_matrix = np.column_stack(
            [relation.null_mask(attr) for attr in range(relation.n_cols)]
        ) if relation.n_cols else np.zeros((relation.n_rows, 0), dtype=bool)
        excluding = including & ~null_matrix
        cache.record_telemetry(scope="redundancy")
    elapsed = time.perf_counter() - start
    return RedundancyReport(
        n_values=relation.n_values,
        red_excluding_null=int(excluding.sum()),
        red_including_null=int(including.sum()),
        seconds=elapsed,
    )
