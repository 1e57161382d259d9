"""Ranking FDs by the data redundancy they cause (paper §VI-A).

The rank of an FD is the number of redundant data-value occurrences it
causes; high-ranked FDs express patterns with many witnesses (and drive
normalization), zero-redundancy FDs hint at keys, and FDs whose
redundancy is almost entirely null markers are likely accidental.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..partitions.cache import PartitionCache
from ..relational import attrset
from ..relational.fd import FD, FDSet
from ..relational.relation import Relation
from ..relational.schema import RelationSchema
from ..telemetry import current_tracer
from .redundancy import (
    NullPolicy,
    _parallel_rows_by_lhs,
    count_redundant,
    redundancy_upper_bound,
)
from .topk import TopKTracker

#: Fig. 10's x-axis: fractions of the maximum per-FD redundancy.
DEFAULT_BUCKET_FRACTIONS: Tuple[float, ...] = (
    0.0, 0.025, 0.05, 0.10, 0.15, 0.20, 0.40, 0.60, 0.80, 1.00,
)


@dataclass(frozen=True)
class RankedFD:
    """One FD with its redundancy measurements."""

    fd: FD
    redundancy: int
    redundancy_excluding_null: int

    @property
    def null_fraction(self) -> float:
        """Share of the FD's redundant occurrences that are null markers."""
        if self.redundancy == 0:
            return 0.0
        return 1.0 - self.redundancy_excluding_null / self.redundancy

    @property
    def likely_accidental(self) -> bool:
        """Heuristic from the paper: nearly all-null redundancy."""
        return self.redundancy > 0 and self.null_fraction >= 0.9

    @property
    def likely_key_based(self) -> bool:
        """Zero redundancy means the LHS is (close to) a key."""
        return self.redundancy == 0

    def format(self, schema: RelationSchema) -> str:
        """Human-readable row for reports."""
        return (
            f"{self.fd.format(schema)}  "
            f"#red+0={self.redundancy}  #red={self.redundancy_excluding_null}"
        )


@dataclass
class RankingResult:
    """A ranked cover plus the time the ranking took.

    In bounded mode (``rank_cover(..., top_k=k)``) ``ranked`` holds
    exactly the first k entries of the full ranking, ``top_k`` records
    the requested k, and ``bound_skipped`` counts the FDs whose exact
    redundancy was never measured because their upper bound could not
    reach the running k-th redundancy.
    """

    ranked: List[RankedFD]
    seconds: float
    top_k: Optional[int] = None
    bound_skipped: int = 0

    def top(self, n: int) -> List[RankedFD]:
        """The ``n`` most redundancy-causing FDs."""
        return self.ranked[:n]

    def zero_redundancy(self) -> List[RankedFD]:
        """FDs causing no redundancy at all (key candidates)."""
        return [r for r in self.ranked if r.redundancy == 0]

    def likely_accidental(self) -> List[RankedFD]:
        """FDs whose redundancy is (almost) entirely null markers."""
        return [r for r in self.ranked if r.likely_accidental]

    @property
    def max_redundancy(self) -> int:
        """Largest per-FD redundancy in the cover."""
        if not self.ranked:
            return 0
        return self.ranked[0].redundancy


def rank_cover(
    relation: Relation,
    cover: Iterable[FD],
    deadline=None,
    top_k: Optional[int] = None,
    jobs: Optional[int] = None,
) -> RankingResult:
    """Rank every FD of a cover by descending redundancy.

    Both the null-inclusive and null-exclusive counts are computed so
    callers can flag likely-accidental FDs; ties break on the FD masks
    for determinism.  ``deadline`` (a
    :class:`~repro.core.base.Deadline`) is polled per FD so a driver's
    time limit bounds the ranking pass too.

    With ``top_k=k`` the pass runs in bounded mode: FDs are measured in
    descending order of their :func:`redundancy_upper_bound`, and the
    pass stops as soon as the next bound falls strictly below the
    running k-th redundancy — the remaining FDs cannot enter the top-k
    even via tie-breaks, so the returned list is byte-identical to the
    first k entries of the full ranking at a fraction of the partition
    work.

    With ``jobs`` > 1 the full pass computes its per-LHS redundant-row
    masks on a worker pool (one LHS per task, OR-merged); ranking order
    and counts are identical to the serial loop for any worker count
    because all counts are derived from the same masks and the final
    sort uses the full ``(-redundancy, lhs, rhs)`` key.  Bounded mode
    measures few FDs by construction and always runs serially.
    """
    start = time.perf_counter()
    fds = list(cover)
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    with current_tracer().span("ranking", fds=len(fds)):
        cache = PartitionCache(relation, shared=True)
        if top_k is not None:
            ranked, skipped = _rank_bounded(relation, fds, top_k, cache, deadline)
        else:
            ranked, skipped = _rank_full(relation, fds, cache, deadline, jobs)
        cache.record_telemetry(scope="ranking")
    return RankingResult(
        ranked=ranked,
        seconds=time.perf_counter() - start,
        top_k=top_k,
        bound_skipped=skipped,
    )


def _rank_full(
    relation: Relation,
    fds: List[FD],
    cache: PartitionCache,
    deadline,
    jobs: Optional[int],
) -> Tuple[List[RankedFD], int]:
    """The classic exhaustive pass: one exact measurement per FD."""
    unique_lhs = list(dict.fromkeys(fd.lhs for fd in fds))
    # One INCLUDE mask per LHS serves both counts: EXCLUDE_RHS only
    # filters by the RHS attribute's own null mask afterwards.
    rows_by_lhs = _parallel_rows_by_lhs(
        relation, unique_lhs, NullPolicy.INCLUDE, jobs
    )
    ranked = []
    for fd in fds:
        if deadline is not None:
            deadline.check()
        if rows_by_lhs is not None:
            rows = rows_by_lhs[fd.lhs]
            redundancy = int(rows.sum()) * attrset.count(fd.rhs)
            excluding = sum(
                int((rows & ~relation.null_mask(attr)).sum())
                for attr in attrset.iter_attrs(fd.rhs)
            )
        else:
            redundancy = count_redundant(relation, fd, NullPolicy.INCLUDE, cache)
            excluding = count_redundant(relation, fd, NullPolicy.EXCLUDE_RHS, cache)
        ranked.append(
            RankedFD(
                fd=fd,
                redundancy=redundancy,
                redundancy_excluding_null=excluding,
            )
        )
    ranked.sort(key=lambda r: (-r.redundancy, r.fd.lhs, r.fd.rhs))
    return ranked, 0


def _rank_bounded(
    relation: Relation,
    fds: List[FD],
    k: int,
    cache: PartitionCache,
    deadline,
) -> Tuple[List[RankedFD], int]:
    """Measure in descending-bound order behind a running k-th threshold."""
    bounds = [
        (
            redundancy_upper_bound(relation, fd.lhs, cache)
            * attrset.count(fd.rhs),
            fd,
        )
        for fd in fds
    ]
    bounds.sort(key=lambda entry: (-entry[0], entry[1].lhs, entry[1].rhs))
    tracker = TopKTracker(k)
    skipped = 0
    for index, (bound, fd) in enumerate(bounds):
        if deadline is not None:
            deadline.check()
        if tracker.can_prune(bound):
            # Bounds are non-increasing from here on and the threshold
            # never drops, so every remaining FD is prunable too.
            skipped = len(bounds) - index
            break
        tracker.add(fd, count_redundant(relation, fd, NullPolicy.INCLUDE, cache))
    ranked = [
        RankedFD(
            fd=fd,
            redundancy=redundancy,
            redundancy_excluding_null=count_redundant(
                relation, fd, NullPolicy.EXCLUDE_RHS, cache
            ),
        )
        for fd, redundancy in tracker.top()
    ]
    return ranked, skipped


def redundancy_histogram(
    redundancies: Sequence[int],
    fractions: Sequence[float] = DEFAULT_BUCKET_FRACTIONS,
) -> List[Tuple[int, int]]:
    """Fig. 10's bucket counts.

    Each x-value is ``fraction * max(redundancies)``; the y-value is the
    number of FDs whose redundancy is at most that x-value *and* more
    than the previous x-value (the first bucket counts exactly zero).
    Returns ``(threshold, count)`` pairs.

    When the maximum is small, several fractions round to the same
    integer threshold; such duplicates cover an empty range and are
    merged away instead of emitted as ``(threshold, 0)`` repeats.  An
    all-zero input therefore collapses to the single bucket
    ``[(0, n)]`` and an empty input to ``[(0, 0)]``.
    """
    if not redundancies:
        return [(0, 0)]
    maximum = max(redundancies)
    buckets: List[Tuple[int, int]] = []
    previous = -1
    for fraction in fractions:
        threshold = int(round(fraction * maximum))
        if buckets and threshold == buckets[-1][0]:
            continue  # same threshold as the last bucket: empty range
        count = sum(1 for value in redundancies if previous < value <= threshold)
        buckets.append((threshold, count))
        previous = threshold
    return buckets
