"""Ranking FDs by the data redundancy they cause (paper §VI-A).

The rank of an FD is the number of redundant data-value occurrences it
causes; high-ranked FDs express patterns with many witnesses (and drive
normalization), zero-redundancy FDs hint at keys, and FDs whose
redundancy is almost entirely null markers are likely accidental.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..partitions.cache import PartitionCache
from ..relational import attrset
from ..relational.attrset import AttrSet
from ..relational.fd import FD
from ..relational.relation import Relation
from ..relational.schema import RelationSchema
from ..telemetry import current_tracer
from .redundancy import (
    NullPolicy,
    count_redundant,
    lhs_row_masks,
    redundancy_upper_bound,
    redundant_rows_for_lhs,
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
) -> RankingResult:
    """Rank every FD of a cover by descending redundancy.

    Both the null-inclusive and null-exclusive counts are computed so
    callers can flag likely-accidental FDs; ties break on the FD masks
    for determinism.  ``deadline`` (a
    :class:`~repro.core.base.Deadline`) is polled per LHS so a driver's
    time limit bounds the ranking pass too.

    The full pass takes one INCLUDE row mask per distinct LHS from
    :func:`~repro.ranking.redundancy.lhs_row_masks` and derives both
    counts of every FD from it; the final sort uses the full
    ``(-redundancy, lhs, rhs)`` key, so ties never depend on cover
    order.

    With ``top_k=k`` the pass runs in bounded mode: FDs are measured in
    descending order of their :func:`redundancy_upper_bound`, and the
    pass stops as soon as the next bound falls strictly below the
    running k-th redundancy — the remaining FDs cannot enter the top-k
    even via tie-breaks, so the returned list is byte-identical to the
    first k entries of the full ranking at a fraction of the partition
    work.
    """
    start = time.perf_counter()
    fds = list(cover)
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    with current_tracer().span("ranking", fds=len(fds)):
        if top_k is None:
            masks = lhs_row_masks(
                relation, (fd.lhs for fd in fds), deadline=deadline
            )
            return ranking_from_masks(relation, fds, masks, start)
        cache = PartitionCache(relation, shared=True)
        ranked, skipped = _rank_bounded(relation, fds, top_k, cache, deadline)
        cache.record_telemetry(scope="ranking")
    return RankingResult(
        ranked=ranked,
        seconds=time.perf_counter() - start,
        top_k=top_k,
        bound_skipped=skipped,
    )


def _ranked_fd(relation: Relation, fd: FD, rows: np.ndarray) -> RankedFD:
    """Both counts of ``fd`` from its LHS's INCLUDE row mask.

    EXCLUDE_RHS only filters the same rows by each RHS attribute's own
    null mask, so one mask serves both counts.
    """
    excluding = sum(
        int((rows & ~relation.null_mask(attr)).sum())
        for attr in attrset.iter_attrs(fd.rhs)
    )
    return RankedFD(
        fd=fd,
        redundancy=int(rows.sum()) * attrset.count(fd.rhs),
        redundancy_excluding_null=excluding,
    )


def ranking_from_masks(
    relation: Relation,
    fds: Sequence[FD],
    masks: Dict[AttrSet, np.ndarray],
    started: float,
) -> RankingResult:
    """The full ranking of ``fds`` from their LHSs' INCLUDE row masks.

    ``started`` is the :func:`time.perf_counter` reading the timed pass
    began at.
    """
    ranked = [_ranked_fd(relation, fd, masks[fd.lhs]) for fd in fds]
    ranked.sort(key=lambda r: (-r.redundancy, r.fd.lhs, r.fd.rhs))
    return RankingResult(ranked=ranked, seconds=time.perf_counter() - started)


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
        _ranked_fd(
            relation,
            fd,
            redundant_rows_for_lhs(relation, cache.get(fd.lhs), NullPolicy.INCLUDE),
        )
        for fd, _ in tracker.top()
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
