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

from ..relational.attrset import AttrSet
from ..relational.fd import FD, FDSet
from ..relational.relation import Relation
from ..relational.schema import RelationSchema
from ..telemetry import current_tracer
from .redundancy import lhs_row_masks, mask_matrix, membership, null_matrix

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

    With ``rank_cover(..., top_k=k)`` ``ranked`` holds the first k
    entries of the full ranking and ``top_k`` records the requested k.
    """

    ranked: List[RankedFD]
    seconds: float
    top_k: Optional[int] = None

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
    callers can flag likely-accidental FDs.  ``deadline`` (a
    :class:`~repro.core.base.Deadline`) is polled during the mask pass
    so a driver's time limit bounds the ranking pass too.

    The pass takes one INCLUDE row mask per distinct LHS from
    :func:`~repro.ranking.redundancy.lhs_row_masks` and derives both
    counts of every FD from it; the sort uses the full
    ``(-redundancy, lhs, rhs)`` key, so ties never depend on cover
    order.  ``top_k=k`` keeps the first k entries of that one ranking,
    as :func:`~repro.profiling.profiler.profile` does.
    """
    start = time.perf_counter()
    fds = list(cover)
    with current_tracer().span("ranking", fds=len(fds)):
        masks = lhs_row_masks(relation, (fd.lhs for fd in fds), deadline=deadline)
        return ranking_from_masks(relation, fds, masks, start, top_k)


def first_k(
    relation: Relation, cover: Iterable[FD], k: int, deadline=None
) -> FDSet:
    """The first k FDs of ``rank_cover(relation, cover, top_k=k)``."""
    ranking = rank_cover(relation, cover, deadline=deadline, top_k=k)
    return FDSet(ranked.fd for ranked in ranking.ranked)


def ranking_from_masks(
    relation: Relation,
    fds: Sequence[FD],
    masks: Dict[AttrSet, np.ndarray],
    started: float,
    top_k: Optional[int] = None,
) -> RankingResult:
    """The ranking of ``fds`` from their LHSs' INCLUDE row masks.

    Every count is a matrix sum over the ``(LHSs, rows)`` mask matrix:
    an FD ``X → Y`` causes ``|Y| · ||mask_X||`` occurrences, of which
    the non-null ones are the sum over ``A ∈ Y`` of the marked rows
    non-null on ``A`` (EXCLUDE_RHS only filters the same rows by each
    RHS attribute's own null mask).  ``top_k`` keeps the first k
    entries; it must be at least 1.  ``started`` is the
    :func:`time.perf_counter` reading the timed pass began at.
    """
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    matrix, lhs_of = mask_matrix(relation, fds, masks)
    rhs = membership([fd.rhs for fd in fds], relation.n_cols)
    marked = matrix.sum(axis=1)
    total = (marked[lhs_of] * rhs.sum(axis=1)).tolist()
    # M @ nonnull, as the row sums less M @ nulls over the null-bearing
    # columns: no BLAS call, and the cost follows the nulls.
    nulls = null_matrix(relation)
    per_attr = np.repeat(marked[:, None], relation.n_cols, axis=1)
    for attr in np.flatnonzero(nulls.any(axis=0)):
        per_attr[:, attr] -= matrix[:, nulls[:, attr]].sum(axis=1)
    clean = (per_attr[lhs_of] * rhs).sum(axis=1).tolist()
    order = sorted(
        range(len(fds)), key=lambda i: (-total[i], fds[i].lhs, fds[i].rhs)
    )[:top_k]
    return RankingResult(
        ranked=[RankedFD(fds[i], total[i], clean[i]) for i in order],
        seconds=time.perf_counter() - started,
        top_k=top_k,
    )


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
