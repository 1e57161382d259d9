"""Exact top-k selection by redundancy (rank-aware early termination).

The ranking order of :func:`~repro.ranking.ranker.rank_cover` is
``(-redundancy, fd.lhs, fd.rhs)``.  Because the null-inclusive
redundancy of an FD ``X -> Y`` is ``|Y| * ||pi_X||`` and stripped
partitions only lose rows under refinement (``X ⊆ Z`` implies
``||pi_Z|| <= ||pi_X||``), any partition of a *subset* of the LHS gives
a cheap upper bound on the redundancy of the FD — and of every FD whose
LHS is a superset.  :class:`TopKTracker` turns that into a running
threshold: once k FDs with exact redundancies are known, any candidate
whose upper bound falls *strictly* below the current k-th redundancy
can be discarded without ever measuring (or even discovering) it.

The strict comparison is what preserves the tie-break: a pruned
candidate's redundancy is ``<= bound < threshold <= final k-th
redundancy``, so it cannot displace a winner even on equal-redundancy
ties — the surviving candidates are re-sorted with the full ranking
key at the end.  The returned top-k is therefore byte-identical to the
first k entries of the full ranked cover.

Only the rank-aware searches of ``discover_top_k`` (DHyFD and TANE)
prune with it.  ``rank_cover(top_k=k)`` measures every FD in one mask
pass and keeps the first k entries of the full ranking.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from ..relational.fd import FD, FDSet


class TopKTracker:
    """Running top-k threshold over exactly-measured FD redundancies.

    Algorithms feed every FD they confirm through :meth:`add` (with its
    exact null-inclusive redundancy) and consult :meth:`can_prune`
    before spending work on a candidate whose redundancy upper bound is
    known.  ``pruned_candidates`` is a public tally the search bumps
    for every candidate LHS it skipped — it lands in
    :class:`~repro.core.result.DiscoveryStats`.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"top_k must be >= 1, got {k}")
        self.k = k
        #: Every (redundancy, fd) measured exactly so far.
        self._entries: List[Tuple[int, FD]] = []
        #: Min-heap of the k largest redundancies measured so far.
        self._heap: List[int] = []
        #: Candidate LHSs skipped because their bound fell below the
        #: threshold (filled in by the algorithm running the search).
        self.pruned_candidates = 0

    @property
    def threshold(self) -> Optional[int]:
        """The current k-th largest exact redundancy (None until k seen)."""
        return self._heap[0] if len(self._heap) >= self.k else None

    @property
    def full(self) -> bool:
        """True once k FDs have been measured."""
        return len(self._heap) >= self.k

    def can_prune(self, bound: int) -> bool:
        """May a candidate with this redundancy upper bound be skipped?

        Strictly-below only: a candidate whose bound *equals* the
        threshold could still enter the top-k by winning a tie-break,
        so it must be measured.
        """
        threshold = self.threshold
        return threshold is not None and bound < threshold

    def add(self, fd: FD, redundancy: int) -> None:
        """Record one FD with its exact null-inclusive redundancy."""
        self._entries.append((redundancy, fd))
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, redundancy)
        elif redundancy > self._heap[0]:
            heapq.heapreplace(self._heap, redundancy)

    def top(self) -> List[Tuple[FD, int]]:
        """The winning ``(fd, redundancy)`` pairs in full ranking order."""
        ordered = sorted(
            self._entries, key=lambda entry: (-entry[0], entry[1].lhs, entry[1].rhs)
        )
        return [(fd, redundancy) for redundancy, fd in ordered[: self.k]]

    def cover(self) -> FDSet:
        """The winning FDs as an :class:`~repro.relational.fd.FDSet`."""
        return FDSet(fd for fd, _ in self.top())

    def __repr__(self) -> str:
        return (
            f"TopKTracker(k={self.k}, measured={len(self._entries)}, "
            f"threshold={self.threshold}, pruned={self.pruned_candidates})"
        )
