"""Sorted-neighborhood non-FD sampling (paper §IV-B, HyFD [16]).

Non-FDs are witnessed by tuple pairs: the agree set ``ag(t, t')`` of any
two distinct rows implies the non-FD ``ag(t,t') ↛ R − ag(t,t')``.
Comparing all ``O(|r|²)`` pairs is what makes FDEP row-bound, so the
hybrid algorithms *sample* pairs instead: within each cluster of each
singleton stripped partition, rows are sorted (the sorted-neighborhood
method of Hernández & Stolfo) and each row is compared with its
neighbour at distance ``w``.  Rows that share a value and sort next to
each other are likely to agree on much more, so the sampled agree sets
are large and each one kills many candidate FDs at once.

DHyFD samples only once, with window 1, before its first validation
round (re-sampling "would only cause computational overheads", §IV-H).
HyFD keeps the sampler around and grows the window whenever validation
invalidates too many FDs.

Agree-set computation goes through
:mod:`repro.partitions.kernels`, which compares a whole round's row
pairs in one shot and packs the agreement bitmasks with
``np.packbits``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from ..partitions import kernels
from ..partitions.stripped import StrippedPartition
from ..relational import attrset
from ..relational.attrset import AttrSet
from ..relational.relation import Relation


def row_sort_ranks(matrix: np.ndarray) -> np.ndarray:
    """Each row's place in the order of full row contents.

    Rows are ordered by their byte content, ties by row index.  Sorting
    cluster rows by content is what makes neighbours likely to share
    long agree sets (the sorted-neighborhood method).
    """
    keys = [row.tobytes() for row in matrix]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[order] = np.arange(len(keys))
    return ranks


def sort_clusters_by_rank(clusters: kernels.Flat, ranks: np.ndarray) -> np.ndarray:
    """The flat ``rows`` with each cluster's rows ordered by ``ranks``."""
    rows, offsets = clusters
    cluster_ids = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    return rows[np.lexsort((ranks[rows], cluster_ids))]


def window_pairs(
    clusters: kernels.Flat, window: int
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """All in-cluster row pairs at distance ``window``, as two row arrays.

    Pairs come cluster by cluster; returns ``None`` when no cluster is
    long enough to yield one.
    """
    rows, offsets = clusters
    if len(rows) <= window:
        return None
    cluster_ids = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    same = cluster_ids[window:] == cluster_ids[:-window]
    if not same.any():
        return None
    return rows[:-window][same], rows[window:][same]


class SampleStats:
    """Bookkeeping for one sampling round."""

    __slots__ = ("comparisons", "new_agree_sets")

    def __init__(self, comparisons: int = 0, new_agree_sets: int = 0):
        self.comparisons = comparisons
        self.new_agree_sets = new_agree_sets

    @property
    def efficiency(self) -> float:
        """New non-FDs per comparison; HyFD's switch signal."""
        if self.comparisons == 0:
            return 0.0
        return self.new_agree_sets / self.comparisons


class AgreeSetSampler:
    """Progressive sorted-neighborhood sampler over singleton partitions."""

    def __init__(
        self,
        relation: Relation,
        partitions: Sequence[StrippedPartition],
    ):
        self.relation = relation
        self.matrix = relation.matrix()
        self._full = attrset.full_set(relation.n_cols)
        #: Per-attribute clusters with rows pre-sorted by full row content.
        ranks = row_sort_ranks(self.matrix)
        self._sorted_clusters: List[kernels.Flat] = [
            (sort_clusters_by_rank(partition.flat, ranks), partition.offsets)
            for partition in partitions
        ]
        #: Next window distance to run, per attribute.
        self._windows = [1] * len(self._sorted_clusters)
        self.seen: Set[AttrSet] = set()

    def sample_round(self) -> Tuple[Set[AttrSet], SampleStats]:
        """Compare neighbours at each attribute's current window distance.

        Returns the *new* agree sets found this round plus stats; the
        per-attribute window then advances so the next round compares
        strictly new pairs.
        """
        stats = SampleStats()
        new_sets: Set[AttrSet] = set()
        for attr, clusters in enumerate(self._sorted_clusters):
            window = self._windows[attr]
            pairs = window_pairs(clusters, window)
            if pairs is not None:
                pairs_a, pairs_b = pairs
                stats.comparisons += len(pairs_a)
                for agree in kernels.agree_masks(self.matrix, pairs_a, pairs_b):
                    if agree != self._full and agree not in self.seen:
                        # duplicate rows agree everywhere — a trivial
                        # "non-FD" that cannot invalidate anything
                        self.seen.add(agree)
                        new_sets.add(agree)
            self._windows[attr] = window + 1
        stats.new_agree_sets = len(new_sets)
        return new_sets, stats

    def exhausted(self) -> bool:
        """True when every cluster has been fully windowed."""
        for attr, clusters in enumerate(self._sorted_clusters):
            _rows, offsets = clusters
            if len(offsets) > 1 and np.diff(offsets).max() > self._windows[attr]:
                return False
        return True


def initial_sample(
    relation: Relation,
    partitions: Sequence[StrippedPartition],
) -> Set[AttrSet]:
    """DHyFD's one-shot wide sample: a single window-1 round."""
    sampler = AgreeSetSampler(relation, partitions)
    agree_sets, _ = sampler.sample_round()
    return agree_sets


def all_agree_sets(relation: Relation) -> Set[AttrSet]:
    """The exact agree-set cover from *all* distinct row pairs.

    This is FDEP's quadratic negative-cover computation; only viable on
    relations with modest row counts.  Trivial full-schema agree sets
    from duplicate rows are dropped (they imply no non-FD).
    """
    full = attrset.full_set(relation.n_cols)
    agree_sets = kernels.pairwise_agree_sets(relation.matrix())
    agree_sets.discard(full)
    return agree_sets
