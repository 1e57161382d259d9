"""FD validation against (possibly coarser) stripped partitions.

Implements the paper's Algorithm 4.  The candidate FD ``X → Y`` is
checked using a partition ``π_X'`` with ``X' ⊆ X``: its clusters are
refined to X-granularity (Algorithm 5), and within each refined cluster
every row is compared against the cluster's first row, its *pivot*.
Violating pairs contribute their full agree set ``Z`` as the non-FD
``Z ↛ R − Z`` — strictly more general evidence than the single invalid
FD, which is exactly what synergized induction wants.

The answer is that of a sequential scan: source clusters in order, each
refined on its own, each refined cluster's non-pivot rows in chunks of
:data:`CHUNK_ROWS`.  In a chunk, each attribute still in ``valid_rhs``
that some row violates takes the first such row as witness; the
witness's disagreement set leaves ``valid_rhs``.  The scan stops once
``valid_rhs`` is empty, and ``comparisons`` counts every row of every
chunk it entered.  It is computed in a few array passes instead:

* **Batches.**  Source clusters are refined in batches that start at
  :data:`FIRST_BATCH_ROWS` rows and double, one kernel call each, with
  the output grouped by source cluster: the scan's order.
* **Segmented compare.**  Per live RHS attribute, one vectorized compare
  of each batch row against its pivot finds the violating rows; the
  earliest over the live attributes is the first row the scan would
  stop at.  Every chunk before it holds no violation, so the scan would
  only have counted its rows.
* **Replay.**  That row's chunk runs through the scan's own loop
  (:func:`_replay_chunk`), which removes at least the violated
  attribute, and the search resumes after the chunk.

So ``valid_rhs``, the non-FDs and ``comparisons`` are exactly the
scan's; the batch size decides only how much refinement an early exit
saves.
"""

from __future__ import annotations

from typing import Set

import numpy as np

from ..partitions import kernels
from ..partitions.stripped import StrippedPartition
from ..relational import attrset
from ..relational.attrset import AttrSet
from ..relational.relation import Relation

#: Non-pivot rows per chunk: the granularity of the early exit and of
#: the ``comparisons`` count.
CHUNK_ROWS = 64

#: Source rows refined by the first batch; each later batch doubles.
FIRST_BATCH_ROWS = 128


class ValidationResult:
    """Outcome of validating one candidate FD."""

    __slots__ = ("valid_rhs", "non_fd_lhs", "comparisons")

    def __init__(self, valid_rhs: AttrSet, non_fd_lhs: Set[AttrSet], comparisons: int):
        #: RHS attributes that survived (the FD lhs -> valid_rhs holds).
        self.valid_rhs = valid_rhs
        #: Agree sets Z of violating pairs; each means Z ↛ R − Z.
        self.non_fd_lhs = non_fd_lhs
        #: Number of row comparisons performed (work accounting).
        self.comparisons = comparisons


def validate_fd(
    relation: Relation,
    lhs: AttrSet,
    rhs: AttrSet,
    partition: StrippedPartition,
) -> ValidationResult:
    """Validate ``lhs -> rhs`` using ``partition`` = π_X' with X' ⊆ lhs.

    Returns the surviving RHS attributes and the agree-set non-FDs of
    every violating pair encountered before the early exit.
    """
    if not attrset.is_subset(partition.attrs, lhs):
        raise ValueError(
            "validation partition must refine a subset of the FD's LHS"
        )
    missing = attrset.to_list(attrset.difference(lhs, partition.attrs))
    missing_codes = [relation.codes(attr) for attr in missing]
    rows, offsets = partition.flat
    n_sources = partition.num_clusters

    valid_rhs = rhs
    non_fds: Set[AttrSet] = set()
    comparisons = 0
    source = 0
    budget = FIRST_BATCH_ROWS
    while source < n_sources:
        first = int(offsets[source])
        end = int(np.searchsorted(offsets, first + budget, side="right")) - 1
        end = min(max(end, source + 1), n_sources)
        batch = (rows[first:offsets[end]], offsets[source:end + 1] - first)
        if missing_codes:
            batch = kernels.refine_clusters(missing_codes, batch, by_source=True)
        valid_rhs, batch_comparisons = _scan(relation, batch, valid_rhs, non_fds)
        comparisons += batch_comparisons
        if rhs and not valid_rhs:
            break  # the early exit: an empty rhs is scanned to the end
        source = end
        budget *= 2
    return ValidationResult(valid_rhs, non_fds, comparisons)


def _scan(
    relation: Relation,
    clusters: kernels.Flat,
    valid_rhs: AttrSet,
    non_fds: Set[AttrSet],
):
    """The sequential scan over one batch of refined clusters.

    Returns the surviving ``valid_rhs`` and the batch's comparisons;
    the non-FDs found are added to ``non_fds``.
    """
    rows, offsets = clusters
    pivots = rows[np.repeat(offsets[:-1], np.diff(offsets))]
    position = comparisons = 0
    while True:
        violated = np.zeros(len(rows) - position, dtype=bool)
        for attr in attrset.iter_attrs(valid_rhs):
            codes = relation.codes(attr)
            violated |= codes[rows[position:]] != codes[pivots[position:]]
        if not violated.any():
            return valid_rhs, comparisons + _non_pivots(offsets, position, len(rows))
        hit = position + int(violated.argmax())
        cluster = int(np.searchsorted(offsets, hit, side="right")) - 1
        first = int(offsets[cluster]) + 1
        chunk_start = first + (hit - first) // CHUNK_ROWS * CHUNK_ROWS
        chunk_end = min(chunk_start + CHUNK_ROWS, int(offsets[cluster + 1]))
        comparisons += _non_pivots(offsets, position, chunk_end)
        valid_rhs = _replay_chunk(
            relation, rows[chunk_start:chunk_end], pivots[hit], valid_rhs, non_fds
        )
        if not valid_rhs:
            return valid_rhs, comparisons
        position = chunk_end


def _non_pivots(offsets: np.ndarray, begin: int, end: int) -> int:
    """Non-pivot positions in ``[begin, end)`` of a flat batch."""
    starts = offsets[:-1]
    pivots = np.searchsorted(starts, end) - np.searchsorted(starts, begin)
    return end - begin - int(pivots)


def _replay_chunk(
    relation: Relation,
    rows: np.ndarray,
    pivot: int,
    valid_rhs: AttrSet,
    non_fds: Set[AttrSet],
) -> AttrSet:
    """The sequential scan's step over one chunk of a refined cluster."""
    matrix = relation.matrix()
    diff = matrix[rows] != matrix[pivot]  # (chunk, n_cols) bool
    for attr in attrset.iter_attrs(valid_rhs):
        column = diff[:, attr]
        if not column.any():
            continue
        witness = int(np.argmax(column))
        disagree = attrset.EMPTY
        for col in np.nonzero(diff[witness])[0]:
            disagree = attrset.add(disagree, int(col))
        valid_rhs = attrset.difference(valid_rhs, disagree)
        non_fds.add(attrset.complement(disagree, relation.n_cols))
        if not valid_rhs:
            break
    return valid_rhs


def check_fd(relation: Relation, lhs: AttrSet, rhs: AttrSet) -> bool:
    """Ground-truth check that ``lhs -> rhs`` holds, from scratch.

    Builds ``π_lhs`` directly; used by tests and the brute-force oracle
    rather than the discovery loop.
    """
    partition = StrippedPartition.for_attrs(relation, lhs)
    for attr in attrset.iter_attrs(rhs):
        if not partition.refines_attribute(relation, attr):
            return False
    return True
