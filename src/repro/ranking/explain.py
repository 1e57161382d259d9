"""Explanations: *why* is a value redundant, and *who* violates an FD.

The paper positions the ranking as guidance for data stewards; the
natural follow-up questions are drill-downs:

* "this FD causes N redundant values — show me one" →
  :func:`explain_redundancy` returns the witness rows that pin a value
  down (the other members of its LHS cluster);
* "this FD almost holds — what breaks it?" →
  :func:`violating_pairs` lists row pairs that agree on the LHS but
  disagree on the RHS (the paper's σ4 dirty-duplicate story is exactly
  one such pair).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..partitions.stripped import StrippedPartition
from ..relational import attrset
from ..relational.fd import FD
from ..relational.relation import Relation


@dataclass(frozen=True)
class RedundancyWitness:
    """Why one value occurrence is redundant under an FD."""

    row: int
    attr: int
    value: object
    witness_rows: Tuple[int, ...]

    def format(self, relation: Relation) -> str:
        """Human-readable one-liner."""
        column = relation.schema.name_of(self.attr)
        return (
            f"row {self.row}: {column}={self.value!r} is fixed by rows "
            f"{list(self.witness_rows)} sharing its LHS values"
        )


def explain_redundancy(
    relation: Relation,
    fd: FD,
    row: Optional[int] = None,
    max_witnesses: int = 5,
) -> List[RedundancyWitness]:
    """Witnesses for the FD's redundant occurrences.

    With ``row`` given, explains that row's occurrences only (empty
    result if the row is not redundant under the FD); otherwise one
    witness per cluster is returned as a sample.
    """
    partition = StrippedPartition.for_attrs(relation, fd.lhs)
    rows, offsets = partition.flat
    if row is None:
        picks = [
            (cluster, int(rows[offsets[cluster]]))
            for cluster in range(partition.num_clusters)
        ]
    else:
        picks = [
            (int(np.searchsorted(offsets, at, side="right")) - 1, row)
            for at in np.flatnonzero(rows == row)
        ]
    witnesses: List[RedundancyWitness] = []
    for cluster, target in picks:
        members = rows[offsets[cluster]:offsets[cluster + 1]].tolist()
        others = tuple(r for r in members if r != target)[:max_witnesses]
        for attr in attrset.iter_attrs(fd.rhs):
            witnesses.append(
                RedundancyWitness(
                    row=target,
                    attr=attr,
                    value=relation.value(target, attr),
                    witness_rows=others,
                )
            )
    return witnesses


def violating_pairs(
    relation: Relation,
    fd: FD,
    limit: int = 10,
) -> List[Tuple[int, int]]:
    """Row pairs that agree on the FD's LHS but differ on its RHS.

    Empty iff the FD holds.  ``limit`` caps the scan so dirty-data
    inspection of almost-valid FDs stays cheap.
    """
    partition = StrippedPartition.for_attrs(relation, fd.lhs)
    rows, offsets = partition.flat
    pivots = np.repeat(rows[offsets[:-1]], np.diff(offsets))
    differs = np.zeros(len(rows), dtype=bool)
    for attr in attrset.iter_attrs(fd.rhs):
        codes = relation.codes(attr)
        differs |= codes[rows] != codes[pivots]
    # the first pair is always reported, even for limit < 1
    at = np.flatnonzero(differs)[:max(limit, 1)]
    return list(zip(pivots[at].tolist(), rows[at].tolist()))
