"""FD validation against (possibly coarser) stripped partitions.

Implements the paper's Algorithm 4.  The candidate FD ``X → Y`` is
checked using a partition ``π_X'`` with ``X' ⊆ X``: each source cluster
is refined to X-granularity *one cluster at a time* (so the refinement
work is abandoned as soon as every RHS attribute is invalidated), and
within each refined cluster every row is compared against the cluster's
first row.  Violating pairs contribute their full agree set ``Z`` as
the non-FD ``Z ↛ R − Z`` — strictly more general evidence than the
single invalid FD, which is exactly what synergized induction wants.
"""

from __future__ import annotations

from typing import List, Set

import numpy as np

from ..partitions import kernels
from ..partitions.stripped import Cluster, StrippedPartition
from ..relational import attrset
from ..relational.attrset import AttrSet
from ..relational.relation import Relation


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
    matrix = relation.matrix()
    n_cols = relation.n_cols
    missing = attrset.to_list(attrset.difference(lhs, partition.attrs))
    missing_codes = [relation.codes(attr) for attr in missing]

    valid_rhs = rhs
    non_fds: Set[AttrSet] = set()
    comparisons = 0
    # Rows are compared against their cluster's pivot in vectorized
    # chunks: small enough that an early invalidation skips most of a
    # large cluster, large enough that numpy does the heavy lifting.
    chunk_size = 64

    for source_cluster in partition.clusters:
        if missing_codes:
            clusters: List[Cluster] = kernels.refine_clusters(
                missing_codes, [source_cluster]
            )
        else:
            clusters = [source_cluster]
        for cluster in clusters:
            pivot = matrix[cluster[0]]
            for start in range(1, len(cluster), chunk_size):
                rows = cluster[start:start + chunk_size]
                comparisons += len(rows)
                diff = matrix[rows] != pivot  # (chunk, n_cols) bool
                for attr in attrset.iter_attrs(valid_rhs):
                    column = diff[:, attr]
                    if not column.any():
                        continue
                    witness = int(np.argmax(column))
                    disagree = attrset.EMPTY
                    for col in np.nonzero(diff[witness])[0]:
                        disagree = attrset.add(disagree, int(col))
                    valid_rhs = attrset.difference(valid_rhs, disagree)
                    non_fds.add(attrset.complement(disagree, n_cols))
                    if not valid_rhs:
                        return ValidationResult(valid_rhs, non_fds, comparisons)
    return ValidationResult(valid_rhs, non_fds, comparisons)


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
