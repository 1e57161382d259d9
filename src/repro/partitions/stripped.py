"""Stripped partitions (paper §III) and their operations.

The stripped partition ``π_X(r)`` is the set of X-equivalence classes of
``r`` with at least two tuples.  Equivalence classes of size one are
"stripped" because they can never witness an FD violation.

Three operations drive every algorithm in this library:

* building ``π_A`` for a single attribute,
* the TANE partition *product* ``π_X ∩ π_Y = π_XY``, and
* *refinement* ``refine(r, π_X, A) = π_XA`` (the paper's Algorithm 5),
  which splits each cluster by the DIIS codes of one more attribute.

Refinement is the primitive that makes the dynamic data manager
possible: it derives a finer partition from a coarser one without ever
re-touching rows outside existing clusters.

All of these bottom out in :mod:`repro.partitions.kernels`, which runs
per-row or vectorized code depending on the size of each call.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

import numpy as np

from ..relational import attrset
from ..relational.attrset import AttrSet
from ..relational.relation import Relation
from ..resilience import faults
from . import kernels

Cluster = List[int]


class StrippedPartition:
    """An immutable stripped partition ``π_X(r)``.

    Attributes:
        attrs: the attribute-set bitmask ``X`` the partition refines on.
        clusters: equivalence classes of size >= 2, as row-index lists.
        n_rows: the number of rows of the underlying relation.
    """

    __slots__ = ("attrs", "clusters", "n_rows")

    def __init__(self, attrs: AttrSet, clusters: Sequence[Cluster], n_rows: int):
        self.attrs = attrs
        self.clusters: List[Cluster] = [list(c) for c in clusters]
        self.n_rows = n_rows

    @classmethod
    def _from_kernel(
        cls, attrs: AttrSet, clusters: List[Cluster], n_rows: int
    ) -> "StrippedPartition":
        """Adopt freshly built cluster lists without the defensive copy."""
        partition = cls.__new__(cls)
        partition.attrs = attrs
        partition.clusters = clusters
        partition.n_rows = n_rows
        return partition

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_flat(
        cls,
        attrs: AttrSet,
        rows: np.ndarray,
        lengths: np.ndarray,
        n_rows: int,
    ) -> "StrippedPartition":
        """Rebuild a partition from its flat ``(rows, lengths)`` transport
        form (:func:`repro.partitions.kernels.flatten_clusters`)."""
        return cls._from_kernel(
            attrs, kernels.unflatten_clusters(rows, lengths), n_rows
        )

    @classmethod
    def universal(cls, relation: Relation) -> "StrippedPartition":
        """``π_∅``: one cluster of all rows (empty when |r| < 2)."""
        if relation.n_rows >= 2:
            clusters = [list(range(relation.n_rows))]
        else:
            clusters = []
        return cls._from_kernel(attrset.EMPTY, clusters, relation.n_rows)

    @classmethod
    def for_attribute(cls, relation: Relation, attr: int) -> "StrippedPartition":
        """Build ``π_A`` by grouping rows on the column's DIIS codes."""
        faults.fire("partition.build.memory", MemoryError)
        clusters = kernels.group_rows(relation.codes(attr))
        return cls._from_kernel(attrset.singleton(attr), clusters, relation.n_rows)

    @classmethod
    def for_attrs(cls, relation: Relation, attrs: AttrSet) -> "StrippedPartition":
        """Build ``π_X`` for arbitrary ``X`` in one multi-key grouping pass."""
        members = attrset.to_list(attrs)
        if not members:
            return cls.universal(relation)
        faults.fire("partition.build.memory", MemoryError)
        base = cls.universal(relation)
        clusters = kernels.refine_clusters(
            [relation.codes(attr) for attr in members], base.clusters
        )
        return cls._from_kernel(attrs, clusters, relation.n_rows)

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------

    @property
    def num_clusters(self) -> int:
        """``|π_X|``: the number of (non-singleton) equivalence classes."""
        return len(self.clusters)

    @property
    def size(self) -> int:
        """``||π_X||``: total number of tuples inside the clusters."""
        return sum(len(c) for c in self.clusters)

    @property
    def error(self) -> int:
        """TANE's e-measure ``||π|| - |π|``; zero iff X is a key."""
        return self.size - self.num_clusters

    def is_key(self) -> bool:
        """True iff X uniquely identifies every row (no duplicates)."""
        return not self.clusters

    def memory_bytes(self) -> int:
        """Rough memory footprint (row indices at 8 bytes each)."""
        return 8 * self.size + 64 * len(self.clusters)

    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self) -> Iterator[Cluster]:
        return iter(self.clusters)

    def __repr__(self) -> str:
        return (
            f"StrippedPartition(attrs={bin(self.attrs)}, |π|={self.num_clusters}, "
            f"||π||={self.size})"
        )

    # ------------------------------------------------------------------
    # Refinement (Algorithm 5) and product
    # ------------------------------------------------------------------

    def refine(self, relation: Relation, attr: int) -> "StrippedPartition":
        """``π_XA`` from ``π_X``: split every cluster on attribute codes."""
        faults.fire("partition.refine.memory", MemoryError)
        clusters = kernels.refine_clusters([relation.codes(attr)], self.clusters)
        return StrippedPartition._from_kernel(
            attrset.add(self.attrs, attr), clusters, self.n_rows
        )

    def refine_many(
        self, relation: Relation, attrs: Iterable[int]
    ) -> "StrippedPartition":
        """Refine by several attributes in one kernel pass."""
        attr_list = list(attrs)
        if not attr_list:
            return self
        faults.fire("partition.refine.memory", MemoryError)
        clusters = kernels.refine_clusters(
            [relation.codes(attr) for attr in attr_list], self.clusters
        )
        return StrippedPartition._from_kernel(
            self.attrs | attrset.from_attrs(attr_list), clusters, self.n_rows
        )

    def intersect(self, other: "StrippedPartition") -> "StrippedPartition":
        """TANE's partition product: ``π_X ∩ π_Y = π_{X∪Y}``.

        Implements the classic probe-table algorithm: rows are tagged
        with their cluster id in ``self``; rows of each ``other``
        cluster are then grouped by that tag.
        """
        clusters = kernels.intersect_clusters(
            self.n_rows, self.clusters, other.clusters
        )
        return StrippedPartition._from_kernel(
            self.attrs | other.attrs, clusters, self.n_rows
        )

    # ------------------------------------------------------------------
    # FD checks
    # ------------------------------------------------------------------

    def refines_attribute(self, relation: Relation, attr: int) -> bool:
        """True iff the FD ``X -> attr`` holds on ``relation``.

        Holds exactly when every cluster of ``π_X`` is constant on the
        attribute's codes.
        """
        return kernels.clusters_constant_on(relation.codes(attr), self.clusters)

