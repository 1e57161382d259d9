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

A partition is stored flat: a ``rows`` array holding the clustered rows
cluster after cluster, in canonical order, and an ``offsets`` array of
cluster bounds (see :mod:`repro.partitions.kernels`, where every
operation bottoms out and picks per-row or vectorized code by size).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

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
        rows: every clustered row, cluster after cluster (canonical
            order: clusters by first row, rows ascending).
        offsets: cluster ``i`` is ``rows[offsets[i]:offsets[i + 1]]``.
        n_rows: the number of rows of the underlying relation.
    """

    __slots__ = ("attrs", "rows", "offsets", "n_rows")

    def __init__(
        self, attrs: AttrSet, rows: np.ndarray, offsets: np.ndarray, n_rows: int
    ):
        # read-only: shared stores hand the same arrays to every caller
        rows.flags.writeable = False
        offsets.flags.writeable = False
        self.attrs = attrs
        self.rows = rows
        self.offsets = offsets
        self.n_rows = n_rows

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def universal(cls, relation: Relation) -> "StrippedPartition":
        """``π_∅``: one cluster of all rows (empty when |r| < 2)."""
        n_rows = relation.n_rows
        return cls(attrset.EMPTY, *kernels.universal(n_rows), n_rows)

    @classmethod
    def for_attribute(cls, relation: Relation, attr: int) -> "StrippedPartition":
        """Build ``π_A`` by grouping rows on the column's DIIS codes."""
        faults.fire("partition.build.memory", MemoryError)
        flat = kernels.group_rows(relation.codes(attr))
        return cls(attrset.singleton(attr), *flat, relation.n_rows)

    @classmethod
    def for_attrs(cls, relation: Relation, attrs: AttrSet) -> "StrippedPartition":
        """Build ``π_X`` for arbitrary ``X`` in one multi-key grouping pass."""
        members = attrset.to_list(attrs)
        if not members:
            return cls.universal(relation)
        faults.fire("partition.build.memory", MemoryError)
        base = cls.universal(relation)
        flat = kernels.refine_clusters(
            [relation.codes(attr) for attr in members], base.flat
        )
        return cls(attrs, *flat, relation.n_rows)

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------

    @property
    def num_clusters(self) -> int:
        """``|π_X|``: the number of (non-singleton) equivalence classes."""
        return len(self.offsets) - 1

    @property
    def size(self) -> int:
        """``||π_X||``: total number of tuples inside the clusters."""
        return len(self.rows)

    @property
    def error(self) -> int:
        """TANE's e-measure ``||π|| - |π|``; zero iff X is a key."""
        return self.size - self.num_clusters

    def is_key(self) -> bool:
        """True iff X uniquely identifies every row (no duplicates)."""
        return len(self.rows) == 0

    @property
    def flat(self) -> kernels.Flat:
        """``(rows, offsets)``: the form every partition kernel takes."""
        return self.rows, self.offsets

    def memory_bytes(self) -> int:
        """Bytes held by the ``rows`` and ``offsets`` arrays."""
        return self.rows.nbytes + self.offsets.nbytes

    @property
    def clusters(self) -> List[Cluster]:
        """The clusters as row-index lists: a fresh copy, for inspection.

        Built from the arrays on every access; no hot path uses it.
        """
        return kernels.cluster_lists(self.rows, self.offsets)

    def __len__(self) -> int:
        return self.num_clusters

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
        return self.refine_many(relation, [attr])

    def refine_many(
        self, relation: Relation, attrs: Iterable[int]
    ) -> "StrippedPartition":
        """Refine by several attributes in one kernel pass."""
        attr_list = list(attrs)
        if not attr_list:
            return self
        faults.fire("partition.refine.memory", MemoryError)
        flat = kernels.refine_clusters(
            [relation.codes(attr) for attr in attr_list], self.flat
        )
        return StrippedPartition(
            self.attrs | attrset.from_attrs(attr_list), *flat, self.n_rows
        )

    def intersect(self, other: "StrippedPartition") -> "StrippedPartition":
        """TANE's partition product: ``π_X ∩ π_Y = π_{X∪Y}``.

        Implements the classic probe-table algorithm: rows are tagged
        with their cluster id in ``self``; rows of each ``other``
        cluster are then grouped by that tag.
        """
        flat = kernels.intersect_clusters(self.n_rows, self.flat, other.flat)
        return StrippedPartition(self.attrs | other.attrs, *flat, self.n_rows)

    # ------------------------------------------------------------------
    # FD checks
    # ------------------------------------------------------------------

    def refines_attribute(self, relation: Relation, attr: int) -> bool:
        """True iff the FD ``X -> attr`` holds on ``relation``.

        Holds exactly when every cluster of ``π_X`` is constant on the
        attribute's codes.
        """
        return kernels.clusters_constant_on(relation.codes(attr), self.flat)
