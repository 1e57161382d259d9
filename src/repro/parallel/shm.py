"""Zero-copy export of a relation's encoded data to worker processes.

Workers never unpickle the :class:`~repro.relational.relation.Relation`
itself — its decoders and per-column objects are irrelevant to the hot
paths and would be copied per task.  Instead the two arrays every
parallel kernel consumes live in POSIX shared memory, leased from the
dataset arena:

* the row-major ``(n_rows, n_cols)`` int64 DIIS code matrix, and
* the ``(n_rows, n_cols)`` boolean null-marker matrix.

Each pool worker attaches at initializer time and reconstructs numpy
views over the same physical pages (:class:`SharedRelationView`), so a
pool of N workers holds one copy of the data, not N+1.

The view duck-types the slice of the ``Relation`` interface the
compute paths use — ``matrix()``, ``codes(attr)``, ``null_mask(attr)``,
``n_rows``, ``n_cols`` — which lets workers run the exact same
functions (``validate_fd``, ``redundant_rows_for_lhs``, the sampling
helpers) the serial path runs, keeping results byte-identical.

Lifecycle: the segments belong to the host-wide
:class:`~repro.memplane.arena.DatasetArena`.  A worker pool takes a
refcounted :class:`~repro.memplane.arena.ArenaLease` on them (the
copy-in happens at most once per dataset per host; repeated jobs
attach to the pinned segments) and releases it when the pool shuts
down; the arena unlinks under its own budget/LRU policy.  Workers
``close()`` their attachment at interpreter exit; spawn-started
workers also unregister the segments from their ``resource_tracker``
so a worker's exit does not unlink memory the arena still owns.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import List, Tuple

import numpy as np

from ..resilience import faults


@dataclass(frozen=True)
class ShmSpec:
    """Picklable handle describing the shared segments (sent to workers)."""

    matrix_name: str
    nulls_name: str
    n_rows: int
    n_cols: int


def relation_arrays(relation) -> Tuple[np.ndarray, np.ndarray]:
    """The two contiguous arrays every shared consumer needs.

    Returns the row-major int64 DIIS code matrix and the matching
    ``(n_rows, n_cols)`` boolean null-marker matrix — the layout the
    :class:`~repro.memplane.arena.DatasetArena` copies into its
    segments and :class:`SharedRelationView` maps back out.
    """
    n_rows, n_cols = relation.n_rows, relation.n_cols
    matrix = np.ascontiguousarray(relation.matrix(), dtype=np.int64)
    if n_cols and n_rows:
        nulls = np.column_stack(
            [relation.null_mask(attr) for attr in range(n_cols)]
        ).astype(bool, copy=False)
    else:
        nulls = np.zeros((n_rows, n_cols), dtype=bool)
    return matrix, np.ascontiguousarray(nulls)


def _attach(name: str, unregister: bool) -> shared_memory.SharedMemory:
    """Attach to a named segment without adopting its ownership.

    ``unregister`` must be True exactly when the attaching process has
    its *own* resource tracker (spawn-started workers): that tracker
    would otherwise unlink the segment at worker exit, stealing it from
    the parent and the sibling workers.  Fork-started workers (and
    same-process attachments) share the parent's tracker, where the
    segment is already correctly registered once — unregistering there
    would drop the parent's own registration.
    """
    faults.fire(
        "shm.attach",
        lambda: RuntimeError("injected shared-memory attach failure"),
    )
    shm = shared_memory.SharedMemory(name=name)
    if unregister:
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
    return shm


class SharedRelationView:
    """Worker-side zero-copy stand-in for a relation.

    Duck-types the read-only subset of the :class:`Relation` interface
    used by validation, redundancy counting and sampling.
    """

    __slots__ = ("n_rows", "n_cols", "_matrix", "_nulls", "_segments")

    def __init__(self, spec: ShmSpec, unregister: bool = False):
        self.n_rows = spec.n_rows
        self.n_cols = spec.n_cols
        matrix_shm = _attach(spec.matrix_name, unregister)
        nulls_shm = _attach(spec.nulls_name, unregister)
        #: Keep the SharedMemory objects alive as long as the views are.
        self._segments: List[shared_memory.SharedMemory] = [matrix_shm, nulls_shm]
        shape = (spec.n_rows, spec.n_cols)
        self._matrix = np.ndarray(shape, dtype=np.int64, buffer=matrix_shm.buf)
        self._nulls = np.ndarray(shape, dtype=bool, buffer=nulls_shm.buf)

    def matrix(self) -> np.ndarray:
        """The row-major DIIS code matrix (shared, do not write)."""
        return self._matrix

    def codes(self, attr: int) -> np.ndarray:
        """Column ``attr``'s code array (a strided view into the matrix)."""
        return self._matrix[:, attr]

    def null_mask(self, attr: int) -> np.ndarray:
        """Column ``attr``'s boolean null-marker mask."""
        return self._nulls[:, attr]

    def __repr__(self) -> str:
        return f"SharedRelationView({self.n_rows} rows x {self.n_cols} cols)"
