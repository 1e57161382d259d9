"""The dataset arena: one shared-memory copy of each relation per host.

Every consumer of a relation's encoded data — worker pools, service
jobs, ranking passes — attaches to one host-wide, fingerprint-keyed
store of pinned columnar segments instead of materializing its own
copy:

* a dataset is **ingested** at most once — the row-major int64 DIIS
  code matrix and the boolean null-mask matrix are copied into two
  POSIX shared-memory segments keyed by
  :meth:`~repro.relational.relation.Relation.fingerprint`;
* consumers **lease** the segments (:meth:`DatasetArena.lease`): a
  refcounted pin plus a picklable :class:`~repro.parallel.shm.ShmSpec`
  any :class:`~repro.parallel.shm.SharedRelationView` can attach to —
  so N pools over the same dataset share one copy, not N;
* unpinned entries are **evicted** LRU-first when the arena exceeds
  its byte budget (``REPRO_FD_ARENA_BUDGET``), and :meth:`shed` plugs
  into the :class:`~repro.resilience.MemorySentinel` degradation
  ladder;
* **append versions share pages**: when a relation appended from a
  registered parent is ingested with ``parent_fingerprint``, the
  parent's rows are verified to be a bit-identical prefix of the
  child's matrix (DIIS codes survive appends) and the parent entry is
  remapped onto the child's segment — the old parent copy is unlinked.

Segment names are ``reprofd-<owner>-<fp16>-{m,n}`` where ``owner``
defaults to ``p<pid>`` (override with ``REPRO_FD_ARENA_OWNER`` — a
supervisor sets one per server it starts).  The owner prefix is what
makes :func:`sweep_orphans` safe: after a server is SIGKILLed, its
supervisor unlinks exactly that server's leftovers before restarting
it.

The arena is always on and is the only shared-memory transport: a
worker pool whose lease fails retries, then runs its work serially
(see :mod:`repro.parallel.pool`).
"""

from __future__ import annotations

import atexit
import os
import re
import threading
from multiprocessing import shared_memory
from typing import Dict, List, Optional

import numpy as np

from ..parallel.shm import ShmSpec, relation_arrays
from ..resilience import faults
from ..resilience.budget import arena_budget_from_env

#: Segment-name owner token (defaults to ``p<pid>``); one per server.
ENV_ARENA_OWNER = "REPRO_FD_ARENA_OWNER"

#: Leading token of every arena segment name (and /dev/shm file).
SEGMENT_PREFIX = "reprofd"

_OWNER_SANITIZER = re.compile(r"[^A-Za-z0-9_.-]+")

def default_owner() -> str:
    """The segment-owner token: ``REPRO_FD_ARENA_OWNER`` or ``p<pid>``."""
    raw = os.environ.get(ENV_ARENA_OWNER, "").strip()
    if raw:
        return _OWNER_SANITIZER.sub("-", raw)[:48]
    return f"p{os.getpid()}"


class _Segment:
    """One refcounted pair of shared-memory segments (codes + nulls).

    Entries reference segments rather than owning them because an
    append remap leaves two entries (parent and child) viewing one
    physical segment; it is unlinked when the last reference drops.
    """

    __slots__ = ("matrix_shm", "nulls_shm", "nbytes", "refs")

    def __init__(
        self,
        matrix_shm: shared_memory.SharedMemory,
        nulls_shm: shared_memory.SharedMemory,
        nbytes: int,
    ):
        self.matrix_shm = matrix_shm
        self.nulls_shm = nulls_shm
        self.nbytes = nbytes
        self.refs = 1

    def decref(self) -> None:
        self.refs -= 1
        if self.refs > 0:
            return
        for shm in (self.matrix_shm, self.nulls_shm):
            try:
                shm.close()
            except Exception:
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            except Exception:
                pass


class _Entry:
    """One pinned dataset: a (possibly shared) segment plus its shape."""

    __slots__ = ("fingerprint", "segment", "n_rows", "n_cols", "pins", "tick")

    def __init__(self, fingerprint: str, segment: _Segment, n_rows: int, n_cols: int):
        self.fingerprint = fingerprint
        self.segment = segment
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.pins = 0
        self.tick = 0

    @property
    def spec(self) -> ShmSpec:
        return ShmSpec(
            matrix_name=self.segment.matrix_shm.name,
            nulls_name=self.segment.nulls_shm.name,
            n_rows=self.n_rows,
            n_cols=self.n_cols,
        )

    def matrix_view(self) -> np.ndarray:
        return np.ndarray(
            (self.n_rows, self.n_cols),
            dtype=np.int64,
            buffer=self.segment.matrix_shm.buf,
        )

    def nulls_view(self) -> np.ndarray:
        return np.ndarray(
            (self.n_rows, self.n_cols),
            dtype=bool,
            buffer=self.segment.nulls_shm.buf,
        )


class ArenaLease:
    """A refcounted pin on one arena entry (context manager).

    ``spec`` is the picklable handle pool workers attach to — a lease
    is the only way a worker pool gets its relation into shared
    memory.  The pinned entry cannot be evicted until :meth:`release`
    (idempotent).
    """

    __slots__ = ("_arena", "_entry", "spec", "nbytes", "fingerprint")

    def __init__(self, arena: "DatasetArena", entry: _Entry):
        self._arena = arena
        self._entry = entry
        self.spec = entry.spec
        self.nbytes = entry.segment.nbytes
        self.fingerprint = entry.fingerprint

    def release(self) -> None:
        entry, self._entry = self._entry, None
        if entry is not None:
            self._arena._unpin(entry)

    def __enter__(self) -> "ArenaLease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class DatasetArena:
    """Fingerprint-keyed shared-memory store of relation columns."""

    def __init__(self, budget_bytes: Optional[int] = None, owner: Optional[str] = None):
        """Args:
            budget_bytes: evict unpinned entries LRU-first past this
                total (None = unlimited; env default via
                ``REPRO_FD_ARENA_BUDGET``).
            owner: segment-name token (default :func:`default_owner`).
        """
        self.budget_bytes = budget_bytes
        self.owner = owner if owner else default_owner()
        self._lock = threading.RLock()
        self._entries: Dict[str, _Entry] = {}
        self._tick = 0
        self._seq = 0
        self.attach_hits = 0
        self.attach_misses = 0
        self.evictions = 0
        self.prefix_shared = 0
        self.stale_reclaimed = 0
        self.closed = False

    # ------------------------------------------------------------------
    # Leasing / ingest
    # ------------------------------------------------------------------

    def lease(self, relation) -> Optional[ArenaLease]:
        """Pin ``relation``'s columns in the arena and return a lease.

        Ingests on first sight (the one copy-in this host will pay for
        this dataset); later calls attach to the existing segments.
        Returns None for relations without a content fingerprint (e.g.
        worker-side shared views) and once the arena is closed.  Raises
        whatever the armed ``arena.attach`` fault injects; a worker
        pool treats either outcome as a pool failure and ends up
        running its work serially.
        """
        fingerprint_of = getattr(relation, "fingerprint", None)
        if fingerprint_of is None:
            return None
        faults.fire(
            "arena.attach",
            lambda: RuntimeError("injected arena attach failure"),
        )
        fingerprint = fingerprint_of()
        with self._lock:
            if self.closed:
                return None
            entry = self._entries.get(fingerprint)
            if entry is None:
                entry = self._ingest_locked(fingerprint, relation)
                self.attach_misses += 1
            else:
                self.attach_hits += 1
            entry.pins += 1
            entry.tick = self._next_tick()
            lease = ArenaLease(self, entry)
            self._enforce_budget_locked()
            return lease

    def ingest(
        self, relation, parent_fingerprint: Optional[str] = None
    ) -> Optional[str]:
        """Materialize ``relation`` in the arena without pinning it.

        The registry path: datasets become attachable (and evictable)
        the moment they are registered.  With ``parent_fingerprint``
        set — an append — the parent entry is remapped onto the child's
        segment when its rows are a verified bit-identical prefix, so
        both versions share one physical copy.  Returns the ingested
        fingerprint, or None when the relation has no fingerprint or
        the arena is closed.
        """
        fingerprint_of = getattr(relation, "fingerprint", None)
        if fingerprint_of is None:
            return None
        fingerprint = fingerprint_of()
        with self._lock:
            if self.closed:
                return None
            entry = self._entries.get(fingerprint)
            if entry is None:
                entry = self._ingest_locked(fingerprint, relation)
                entry.tick = self._next_tick()
            if parent_fingerprint is not None:
                self._share_prefix_locked(entry, parent_fingerprint)
            self._enforce_budget_locked(protect=fingerprint)
            return fingerprint

    def _ingest_locked(self, fingerprint: str, relation) -> _Entry:
        matrix, nulls = relation_arrays(relation)
        base = f"{SEGMENT_PREFIX}-{self.owner}-{fingerprint[:16]}-{self._seq}"
        self._seq += 1
        matrix_shm = self._create_segment(f"{base}m", matrix)
        nulls_shm = self._create_segment(f"{base}n", nulls)
        segment = _Segment(matrix_shm, nulls_shm, matrix.nbytes + nulls.nbytes)
        entry = _Entry(fingerprint, segment, relation.n_rows, relation.n_cols)
        self._entries[fingerprint] = entry
        return entry

    def _create_segment(
        self, name: str, array: np.ndarray
    ) -> shared_memory.SharedMemory:
        try:
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=max(1, array.nbytes)
            )
        except FileExistsError:
            # A leftover from a killed predecessor sharing our owner
            # token: never trust its contents, reclaim the name.
            try:
                stale = shared_memory.SharedMemory(name=name)
                stale.close()
                stale.unlink()
            except Exception:
                pass
            self.stale_reclaimed += 1
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=max(1, array.nbytes)
            )
        if array.nbytes:
            target = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
            target[...] = array
        return shm

    def _share_prefix_locked(self, child: _Entry, parent_fingerprint: str) -> None:
        """Remap an append's parent onto the child's segment when safe.

        Safe means: same width, parent no taller, the parent's rows are
        bit-identical to the child's prefix (verified, never assumed),
        and the parent is unpinned — live leases hold the parent's
        current segment names, so a pinned parent keeps its own copy
        until the next ingest gets another chance.
        """
        parent = self._entries.get(parent_fingerprint)
        if (
            parent is None
            or parent.segment is child.segment
            or parent.pins > 0
            or parent.n_cols != child.n_cols
            or parent.n_rows > child.n_rows
        ):
            return
        if not (
            np.array_equal(parent.matrix_view(), child.matrix_view()[: parent.n_rows])
            and np.array_equal(
                parent.nulls_view(), child.nulls_view()[: parent.n_rows]
            )
        ):
            return
        old = parent.segment
        child.segment.refs += 1
        parent.segment = child.segment
        old.decref()
        self.prefix_shared += 1

    # ------------------------------------------------------------------
    # Pinning / eviction
    # ------------------------------------------------------------------

    def _unpin(self, entry: _Entry) -> None:
        with self._lock:
            if entry.pins > 0:
                entry.pins -= 1

    def _next_tick(self) -> int:
        self._tick += 1
        return self._tick

    def memory_bytes(self) -> int:
        """Total bytes of distinct live segments."""
        with self._lock:
            return self._bytes_locked()

    def _bytes_locked(self) -> int:
        seen = set()
        total = 0
        for entry in self._entries.values():
            if id(entry.segment) not in seen:
                seen.add(id(entry.segment))
                total += entry.segment.nbytes
        return total

    def _enforce_budget_locked(self, protect: Optional[str] = None) -> None:
        if self.budget_bytes is None:
            return
        self._shed_locked(self.budget_bytes, protect=protect)

    def shed(self, target_bytes: Optional[int] = None) -> int:
        """Evict unpinned entries, least-recently-leased first.

        Degradation hook for the memory sentinel (and the budget
        enforcer): stops once usage falls to ``target_bytes`` (evicts
        every unpinned entry when None).  Pinned entries are never
        touched — a lease is a correctness contract.  Returns the
        bytes freed.
        """
        with self._lock:
            return self._shed_locked(target_bytes)

    def _shed_locked(
        self, target_bytes: Optional[int], protect: Optional[str] = None
    ) -> int:
        victims = sorted(
            (
                entry
                for entry in self._entries.values()
                if entry.pins == 0 and entry.fingerprint != protect
            ),
            key=lambda entry: entry.tick,
        )
        freed = 0
        for entry in victims:
            if target_bytes is not None and self._bytes_locked() <= target_bytes:
                break
            before = self._bytes_locked()
            del self._entries[entry.fingerprint]
            entry.segment.decref()
            freed += before - self._bytes_locked()
            self.evictions += 1
        return freed

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def pins(self, fingerprint: str) -> int:
        """Current pin count of one entry (0 when absent)."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            return entry.pins if entry is not None else 0

    def gauges(self) -> Dict[str, float]:
        """``memplane.*`` gauge snapshot for ``/metrics`` exports."""
        with self._lock:
            pinned = sum(1 for entry in self._entries.values() if entry.pins > 0)
            return {
                "memplane.datasets": float(len(self._entries)),
                "memplane.pinned_datasets": float(pinned),
                "memplane.arena_bytes": float(self._bytes_locked()),
                "memplane.attach_hits": float(self.attach_hits),
                "memplane.attach_misses": float(self.attach_misses),
                "memplane.evictions": float(self.evictions),
                "memplane.prefix_shared": float(self.prefix_shared),
            }

    def close(self) -> None:
        """Unlink every segment, pinned or not (interpreter shutdown)."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
            self.closed = True
            seen = set()
            for entry in entries:
                if id(entry.segment) in seen:
                    continue
                seen.add(id(entry.segment))
                # Force the unlink even when an append remap left the
                # segment multiply-referenced.
                entry.segment.refs = 1
                entry.segment.decref()

    def __enter__(self) -> "DatasetArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DatasetArena(owner={self.owner!r}, datasets={len(self)}, "
            f"bytes={self.memory_bytes()})"
        )


# ----------------------------------------------------------------------
# Process-wide arena
# ----------------------------------------------------------------------

_arena: Optional[DatasetArena] = None
_arena_lock = threading.Lock()


def get_arena() -> DatasetArena:
    """The process-wide arena (created on first use, closed atexit)."""
    global _arena
    with _arena_lock:
        if _arena is None or _arena.closed:
            _arena = DatasetArena(budget_bytes=arena_budget_from_env())
            atexit.register(_arena.close)
        return _arena


def current_arena() -> Optional[DatasetArena]:
    """The process-wide arena if one exists (never creates one)."""
    with _arena_lock:
        return _arena if _arena is not None and not _arena.closed else None


def reset_arena() -> None:
    """Close and drop the process-wide arena (tests / shutdown)."""
    global _arena
    with _arena_lock:
        if _arena is not None:
            _arena.close()
            _arena = None


def sweep_orphans(owner: str, shm_dir: str = "/dev/shm") -> List[str]:
    """Unlink every leftover arena segment of ``owner``; returns names.

    The crash-recovery path: a SIGKILLed server cannot run its atexit
    unlink, so whoever restarts it sweeps the dead process's
    ``reprofd-<owner>-*`` files first.  Scoped strictly by the owner
    token — segments of other live processes are never touched.
    """
    owner = _OWNER_SANITIZER.sub("-", owner.strip())[:48]
    if not owner:
        return []
    prefix = f"{SEGMENT_PREFIX}-{owner}-"
    removed: List[str] = []
    try:
        names = os.listdir(shm_dir)
    except OSError:
        return removed
    for name in names:
        if not name.startswith(prefix):
            continue
        try:
            os.unlink(os.path.join(shm_dir, name))
            removed.append(name)
        except OSError:
            pass
    return removed
