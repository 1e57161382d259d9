"""Shard topology: who owns which dataset.

The cluster partitions the dataset space by **content fingerprint**
(:meth:`Relation.fingerprint` — a SHA-256 over the encoded relation).
:func:`shard_for` hashes any reference string onto a shard index; the
hash is its own routing table, so a router restart — or a second
router — computes the same placement with no coordination.

Two kinds of reference cannot be placed by hashing alone, and for
those the :class:`RoutingTable` keeps *pinned* entries (persisted as
one JSON file, the moral equivalent of the ``routes.csv`` in the
tpch-psql exemplar the ROADMAP cites):

* **names** — a dataset uploaded as ``orders`` routes by the hash of
  its *fingerprint*, not its name, so the name is pinned to the shard
  the upload landed on;
* **appended versions** — an append changes the fingerprint, but the
  new version's partitions live on the replica that owns the parent,
  so the new fingerprint is pinned to the parent's shard.

Everything else (the common case: requests referencing a fingerprint
returned by an upload) resolves by pure hashing and never touches the
table.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import Dict, Optional, Union

from ..service.keyed import atomic_write_text

#: Version tag for the persisted routing-table file format.
_ROUTES_FORMAT = "repro-fd-routes"


def shard_for(ref: str, n_shards: int) -> int:
    """Deterministic shard index for a reference string.

    Uses the first 8 bytes of SHA-256 — stable across processes,
    Python versions and restarts (unlike builtin ``hash``, which is
    salted per process).
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    digest = hashlib.sha256(ref.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


class RoutingTable:
    """Reference → shard placement with persisted pinned entries.

    Thread-safe; the router mutates it from its event loop while the
    replica manager may read it for diagnostics.
    """

    def __init__(self, n_shards: int, path: Optional[Union[str, Path]] = None):
        """Args:
            n_shards: number of shards keys hash onto.
            path: JSON file for pinned entries (loaded if it exists,
                rewritten atomically on every pin); None = in-memory.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._pinned: Dict[str, int] = {}
        if self.path is not None and self.path.exists():
            self._load()

    def shard_of(self, ref: str) -> int:
        """The shard owning ``ref``: pinned entry if any, else the hash."""
        with self._lock:
            pinned = self._pinned.get(ref)
        if pinned is not None:
            return pinned
        return shard_for(ref, self.n_shards)

    def pin(self, ref: str, shard: int) -> None:
        """Record that ``ref`` lives on ``shard``.

        A no-op when hashing already places ``ref`` there (keeps the
        table small: only names and appended fingerprints persist).
        """
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard {shard} out of range [0, {self.n_shards})")
        with self._lock:
            if shard_for(ref, self.n_shards) == shard:
                changed = self._pinned.pop(ref, None) is not None
            else:
                changed = self._pinned.get(ref) != shard
                self._pinned[ref] = shard
            if changed:
                self._save_locked()

    def pinned(self) -> Dict[str, int]:
        """A copy of the pinned entries (diagnostics / tests)."""
        with self._lock:
            return dict(self._pinned)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _save_locked(self) -> None:
        if self.path is None:
            return
        payload = {
            "format": _ROUTES_FORMAT,
            "version": 1,
            "n_shards": self.n_shards,
            "routes": self._pinned,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            self.path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if payload.get("format") != _ROUTES_FORMAT:
            return
        if payload.get("n_shards") != self.n_shards:
            # A table persisted for a different shard count cannot be
            # reused — hashing fallback would disagree with the pins,
            # quietly routing appended datasets to the wrong replica.
            # Resharding needs a fresh data dir, so fail loudly.
            raise ValueError(
                f"routing table {self.path} was persisted for "
                f"n_shards={payload.get('n_shards')}, not {self.n_shards}; "
                "use a fresh --data-dir to change the replica count"
            )
        routes = payload.get("routes")
        if isinstance(routes, dict):
            self._pinned = {
                str(ref): int(shard)
                for ref, shard in routes.items()
                if isinstance(shard, int) and 0 <= shard < self.n_shards
            }
