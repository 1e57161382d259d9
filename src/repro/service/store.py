"""Fingerprint-keyed result store with JSON persistence.

Maps ``(dataset fingerprint, algorithm, config key)`` to a
:class:`~repro.core.result.DiscoveryResult` so repeat requests for the
same data and configuration are served without re-running discovery.
Two policies keep the cache sound:

* only **completed** full covers are stored — a partial cover from a
  tripped budget is an answer to *this* request, not a reusable fact
  about the dataset, and a top-k answer is cut from the stored cover;
* entries are keyed by content fingerprint, so an append (which
  changes the fingerprint) can never serve a stale cover.  Instead of
  discarding the old entries, :meth:`ResultStore.update_for_append`
  migrates each one to the new fingerprint through synergized
  induction (an :class:`~repro.incremental.IncrementalFDMaintainer`
  seeded with the cached cover) — no full rediscovery.

With a ``persist_dir`` every entry is mirrored to one JSON file (the
:meth:`~repro.core.result.DiscoveryResult.to_json` document plus its
key) and reloaded on construction, so covers survive restarts.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..core.result import DiscoveryResult
from ..incremental.maintainer import IncrementalFDMaintainer
from ..relational.fd import FDSet
from ..relational.relation import Relation
from .config import JobConfig
from .keyed import KeyedStore, _noop_count

#: Store key: (dataset fingerprint, algorithm name, config key).
StoreKey = Tuple[str, str, str]


class ResultStore:
    """Thread-safe cache of discovery results, optionally persisted."""

    def __init__(
        self,
        persist_dir: Optional[Union[str, Path]] = None,
        count: Callable[..., None] = _noop_count,
    ):
        """Args:
            persist_dir: directory for one-file-per-entry JSON mirrors
                (created if missing; ``None`` keeps the store in-memory).
            count: metrics hook ``count(name, amount=1)`` — the service
                passes its registry-backed counter here.
        """
        self._count = count
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.incremental_updates = 0
        self._entries: KeyedStore[StoreKey, Tuple[JobConfig, DiscoveryResult]] = KeyedStore(
            "repro-fd-store-entry",
            "service.store",
            _encode,
            _decode,
            persist_dir=persist_dir,
            count=count,
        )

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------

    def get(self, fingerprint: str, config: JobConfig) -> Optional[DiscoveryResult]:
        """The cached result for ``(fingerprint, config)``, counting hit/miss."""
        with self._entries.lock:
            entry = self._entries.get((fingerprint, config.algorithm, config.key()))
            if entry is None:
                self.misses += 1
                self._count("service.store.misses")
                return None
            self.hits += 1
            self._count("service.store.hits")
            return entry[1]

    def put(self, fingerprint: str, config: JobConfig, result: DiscoveryResult) -> bool:
        """Cache ``result``; returns False (and skips) for partial results."""
        if not result.completed:
            self._count("service.store.partial_skipped")
            return False
        with self._entries.lock:
            self._entries.put((fingerprint, config.algorithm, config.key()), (config, result))
            self.puts += 1
            self._count("service.store.puts")
        return True

    def results_for(self, fingerprint: str) -> List[Tuple[JobConfig, DiscoveryResult]]:
        """All cached ``(config, result)`` pairs for one fingerprint."""
        return [entry for key, entry in sorted(self._entries.items()) if key[0] == fingerprint]

    # ------------------------------------------------------------------
    # Append migration
    # ------------------------------------------------------------------

    def update_for_append(
        self,
        old_fingerprint: str,
        old_relation: Relation,
        rows,
        new_fingerprint: str,
    ) -> int:
        """Migrate every cached cover of ``old_fingerprint`` to the
        appended dataset via synergized induction.

        Each entry seeds an :class:`IncrementalFDMaintainer` with the
        cached cover, replays the appended rows (agree sets of new-row
        pairs only — no rediscovery), and stores the repaired cover
        under ``new_fingerprint`` with the same config key.  Returns
        the number of migrated entries.
        """
        migrated = 0
        for config, result in self.results_for(old_fingerprint):
            start = time.perf_counter()
            maintainer = IncrementalFDMaintainer(
                old_relation,
                algorithm=config.algorithm,
                cover=result.fds,
                **config.algorithm_kwargs(),
            )
            cover = maintainer.append_rows(rows)
            # The store keeps every version's cover: let the new one
            # share the FD objects the append left standing.
            standing = {fd: fd for fd in result.fds.as_frozenset()}
            cover = FDSet(standing.get(fd, fd) for fd in cover.as_frozenset())
            updated = DiscoveryResult(
                algorithm=result.algorithm,
                schema=result.schema,
                fds=cover,
                elapsed_seconds=time.perf_counter() - start,
                stats=result.stats,
            )
            self.put(new_fingerprint, config, updated)
            with self._entries.lock:
                self.incremental_updates += 1
            self._count("service.store.incremental_updates")
            migrated += 1
        return migrated

    def sync(self) -> int:
        """Re-mirror every entry to ``persist_dir`` (drain/shutdown hook).

        Entries are already persisted on :meth:`put`; this is the
        belt-and-braces pass the graceful-drain path runs so a server
        restart is guaranteed to reload the full cache even if an
        earlier mirror write raced a crash.  Returns the number of
        entries written (0 for in-memory stores).
        """
        return self._entries.sync()

    def counters(self) -> Dict[str, int]:
        """Hit/miss/put accounting as a JSON-friendly dict."""
        with self._entries.lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "incremental_updates": self.incremental_updates,
            }


# ----------------------------------------------------------------------
# Persisted form
# ----------------------------------------------------------------------


def _encode(key: StoreKey, entry: Tuple[JobConfig, DiscoveryResult]) -> Dict[str, object]:
    config, result = entry
    return {"fingerprint": key[0], "config": config.to_dict(), "result": result.to_payload()}


def _decode(payload: Dict[str, object]) -> Tuple[StoreKey, Tuple[JobConfig, DiscoveryResult]]:
    fingerprint, config = payload["fingerprint"], payload["config"]
    if not isinstance(fingerprint, str) or not isinstance(config, dict):
        raise TypeError("store entry needs a fingerprint string and a config object")
    config = JobConfig.from_dict(config)
    if config.top_k is not None:
        # Only full covers are stored; a top-k answer is cut from one.
        raise ValueError("store entry holds a top-k prefix, not a cover")
    result = DiscoveryResult.from_payload(payload["result"])
    return (fingerprint, config.algorithm, config.key()), (config, result)
