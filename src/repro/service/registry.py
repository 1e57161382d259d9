"""Dataset registry: load once, key by content fingerprint, append in place.

The registry is the service's source of truth for data.  Every dataset
is identified by :meth:`Relation.fingerprint` — a stable SHA-256 over
the encoded code matrix, null masks, schema and null semantics — so
uploading the same content twice lands on the same entry no matter the
upload path.  Human-friendly names are aliases: a name always points
at the *latest* version of its dataset, while older fingerprints stay
resolvable (their cached covers remain correct for their content).

Appends route through the incremental layer: the relation grows via
:meth:`Relation.append_rows` (old DIIS codes keep their meaning) and
every cover the result store holds for the old fingerprint is migrated
to the new one by synergized induction — see
:meth:`~repro.service.store.ResultStore.update_for_append`.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..relational.null import is_null
from ..relational.relation import Relation
from .store import ResultStore, _noop_count


class UnknownDatasetError(KeyError):
    """Raised when a fingerprint or name resolves to no dataset."""

    def __init__(self, ref: str):
        super().__init__(f"unknown dataset {ref!r}")
        self.ref = ref


@dataclass
class DatasetEntry:
    """One immutable dataset version held by the registry."""

    fingerprint: str
    relation: Relation
    name: Optional[str] = None
    registered_at: float = field(default_factory=time.time)
    #: Fingerprint this version was appended from (None for uploads).
    parent: Optional[str] = None

    def describe(self) -> Dict[str, object]:
        """JSON-friendly summary for listings and HTTP responses."""
        return {
            "fingerprint": self.fingerprint,
            "name": self.name,
            "n_rows": self.relation.n_rows,
            "n_cols": self.relation.n_cols,
            "columns": self.relation.schema.names,
            "semantics": self.relation.semantics.value,
            "parent": self.parent,
        }


class DatasetRegistry:
    """Thread-safe fingerprint-keyed collection of datasets."""

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        count: Callable[..., None] = _noop_count,
        persist_dir: Optional[Union[str, Path]] = None,
    ):
        """Args:
            store: result store whose cached covers :meth:`append`
                migrates to the appended dataset (optional).
            count: metrics hook ``count(name, amount=1)``.
            persist_dir: mirror every registered dataset to one JSON
                file here and reload on construction, so a restarted
                replica still owns its shard's datasets (None keeps
                the registry in-memory — the single-process default).
        """
        self._lock = threading.RLock()
        self._by_fingerprint: Dict[str, DatasetEntry] = {}
        self._by_name: Dict[str, str] = {}
        self._store = store
        self._count = count
        self.persist_dir = Path(persist_dir) if persist_dir is not None else None
        if self.persist_dir is not None:
            self.persist_dir.mkdir(parents=True, exist_ok=True)
            self._load()

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_fingerprint)

    def register(self, relation: Relation, name: Optional[str] = None) -> DatasetEntry:
        """Add a relation (idempotent: same content ⇒ same entry).

        A re-upload of known content refreshes the name alias but keeps
        the existing entry, so cached covers are shared across callers.
        """
        fingerprint = relation.fingerprint()
        with self._lock:
            entry = self._by_fingerprint.get(fingerprint)
            if entry is None:
                entry = DatasetEntry(fingerprint, relation, name=name)
                self._by_fingerprint[fingerprint] = entry
                self._count("service.registry.registered")
                self._persist(entry)
                self._arena_ingest(relation)
            else:
                self._count("service.registry.duplicate_uploads")
                if name and not entry.name:
                    entry.name = name
            if name:
                self._by_name[name] = fingerprint
            return entry

    def resolve(self, ref: str) -> str:
        """Normalize a name or fingerprint to a fingerprint."""
        with self._lock:
            if ref in self._by_name:
                return self._by_name[ref]
            if ref in self._by_fingerprint:
                return ref
        raise UnknownDatasetError(ref)

    def get(self, ref: str) -> DatasetEntry:
        """Look up a dataset by name or fingerprint."""
        with self._lock:
            return self._by_fingerprint[self.resolve(ref)]

    def append(self, ref: str, rows: Sequence[Sequence[object]]) -> DatasetEntry:
        """Append rows to a dataset, producing (and returning) a new version.

        The new relation keeps the old version's DIIS codes (see
        :meth:`Relation.append_rows`); cached covers are migrated to
        the new fingerprint by synergized induction rather than
        rediscovery when a result store is attached.  The old version
        stays registered — its fingerprint still names its content —
        and the name alias moves to the new version.
        """
        old = self.get(ref)
        rows = [list(row) for row in rows]
        new_relation = old.relation.append_rows(rows)
        with self._lock:
            entry = self._by_fingerprint.get(new_relation.fingerprint())
            if entry is None:
                entry = DatasetEntry(
                    new_relation.fingerprint(),
                    new_relation,
                    name=old.name,
                    parent=old.fingerprint,
                )
                self._by_fingerprint[entry.fingerprint] = entry
                self._count("service.registry.appends")
                self._persist(entry)
                self._arena_ingest(new_relation, parent=old.fingerprint)
            if old.name:
                self._by_name[old.name] = entry.fingerprint
        if self._store is not None and rows:
            self._store.update_for_append(
                old.fingerprint, old.relation, rows, entry.fingerprint
            )
        return entry

    def _arena_ingest(self, relation: Relation, parent: Optional[str] = None) -> None:
        """Materialize a registered dataset in the memplane (best-effort).

        Registration is the natural ingest point: every later job on
        this replica — and every worker pool it spawns — attaches to
        the one arena copy instead of paying per-job copy-in.  Appends
        pass their parent so both versions can share one segment.  Any
        arena failure is swallowed: the registry must work with the
        arena broken.
        """
        try:
            from ..memplane import arena

            if arena.get_arena().ingest(relation, parent_fingerprint=parent):
                self._count("service.registry.arena_ingests")
        except Exception:
            self._count("service.registry.arena_errors")

    def list(self) -> List[Dict[str, object]]:
        """Summaries of every registered dataset version."""
        with self._lock:
            entries = sorted(
                self._by_fingerprint.values(), key=lambda e: e.registered_at
            )
            return [entry.describe() for entry in entries]

    # ------------------------------------------------------------------
    # Persistence (replica restarts — see repro.cluster)
    # ------------------------------------------------------------------

    def _persist(self, entry: DatasetEntry) -> None:
        """Mirror one dataset version to its JSON file (best-effort).

        In-process registrations may hold values JSON cannot encode;
        those datasets simply stay memory-only (counted, not fatal) —
        every HTTP upload is JSON-clean by construction.
        """
        if self.persist_dir is None:
            return
        relation = entry.relation
        rows = [
            [None if is_null(value) else value for value in row]
            for row in relation.iter_rows()
        ]
        payload = {
            "format": "repro-fd-dataset",
            "version": 1,
            "fingerprint": entry.fingerprint,
            "name": entry.name,
            "parent": entry.parent,
            "registered_at": entry.registered_at,
            "semantics": relation.semantics.value,
            "columns": relation.schema.names,
            "rows": rows,
        }
        try:
            text = json.dumps(payload)
        except (TypeError, ValueError):
            self._count("service.registry.persist_skipped")
            return
        from .journal import atomic_write_text

        path = self.persist_dir / f"{entry.fingerprint[:32]}.json"
        atomic_write_text(path, text + "\n")

    def _load(self) -> None:
        """Reload persisted datasets, oldest first so name aliases land
        on the latest version; content is verified against the recorded
        fingerprint and mismatches are skipped, never trusted."""
        loaded = []
        for path in sorted(self.persist_dir.glob("*.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                if payload.get("format") != "repro-fd-dataset":
                    continue
                relation = Relation.from_rows(
                    payload["rows"],
                    schema=list(payload["columns"]),
                    semantics=payload.get("semantics", "eq"),
                )
                if relation.fingerprint() != payload["fingerprint"]:
                    raise ValueError("fingerprint mismatch")
                loaded.append(
                    DatasetEntry(
                        payload["fingerprint"],
                        relation,
                        name=payload.get("name"),
                        registered_at=float(payload.get("registered_at") or 0.0),
                        parent=payload.get("parent"),
                    )
                )
            except (ValueError, KeyError, TypeError, OSError):
                self._count("service.registry.load_errors")
                continue
        for entry in sorted(loaded, key=lambda e: e.registered_at):
            self._by_fingerprint[entry.fingerprint] = entry
            if entry.name:
                self._by_name[entry.name] = entry.fingerprint
        self._count("service.registry.loaded", len(loaded))
