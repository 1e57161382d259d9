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

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from ..relational.null import is_null
from ..relational.relation import Relation
from .keyed import KeyedStore, NamedView, _noop_count
from .store import ResultStore


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


class DatasetRegistry(NamedView):
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
                server still knows its datasets (None keeps the
                registry in-memory — the default).
        """
        self._store = store
        self._count = count
        self._entries: KeyedStore[str, DatasetEntry] = KeyedStore(
            "repro-fd-dataset",
            "service.registry",
            _encode,
            _decode,
            persist_dir=persist_dir,
            count=count,
            missing=UnknownDatasetError,
        )

    def register(self, relation: Relation, name: Optional[str] = None) -> DatasetEntry:
        """Add a relation (idempotent: same content ⇒ same entry).

        A re-upload of known content refreshes the name alias but keeps
        the existing entry, so cached covers are shared across callers.
        """
        entry, created = self._add(
            DatasetEntry(relation.fingerprint(), relation, name=name),
            "service.registry.registered",
        )
        if not created:
            self._count("service.registry.duplicate_uploads")
        return entry

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
        relation = old.relation.append_rows(rows)
        new = DatasetEntry(
            relation.fingerprint(), relation, name=old.name, parent=old.fingerprint
        )
        entry, _ = self._add(new, "service.registry.appends")
        if self._store is not None and rows:
            self._store.update_for_append(
                old.fingerprint, old.relation, rows, entry.fingerprint
            )
        return entry

    def _add(self, entry: DatasetEntry, counter: str) -> Tuple[DatasetEntry, bool]:
        """Register ``entry`` unless its content is known; returns the
        registered entry and whether it is new."""
        entry, created = self._entries.register(entry.fingerprint, entry, entry.name)
        if created:
            self._count(counter)
        return entry, created


# ----------------------------------------------------------------------
# Persisted form (server restarts — see docs/durability.md)
# ----------------------------------------------------------------------


def _encode(fingerprint: str, entry: DatasetEntry) -> Dict[str, object]:
    return {
        **entry.describe(),
        "registered_at": entry.registered_at,
        "rows": [
            [None if is_null(value) else value for value in row]
            for row in entry.relation.iter_rows()
        ],
    }


def _decode(payload: Dict[str, object]) -> Tuple[str, DatasetEntry]:
    """Rebuild a dataset, verified against its recorded fingerprint."""
    relation = Relation.from_rows(
        payload["rows"],
        schema=list(payload["columns"]),
        semantics=payload.get("semantics", "eq"),
    )
    fingerprint = payload["fingerprint"]
    if relation.fingerprint() != fingerprint:
        raise ValueError("fingerprint mismatch")
    return fingerprint, DatasetEntry(
        fingerprint,
        relation,
        name=payload.get("name"),
        registered_at=float(payload.get("registered_at") or 0.0),
        parent=payload.get("parent"),
    )
