"""Schema index: named multi-table schemas over registered datasets.

The service-side counterpart of :class:`~repro.multitable.schema.SchemaGraph`:
a schema is declared over datasets that already live in the
:class:`~repro.service.registry.DatasetRegistry` (each table is a
``name -> dataset ref`` binding), so uploading the base tables and
declaring the join structure are separate, individually idempotent
steps.  Schemas are keyed by the graph's content fingerprint — a
re-declaration of the same tables/keys/edges lands on the same entry —
with human-friendly names as aliases, mirroring the dataset registry.

With a ``persist_dir`` the index mirrors every schema to one JSON file
holding dataset *fingerprints* (not rows) and rebuilds the graphs from
the co-persisted dataset registry on restart, so a recovered server
still answers ``/multitable`` jobs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..multitable.schema import SchemaGraph
from .keyed import KeyedStore, NamedView, _noop_count
from .registry import DatasetRegistry


class UnknownSchemaError(KeyError):
    """Raised when a schema name or fingerprint resolves to nothing."""

    def __init__(self, ref: str):
        super().__init__(f"unknown schema {ref!r}")
        self.ref = ref


@dataclass
class SchemaEntry:
    """One registered schema graph and how it was declared."""

    fingerprint: str
    graph: SchemaGraph
    #: table name -> dataset fingerprint of its base relation.
    tables: Dict[str, str]
    #: declared keys (table -> column names), as supplied by the caller.
    keys: Dict[str, List[str]]
    name: Optional[str] = None
    #: True when :meth:`SchemaGraph.infer_foreign_keys` ran at register.
    inferred_fks: bool = False
    registered_at: float = field(default_factory=time.time)

    def describe(self) -> Dict[str, object]:
        """JSON-friendly summary for listings and HTTP responses."""
        payload = self.graph.describe()
        payload["name"] = self.name
        payload["datasets"] = dict(self.tables)
        payload["inferred_fks"] = self.inferred_fks
        return payload


class SchemaIndex(NamedView):
    """Thread-safe fingerprint-keyed collection of schema graphs."""

    def __init__(
        self,
        registry: DatasetRegistry,
        count: Callable[..., None] = _noop_count,
        persist_dir: Optional[Union[str, Path]] = None,
    ):
        """Args:
            registry: dataset registry the table bindings resolve in.
            count: metrics hook ``count(name, amount=1)``.
            persist_dir: mirror schema declarations to JSON files here
                and reload on construction (requires the registry to be
                loaded first — schemas reference its datasets).
        """
        self._registry = registry
        self._count = count
        self._entries: KeyedStore[str, SchemaEntry] = KeyedStore(
            "repro-fd-schema",
            "service.schemas",
            _encode,
            self._decode,
            persist_dir=persist_dir,
            count=count,
            missing=UnknownSchemaError,
        )

    def register(
        self,
        name: Optional[str],
        tables: Dict[str, str],
        keys: Optional[Dict[str, Sequence[str]]] = None,
        foreign_keys: Optional[Sequence[Dict[str, object]]] = None,
        infer_fks: bool = False,
        require_inclusion: bool = False,
    ) -> SchemaEntry:
        """Declare a schema over registered datasets (idempotent).

        Args:
            name: optional alias (latest declaration wins the name).
            tables: ``table name -> dataset name-or-fingerprint``.
            keys: declared primary keys per table (validated against
                the data; tables without one get inferred UCC keys).
            foreign_keys: edge dicts ``{child, child_columns, parent,
                parent_columns?}``; the parent side defaults to the
                parent's primary key.
            infer_fks: additionally run unary FK inference.
            require_inclusion: make a dangling declared-FK value an
                error at declaration time (default tolerates dirt and
                defers to the job's ``on_dangling`` policy).
        """
        if not tables:
            raise ValueError("a schema needs at least one table")
        entry = self._build(tables, keys, foreign_keys, require_inclusion, infer_fks)
        entry.name = name
        entry, created = self._entries.register(entry.fingerprint, entry, name)
        if created:
            self._count("service.schemas.registered")
        else:
            self._count("service.schemas.duplicate_registrations")
        return entry

    def _build(
        self,
        tables: Dict[str, str],
        keys: Optional[Dict[str, Sequence[str]]],
        foreign_keys: Optional[Sequence[Dict[str, object]]],
        require_inclusion: bool,
        infer_fks: bool,
    ) -> SchemaEntry:
        """Build the graph over registered datasets; each table binds to
        its dataset's fingerprint (refs may be names or fingerprints)."""
        keys = {t: list(k) for t, k in dict(keys or {}).items()}
        resolved: Dict[str, str] = {}
        graph = SchemaGraph()
        for table_name in sorted(tables):
            dataset = self._registry.get(str(tables[table_name]))
            resolved[table_name] = dataset.fingerprint
            graph.add_table(table_name, dataset.relation, key=keys.get(table_name))
        for fk in foreign_keys or ():
            graph.add_foreign_key(
                str(fk["child"]),
                [str(c) for c in fk["child_columns"]],
                str(fk["parent"]),
                [str(c) for c in fk.get("parent_columns") or ()] or None,
                require_inclusion=require_inclusion,
            )
        if infer_fks:
            graph.infer_foreign_keys()
        return SchemaEntry(
            graph.fingerprint(), graph, resolved, keys, inferred_fks=bool(infer_fks)
        )

    def _decode(self, payload: Dict[str, object]) -> Tuple[str, SchemaEntry]:
        """Rebuild a persisted schema from the (already loaded) registry.

        Every FK edge (inferred ones included) was validated at
        declaration time, so the rebuild re-declares with
        ``require_inclusion=False``; a schema whose dataset is gone — or
        whose rebuilt fingerprint no longer matches the recorded one —
        is rejected, never trusted.
        """
        entry = self._build(
            payload["tables"], payload.get("keys"), payload.get("foreign_keys"), False, False
        )
        if entry.fingerprint != payload["fingerprint"]:
            raise ValueError("fingerprint mismatch")
        entry.name = payload.get("name")
        entry.inferred_fks = bool(payload.get("inferred_fks"))
        entry.registered_at = float(payload.get("registered_at") or 0.0)
        return entry.fingerprint, entry


def _encode(fingerprint: str, entry: SchemaEntry) -> Dict[str, object]:
    """Persisted form: dataset *fingerprints*, never rows."""
    return {
        "fingerprint": fingerprint,
        "name": entry.name,
        "registered_at": entry.registered_at,
        "tables": entry.tables,
        "keys": entry.keys,
        "foreign_keys": [fk.to_payload() for fk in entry.graph.foreign_keys],
        "inferred_fks": entry.inferred_fks,
    }
