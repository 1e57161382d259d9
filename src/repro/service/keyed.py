"""One keyed store under the service's dataset, result and schema views.

:class:`KeyedStore` mirrors each entry to one JSON file, ``{"format":
<tag>, "version": 1, **encode(key, value), "aliases": {name: stamp}}``,
via :func:`atomic_write_text`.  Moving an alias rewrites its new
target's file; a reload replays the moves in stamp order (files without
``aliases`` replay ``name`` at ``registered_at``), so the alias map
survives a restart.  A file that does not parse, is not a JSON object,
has the wrong ``format``/``version`` or that ``decode`` rejects is
skipped and counted as ``<prefix>.load_errors``, never trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Generic, Hashable, List, Optional, Tuple, TypeVar, Union

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: Envelope version of every persisted entry.
VERSION = 1


def _noop_count(name: str, amount: int = 1) -> None:
    return None


def fsync_dir(path: Union[str, Path]) -> None:
    """fsync a directory so a rename inside it survives a power cut."""
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return  # e.g. platforms without directory fds — best effort
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Durably replace ``path`` with ``text``.

    Write to a sibling tmp file, flush + fsync it, ``os.replace`` over
    the target, then fsync the parent directory — the sequence that
    guarantees a reader after a crash sees either the old file or the
    complete new one, never a torn or empty JSON document.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
    fsync_dir(target.parent)


class KeyedStore(Generic[K, V]):
    """Thread-safe ``key -> value`` map with name aliases, optionally
    persisted; iterates in registration order.  Views run compound
    check-then-act sequences under the re-entrant :attr:`lock`."""

    def __init__(
        self,
        fmt: str,
        prefix: str,
        encode: Callable[[K, V], Dict[str, object]],
        decode: Callable[[Dict[str, object]], Tuple[K, V]],
        persist_dir: Optional[Union[str, Path]] = None,
        count: Callable[..., None] = _noop_count,
        missing: Callable[[str], Exception] = KeyError,
    ):
        """``decode`` raises on any payload it cannot rebuild or verify;
        ``prefix`` names the metrics (``service.registry`` etc.);
        ``missing`` is the exception :meth:`resolve` raises."""
        self.lock = threading.RLock()
        self._values: Dict[K, V] = {}
        self._aliases: Dict[str, Tuple[K, float]] = {}
        self._stamp = 0.0
        self._fmt, self._prefix = fmt, prefix
        self._encode, self._decode = encode, decode
        self._count, self._missing = count, missing
        self.persist_dir = Path(persist_dir) if persist_dir is not None else None
        if self.persist_dir is not None:
            self.persist_dir.mkdir(parents=True, exist_ok=True)
            self._load()

    def __len__(self) -> int:
        with self.lock:
            return len(self._values)

    def get(self, key: K) -> Optional[V]:
        with self.lock:
            return self._values.get(key)

    def items(self) -> List[Tuple[K, V]]:
        """Snapshot of ``(key, value)`` pairs in registration order."""
        with self.lock:
            return list(self._values.items())

    def resolve(self, ref: str) -> K:
        """The key an alias points at, or ``ref`` itself if it is a key."""
        with self.lock:
            if ref in self._aliases:
                return self._aliases[ref][0]
            if ref in self._values:
                return ref
        raise self._missing(ref)

    def put(self, key: K, value: V) -> None:
        """Insert or replace ``key`` — one file write."""
        with self.lock:
            self._values[key] = value
            self._persist(key)

    def register(self, key: K, value: V, name: Optional[str] = None) -> Tuple[V, bool]:
        """Put-if-absent for named values (a known entry adopts ``name``
        if it has none), pointing the alias ``name`` at ``key``; returns
        ``(entry, created)``.  A new entry or alias move is one write."""
        with self.lock:
            entry = self._values.setdefault(key, value)
            created = entry is value
            if created:
                # A reload orders entries by registered_at: stamp it
                # under the lock so that order is the registration order.
                entry.registered_at = self._tick()
            if name and not entry.name:
                entry.name = name
            moved = bool(name) and self._aliases.get(name, (None,))[0] != key
            if moved:
                self._aliases[name] = (key, self._tick())
            if created or moved:
                self._persist(key)
            return entry, created

    def _tick(self) -> float:
        """A strictly increasing wall-clock stamp (caller holds the lock)."""
        self._stamp = max(time.time(), self._stamp + 1e-6)
        return self._stamp

    def sync(self) -> int:
        """Rewrite every entry's file; returns how many (0 in memory)."""
        if self.persist_dir is None:
            return 0
        with self.lock:
            for key in self._values:
                self._persist(key)
            return len(self._values)

    def _path(self, key: K) -> Path:
        """The entry's canonical file: the key, or its hash for tuples."""
        if not isinstance(key, str):
            key = hashlib.sha256("\x00".join(key).encode("utf-8")).hexdigest()
        return self.persist_dir / f"{key[:32]}.json"

    def _persist(self, key: K) -> bool:
        """Mirror one entry and the aliases pointing at it to its file;
        a value JSON cannot encode stays in memory (counted, False)."""
        if self.persist_dir is None:
            return False
        payload = {"format": self._fmt, "version": VERSION}
        payload.update(self._encode(key, self._values[key]))
        payload["aliases"] = {name: t for name, (k, t) in self._aliases.items() if k == key}
        try:
            text = json.dumps(payload)
        except (TypeError, ValueError):
            self._count(f"{self._prefix}.persist_skipped")
            return False
        atomic_write_text(self._path(key), text + "\n")
        return True

    def _load(self) -> None:
        """Reload every entry oldest first, then replay alias moves.

        A key can change on decode (an old config key dropped), leaving
        its entry under another name, or beside a file that decodes to
        the same key: such an entry is rewritten under its canonical
        name and its other files are unlinked.
        """
        loaded, moves = [], []
        files: Dict[K, List[Path]] = {}
        for path in sorted(self.persist_dir.glob("*.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                if not isinstance(payload, dict) or payload.get("format") != self._fmt:
                    raise ValueError(f"not a {self._fmt} entry")
                if payload.get("version") != VERSION:
                    raise ValueError(f"unsupported version {payload.get('version')!r}")
                key, value = self._decode(payload)
                order = float(payload.get("registered_at") or 0.0)
                aliases = payload.get("aliases")
                if aliases is None:
                    aliases = {payload["name"]: order} if payload.get("name") else {}
                entry_moves = [(float(t), str(name), key) for name, t in aliases.items()]
            except Exception:  # noqa: BLE001 — skip and count, never fatal
                self._count(f"{self._prefix}.load_errors")
                continue
            loaded.append((order, key, value))
            moves.extend(entry_moves)
            files.setdefault(key, []).append(path)
        for order, key, value in sorted(loaded, key=lambda item: item[0]):
            self._values[key] = value
            self._stamp = max(self._stamp, order)
        for stamp, name, key in sorted(moves, key=lambda move: move[0]):
            self._aliases[name] = (key, stamp)
            self._stamp = max(self._stamp, stamp)
        for key, paths in files.items():
            canonical = self._path(key)
            if paths != [canonical] and self._persist(key):
                for path in paths:
                    if path != canonical:
                        path.unlink(missing_ok=True)
        self._count(f"{self._prefix}.loaded", len(loaded))


class NamedView:
    """Read side of the named views (datasets, schemas) over a
    :class:`KeyedStore` of entries with ``describe()``."""

    _entries: KeyedStore

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, ref: str) -> bool:
        try:
            self._entries.resolve(ref)
        except KeyError:
            return False
        return True

    def resolve(self, ref: str) -> str:
        """Normalize a name or fingerprint to a fingerprint."""
        return self._entries.resolve(ref)

    def get(self, ref: str):
        """Look up an entry by name or fingerprint."""
        return self._entries.get(self._entries.resolve(ref))

    def list(self) -> List[Dict[str, object]]:
        """Summaries of every entry, in registration order."""
        return [entry.describe() for _, entry in self._entries.items()]
