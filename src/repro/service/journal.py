"""Write-ahead job journal — the durable half of the job plane.

The scheduler's queue and job table live in memory; a server crash
(SIGKILL, OOM, power cut) forgets every queued and in-flight job, and
clients polling the job id get a 404 after the restart.  The
:class:`JobJournal` fixes that: every job transition is appended to
``jobs.wal`` under ``--store-dir`` *before* it becomes externally
visible, so a restarted server can replay the log and rebuild the job
table — see :meth:`repro.service.scheduler.JobScheduler.recover` and
``docs/durability.md``.

Frame format
------------

The log is a flat sequence of CRC-framed JSON records::

    <u32 crc32(payload)> <u32 len(payload)> <payload: UTF-8 JSON>

(little-endian).  Every append is fsync'd, so a record that was
acknowledged survives a crash.  Replay is truncation-tolerant: a short
header, short payload, or CRC mismatch marks the *torn tail* a crash
left behind — everything before it is kept, the tail is truncated away,
and the journal keeps appending from the last good offset.

Record types: ``submit`` (job identity: dataset fingerprint, kind,
config, priority, idempotency key), ``start``, ``checkpoint`` (the
discovery snapshot from :mod:`repro.core.base`), ``cancel`` and
``finish`` (terminal status).  :meth:`JobJournal.compact` — run on
clean shutdown — rewrites the log with one submit/start/finish triple
per job and only the *latest* checkpoint of unfinished jobs, so the
file stays proportional to the job table, not to job history.

Failure policy: the journal is an aid, never a hazard.  The public
append methods swallow their own failures (counted as
``service.journal.errors``, journal marked broken) so a full disk or an
injected ``journal.torn_write`` fault degrades durability without
taking down serving.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from ..resilience import faults
from .keyed import _noop_count, fsync_dir

#: ``jobs.wal`` frame header: crc32(payload), len(payload).
_HEADER = struct.Struct("<II")

#: Default WAL filename under a service's ``--store-dir``.
WAL_FILENAME = "jobs.wal"

# ----------------------------------------------------------------------
# Replayed job state
# ----------------------------------------------------------------------


@dataclass
class JournaledJob:
    """Everything the WAL knows about one job (the replay product)."""

    job_id: str
    dataset: str
    kind: str
    config: Dict[str, object] = field(default_factory=dict)
    priority: int = 0
    #: Client-supplied ``Idempotency-Key`` (dedup across restarts).
    idempotency_key: Optional[str] = None
    submitted_at: float = 0.0
    started: bool = False
    cancel_requested: bool = False
    #: Latest discovery checkpoint payload (see ``docs/durability.md``).
    checkpoint: Optional[Dict[str, object]] = None
    checkpoints: int = 0
    #: Terminal status recorded by a ``finish`` frame, or None.
    terminal: Optional[str] = None


class JobJournal:
    """Append-only, fsync'd WAL of job transitions with replay."""

    def __init__(
        self,
        path: Union[str, Path],
        count: Callable[..., None] = _noop_count,
    ):
        """Args:
            path: the WAL file (created along with parent directories).
            count: metrics hook ``count(name, amount=1)``.
        """
        self.path = Path(path)
        self._count = count
        self._lock = threading.Lock()
        #: Replayed + live job state, in submit order.
        self.jobs: Dict[str, JournaledJob] = {}
        #: True once an append failed; further appends are dropped
        #: (counted) instead of risking interleaved torn frames.
        self.broken = False
        #: True when replay found and truncated a torn tail.
        self.truncated = False
        self.replayed_records = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._replay()
        self._fh = open(self.path, "ab")

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def _replay(self) -> None:
        """Rebuild ``self.jobs`` from the WAL, truncating any torn tail."""
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return
        good = 0
        offset = 0
        try:
            while offset + _HEADER.size <= len(raw):
                faults.fire("journal.replay")
                crc, length = _HEADER.unpack_from(raw, offset)
                start = offset + _HEADER.size
                end = start + length
                if end > len(raw):
                    break  # torn tail: payload shorter than its header
                payload = raw[start:end]
                if zlib.crc32(payload) != crc:
                    break  # torn tail: header/payload mismatch
                record = json.loads(payload.decode("utf-8"))
                self._track(record)
                self.replayed_records += 1
                good = end
                offset = end
        except Exception:  # noqa: BLE001 — corrupt WAL must not kill boot
            # Injected ``journal.replay`` faults and undecodable frames
            # land here: keep what replayed cleanly, drop the rest.
            self._count("service.journal.replay_errors")
            self.truncated = True
        if good < len(raw):
            self.truncated = True
            self._count("service.journal.truncated_bytes", len(raw) - good)
            with open(self.path, "r+b") as handle:
                handle.truncate(good)
                handle.flush()
                os.fsync(handle.fileno())

    def _track(self, record: Dict[str, object]) -> None:
        """Fold one record into the in-memory job map."""
        kind = record.get("type")
        job_id = record.get("job_id")
        if not isinstance(job_id, str):
            return
        if kind == "submit":
            # Re-submits after compaction/recovery keep the first entry.
            if job_id not in self.jobs:
                self.jobs[job_id] = JournaledJob(
                    job_id=job_id,
                    dataset=str(record.get("dataset", "")),
                    kind=str(record.get("kind", "discover")),
                    config=dict(record.get("config") or {}),
                    priority=int(record.get("priority", 0)),
                    idempotency_key=record.get("key"),
                    submitted_at=float(record.get("ts", 0.0)),
                )
            return
        job = self.jobs.get(job_id)
        if job is None:
            return  # start/finish for a compacted-away submit: ignore
        if kind == "start":
            job.started = True
        elif kind == "checkpoint":
            state = record.get("state")
            if isinstance(state, dict):
                job.checkpoint = state
                job.checkpoints += 1
        elif kind == "cancel":
            job.cancel_requested = True
        elif kind == "finish":
            job.terminal = str(record.get("status", "done"))

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def _append(self, record: Dict[str, object]) -> bool:
        """Frame, write and fsync one record; False when dropped."""
        payload = json.dumps(
            record, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        frame = _HEADER.pack(zlib.crc32(payload), len(payload)) + payload
        with self._lock:
            if self.broken:
                self._count("service.journal.dropped")
                return False
            try:
                if faults.armed() and faults.should_fire("journal.torn_write"):
                    # Simulate a crash mid-append: half the frame lands
                    # on disk and the writer never comes back for the
                    # rest.  Replay truncates this tail on next boot.
                    self._fh.write(frame[: max(1, len(frame) // 2)])
                    self._fh.flush()
                    raise faults.FaultInjected("journal.torn_write")
                self._fh.write(frame)
                self._fh.flush()
                os.fsync(self._fh.fileno())
            except Exception:  # noqa: BLE001 — durability aid, not hazard
                self.broken = True
                self._count("service.journal.errors")
                return False
        self._track(record)
        self._count("service.journal.records")
        return True

    def record_submit(
        self,
        job_id: str,
        dataset: str,
        kind: str,
        config: Dict[str, object],
        priority: int = 0,
        idempotency_key: Optional[str] = None,
        submitted_at: float = 0.0,
    ) -> bool:
        return self._append(
            {
                "type": "submit",
                "job_id": job_id,
                "dataset": dataset,
                "kind": kind,
                "config": config,
                "priority": priority,
                "key": idempotency_key,
                "ts": submitted_at,
            }
        )

    def record_start(self, job_id: str) -> bool:
        return self._append({"type": "start", "job_id": job_id})

    def record_checkpoint(self, job_id: str, state: Dict[str, object]) -> bool:
        ok = self._append({"type": "checkpoint", "job_id": job_id, "state": state})
        if ok:
            self._count("service.journal.checkpoints")
        return ok

    def record_cancel(self, job_id: str) -> bool:
        return self._append({"type": "cancel", "job_id": job_id})

    def record_finish(self, job_id: str, status: str) -> bool:
        return self._append({"type": "finish", "job_id": job_id, "status": status})

    # ------------------------------------------------------------------
    # Compaction / lifecycle
    # ------------------------------------------------------------------

    def find_by_key(self, idempotency_key: str) -> Optional[JournaledJob]:
        """The journaled job carrying this idempotency key, if any."""
        for job in self.jobs.values():
            if job.idempotency_key == idempotency_key:
                return job
        return None

    def compact(self) -> int:
        """Rewrite the WAL as the minimal record set for current state.

        One ``submit`` (+ ``start``/``cancel``/``finish``) per job and
        only the latest checkpoint of unfinished jobs — run on clean
        shutdown so the log never grows with checkpoint history.
        Returns the number of records written.
        """
        with self._lock:
            if self.broken:
                return 0
            frames = []
            written = 0
            for job in self.jobs.values():
                records = [
                    {
                        "type": "submit",
                        "job_id": job.job_id,
                        "dataset": job.dataset,
                        "kind": job.kind,
                        "config": job.config,
                        "priority": job.priority,
                        "key": job.idempotency_key,
                        "ts": job.submitted_at,
                    }
                ]
                if job.started:
                    records.append({"type": "start", "job_id": job.job_id})
                if job.cancel_requested and job.terminal is None:
                    records.append({"type": "cancel", "job_id": job.job_id})
                if job.terminal is not None:
                    records.append(
                        {
                            "type": "finish",
                            "job_id": job.job_id,
                            "status": job.terminal,
                        }
                    )
                elif job.checkpoint is not None:
                    records.append(
                        {
                            "type": "checkpoint",
                            "job_id": job.job_id,
                            "state": job.checkpoint,
                        }
                    )
                for record in records:
                    payload = json.dumps(
                        record, sort_keys=True, separators=(",", ":")
                    ).encode("utf-8")
                    frames.append(
                        _HEADER.pack(zlib.crc32(payload), len(payload)) + payload
                    )
                    written += 1
            tmp = self.path.with_name(self.path.name + ".tmp")
            try:
                with open(tmp, "wb") as handle:
                    handle.write(b"".join(frames))
                    handle.flush()
                    os.fsync(handle.fileno())
                self._fh.close()
                os.replace(tmp, self.path)
                fsync_dir(self.path.parent)
                self._fh = open(self.path, "ab")
            except Exception:  # noqa: BLE001 — keep the uncompacted WAL
                self.broken = True
                self._count("service.journal.errors")
                return 0
            self._count("service.journal.compactions")
            return written

    def close(self, compact: bool = True) -> None:
        """Compact (by default) and close the WAL file handle."""
        if compact:
            self.compact()
        with self._lock:
            try:
                self._fh.close()
            except OSError:
                pass

    def counters(self) -> Dict[str, int]:
        """Journal occupancy for ``/metrics``."""
        with self._lock:
            active = sum(1 for job in self.jobs.values() if job.terminal is None)
            return {
                "jobs": len(self.jobs),
                "active": active,
                "replayed_records": self.replayed_records,
                "truncated": 1 if self.truncated else 0,
                "broken": 1 if self.broken else 0,
            }
