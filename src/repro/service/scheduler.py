"""Bounded-concurrency job scheduler with priorities and cancellation.

The scheduler owns a fixed pool of worker threads (the concurrency
bound — each running job runs serially on its thread) and a priority
queue of :class:`Job` records.  Higher
``priority`` runs first; ties run in submission order.  The executor —
supplied by :class:`~repro.service.app.FDService` — does the actual
cache lookup / discovery / ranking; the scheduler only sequences it,
tracks job state, and turns exceptions into ``failed`` statuses.

Cancellation is cooperative: a queued job is cancelled outright (it is
skipped when popped); a running job gets ``cancel_requested`` set,
which the executor may honour at its own checkpoints.

With a :class:`~repro.service.journal.JobJournal` attached, every
transition is write-ahead logged and :meth:`JobScheduler.recover`
rebuilds the job table after a crash: jobs that never started are
requeued, checkpointed ones resume, unrecoverable ones become ``lost``
— a real terminal status clients can observe instead of a 404 (see
``docs/durability.md``).
"""

from __future__ import annotations

import heapq
import itertools
import re
import threading
import time
from typing import Callable, Dict, List, Optional

from ..core.result import DiscoveryResult
from ..resilience import faults
from .config import JobConfig
from .keyed import _noop_count

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
#: Terminal state for journaled jobs a restart could not recover
#: (dataset gone, undecodable config): the id still resolves, the
#: client's poll loop sees a terminal status instead of a 404.
LOST = "lost"

_JOB_ID_RE = re.compile(r"^job-(\d+)$")


class UnknownJobError(KeyError):
    """Raised when a job id resolves to no job."""

    def __init__(self, job_id: str):
        super().__init__(f"unknown job {job_id!r}")
        self.job_id = job_id


class SchedulerDraining(RuntimeError):
    """Raised when a job is submitted to a draining scheduler.

    The HTTP layer maps this to 503 + ``Retry-After`` so clients know
    the server is shutting down gracefully rather than broken.
    """


class JobCancelled(RuntimeError):
    """Raised by an executor when it honours a cancel request."""


class Job:
    """One scheduled unit of work and everything we know about it."""

    def __init__(
        self,
        job_id: str,
        dataset: str,
        kind: str,
        config: JobConfig,
        priority: int = 0,
    ):
        self.job_id = job_id
        #: Dataset fingerprint the job runs against.
        self.dataset = dataset
        #: ``"discover"``, ``"rank"`` or ``"multitable"``.
        self.kind = kind
        self.config = config
        self.priority = priority
        self.status = QUEUED
        self.result: Optional[DiscoveryResult] = None
        #: Ranked-FD payloads for ``rank`` jobs (None otherwise).
        self.ranking: Optional[List[Dict[str, object]]] = None
        #: True when the result came from the store, not a fresh run.
        self.cached = False
        #: Join summary for ``multitable`` jobs (None otherwise).
        self.multitable: Optional[Dict[str, object]] = None
        self.error: Optional[str] = None
        self.cancel_requested = False
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Flat telemetry summary of the run (see ``trace_summary``).
        self.trace: Optional[Dict[str, object]] = None
        #: Client-supplied dedup key (see ``Idempotency-Key`` header).
        self.idempotency_key: Optional[str] = None
        #: Discovery checkpoint to resume from (set by recovery).
        self.checkpoint: Optional[Dict[str, object]] = None
        #: True when this Job was rebuilt from the journal after a
        #: restart; ``resumed`` additionally means its execution seeded
        #: the FD tree from a checkpoint instead of starting cold.
        self.recovered = False
        self.resumed = False
        self.done = threading.Event()

    def finish(self, status: str) -> None:
        """Enter the terminal ``status`` now and wake every waiter."""
        self.status = status
        self.finished_at = time.time()
        self.done.set()

    def status_payload(self, include_result: bool = True) -> Dict[str, object]:
        """JSON-friendly job status for the HTTP layer."""
        payload: Dict[str, object] = {
            "job_id": self.job_id,
            "dataset": self.dataset,
            "kind": self.kind,
            "config": self.config.to_dict(),
            "priority": self.priority,
            "status": self.status,
            "cached": self.cached,
            "error": self.error,
            "cancel_requested": self.cancel_requested,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.recovered:
            payload["recovered"] = True
        if self.resumed:
            payload["resumed"] = True
        if include_result and self.result is not None:
            payload["result"] = self.result.to_payload()
        if self.ranking is not None:
            payload["ranking"] = self.ranking
        if self.multitable is not None:
            payload["multitable"] = self.multitable
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload


class JobScheduler:
    """Priority-ordered execution of jobs on a bounded worker pool."""

    def __init__(
        self,
        executor: Callable[[Job], None],
        max_workers: int = 2,
        count: Callable[..., None] = _noop_count,
        journal=None,
    ):
        """Args:
            executor: runs one job (sets ``result``/``ranking``/...);
                raised exceptions mark the job ``failed``.
            max_workers: concurrent discovery runs allowed.
            count: metrics hook ``count(name, amount=1)``.
            journal: optional
                :class:`~repro.service.journal.JobJournal` — every
                transition is write-ahead logged for crash recovery.
        """
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self._executor = executor
        self._count = count
        self._journal = journal
        self.max_workers = max_workers
        self._cond = threading.Condition()
        self._heap: List[tuple] = []
        self._jobs: Dict[str, Job] = {}
        #: Idempotency-key -> job id (dedup table, rebuilt on recover).
        self._by_key: Dict[str, str] = {}
        self._seq = itertools.count(1)
        self._stopping = False
        self._draining = False
        self._running = 0
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-service-worker-{i}", daemon=True
            )
            for i in range(max_workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def submit(
        self,
        dataset: str,
        kind: str,
        config: JobConfig,
        priority: int = 0,
        idempotency_key: Optional[str] = None,
    ) -> Job:
        """Queue a job; returns immediately with the live :class:`Job`.

        ``idempotency_key`` dedups retried submissions: a key already
        seen (including across restarts, via the journal) returns the
        original job instead of queueing a duplicate.
        """
        if kind not in ("discover", "rank", "multitable"):
            raise ValueError(
                f"job kind must be 'discover', 'rank' or 'multitable', got {kind!r}"
            )
        with self._cond:
            if self._stopping:
                raise RuntimeError("scheduler is shut down")
            if self._draining:
                raise SchedulerDraining("scheduler is draining; not accepting jobs")
            if idempotency_key is not None:
                existing = self._by_key.get(idempotency_key)
                if existing is not None and existing in self._jobs:
                    self._count("service.jobs.deduped")
                    return self._jobs[existing]
            seq = next(self._seq)
            job = Job(f"job-{seq}", dataset, kind, config, priority=priority)
            job.idempotency_key = idempotency_key
            if idempotency_key is not None:
                self._by_key[idempotency_key] = job.job_id
            self._jobs[job.job_id] = job
            heapq.heappush(self._heap, (-priority, seq, job))
            self._count("service.jobs.submitted")
            self._cond.notify()
        if self._journal is not None:
            self._journal.record_submit(
                job.job_id,
                dataset,
                kind,
                config.to_dict(),
                priority=priority,
                idempotency_key=idempotency_key,
                submitted_at=job.submitted_at,
            )
        return job

    def get(self, job_id: str) -> Job:
        """Look up a job by id."""
        with self._cond:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJobError(job_id) from None

    def jobs(self) -> List[Job]:
        """All jobs, oldest first."""
        with self._cond:
            return sorted(self._jobs.values(), key=lambda j: j.submitted_at)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until a job reaches a terminal state (or timeout)."""
        job = self.get(job_id)
        job.done.wait(timeout)
        return job

    def cancel(self, job_id: str) -> str:
        """Cancel a job; returns the resulting status.

        Queued jobs become ``cancelled``; running jobs keep running but
        get ``cancel_requested`` set (cooperative).  Finished jobs are
        left untouched.
        """
        with self._cond:
            job = self.get(job_id)
            if job.status == QUEUED:
                job.finish(CANCELLED)
                self._count("service.jobs.cancelled")
            elif job.status == RUNNING:
                job.cancel_requested = True
            status = job.status
        if self._journal is not None:
            if status == CANCELLED:
                self._journal.record_finish(job_id, CANCELLED)
            elif status == RUNNING:
                self._journal.record_cancel(job_id)
        return status

    def counters(self) -> Dict[str, int]:
        """Queue/worker occupancy as a JSON-friendly dict."""
        with self._cond:
            by_status: Dict[str, int] = {}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            return {
                "workers": self.max_workers,
                "queued": by_status.get(QUEUED, 0),
                "running": by_status.get(RUNNING, 0),
                "done": by_status.get(DONE, 0),
                "failed": by_status.get(FAILED, 0),
                "cancelled": by_status.get(CANCELLED, 0),
                "lost": by_status.get(LOST, 0),
            }

    def gauges(self) -> Dict[str, float]:
        """Live saturation gauges for ``/metrics`` (see docs/telemetry.md).

        ``queue_depth`` and ``in_flight`` are instantaneous occupancy;
        ``worker_utilization`` is ``in_flight / workers`` in ``[0, 1]``
        — the load harness reads these to observe saturation as it
        happens, not just counters after the fact.
        """
        with self._cond:
            queued = sum(1 for _, _, job in self._heap if job.status == QUEUED)
            return {
                "queue_depth": queued,
                "in_flight": self._running,
                "worker_utilization": self._running / self.max_workers,
                "draining": 1.0 if self._draining else 0.0,
            }

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting jobs and wait for accepted ones to finish.

        Every job already queued or running counts as in-flight and is
        allowed to complete; new :meth:`submit` calls raise
        :class:`SchedulerDraining`.  Returns True when everything
        finished inside ``timeout`` (None = wait forever); on timeout
        the stragglers are left running (a following :meth:`shutdown`
        cancels what is still queued).
        """
        with self._cond:
            self._draining = True
            pending = [
                job
                for job in self._jobs.values()
                if job.status in (QUEUED, RUNNING)
            ]
        deadline = None if timeout is None else time.monotonic() + timeout
        for job in pending:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
            if not job.done.wait(remaining):
                return False
        return True

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers; queued jobs are cancelled."""
        cancelled: List[str] = []
        with self._cond:
            if self._stopping:
                return
            self._stopping = True
            for _, _, job in self._heap:
                if job.status == QUEUED:
                    job.finish(CANCELLED)
                    cancelled.append(job.job_id)
            self._heap.clear()
            self._cond.notify_all()
        if self._journal is not None:
            for job_id in cancelled:
                self._journal.record_finish(job_id, CANCELLED)
        if wait:
            for worker in self._workers:
                worker.join(timeout=30.0)

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------

    def _pop_job(self) -> Optional[Job]:
        """Next runnable job, blocking until one exists or shutdown."""
        with self._cond:
            while True:
                while self._heap:
                    _, _, job = heapq.heappop(self._heap)
                    if job.status == QUEUED:
                        job.status = RUNNING
                        job.started_at = time.time()
                        self._running += 1
                        return job
                if self._stopping:
                    return None
                self._cond.wait()

    def _worker_loop(self) -> None:
        while True:
            job = self._pop_job()
            if job is None:
                return
            if self._journal is not None:
                self._journal.record_start(job.job_id)
            try:
                self._executor(job)
            except JobCancelled:
                job.status = CANCELLED
                self._count("service.jobs.cancelled")
            except Exception as exc:  # noqa: BLE001 — job isolation boundary
                job.status = FAILED
                job.error = f"{type(exc).__name__}: {exc}"
                self._count("service.jobs.failed")
            else:
                job.status = DONE
                self._count("service.jobs.completed")
            finally:
                job.finished_at = time.time()
                if self._journal is not None:
                    self._journal.record_finish(job.job_id, job.status)
                with self._cond:
                    self._running -= 1
                job.done.set()

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    def recover(
        self,
        dataset_ok: Callable[[str], bool],
        answer: Optional[Callable[[Job], None]] = None,
    ) -> Dict[str, int]:
        """Rebuild the job table from the attached journal's replay.

        Jobs finish in one of four ways (counted in the returned dict):

        * ``completed`` — the journal recorded a terminal status; the
          Job is recreated terminal, and each ``done`` job is handed to
          ``answer``, which rebuilds its answer from the stored cover,
          so the client's poll loop lands on the answer it would have.
        * ``requeued`` — submitted but never started (or started
          without a checkpoint): queued again from scratch.
        * ``resumed`` — started with a checkpoint on record: queued
          with ``job.checkpoint`` set so discovery seeds its FD tree
          from the snapshot instead of starting cold.
        * ``lost`` — the dataset is gone or the config undecodable; a
          real terminal status, so pollers get an answer, not a 404.

        Call before serving traffic (the journal replays in its
        constructor; this only folds the replayed state in).
        """
        counts = {"completed": 0, "requeued": 0, "resumed": 0, "lost": 0}
        if self._journal is None:
            return counts
        try:
            faults.fire("scheduler.recover")
            entries = sorted(
                self._journal.jobs.values(), key=lambda j: j.submitted_at
            )
        except Exception:  # noqa: BLE001 — recovery must not kill boot
            self._count("service.scheduler.recover_errors")
            return counts
        max_seq = 0
        for entry in entries:
            match = _JOB_ID_RE.match(entry.job_id)
            if match:
                max_seq = max(max_seq, int(match.group(1)))
            try:
                config = JobConfig.from_dict(entry.config)
            except Exception:  # noqa: BLE001 — undecodable config
                config = None
            job = Job(
                entry.job_id,
                entry.dataset,
                entry.kind,
                config if config is not None else JobConfig.from_dict(None),
                priority=entry.priority,
            )
            job.recovered = True
            job.idempotency_key = entry.idempotency_key
            job.submitted_at = entry.submitted_at or job.submitted_at
            if entry.terminal is not None:
                # Journal says it finished: recreate the terminal state
                # (and the answer of a ``done`` job).
                job.status = entry.terminal
                job.finished_at = job.submitted_at
                if entry.terminal == DONE and answer is not None and config is not None:
                    answer(job)
                job.done.set()
                counts["completed"] += 1
            elif config is None or not dataset_ok(entry.dataset):
                job.finish(LOST)
                counts["lost"] += 1
                self._count("service.jobs.lost")
                self._journal.record_finish(entry.job_id, LOST)
            elif entry.cancel_requested:
                # Cancellation was requested before the crash; honour
                # it instead of resurrecting the run.
                job.finish(CANCELLED)
                counts["completed"] += 1
                self._journal.record_finish(entry.job_id, CANCELLED)
            else:
                if entry.checkpoint is not None:
                    job.checkpoint = entry.checkpoint
                    counts["resumed"] += 1
                else:
                    counts["requeued"] += 1
                self._count("service.jobs.requeued")
            with self._cond:
                self._jobs[job.job_id] = job
                if entry.idempotency_key is not None:
                    self._by_key[entry.idempotency_key] = job.job_id
                if job.status == QUEUED:
                    seq = next(self._seq)
                    heapq.heappush(self._heap, (-job.priority, seq, job))
                    self._cond.notify()
        # Fresh submissions must never collide with recovered ids.
        with self._cond:
            current = next(self._seq)
            if current <= max_seq:
                self._seq = itertools.count(max_seq + 1)
        return counts
