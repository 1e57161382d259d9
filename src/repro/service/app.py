"""FDService — the in-process facade the HTTP server (and tests) drive.

Composes the four layers the ROADMAP grew so far into one concurrent
discovery service:

* **datasets** live in a :class:`~repro.service.registry.DatasetRegistry`
  (content-fingerprint keyed, appends via synergized induction);
* **covers** are cached in a :class:`~repro.service.store.ResultStore`
  (``(fingerprint, algorithm, config)`` keyed, JSON-persisted);
* **jobs** run on a :class:`~repro.service.scheduler.JobScheduler`
  (bounded workers, priorities, cooperative cancellation) with per-job
  :class:`~repro.resilience.RunBudget` limits and their own
  :class:`~repro.telemetry.Tracer` (the flat summary rides along in the
  job status);
* repeated identical requests are **single-flighted**: when two jobs
  for the same ``(fingerprint, config)`` key overlap, the follower
  waits for the leader and reuses its stored cover instead of running
  discovery twice.

Covers produced through the service are byte-identical to direct
in-process discovery — the service calls the exact same
:func:`~repro.algorithms.make_algorithm` path, and the determinism
guarantees of the kernel layer carry over.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .. import __version__
from ..algorithms.registry import make_algorithm
from ..core.result import DiscoveryResult
from ..partitions.cache import tier_gauges
from ..ranking.ranker import RankedFD, first_k, rank_cover
from ..relational.io import read_csv_text
from ..relational.relation import Relation
from ..core.base import default_checkpoint_interval
from ..multitable.discovery import fd_scope, fd_tables
from ..multitable.provenance import attribute_tables, build_provenance, lift_relation
from ..telemetry import MetricsRegistry, Tracer, trace_summary, use_tracer
from .config import ConfigError, JobConfig
from .journal import WAL_FILENAME, JobJournal
from .registry import DatasetEntry, DatasetRegistry
from .scheduler import Job, JobCancelled, JobScheduler
from .schemas import SchemaEntry, SchemaIndex
from .store import ResultStore


def _ranked_entry(ranked: RankedFD, relation: Relation) -> Dict[str, object]:
    """One ranked FD as a job's ``ranking`` list reports it."""
    return {
        "fd": ranked.fd.format(relation.schema),
        "redundancy": ranked.redundancy,
        "redundancy_excluding_null": ranked.redundancy_excluding_null,
    }


def _first_k_result(
    relation: Relation, result: DiscoveryResult, k: int
) -> DiscoveryResult:
    """A discover job's top-k answer: ``result`` cut to its first k ranked FDs."""
    return replace(result, fds=first_k(relation, result.fds, k), top_k=k)


class _VirtualJoin:
    """Duck-typed :class:`DatasetEntry` over a schema's virtual join.

    ``fingerprint`` is the schema graph's content fingerprint — known
    without touching any rows — while the config's ``join_path`` and
    ``on_dangling`` ride in the cache key's config part, so two paths
    (or policies) over one schema never share a cover.  Provenance and
    the lifted relation are built once, on first ``.relation`` access,
    which a cover cache hit in ``_discover_with_cache`` never performs.
    """

    def __init__(self, entry: SchemaEntry, config: JobConfig):
        self.entry = entry
        self.config = config
        self.fingerprint = entry.fingerprint
        self._provenance = None
        self._relation: Optional[Relation] = None

    @property
    def provenance(self):
        if self._provenance is None:
            self._provenance = build_provenance(
                self.entry.graph,
                self.config.join_path,
                on_dangling=self.config.on_dangling or "raise",
            )
        return self._provenance

    @property
    def relation(self) -> Relation:
        if self._relation is None:
            self._relation = lift_relation(self.entry.graph, self.provenance)
        return self._relation


class FDService:
    """A concurrent FD-discovery service over a dataset registry."""

    def __init__(
        self,
        max_workers: int = 2,
        store_dir: Optional[Union[str, Path]] = None,
        dataset_dir: Optional[Union[str, Path]] = None,
        recover: bool = False,
        checkpoint_interval: Optional[float] = None,
    ):
        """Args:
            max_workers: concurrent discovery runs (scheduler bound).
            store_dir: persist cached covers here (survives restarts),
                and write-ahead log job transitions to ``jobs.wal``
                under it (see ``docs/durability.md``).
            dataset_dir: persist registered datasets here too, so a
                restarted server still knows them (see
                ``docs/durability.md``).
            recover: replay the journal on startup — requeue jobs that
                never started, resume checkpointed ones, mark
                unrecoverable ones ``lost``.
            checkpoint_interval: seconds between discovery checkpoint
                emissions (``None`` = ``REPRO_FD_CHECKPOINT_INTERVAL``
                or 5.0; 0 checkpoints at every level boundary).
        """
        self.metrics = MetricsRegistry()
        self._metrics_lock = threading.Lock()
        self.store = ResultStore(persist_dir=store_dir, count=self._count)
        self.registry = DatasetRegistry(
            store=self.store, count=self._count, persist_dir=dataset_dir
        )
        # Multi-table schema declarations over registered datasets
        # (persisted beside covers: schemas only reference dataset
        # fingerprints, so they reload after the registry does).
        self.schemas = SchemaIndex(
            self.registry,
            count=self._count,
            persist_dir=(Path(store_dir) / "schemas") if store_dir is not None else None,
        )
        self.checkpoint_interval = (
            default_checkpoint_interval()
            if checkpoint_interval is None
            else max(0.0, checkpoint_interval)
        )
        self.journal: Optional[JobJournal] = None
        if store_dir is not None:
            try:
                self.journal = JobJournal(
                    Path(store_dir) / WAL_FILENAME, count=self._count
                )
            except Exception:  # noqa: BLE001 — durability aid, not hazard
                self._count("service.journal.errors")
        self.scheduler = JobScheduler(
            self._execute,
            max_workers=max_workers,
            count=self._count,
            journal=self.journal,
        )
        #: Single-flight table: store key -> leader job currently running it.
        self._inflight: Dict[tuple, Job] = {}
        self._inflight_lock = threading.Lock()
        #: Startup-recovery outcome (``/health`` surfaces this).
        self.recovery: Dict[str, int] = {}
        if recover and self.journal is not None:
            self.recovery = self.scheduler.recover(
                dataset_ok=self._dataset_known, result_for=self._stored_answer
            )

    def _stored_answer(self, job: Job) -> Optional[DiscoveryResult]:
        """A recovered ``done`` job's result, re-read from the store."""
        result = self.store.get(job.dataset, job.config.without_top_k())
        k = job.config.top_k
        if result is None or job.kind != "discover" or k is None:
            return result
        if job.dataset not in self.registry:
            return None
        return _first_k_result(self.registry.get(job.dataset).relation, result, k)

    def _dataset_known(self, fingerprint: str) -> bool:
        """A recovered job's target still exists (dataset *or* schema)."""
        return fingerprint in self.registry or fingerprint in self.schemas

    def _count(self, name: str, amount: int = 1) -> None:
        """Thread-safe counter increment on the service metrics registry."""
        with self._metrics_lock:
            self.metrics.counter(name).inc(amount)

    # ------------------------------------------------------------------
    # Datasets
    # ------------------------------------------------------------------

    def register_relation(
        self, relation: Relation, name: Optional[str] = None
    ) -> DatasetEntry:
        """Register an in-memory relation (idempotent by fingerprint)."""
        return self.registry.register(relation, name=name)

    def register_csv(
        self,
        text: str,
        name: Optional[str] = None,
        semantics: str = "eq",
        on_bad_row: str = "raise",
    ) -> DatasetEntry:
        """Parse CSV text and register the resulting relation."""
        relation = read_csv_text(text, semantics=semantics, on_bad_row=on_bad_row)
        return self.register_relation(relation, name=name)

    def register_rows(
        self,
        columns: Sequence[str],
        rows: Sequence[Sequence[object]],
        name: Optional[str] = None,
        semantics: str = "eq",
    ) -> DatasetEntry:
        """Register a relation given as a column list plus row tuples."""
        relation = Relation.from_rows(rows, schema=list(columns), semantics=semantics)
        return self.register_relation(relation, name=name)

    def append_rows(self, ref: str, rows: Sequence[Sequence[object]]) -> DatasetEntry:
        """Append rows to a dataset; cached covers migrate incrementally."""
        return self.registry.append(ref, rows)

    # ------------------------------------------------------------------
    # Schemas (multi-table discovery — see repro.multitable)
    # ------------------------------------------------------------------

    def register_schema(
        self,
        name: Optional[str],
        tables: Dict[str, str],
        keys: Optional[Dict[str, Sequence[str]]] = None,
        foreign_keys: Optional[Sequence[Dict[str, object]]] = None,
        infer_fks: bool = False,
        require_inclusion: bool = False,
    ) -> SchemaEntry:
        """Declare a multi-table schema over registered datasets.

        Idempotent by graph fingerprint; see
        :meth:`~repro.service.schemas.SchemaIndex.register`.
        """
        return self.schemas.register(
            name,
            tables,
            keys=keys,
            foreign_keys=foreign_keys,
            infer_fks=infer_fks,
            require_inclusion=require_inclusion,
        )

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------

    def submit(
        self,
        dataset: str,
        kind: str = "discover",
        config: Optional[Union[JobConfig, Dict[str, object]]] = None,
        priority: int = 0,
        idempotency_key: Optional[str] = None,
    ) -> Job:
        """Queue a discovery or ranking job against a registered dataset.

        ``idempotency_key`` (the HTTP ``Idempotency-Key`` header) makes
        retried submissions safe: a repeated key returns the original
        job — across restarts too, since the key rides in the journal.
        """
        if not isinstance(config, JobConfig):
            config = JobConfig.from_dict(config)
        if kind == "multitable":
            entry = self.schemas.get(dataset)
            if config.join_path is None:
                raise ConfigError("multitable jobs need a 'join_path' in the config")
            # Validate the path at submit time (HTTP 400), not in the
            # worker (job 'failed'): MultitableError is a ValueError.
            entry.graph.resolve_path(config.join_path)
            fingerprint = entry.fingerprint
        else:
            fingerprint = self.registry.resolve(dataset)
        return self.scheduler.submit(
            fingerprint, kind, config, priority=priority,
            idempotency_key=idempotency_key,
        )

    def discover(
        self,
        dataset: str,
        config: Optional[Union[JobConfig, Dict[str, object]]] = None,
        priority: int = 0,
        timeout: Optional[float] = None,
    ) -> Job:
        """Convenience: submit a discover job and wait for it."""
        job = self.submit(dataset, "discover", config, priority=priority)
        return self.scheduler.wait(job.job_id, timeout=timeout)

    def rank(
        self,
        dataset: str,
        config: Optional[Union[JobConfig, Dict[str, object]]] = None,
        priority: int = 0,
        timeout: Optional[float] = None,
    ) -> Job:
        """Convenience: submit a rank job and wait for it."""
        job = self.submit(dataset, "rank", config, priority=priority)
        return self.scheduler.wait(job.job_id, timeout=timeout)

    def multitable(
        self,
        schema: str,
        config: Optional[Union[JobConfig, Dict[str, object]]] = None,
        priority: int = 0,
        timeout: Optional[float] = None,
    ) -> Job:
        """Convenience: submit a multitable job and wait for it."""
        job = self.submit(schema, "multitable", config, priority=priority)
        return self.scheduler.wait(job.job_id, timeout=timeout)

    # ------------------------------------------------------------------
    # Job execution (runs on scheduler worker threads)
    # ------------------------------------------------------------------

    def _execute(self, job: Job) -> None:
        if job.kind == "multitable":
            self._execute_multitable(job)
            return
        entry = self.registry.get(job.dataset)
        if job.cancel_requested:
            raise JobCancelled("cancelled before start")
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("service.job", job_id=job.job_id, kind=job.kind):
                # Every job works from the *full* cover, discovered and
                # cached under the full-cover key; a top_k only cuts the
                # ranking: of the left-reduced cover for a discover job,
                # of the canonical cover for a rank job.
                result = self._discover_with_cache(job, entry)
                k = job.config.top_k
                if job.kind == "discover" and k is not None:
                    result = _first_k_result(entry.relation, result, k)
                job.result = result
                if job.kind == "rank":
                    with tracer.span("covers", fds=result.fd_count):
                        canonical = result.canonical_cover()
                    ranking = rank_cover(
                        entry.relation,
                        canonical,
                        top_k=job.config.top_k,
                    )
                    job.ranking = [
                        _ranked_entry(ranked, entry.relation)
                        for ranked in ranking.ranked
                    ]
        job.trace = trace_summary(tracer)

    def _execute_multitable(self, job: Job) -> None:
        """Run one multitable job: lift, discover (cached), rank, tag.

        Reuses the exact single-relation cache/single-flight machinery:
        the virtual join is presented to :meth:`_discover_with_cache`
        as a duck-typed dataset whose fingerprint is the schema graph's
        — available without lifting — and whose relation lifts lazily,
        so a cover cache hit never rebuilds provenance for discovery
        (only the ranking pass touches the rows).  The join is never
        materialized: the cover comes out of the lifted codes, which
        are byte-identical to the materialized join's (see
        :mod:`repro.multitable.provenance`).
        """
        entry = self.schemas.get(job.dataset)
        if job.cancel_requested:
            raise JobCancelled("cancelled before start")
        config = job.config
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("service.job", job_id=job.job_id, kind=job.kind):
                provider = _VirtualJoin(entry, config)
                # The full cover is discovered and cached (a top_k only
                # bounds the ranking below), mirroring "rank" jobs.
                result = self._discover_with_cache(job, provider)
                job.result = result
                relation = provider.relation
                provenance = provider.provenance
                owners = attribute_tables(entry.graph, provenance.tables)
                with tracer.span("covers", fds=result.fd_count):
                    canonical = result.canonical_cover()
                ranking = rank_cover(relation, canonical, top_k=config.top_k)
                job.ranking = [
                    {
                        **_ranked_entry(ranked, relation),
                        "scope": fd_scope(ranked.fd, owners),
                        "tables": list(fd_tables(ranked.fd, owners)),
                    }
                    for ranked in ranking.ranked
                ]
                job.multitable = {
                    "schema": entry.fingerprint,
                    "name": entry.name,
                    "path": list(provenance.tables),
                    "on_dangling": provenance.policy,
                    "n_join_rows": provenance.n_rows,
                    "dropped_rows": provenance.dropped_rows,
                    "padded_cells": provenance.padded_cells,
                    "columns": relation.schema.names,
                    "intra_count": sum(
                        1 for e in job.ranking if e["scope"] == "intra"
                    ),
                    "inter_count": sum(
                        1 for e in job.ranking if e["scope"] == "inter"
                    ),
                }
        job.trace = trace_summary(tracer)

    def _discover_with_cache(self, job: Job, entry: DatasetEntry) -> DiscoveryResult:
        """Cache-checked discovery of the full cover, single-flighted.

        The cover is keyed by the job's config without ``top_k``, so a
        top-k request and a full one share one journaled, checkpointed
        discovery run and one store entry.
        """
        config = job.config.without_top_k()
        key = (entry.fingerprint, config.algorithm, config.key())
        while True:
            # The store check and the in-flight claim are one atomic
            # step: a leader publishes its result *before* releasing
            # the key, so a miss here guarantees nobody else already
            # computed it.
            with self._inflight_lock:
                cached = self.store.get(entry.fingerprint, config)
                if cached is None:
                    leader = self._inflight.get(key)
                    if leader is None:
                        self._inflight[key] = job
            if cached is not None:
                job.cached = True
                self._count("service.jobs.cache_hits")
                return cached
            if leader is None:
                break
            # Another job is computing the same (dataset, config): wait
            # for it, then re-check the store.  A failed (or partial —
            # not cacheable) leader leaves no entry, so the loop
            # promotes us to leader and we run it ourselves.
            self._count("service.jobs.coalesced")
            leader.done.wait()
        try:
            self._count("service.discovery.runs")
            algo = make_algorithm(config.algorithm, **config.algorithm_kwargs())
            if self.journal is not None:
                # Durable job plane: periodic checkpoints ride the WAL,
                # and a recovered job's snapshot seeds the FD tree so
                # completed levels aren't redone (docs/durability.md).
                journal, job_id = self.journal, job.job_id
                algo.checkpoint_interval = self.checkpoint_interval
                algo.checkpoint_sink = (
                    lambda state: journal.record_checkpoint(job_id, state)
                )
                if job.checkpoint is not None:
                    algo.resume_from = job.checkpoint
            result = algo.discover(entry.relation)
            if getattr(algo, "resume_from", None) is not None and result.stats.resumed_levels > 0:
                job.resumed = True
                self._count("service.jobs.resumed")
            self.store.put(entry.fingerprint, config, result)
            return result
        finally:
            with self._inflight_lock:
                if self._inflight.get(key) is job:
                    del self._inflight[key]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, object]:
        """Liveness summary for the ``/health`` endpoint."""
        scheduler = self.scheduler.counters()
        payload = {
            "status": "ok",
            "version": __version__,
            "datasets": len(self.registry),
            "cached_results": len(self.store),
            "jobs": scheduler,
        }
        if self.recovery:
            payload["recovery"] = dict(self.recovery)
        return payload

    def metrics_payload(self) -> Dict[str, object]:
        """All counters for the ``/metrics`` endpoint."""
        with self._metrics_lock:
            counters = {
                name: counter.value
                for name, counter in sorted(self.metrics.counters.items())
            }
        gauges = dict(self.scheduler.gauges())
        gauges.update(tier_gauges())
        payload = {
            "counters": counters,
            "gauges": gauges,
            "store": self.store.counters(),
            "scheduler": self.scheduler.counters(),
        }
        if self.journal is not None:
            payload["journal"] = self.journal.counters()
        return payload

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown, phase one: refuse new jobs, finish accepted.

        Returns True when every in-flight job completed within
        ``timeout``.  The result store is synced either way so a
        following restart reloads every completed cover; call
        :meth:`close` afterwards to stop the workers.
        """
        finished = self.scheduler.drain(timeout)
        self.store.sync()
        return finished

    def close(self) -> None:
        """Shut the scheduler down (queued jobs are cancelled).

        A clean shutdown compacts the journal, so the WAL restarts as
        one summary record set instead of full checkpoint history.
        """
        self.scheduler.shutdown()
        if self.journal is not None:
            self.journal.close(compact=True)

    def __enter__(self) -> "FDService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
