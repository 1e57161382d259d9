"""Shared-memory worker pool for validation, ranking and sampling.

Execution model
---------------

The parent leases the relation's code and null matrices from the
host-wide dataset arena (:mod:`repro.memplane.arena`; the layout is in
:mod:`repro.parallel.shm`), spins up a
:class:`concurrent.futures.ProcessPoolExecutor` whose initializer
attaches every worker to those segments, and then ships *work items* —
candidate ``(LHS, RHS, partition)`` triples, FD LHSs, or per-attribute
cluster lists — batched by :func:`chunk_items` to amortize dispatch
overhead.  Partitions travel as flat ``(rows, lengths)`` index arrays
(:func:`repro.partitions.kernels.flatten_clusters`); workers rebuild
them and run the exact serial primitives (``validate_fd``,
``redundant_rows_for_lhs``, the sorted-neighborhood helpers) against
the shared view.  Results come back tagged with their item index and
are merged in submission order by the reducers in
:mod:`repro.parallel.merge`, so the combined covers, stats and masks
are byte-identical for any worker count.

Failure model
-------------

Any pool-level failure — a worker killed mid-task, a failed fork, an
unpicklable payload, a failed arena lease — first gets a bounded
retry: the pool is torn down (a held lease is kept), the parent backs
off briefly, emits a ``pool_retry`` telemetry event, and replays the
whole batch set on a fresh pool.  Only when every attempt fails is the
executor marked *broken*, a ``parallel_fallback`` event emitted and
:class:`PoolBrokenError` raised.  Call sites catch it and rerun the
same work serially: a dying worker degrades throughput, never the
result.  Batch results and worker telemetry are only consumed after a
fully successful attempt, so retries cannot double-count.

Telemetry
---------

The context-local tracer does not cross process boundaries, so each
worker batch runs under its own private tracer (when the parent's is
enabled) and returns a flat summary — completed span timings plus
counter totals (including the ``kernels.*`` call counters).  The
parent replays those through
:meth:`~repro.telemetry.Tracer.record_completed` and its own counter
registry, so a traced parallel run still shows where the time went.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..partitions import kernels
from ..relational import attrset
from ..relational.attrset import AttrSet
from ..resilience import faults
from ..telemetry import Tracer, current_tracer, use_tracer
from .config import (
    DEFAULT_MIN_BATCH,
    DEFAULT_POOL_RETRIES,
    DEFAULT_POOL_RETRY_BACKOFF,
    resolve_jobs,
)
from .merge import pack_row_mask, unpack_row_mask
from .shm import SharedRelationView


class PoolBrokenError(RuntimeError):
    """The worker pool is unusable; the caller should run serially."""


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

_worker_view: Optional[SharedRelationView] = None


def _init_worker(spec, unregister: bool) -> None:
    """Pool initializer: attach this worker to the shared relation."""
    global _worker_view
    _worker_view = SharedRelationView(spec, unregister=unregister)


def _summarize_tracer(tracer: Optional[Tracer]) -> Optional[dict]:
    """Flatten a worker tracer into a small picklable summary."""
    if tracer is None:
        return None
    return {
        "spans": [
            (span.name, float(span.duration or 0.0), dict(span.attrs))
            for span, _depth in tracer.walk()
        ],
        "counters": {
            name: counter.value
            for name, counter in tracer.metrics.counters.items()
        },
    }


def _validate_batch(view: SharedRelationView, payload: dict) -> list:
    from ..core.validation import validate_fd
    from ..partitions.stripped import StrippedPartition

    out = []
    for index, lhs, rhs, part_attrs, rows, lengths in payload["items"]:
        partition = StrippedPartition.from_flat(
            part_attrs, rows, lengths, view.n_rows
        )
        outcome = validate_fd(view, lhs, rhs, partition)
        out.append(
            (index, outcome.valid_rhs, sorted(outcome.non_fd_lhs), outcome.comparisons)
        )
    return out


def _redundancy_batch(view: SharedRelationView, payload: dict) -> list:
    from ..partitions.stripped import StrippedPartition
    from ..ranking.redundancy import NullPolicy, redundant_rows_for_lhs

    policy = NullPolicy(payload["policy"])
    out = []
    for index, lhs in payload["items"]:
        partition = StrippedPartition.for_attrs(view, lhs)
        rows_mask = redundant_rows_for_lhs(view, partition, policy)
        out.append((index, pack_row_mask(rows_mask)))
    return out


def _sample_batch(view: SharedRelationView, payload: dict) -> list:
    from ..core.sampling import row_sort_keys, sort_clusters_by_content, window_pairs

    matrix = view.matrix()
    row_keys = row_sort_keys(matrix)
    full = attrset.full_set(view.n_cols)
    masks: Set[AttrSet] = set()
    comparisons = 0
    for _attr, rows, lengths in payload["items"]:
        clusters = kernels.unflatten_clusters(rows, lengths)
        sorted_clusters = sort_clusters_by_content(clusters, row_keys)
        pairs = window_pairs(sorted_clusters, window=1)
        if pairs is None:
            continue
        rows_a, rows_b = pairs
        comparisons += len(rows_a)
        for agree in kernels.agree_masks(matrix, rows_a, rows_b):
            if agree != full:
                masks.add(agree)
    return [(sorted(masks), comparisons)]


_HANDLERS = {
    "validate": _validate_batch,
    "redundancy": _redundancy_batch,
    "sample": _sample_batch,
}


def _run_batch(payload: dict) -> dict:
    """Worker entry point: execute one batch, optionally under a tracer."""
    if faults.armed() and faults.should_fire("worker.crash"):
        os._exit(86)
    tracer = Tracer() if payload["collect"] else None
    handler = _HANDLERS[payload["kind"]]
    with use_tracer(tracer):
        with current_tracer().span(
            "parallel.batch",
            kind=payload["kind"],
            items=len(payload["items"]),
            pid=os.getpid(),
        ):
            results = handler(_worker_view, payload)
    return {"results": results, "telemetry": _summarize_tracer(tracer)}


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


def chunk_items(
    items: Sequence,
    jobs: int,
    min_batch: int = DEFAULT_MIN_BATCH,
    batches_per_worker: int = 4,
) -> List[Sequence]:
    """Split work items into per-task batches.

    Batches are at least ``min_batch`` items (dispatch amortization) but
    small enough that each worker sees roughly ``batches_per_worker``
    of them (load balancing across uneven item costs).
    """
    n = len(items)
    if n == 0:
        return []
    size = max(1, min_batch, math.ceil(n / max(1, jobs * batches_per_worker)))
    return [items[start:start + size] for start in range(0, n, size)]


def _replay_summary(tracer, summary: Optional[dict]) -> None:
    """Replay a worker's span/counter summary onto the parent tracer."""
    if summary is None or not tracer.enabled:
        return
    for name, duration, attrs in summary["spans"]:
        tracer.record_completed(name, duration, **attrs)
    for name, value in summary["counters"].items():
        tracer.metrics.counter(name).inc(value)


class ParallelExecutor:
    """A per-run process pool sharing one relation with its workers.

    Created lazily: the arena lease and the pool itself only
    materialize on the first :meth:`run` call, so constructing an
    executor that never dispatches costs nothing.  Close it (or use it
    as a context manager) to release the lease.
    """

    def __init__(
        self,
        relation,
        jobs: Optional[int] = None,
        min_batch: Optional[int] = None,
        retries: Optional[int] = None,
        retry_backoff: Optional[float] = None,
    ):
        self.relation = relation
        self.jobs = resolve_jobs(jobs)
        self.min_batch = DEFAULT_MIN_BATCH if min_batch is None else max(1, min_batch)
        self.retries = DEFAULT_POOL_RETRIES if retries is None else max(0, retries)
        self.retry_backoff = (
            DEFAULT_POOL_RETRY_BACKOFF if retry_backoff is None else retry_backoff
        )
        self.broken = False
        self.disabled = False
        self.batches_dispatched = 0
        self.items_dispatched = 0
        #: The arena lease the workers attach to (taken on first dispatch).
        self._lease = None
        self._pool: Optional[ProcessPoolExecutor] = None

    @property
    def active(self) -> bool:
        """True while the executor can accept work (jobs > 1, healthy)."""
        return self.jobs > 1 and not self.broken and not self.disabled

    def disable(self) -> int:
        """Degradation hook: shut the pool down and refuse further work.

        Unlike a broken pool this is deliberate — the memory sentinel's
        last ladder rung trades parallel throughput for the worker
        processes' memory.  Returns 0 (frees no *tracked* bytes).
        """
        if not self.disabled:
            self.disabled = True
            self._shutdown()
            current_tracer().event("parallel_disabled", jobs=self.jobs)
        return 0

    def _ensure_pool(self) -> None:
        if self._pool is not None:
            return
        if self._lease is None:
            # Lazy: memplane.arena imports parallel.shm.
            from ..memplane.arena import get_arena

            lease = get_arena().lease(self.relation)
            if lease is None:
                raise RuntimeError("the dataset arena refused a lease")
            self._lease = lease
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._pool = ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=mp.get_context(method),
            initializer=_init_worker,
            # Spawn-started workers get their own resource tracker and
            # must unregister the attachment; fork-started workers share
            # the parent's (see shm._attach).
            initargs=(self._lease.spec, method != "fork"),
        )

    def run(
        self,
        kind: str,
        items: Sequence,
        extra: Optional[Dict[str, object]] = None,
        min_batch: Optional[int] = None,
        batches_per_worker: int = 4,
    ) -> list:
        """Dispatch ``items`` as chunked ``kind`` batches and gather results.

        Returns the concatenated per-item result tuples (each tagged
        with its item index by the worker).  Raises
        :class:`PoolBrokenError` on any pool failure, after marking the
        executor broken and emitting a ``parallel_fallback`` event.
        """
        if not self.active:
            raise PoolBrokenError(
                f"executor inactive (jobs={self.jobs}, broken={self.broken}, "
                f"disabled={self.disabled})"
            )
        tracer = current_tracer()
        collect = bool(tracer.enabled)
        batch_size = self.min_batch if min_batch is None else max(1, min_batch)
        for attempt in range(1 + self.retries):
            try:
                return self._run_once(
                    kind, items, extra, batch_size, batches_per_worker,
                    tracer, collect,
                )
            except PoolBrokenError:
                raise
            except Exception as exc:
                if attempt < self.retries:
                    tracer.event(
                        "pool_retry",
                        kind=kind,
                        attempt=attempt + 1,
                        retries=self.retries,
                        jobs=self.jobs,
                        error=type(exc).__name__,
                    )
                    self._teardown_pool()
                    time.sleep(self.retry_backoff * (attempt + 1))
                else:
                    self._mark_broken(kind, exc)
                    raise PoolBrokenError(
                        f"worker pool failed during {kind!r} after "
                        f"{1 + self.retries} attempts: {exc!r}"
                    ) from exc

    def _run_once(
        self,
        kind: str,
        items: Sequence,
        extra: Optional[Dict[str, object]],
        batch_size: int,
        batches_per_worker: int,
        tracer,
        collect: bool,
    ) -> list:
        """One full dispatch attempt; telemetry replays only on success."""
        # Leak-regression hook: an armed ``pool.broken`` fault fails the
        # attempt exactly like a pool-level crash, driving the retry →
        # mark-broken → shutdown path that must release the arena
        # lease without orphans.
        faults.fire("pool.broken")
        self._ensure_pool()
        batches = chunk_items(items, self.jobs, batch_size, batches_per_worker)
        futures = [
            self._pool.submit(
                _run_batch,
                {
                    "kind": kind,
                    "collect": collect,
                    "items": list(batch),
                    **(extra or {}),
                },
            )
            for batch in batches
        ]
        merged: list = []
        summaries: List[Optional[dict]] = []
        for future in futures:
            reply = future.result()
            merged.extend(reply["results"])
            summaries.append(reply["telemetry"])
        # Replay worker telemetry only after every batch came back — a
        # retried attempt must not double-count partial successes.
        for summary in summaries:
            _replay_summary(tracer, summary)
        self.batches_dispatched += len(batches)
        self.items_dispatched += len(items)
        return merged

    def _mark_broken(self, kind: str, exc: Exception) -> None:
        self.broken = True
        current_tracer().event(
            "parallel_fallback",
            kind=kind,
            jobs=self.jobs,
            error=type(exc).__name__,
        )
        self._shutdown()

    def _teardown_pool(self) -> None:
        """Kill the worker pool but keep the arena lease.

        Used between retry attempts: rebuilding the pool is cheap, and
        the leased segments stay valid.
        """
        if self._pool is not None:
            try:
                self._pool.shutdown(wait=True, cancel_futures=True)
            except Exception:
                pass
            self._pool = None

    def _shutdown(self) -> None:
        self._teardown_pool()
        if self._lease is not None:
            lease, self._lease = self._lease, None
            lease.release()

    def close(self) -> None:
        """Shut the pool down and release the arena lease (idempotent)."""
        self._shutdown()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "broken" if self.broken else ("idle" if self._pool is None else "up")
        return f"ParallelExecutor(jobs={self.jobs}, {state})"


# ----------------------------------------------------------------------
# High-level wrappers (one per wired subsystem)
# ----------------------------------------------------------------------


def validate_level(
    executor: ParallelExecutor,
    items: Sequence[Tuple[AttrSet, AttrSet, object]],
) -> list:
    """Validate ``(lhs, rhs, partition)`` candidates across the pool.

    Returns one :class:`~repro.core.validation.ValidationResult` per
    item, in input order.
    """
    from ..core.validation import ValidationResult

    payload_items = []
    for index, (lhs, rhs, partition) in enumerate(items):
        rows, lengths = kernels.flatten_clusters(partition.clusters)
        payload_items.append((index, lhs, rhs, partition.attrs, rows, lengths))
    raw = executor.run("validate", payload_items)
    results: List[Optional[ValidationResult]] = [None] * len(payload_items)
    for index, valid_rhs, non_fds, comparisons in raw:
        results[index] = ValidationResult(valid_rhs, set(non_fds), comparisons)
    if any(result is None for result in results):
        raise PoolBrokenError("worker pool returned an incomplete result set")
    return results


def redundancy_row_masks(
    executor: ParallelExecutor,
    lhs_list: Sequence[AttrSet],
    policy,
) -> List[np.ndarray]:
    """Per-LHS redundant-row masks, one FD LHS per task (input order).

    Workers build ``π_LHS`` from the shared matrix themselves — the
    partition construction is the expensive part being parallelized —
    and return bit-packed row masks the parent unpacks and OR-merges.
    """
    payload_items = [(index, lhs) for index, lhs in enumerate(lhs_list)]
    raw = executor.run(
        "redundancy",
        payload_items,
        extra={"policy": policy.value},
        min_batch=1,
        batches_per_worker=8,
    )
    n_rows = executor.relation.n_rows
    masks: List[Optional[np.ndarray]] = [None] * len(payload_items)
    for index, packed in raw:
        masks[index] = unpack_row_mask(packed, n_rows)
    if any(mask is None for mask in masks):
        raise PoolBrokenError("worker pool returned an incomplete result set")
    return masks


def sample_initial(
    executor: ParallelExecutor,
    partitions: Sequence,
) -> Tuple[Set[AttrSet], int]:
    """Window-1 sorted-neighborhood sampling split across workers.

    Each task covers a chunk of attributes (whole singleton partitions);
    the merged agree-set union and comparison total are identical to
    the serial sampler's first round.
    """
    payload_items = []
    for attr, partition in enumerate(partitions):
        rows, lengths = kernels.flatten_clusters(partition.clusters)
        payload_items.append((attr, rows, lengths))
    # One task per worker when possible: every sampling task pays a full
    # row-key computation, so fewer, larger tasks win here.
    per_task = max(1, math.ceil(len(payload_items) / max(1, executor.jobs)))
    raw = executor.run(
        "sample", payload_items, min_batch=per_task, batches_per_worker=1
    )
    masks: Set[AttrSet] = set()
    comparisons = 0
    for batch_masks, batch_comparisons in raw:
        masks.update(batch_masks)
        comparisons += batch_comparisons
    return masks, comparisons
