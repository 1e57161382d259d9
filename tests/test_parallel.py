"""Tests for the repro.parallel execution layer.

The load-bearing property is determinism: for every worker count the
discovered covers, the DiscoveryStats counters and the redundancy
numbers must be byte-identical to the serial path, with per-row and
with vectorized kernels, and under both null semantics.  Plus the failure model: a crashing
worker degrades to the serial path with a telemetry event, never to a
wrong answer.
"""

import os

import numpy as np
import pytest

from repro import parallel
from repro.core.dhyfd import DHyFD
from repro.core.sampling import initial_sample
from repro.covers.canonical import canonical_cover
from repro.parallel import config as parallel_config
from repro.parallel.pool import chunk_items
from repro.memplane.arena import DatasetArena, get_arena
from repro.parallel.shm import SharedRelationView
from repro.partitions.cache import PartitionCache
from repro.partitions.stripped import StrippedPartition
from repro.ranking.redundancy import (
    NullPolicy,
    dataset_redundancy,
    redundancy_positions,
    redundant_rows_for_lhs,
)
from repro.relational import attrset
from repro.relational.null import NullSemantics
from repro.resilience import faults
from repro.telemetry import Tracer, use_tracer
from tests.conftest import kernel_mode, make_random_relation

#: Force the parallel path regardless of relation size.
FORCE_PARALLEL = dict(parallel_min_rows=0, parallel_min_candidates=1)


def _force_thresholds(monkeypatch):
    monkeypatch.setattr(parallel_config, "DEFAULT_MIN_PARALLEL_ROWS", 0)
    monkeypatch.setattr(parallel_config, "DEFAULT_MIN_PARALLEL_ITEMS", 1)


def _stats_signature(stats):
    return (
        stats.validations,
        stats.comparisons,
        stats.sampled_non_fds,
        stats.induction_calls,
        stats.induction_nodes_visited,
        stats.induction_fds_inserted,
        stats.levels_processed,
        stats.partition_refreshes,
        stats.level_log,
    )


# ----------------------------------------------------------------------
# Jobs resolution
# ----------------------------------------------------------------------


class TestJobsResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(parallel.ENV_JOBS, raising=False)
        assert parallel.resolve_jobs() == 1

    def test_explicit_value_wins(self):
        assert parallel.resolve_jobs(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(parallel.ENV_JOBS, "5")
        assert parallel.resolve_jobs() == 5

    def test_auto_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv(parallel.ENV_JOBS, raising=False)
        expected = max(1, os.cpu_count() or 1)
        assert parallel.resolve_jobs(0) == expected
        assert parallel.resolve_jobs("auto") == expected

    def test_invalid_values_raise(self):
        with pytest.raises(ValueError):
            parallel.resolve_jobs(-1)
        with pytest.raises(ValueError):
            parallel.resolve_jobs("many")

    def test_set_default_jobs_round_trip(self, monkeypatch):
        monkeypatch.setattr(parallel_config, "_default_jobs", None)
        monkeypatch.delenv(parallel.ENV_JOBS, raising=False)
        previous = parallel.set_default_jobs(4)
        try:
            assert parallel.resolve_jobs() == 4
        finally:
            parallel.set_default_jobs(previous)
        assert previous is None
        # restored to unset, not pinned to the value it resolved to
        monkeypatch.setenv(parallel.ENV_JOBS, "2")
        assert parallel.resolve_jobs() == 2

    def test_set_default_jobs_none_clears_the_pin(self, monkeypatch):
        monkeypatch.setattr(parallel_config, "_default_jobs", None)
        monkeypatch.setenv(parallel.ENV_JOBS, "2")
        parallel.set_default_jobs(5)
        assert parallel.resolve_jobs() == 5
        assert parallel.set_default_jobs(None) == 5
        assert parallel.resolve_jobs() == 2

    def test_use_jobs_context(self, monkeypatch):
        monkeypatch.delenv(parallel.ENV_JOBS, raising=False)
        before = parallel.get_default_jobs()
        with parallel.use_jobs(2):
            assert parallel.resolve_jobs() == 2
        assert parallel.get_default_jobs() == before

    def test_use_jobs_leaves_the_environment_in_charge(self, monkeypatch):
        monkeypatch.setattr(parallel_config, "_default_jobs", None)
        monkeypatch.delenv(parallel.ENV_JOBS, raising=False)
        with parallel.use_jobs(3):
            assert parallel.resolve_jobs() == 3
        monkeypatch.setenv(parallel.ENV_JOBS, "2")
        assert parallel.resolve_jobs() == 2


# ----------------------------------------------------------------------
# Shared memory transport
# ----------------------------------------------------------------------


class TestSharedMemory:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_view_round_trips_relation(self, seed):
        relation = make_random_relation(seed)
        with DatasetArena(owner="t-view") as arena, arena.lease(relation) as lease:
            view = SharedRelationView(lease.spec)
            assert view.n_rows == relation.n_rows
            assert view.n_cols == relation.n_cols
            assert np.array_equal(view.matrix(), relation.matrix())
            for attr in range(relation.n_cols):
                assert np.array_equal(view.codes(attr), relation.codes(attr))
                assert np.array_equal(view.null_mask(attr), relation.null_mask(attr))

    def test_close_is_idempotent(self):
        relation = make_random_relation(1)
        executor = parallel.ParallelExecutor(relation, jobs=2)
        executor.run(
            "redundancy", [(0, attrset.singleton(0))], extra={"policy": "include"}
        )
        assert get_arena().pins(relation.fingerprint()) == 1
        executor.close()
        executor.close()
        assert get_arena().pins(relation.fingerprint()) == 0


# ----------------------------------------------------------------------
# Scheduling
# ----------------------------------------------------------------------


class TestChunking:
    def test_empty(self):
        assert chunk_items([], jobs=4) == []

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 101])
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_partition_preserves_order(self, n, jobs):
        items = list(range(n))
        batches = chunk_items(items, jobs=jobs)
        assert [item for batch in batches for item in batch] == items
        assert all(batch for batch in batches)

    def test_min_batch_respected(self):
        batches = chunk_items(list(range(100)), jobs=4, min_batch=30)
        assert all(len(batch) >= 30 for batch in batches[:-1])

    def test_small_input_single_batch(self):
        assert len(chunk_items(list(range(5)), jobs=4, min_batch=8)) == 1


# ----------------------------------------------------------------------
# End-to-end determinism
# ----------------------------------------------------------------------


class TestDiscoveryDeterminism:
    @pytest.mark.parametrize("semantics", [NullSemantics.EQ, NullSemantics.NEQ])
    @pytest.mark.parametrize("mode", ["python", "numpy"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_covers_and_stats_identical_across_jobs(self, seed, mode, semantics):
        relation = make_random_relation(seed, semantics=semantics)
        with kernel_mode(mode):
            baseline = DHyFD(jobs=1).discover(relation)
            for jobs in (2, 4):
                result = DHyFD(jobs=jobs, **FORCE_PARALLEL).discover(relation)
                assert set(result.fds) == set(baseline.fds)
                assert _stats_signature(result.stats) == _stats_signature(
                    baseline.stats
                )

    def test_jobs_flow_from_env(self, monkeypatch):
        relation = make_random_relation(5)
        baseline = DHyFD().discover(relation)
        monkeypatch.setenv(parallel.ENV_JOBS, "2")
        result = DHyFD(**FORCE_PARALLEL).discover(relation)
        assert set(result.fds) == set(baseline.fds)
        assert _stats_signature(result.stats) == _stats_signature(baseline.stats)

    def test_level_log_counts_only_validated_nodes(self):
        # The LevelDecision fix: candidate totals never undercount the
        # valid FDs found at the level (deleted/empty-RHS nodes are
        # excluded from both sides).
        entries = []
        for seed in range(8):
            relation = make_random_relation(seed)
            entries.extend(DHyFD().discover(relation).stats.level_log)
        assert entries
        for entry in entries:
            assert entry["valid"] <= entry["candidates"]


class TestRedundancyDeterminism:
    @pytest.mark.parametrize("policy", list(NullPolicy))
    def test_positions_identical_across_jobs(self, policy, monkeypatch):
        _force_thresholds(monkeypatch)
        relation = make_random_relation(7, semantics=NullSemantics.EQ)
        cover = list(canonical_cover(DHyFD().discover(relation).fds))
        serial = redundancy_positions(relation, cover, policy)
        for jobs in (2, 4):
            assert np.array_equal(
                serial, redundancy_positions(relation, cover, policy, jobs=jobs)
            )

    def test_report_identical_across_jobs(self, monkeypatch):
        _force_thresholds(monkeypatch)
        relation = make_random_relation(11)
        cover = canonical_cover(DHyFD().discover(relation).fds)
        serial = dataset_redundancy(relation, cover)
        for jobs in (2, 4):
            report = dataset_redundancy(relation, cover, jobs=jobs)
            assert report.n_values == serial.n_values
            assert report.red_excluding_null == serial.red_excluding_null
            assert report.red_including_null == serial.red_including_null


class TestSamplingDeterminism:
    @pytest.mark.parametrize("seed", [3, 7])
    def test_parallel_sample_equals_serial(self, seed):
        relation = make_random_relation(seed)
        singletons = [
            StrippedPartition.for_attribute(relation, attr)
            for attr in range(relation.n_cols)
        ]
        serial = initial_sample(relation, singletons)
        with parallel.ParallelExecutor(relation, jobs=2) as executor:
            assert initial_sample(relation, singletons, executor=executor) == serial


# ----------------------------------------------------------------------
# Vectorized redundant_rows_for_lhs (vs the original per-row loop)
# ----------------------------------------------------------------------


def _reference_rows_for_lhs(relation, partition, policy):
    from repro.ranking.redundancy import _lhs_null_mask

    marked = np.zeros(relation.n_rows, dtype=bool)
    lhs_nulls = (
        _lhs_null_mask(relation, partition.attrs)
        if policy is NullPolicy.EXCLUDE_LHS_RHS
        else None
    )
    for cluster in partition.clusters:
        if lhs_nulls is None:
            rows = cluster
        else:
            rows = [row for row in cluster if not lhs_nulls[row]]
            if len(rows) < 2:
                continue
        for row in rows:
            marked[row] = True
    return marked


class TestVectorizedRowMarking:
    @pytest.mark.parametrize("policy", list(NullPolicy))
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference_loop(self, seed, policy):
        relation = make_random_relation(seed)
        for attrs in (
            attrset.EMPTY,
            attrset.singleton(0),
            attrset.full_set(relation.n_cols),
        ):
            partition = StrippedPartition.for_attrs(relation, attrs)
            expected = _reference_rows_for_lhs(relation, partition, policy)
            actual = redundant_rows_for_lhs(relation, partition, policy)
            assert np.array_equal(actual, expected)


# ----------------------------------------------------------------------
# Failure model
# ----------------------------------------------------------------------


class TestWorkerCrashFallback:
    def test_discovery_survives_crashing_workers(self, monkeypatch):
        relation = make_random_relation(7)
        baseline = DHyFD().discover(relation)
        monkeypatch.setenv(faults.ENV_FAULTS, "worker.crash")
        tracer = Tracer()
        with use_tracer(tracer):
            result = DHyFD(jobs=2, **FORCE_PARALLEL).discover(relation)
        assert set(result.fds) == set(baseline.fds)
        assert _stats_signature(result.stats) == _stats_signature(baseline.stats)
        events = tracer.find_events("parallel_fallback")
        assert events
        assert events[0].attrs["jobs"] == 2

    def test_broken_executor_refuses_work(self, monkeypatch):
        relation = make_random_relation(3)
        monkeypatch.setenv(faults.ENV_FAULTS, "worker.crash")
        with parallel.ParallelExecutor(relation, jobs=2) as executor:
            with pytest.raises(parallel.PoolBrokenError):
                executor.run("validate", [(0, 0, 1, 0, np.zeros(0), np.zeros(0))])
            assert executor.broken
            assert not executor.active

    def test_redundancy_falls_back_serially(self, monkeypatch):
        _force_thresholds(monkeypatch)
        relation = make_random_relation(11)
        cover = list(canonical_cover(DHyFD().discover(relation).fds))
        serial = redundancy_positions(relation, cover, NullPolicy.INCLUDE)
        monkeypatch.setenv(faults.ENV_FAULTS, "worker.crash")
        parallel_result = redundancy_positions(
            relation, cover, NullPolicy.INCLUDE, jobs=2
        )
        assert np.array_equal(serial, parallel_result)


# ----------------------------------------------------------------------
# Telemetry replay
# ----------------------------------------------------------------------


class TestTelemetryReplay:
    def test_parallel_batches_appear_as_spans(self):
        relation = make_random_relation(7)
        tracer = Tracer()
        with use_tracer(tracer):
            DHyFD(jobs=2, **FORCE_PARALLEL).discover(relation)
        batches = tracer.find_spans("parallel.batch")
        assert batches
        for span in batches:
            assert span.attrs["kind"] in {"validate", "redundancy", "sample"}
            assert span.attrs["items"] >= 1
            assert span.duration is not None

    def test_worker_kernel_counters_are_replayed(self, monkeypatch):
        _force_thresholds(monkeypatch)
        relation = make_random_relation(11)
        cover = list(canonical_cover(DHyFD().discover(relation).fds))
        lhss = {fd.lhs for fd in cover}
        assert all(attrset.count(lhs) > 1 for lhs in lhss)

        def parent_derives(*_args):
            raise AssertionError("the parent derived an LHS partition")

        # Workers build each LHS partition with one refine; the parent
        # only seeds singletons (group kernels) and must derive none.
        monkeypatch.setattr(PartitionCache, "get", parent_derives)
        tracer = Tracer()
        with use_tracer(tracer):
            redundancy_positions(relation, cover, NullPolicy.INCLUDE, jobs=2)
        refine_calls = sum(
            counter.value
            for name, counter in tracer.metrics.counters.items()
            if name.startswith("kernels.refine.")
        )
        assert refine_calls == len(lhss)

    def test_record_completed_nests_under_open_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.record_completed("replayed", 0.5, pid=123)
        outer = tracer.find_spans("outer")[0]
        assert [child.name for child in outer.children] == ["replayed"]
        child = outer.children[0]
        assert child.duration == 0.5
        assert child.start >= 0.0
        assert child.attrs == {"pid": 123}
