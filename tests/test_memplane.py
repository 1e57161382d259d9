"""repro.memplane: dataset arena, shared partition tier, leak hygiene."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from multiprocessing import get_context, shared_memory

import numpy as np
import pytest

from repro import memplane
from repro.algorithms.naive import NaiveFDDiscovery
from repro.core.dhyfd import DHyFD, _shed_arena
from repro.datasets.synthetic import random_relation
from repro.memplane.arena import SEGMENT_PREFIX, DatasetArena, sweep_orphans
from repro.parallel import config as parallel_config
from repro.parallel.pool import ParallelExecutor, PoolBrokenError
from repro.parallel.shm import SharedRelationView
from repro.partitions import cache as partition_cache
from repro.partitions.cache import MAX_SHARED_ATTRS, PartitionCache
from repro.ranking.ranker import rank_cover
from repro.ranking.redundancy import redundancy_positions
from repro.relational import attrset
from repro.relational.relation import Relation
from repro.resilience import faults
from repro.service import FDService
from repro.telemetry import Tracer, use_tracer
from tests.conftest import make_random_relation


def _fd_tuples(fds):
    return sorted((fd.lhs, fd.rhs) for fd in fds)


def _shm_names() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover — non-tmpfs platforms
        return set()


def _arena_files(owner: str) -> list:
    prefix = f"{SEGMENT_PREFIX}-{owner}-"
    return sorted(n for n in _shm_names() if n.startswith(prefix))


def _same_shape_relations(n: int) -> list:
    """Same dims and domains, different content — equal segment sizes."""
    return [
        random_relation(40, 3, domain_sizes=4, seed=100 + i) for i in range(n)
    ]


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    faults.reset()


@pytest.fixture
def fresh_arena():
    """The process-wide arena, fresh before and unlinked after."""
    memplane.reset_arena()
    yield memplane.get_arena()
    memplane.reset_arena()


# ----------------------------------------------------------------------
# Arena lifecycle
# ----------------------------------------------------------------------


class TestDatasetArena:
    def test_lease_roundtrip_and_attach_accounting(self):
        relation = make_random_relation(3)
        with DatasetArena(owner="t-lease") as arena:
            lease_a = arena.lease(relation)
            lease_b = arena.lease(relation)
            assert arena.attach_misses == 1
            assert arena.attach_hits == 1
            assert arena.pins(relation.fingerprint()) == 2
            view = SharedRelationView(lease_a.spec, unregister=True)
            assert np.array_equal(view.matrix(), relation.matrix())
            for attr in range(relation.n_cols):
                assert np.array_equal(
                    view.null_mask(attr), relation.null_mask(attr)
                )
            lease_a.release()
            lease_a.release()  # idempotent
            assert arena.pins(relation.fingerprint()) == 1
            assert arena.shed() == 0  # still pinned
            lease_b.release()
            assert arena.shed() > 0
            assert len(arena) == 0
        assert _arena_files("t-lease") == []

    def test_lease_returns_none_without_fingerprint(self):
        with DatasetArena(owner="t-nofp") as arena:
            assert arena.lease(object()) is None
            assert len(arena) == 0

    def test_eviction_is_lru_and_never_touches_pins(self):
        r1, r2, r3 = _same_shape_relations(3)
        with DatasetArena(owner="t-lru") as arena:
            arena.ingest(r1)
            arena.ingest(r2)
            lease = arena.lease(r3)
            # Refresh r1 so r2 is now the least recently used.
            arena.lease(r1).release()
            arena.shed(arena.memory_bytes() - 1)
            assert r2.fingerprint() not in arena
            assert r1.fingerprint() in arena
            arena.shed(None)  # everything unpinned goes...
            assert r1.fingerprint() not in arena
            assert r3.fingerprint() in arena  # ...the pinned entry stays
            assert arena.evictions == 2
            lease.release()

    def test_byte_budget_enforced_at_ingest(self):
        relations = _same_shape_relations(4)
        with DatasetArena(owner="t-one") as probe:
            probe.ingest(relations[0])
            single = probe.memory_bytes()
        budget = 2 * single + 16
        with DatasetArena(owner="t-budget", budget_bytes=budget) as arena:
            for relation in relations:
                arena.ingest(relation)
            assert arena.memory_bytes() <= budget
            assert len(arena) == 2
            assert arena.evictions == 2

    def test_append_versions_share_parent_segment(self):
        parent = Relation.from_rows(
            [["a", 1], ["b", 2], ["a", 1]], schema=["x", "y"]
        )
        child = parent.append_rows([["c", 3], ["b", 2]])
        with DatasetArena(owner="t-append") as arena:
            arena.ingest(parent)
            assert len(_arena_files("t-append")) == 2
            arena.ingest(child, parent_fingerprint=parent.fingerprint())
            assert arena.prefix_shared == 1
            # The parent's private copy was unlinked; both entries now
            # view the child's one segment pair.
            assert len(_arena_files("t-append")) == 2
            parent_lease = arena.lease(parent)
            child_lease = arena.lease(child)
            assert parent_lease.spec.matrix_name == child_lease.spec.matrix_name
            assert parent_lease.spec.n_rows == parent.n_rows
            assert child_lease.spec.n_rows == child.n_rows
            view = SharedRelationView(parent_lease.spec, unregister=True)
            assert np.array_equal(view.matrix(), parent.matrix())
            parent_lease.release()
            child_lease.release()
        assert _arena_files("t-append") == []

    def test_append_sharing_skipped_while_parent_pinned(self):
        parent = Relation.from_rows([["a", 1], ["b", 2]], schema=["x", "y"])
        child = parent.append_rows([["c", 3]])
        with DatasetArena(owner="t-appin") as arena:
            lease = arena.lease(parent)
            arena.ingest(child, parent_fingerprint=parent.fingerprint())
            # A live lease holds the parent's segment names, so the
            # remap must not happen: two private segment pairs stay.
            assert arena.prefix_shared == 0
            assert len(_arena_files("t-appin")) == 4
            lease.release()
        assert _arena_files("t-appin") == []

    def test_stale_segment_name_is_reclaimed(self):
        relation = make_random_relation(9)
        owner = "t-stale"
        name = f"{SEGMENT_PREFIX}-{owner}-{relation.fingerprint()[:16]}-0m"
        stale = shared_memory.SharedMemory(name=name, create=True, size=8)
        try:
            with DatasetArena(owner=owner) as arena:
                lease = arena.lease(relation)
                assert arena.stale_reclaimed == 1
                view = SharedRelationView(lease.spec, unregister=True)
                assert np.array_equal(view.matrix(), relation.matrix())
                lease.release()
        finally:
            stale.close()
            try:
                stale.unlink()
            except FileNotFoundError:
                pass
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(stale._name, "shared_memory")
            except Exception:
                pass
        assert _arena_files(owner) == []

    def test_concurrent_lease_release_shed_threads(self):
        relations = _same_shape_relations(3)
        errors = []
        stop = threading.Event()
        with DatasetArena(owner="t-race", budget_bytes=1 << 20) as arena:

            def hammer(relation):
                try:
                    while not stop.is_set():
                        lease = arena.lease(relation)
                        view = SharedRelationView(lease.spec, unregister=True)
                        assert np.array_equal(view.matrix(), relation.matrix())
                        lease.release()
                except Exception as exc:  # pragma: no cover — failure path
                    errors.append(exc)

            def shedder():
                while not stop.is_set():
                    arena.shed(0)

            threads = [
                threading.Thread(target=hammer, args=(r,)) for r in relations
            ] + [threading.Thread(target=shedder)]
            for thread in threads:
                thread.start()
            time.sleep(0.5)
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            assert not errors
            arena.shed(None)
            assert arena.memory_bytes() == 0
        assert _arena_files("t-race") == []


def _child_attach(spec, expected_sum):
    view = SharedRelationView(spec)
    sys.exit(0 if int(view.matrix().sum()) == expected_sum else 13)


class TestCrossProcess:
    def test_forked_children_attach_to_leased_segments(self):
        relation = make_random_relation(13)
        with DatasetArena(owner="t-fork") as arena:
            lease = arena.lease(relation)
            ctx = get_context("fork")
            procs = [
                ctx.Process(
                    target=_child_attach,
                    args=(lease.spec, int(relation.matrix().sum())),
                )
                for _ in range(2)
            ]
            for proc in procs:
                proc.start()
            for proc in procs:
                proc.join(timeout=30)
                assert proc.exitcode == 0
            lease.release()
        assert _arena_files("t-fork") == []


# ----------------------------------------------------------------------
# Worker pools over the arena
# ----------------------------------------------------------------------


class TestBuffersOverArena:
    def test_buffers_lease_and_release(self, fresh_arena):
        relation = make_random_relation(14)
        first = ParallelExecutor(relation, jobs=2)
        second = ParallelExecutor(relation, jobs=2)
        first._ensure_pool()
        second._ensure_pool()
        assert first._lease.spec == second._lease.spec  # one copy, two leases
        assert fresh_arena.pins(relation.fingerprint()) == 2
        first.close()
        second.close()
        second.close()  # idempotent
        assert fresh_arena.pins(relation.fingerprint()) == 0
        assert relation.fingerprint() in fresh_arena  # warm for the next job


class TestPoolLeakHygiene:
    def _one_item(self):
        return [(0, attrset.singleton(0))]

    def test_pool_broken_fault_releases_arena_lease(self, fresh_arena):
        relation = make_random_relation(15)
        executor = ParallelExecutor(relation, jobs=2, retries=0)
        executor.run("redundancy", self._one_item(), extra={"policy": "include"})
        assert executor._lease is not None
        assert fresh_arena.pins(relation.fingerprint()) == 1
        faults.activate("pool.broken")
        with pytest.raises(PoolBrokenError):
            executor.run(
                "redundancy", self._one_item(), extra={"policy": "include"}
            )
        assert executor.broken
        assert executor._lease is None
        assert fresh_arena.pins(relation.fingerprint()) == 0
        executor.close()

    def test_arena_attach_fault_falls_back_to_serial(self, fresh_arena, monkeypatch):
        """A failed lease takes the pool's retry -> serial path."""
        monkeypatch.setattr(parallel_config, "DEFAULT_MIN_PARALLEL_ROWS", 0)
        monkeypatch.setattr(parallel_config, "DEFAULT_MIN_PARALLEL_ITEMS", 1)
        relation = make_random_relation(20)
        cover = DHyFD(jobs=1).discover(relation).fds
        serial_positions = redundancy_positions(relation, cover, jobs=1)
        before = _shm_names()
        faults.activate("arena.attach")

        discover_tracer = Tracer()
        with use_tracer(discover_tracer):
            result = DHyFD(jobs=2, parallel_min_rows=1).discover(relation)
        assert _fd_tuples(result.fds) == _fd_tuples(cover)
        assert len(discover_tracer.find_events("parallel_fallback")) == 1

        rank_tracer = Tracer()
        with use_tracer(rank_tracer):
            positions = redundancy_positions(relation, cover, jobs=2)
        assert np.array_equal(positions, serial_positions)
        assert len(rank_tracer.find_events("parallel_fallback")) == 1

        assert fresh_arena.pins(relation.fingerprint()) == 0
        leaked = _shm_names() - before
        assert not [n for n in leaked if n.startswith((SEGMENT_PREFIX, "psm_"))]


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------


class TestLadder:
    def test_shed_arena_rung_frees_unpinned_entries(self, fresh_arena):
        relation = make_random_relation(16)
        fresh_arena.ingest(relation)
        assert fresh_arena.memory_bytes() > 0
        assert _shed_arena() > 0
        assert fresh_arena.memory_bytes() == 0
        assert _shed_arena() == 0


# ----------------------------------------------------------------------
# Shared partition tier
# ----------------------------------------------------------------------


class TestSharedTier:
    def test_cache_seeds_consults_and_publishes(self):
        relation = random_relation(60, 4, domain_sizes=3, seed=101)
        memplane.reset_tiers()
        cold = PartitionCache(relation, shared=True)
        assert cold.shared_hits == 0
        shared = partition_cache.shared_store(relation)
        assert len(shared) == relation.n_cols  # singletons published
        mask = attrset.from_attrs([0, 1])
        cold.get(mask)
        warm = PartitionCache(relation, shared=True)
        assert warm.shared_hits == relation.n_cols  # seeded from the layer
        misses_before = warm.misses
        partition = warm.get(mask)
        assert warm.misses == misses_before + 1  # the local miss...
        assert warm.shared_hits == relation.n_cols + 1  # ...hit the layer
        assert partition is cold.peek(mask)  # literally the same object
        # Each shared lookup is counted once: 4 + 1 cold misses, then
        # 4 + 1 warm hits.
        gauges = memplane.tier_gauges()
        assert gauges["memplane.tier_hits"] == relation.n_cols + 1
        assert gauges["memplane.tier_misses"] == relation.n_cols + 1
        assert gauges["memplane.tier_partitions"] == relation.n_cols + 1
        # A private store neither reads nor publishes.
        private = PartitionCache(relation)
        private.get(attrset.from_attrs([2, 3]))
        assert private.shared_hits == 0
        assert len(shared) == relation.n_cols + 1

    def test_concurrent_lookups_are_each_counted_once(self):
        relation = random_relation(40, 4, domain_sizes=3, seed=103)
        mask = attrset.from_attrs([0, 1])
        threads, rounds = 8, 25
        memplane.reset_tiers()

        def work():
            for _ in range(rounds):
                PartitionCache(relation, shared=True).get(mask)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=work) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in pool)
        finally:
            sys.setswitchinterval(interval)
        gauges = memplane.tier_gauges()
        lookups = threads * rounds * (relation.n_cols + 1)
        assert gauges["memplane.tier_hits"] + gauges["memplane.tier_misses"] == lookups
        assert gauges["memplane.tier_partitions"] == relation.n_cols + 1

    def test_tier_ignores_wide_partitions(self):
        relation = random_relation(30, MAX_SHARED_ATTRS + 1, seed=102)
        memplane.reset_tiers()
        cache = PartitionCache(relation, shared=True)
        cache.get(attrset.from_attrs(range(MAX_SHARED_ATTRS)))
        cache.get(attrset.from_attrs(range(MAX_SHARED_ATTRS + 1)))
        widths = {
            attrset.count(mask)
            for mask in partition_cache.shared_store(relation)
        }
        assert max(widths) == MAX_SHARED_ATTRS

    def test_tier_for_identity_and_gates(self):
        relation = make_random_relation(18)
        store = partition_cache.shared_store(relation)
        assert store is partition_cache.shared_store(relation)
        assert store is not partition_cache.shared_store(
            relation.with_semantics("neq")
        )
        assert partition_cache.shared_store(object()) is None  # no fingerprint

    def test_ranking_identical_cold_warm_and_disabled(self, monkeypatch):
        """Cold, warm and bypassed tiers all give the row-pair counts.

        A position ``(t, A)`` of ``X -> Y`` (``A`` in ``Y``) is redundant
        iff another row shares ``t``'s X-codes; ``#red`` also needs
        ``t[A]`` non-null.
        """
        relation = make_random_relation(19)
        cover = DHyFD().discover(relation).fds
        matrix = relation.matrix()
        expected = {}
        for fd in cover:
            lhs = attrset.to_list(fd.lhs)
            shared = [
                any(
                    j != i and all(matrix[j][a] == matrix[i][a] for a in lhs)
                    for j in range(relation.n_rows)
                )
                for i in range(relation.n_rows)
            ]
            rhs = attrset.to_list(fd.rhs)
            expected[fd] = (
                sum(shared) * len(rhs),
                sum(
                    1
                    for a in rhs
                    for i in range(relation.n_rows)
                    if shared[i] and not relation.null_mask(a)[i]
                ),
            )

        def counts(result):
            return {
                r.fd: (r.redundancy, r.redundancy_excluding_null)
                for r in result.ranked
            }

        memplane.reset_tiers()
        assert counts(rank_cover(relation, cover)) == expected  # cold
        assert counts(rank_cover(relation, cover)) == expected  # warm
        assert memplane.tier_gauges()["memplane.tier_hits"] > 0
        memplane.reset_tiers()
        monkeypatch.setattr(partition_cache, "shared_store", lambda relation: None)
        assert counts(rank_cover(relation, cover)) == expected  # bypassed
        assert memplane.tier_gauges()["memplane.tier_datasets"] == 0


# ----------------------------------------------------------------------
# Covers match the brute-force oracle: jobs x tier differential
# ----------------------------------------------------------------------


class TestCoverDifferential:
    @pytest.mark.parametrize("seed", [20, 21])
    def test_jobs_and_memplane_grid_byte_identical(self, seed):
        relation = make_random_relation(seed)
        oracle = _fd_tuples(NaiveFDDiscovery().discover(relation).fds)
        memplane.reset_arena()
        try:
            for jobs in (1, 2):
                memplane.reset_tiers()
                for tier in ("cold", "warm"):
                    result = DHyFD(jobs=jobs, parallel_min_rows=1).discover(
                        relation
                    )
                    assert _fd_tuples(result.fds) == oracle, (jobs, tier)
        finally:
            memplane.reset_arena()


# ----------------------------------------------------------------------
# Service integration + metrics
# ----------------------------------------------------------------------


class TestServiceIntegration:
    def test_register_ingests_and_metrics_export_gauges(self, fresh_arena):
        with FDService(max_workers=1) as service:
            service.register_rows(
                ["a", "b"], [["x", 1], ["y", 2], ["x", 1]], name="t"
            )
            payload = service.metrics_payload()
            gauges = payload["gauges"]
            assert gauges["memplane.datasets"] >= 1.0
            assert gauges["memplane.arena_bytes"] > 0
            assert "memplane.tier_hit_rate" in gauges
            assert payload["counters"]["service.registry.arena_ingests"] == 1

    def test_append_through_registry_shares_parent(self, fresh_arena):
        with FDService(max_workers=1) as service:
            service.register_rows(["a", "b"], [["x", 1], ["y", 2]], name="t")
            service.append_rows("t", [["z", 3]])
            assert fresh_arena.prefix_shared == 1
            assert len(fresh_arena) == 2


# ----------------------------------------------------------------------
# Orphan sweeps (crash recovery)
# ----------------------------------------------------------------------


def _subprocess_env(owner: str) -> dict:
    env = dict(os.environ, REPRO_FD_ARENA_OWNER=owner)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ["src", env.get("PYTHONPATH", "")] if p
    )
    return env


class TestOrphanSweep:
    def test_sweep_is_scoped_to_owner(self, tmp_path):
        mine = tmp_path / f"{SEGMENT_PREFIX}-own1-aaaa-0m"
        theirs = tmp_path / f"{SEGMENT_PREFIX}-own2-bbbb-0m"
        other = tmp_path / "psm_unrelated"
        for path in (mine, theirs, other):
            path.write_bytes(b"x")
        assert sweep_orphans("own1", shm_dir=str(tmp_path)) == [mine.name]
        assert not mine.exists()
        assert theirs.exists() and other.exists()
        assert sweep_orphans("", shm_dir=str(tmp_path)) == []
        assert sweep_orphans("own9", shm_dir=str(tmp_path / "missing")) == []

    def test_clean_exit_unlinks_segments(self):
        owner = f"t-exit{os.getpid()}"
        code = (
            "from repro.memplane import get_arena\n"
            "from repro.relational.relation import Relation\n"
            "r = Relation.from_rows([[1, 2], [3, 4]], schema=['a', 'b'])\n"
            "lease = get_arena().lease(r)\n"
        )
        subprocess.run(
            [sys.executable, "-c", code],
            env=_subprocess_env(owner),
            check=True,
            timeout=60,
            cwd="/root/repo",
        )
        assert _arena_files(owner) == []

    def test_sigkill_orphans_are_swept(self):
        owner = f"t-kill{os.getpid()}"
        code = (
            "import time\n"
            "from repro.memplane import get_arena\n"
            "from repro.relational.relation import Relation\n"
            "r = Relation.from_rows([[1, 2], [3, 4]], schema=['a', 'b'])\n"
            "lease = get_arena().lease(r)\n"
            "print('ready', flush=True)\n"
            "time.sleep(60)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            env=_subprocess_env(owner),
            stdout=subprocess.PIPE,
            text=True,
            cwd="/root/repo",
        )
        try:
            assert proc.stdout.readline().strip() == "ready"
            assert len(_arena_files(owner)) == 2
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            # The replica-restart path: whoever respawns the dead
            # process sweeps its segments first.  The dead process's
            # resource tracker may race us to some of them; either way
            # zero must remain.
            deadline = time.monotonic() + 10
            sweep_orphans(owner)
            while _arena_files(owner) and time.monotonic() < deadline:
                time.sleep(0.1)
                sweep_orphans(owner)
            assert _arena_files(owner) == []
        finally:
            proc.stdout.close()
            if proc.poll() is None:  # pragma: no cover — cleanup path
                proc.kill()
                proc.wait(timeout=10)
