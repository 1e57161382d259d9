"""Tests for repro.service: registry, result store, scheduler, HTTP layer.

The acceptance bar (ISSUE 5): covers served by the service — in
process or over HTTP, concurrently — are byte-identical to direct
``make_algorithm(...).discover(relation)`` calls; repeat requests come
from the result store without extra discovery runs (asserted via
metrics); appends migrate cached covers via synergized induction; and
a budget-tripped job surfaces ``completed=False`` + ``limit_reason``
through the HTTP status endpoint.
"""

from __future__ import annotations

import threading

import pytest

from repro.algorithms.registry import make_algorithm
from repro.core.result import DiscoveryResult
from repro.relational.fd_io import cover_to_json
from repro.service import (
    ConfigError,
    FDService,
    JobConfig,
    JobScheduler,
    ResultStore,
    ServiceClient,
    ServiceError,
    UnknownDatasetError,
    start_in_thread,
)

from .conftest import make_random_relation

CITY_CSV = "\n".join(
    [
        "name,zip,city,state",
        "ann,z1,c1,nc",
        "bob,z1,c1,nc",
        "cat,z2,c1,nc",
        "dan,z3,c2,nc",
        "eve,z3,c2,nc",
        "fay,z4,c3,nc",
    ]
)


def direct_cover_json(relation, algorithm="dhyfd", **kwargs):
    """The byte-exact cover JSON of a direct in-process discovery."""
    result = make_algorithm(algorithm, **kwargs).discover(relation)
    return cover_to_json(result.fds, relation.schema)


@pytest.fixture
def service():
    with FDService(max_workers=2) as svc:
        yield svc


@pytest.fixture
def http_service():
    svc = FDService(max_workers=2)
    server, _ = start_in_thread(svc)
    client = ServiceClient(f"http://127.0.0.1:{server.server_port}")
    yield svc, client
    server.shutdown()
    svc.close()


# ----------------------------------------------------------------------
# JobConfig
# ----------------------------------------------------------------------


class TestJobConfig:
    def test_key_is_order_independent(self):
        a = JobConfig.from_dict({"jobs": 2, "algorithm": "dhyfd"})
        b = JobConfig.from_dict({"algorithm": "dhyfd", "jobs": 2})
        assert a.key() == b.key()

    def test_key_normalizes_byte_suffixes(self):
        a = JobConfig.from_dict({"memory_budget": "64m"})
        b = JobConfig.from_dict({"memory_budget": 64 * 1024 * 1024})
        assert a.key() == b.key()

    def test_distinct_configs_distinct_keys(self):
        assert (
            JobConfig.from_dict({"jobs": 1}).key()
            != JobConfig.from_dict({"jobs": 2}).key()
        )
        assert (
            JobConfig.from_dict({"algorithm": "tane"}).key()
            != JobConfig.from_dict({"algorithm": "dhyfd"}).key()
        )

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            JobConfig.from_dict({"algorithm": "not-an-algorithm"})

    def test_bad_on_limit_rejected(self):
        with pytest.raises(ConfigError):
            JobConfig.from_dict({"on_limit": "explode"})

    def test_extra_kwargs_survive_round_trip(self):
        config = JobConfig.from_dict({"ratio_threshold": 2.0})
        assert JobConfig.from_dict(config.to_dict()) == config
        assert config.algorithm_kwargs()["ratio_threshold"] == 2.0

    def test_memory_budget_becomes_run_budget(self):
        config = JobConfig.from_dict({"memory_budget": "1m", "time_limit": 5.0})
        kwargs = config.algorithm_kwargs()
        assert kwargs["budget"].memory_limit_bytes == 1024 * 1024
        assert kwargs["budget"].time_limit == 5.0

    def test_on_limit_forwarded_only_when_partial(self):
        assert "on_limit" not in JobConfig.from_dict({}).algorithm_kwargs()
        partial = JobConfig.from_dict({"on_limit": "partial"})
        assert partial.algorithm_kwargs()["on_limit"] == "partial"

    def test_top_k_is_part_of_the_cache_key(self):
        base = JobConfig.from_dict({})
        topk = JobConfig.from_dict({"top_k": 5})
        assert base.key() != topk.key()
        assert topk.without_top_k().key() == base.key()
        assert JobConfig.from_dict(topk.to_dict()).key() == topk.key()

    def test_top_k_not_forwarded_to_constructors(self):
        # discover_top_k(k) is a call-time argument, never a kwarg.
        assert "top_k" not in JobConfig.from_dict({"top_k": 3}).algorithm_kwargs()

    def test_invalid_top_k_rejected(self):
        with pytest.raises(ConfigError):
            JobConfig.from_dict({"top_k": 0})
        with pytest.raises(ConfigError):
            JobConfig.from_dict({"top_k": "many"})


# ----------------------------------------------------------------------
# DatasetRegistry (through the service facade)
# ----------------------------------------------------------------------


class TestDatasetRegistry:
    def test_register_is_idempotent(self, service, city_relation):
        first = service.register_relation(city_relation, name="city")
        again = service.register_relation(city_relation)
        assert first is again
        assert len(service.registry) == 1

    def test_resolve_by_name_and_fingerprint(self, service, city_relation):
        entry = service.register_relation(city_relation, name="city")
        assert service.registry.resolve("city") == entry.fingerprint
        assert service.registry.resolve(entry.fingerprint) == entry.fingerprint

    def test_unknown_dataset_raises(self, service):
        with pytest.raises(UnknownDatasetError):
            service.registry.get("nope")

    def test_append_creates_new_version(self, service, city_relation):
        old = service.register_relation(city_relation, name="city")
        new = service.append_rows("city", [("gus", "z9", "c9", "nc")])
        assert new.fingerprint != old.fingerprint
        assert new.parent == old.fingerprint
        assert new.relation.n_rows == 7
        # the alias moved; the old version stays reachable by fingerprint
        assert service.registry.resolve("city") == new.fingerprint
        assert service.registry.get(old.fingerprint) is old

    def test_csv_upload_matches_relation(self, service, city_relation):
        entry = service.register_csv(CITY_CSV, name="city-csv")
        assert entry.fingerprint == city_relation.fingerprint()


# ----------------------------------------------------------------------
# ResultStore
# ----------------------------------------------------------------------


class TestResultStore:
    def make_result(self, relation, algorithm="dhyfd"):
        return make_algorithm(algorithm).discover(relation)

    def test_hit_and_miss_accounting(self, city_relation):
        store = ResultStore()
        config = JobConfig()
        fp = city_relation.fingerprint()
        assert store.get(fp, config) is None
        store.put(fp, config, self.make_result(city_relation))
        assert store.get(fp, config) is not None
        assert store.counters()["hits"] == 1
        assert store.counters()["misses"] == 1

    def test_partial_results_not_cached(self, city_relation):
        store = ResultStore()
        result = self.make_result(city_relation)
        partial = DiscoveryResult(
            algorithm=result.algorithm,
            schema=result.schema,
            fds=result.fds,
            completed=False,
            limit_reason="time",
        )
        assert store.put(city_relation.fingerprint(), JobConfig(), partial) is False
        assert len(store) == 0

    def test_persistence_across_restart(self, tmp_path, city_relation):
        config = JobConfig.from_dict({"jobs": 1})
        fp = city_relation.fingerprint()
        result = self.make_result(city_relation)
        store = ResultStore(persist_dir=tmp_path)
        store.put(fp, config, result)

        reborn = ResultStore(persist_dir=tmp_path)
        cached = reborn.get(fp, config)
        assert cached is not None
        assert cached.fds == result.fds
        assert cover_to_json(cached.fds, cached.schema) == cover_to_json(
            result.fds, result.schema
        )

    def test_malformed_persisted_files_skipped(self, tmp_path, city_relation):
        (tmp_path / "junk.json").write_text("{not json", encoding="utf-8")
        (tmp_path / "other.json").write_text('{"format": "x"}', encoding="utf-8")
        store = ResultStore(persist_dir=tmp_path)
        assert len(store) == 0

    def test_results_for_filters_by_fingerprint(self, city_relation, null_relation):
        store = ResultStore()
        store.put(city_relation.fingerprint(), JobConfig(), self.make_result(city_relation))
        store.put(null_relation.fingerprint(), JobConfig(), self.make_result(null_relation))
        assert len(store.results_for(city_relation.fingerprint())) == 1


# ----------------------------------------------------------------------
# Append migration (cache invalidation via synergized induction)
# ----------------------------------------------------------------------


class TestAppendMigration:
    def test_append_updates_cover_without_rerun(self, service, city_relation):
        service.register_relation(city_relation, name="city")
        job = service.discover("city")
        assert job.status == "done" and not job.cached
        runs_before = service.metrics_payload()["counters"]["service.discovery.runs"]
        assert runs_before == 1

        # Break zip -> city: reuse z1 with a new city.
        new_entry = service.append_rows("city", [("gus", "z1", "c9", "nc")])

        counters = service.metrics_payload()["counters"]
        # The stored cover was migrated by synergized induction...
        assert counters["service.store.incremental_updates"] == 1
        # ...NOT by re-running discovery.
        assert counters["service.discovery.runs"] == runs_before

        # A request against the new version is a pure cache hit and the
        # migrated cover equals a from-scratch discovery byte for byte.
        job2 = service.discover(new_entry.fingerprint)
        assert job2.cached
        assert service.metrics_payload()["counters"]["service.discovery.runs"] == runs_before
        assert cover_to_json(
            job2.result.fds, new_entry.relation.schema
        ) == direct_cover_json(new_entry.relation)

    def test_append_migrates_every_cached_config(self, service, city_relation):
        service.register_relation(city_relation, name="city")
        service.discover("city", config={"algorithm": "dhyfd"})
        service.discover("city", config={"algorithm": "tane"})
        new_entry = service.append_rows("city", [("gus", "z1", "c9", "nc")])
        counters = service.metrics_payload()["counters"]
        assert counters["service.store.incremental_updates"] == 2
        for algorithm in ("dhyfd", "tane"):
            job = service.discover(
                new_entry.fingerprint, config={"algorithm": algorithm}
            )
            assert job.cached, algorithm

    def test_old_version_cover_still_served(self, service, city_relation):
        old = service.register_relation(city_relation, name="city")
        service.discover("city")
        service.append_rows("city", [("gus", "z1", "c9", "nc")])
        job = service.discover(old.fingerprint)
        assert job.cached
        assert cover_to_json(job.result.fds, city_relation.schema) == direct_cover_json(
            city_relation
        )


# ----------------------------------------------------------------------
# Top-k store-key semantics
# ----------------------------------------------------------------------


class TestTopKService:
    """Cache-key contract: a top-k result is never served as a full
    cover, while a cached full cover answers top-k requests via a
    cheap bounded ranking (no new discovery run)."""

    def test_top_k_derived_from_cached_full_cover(self, service, city_relation):
        service.register_relation(city_relation, name="city")
        full = service.discover("city")
        job = service.discover("city", config={"top_k": 2})
        assert job.status == "done" and job.cached
        assert job.result.top_k == 2
        assert job.result.fd_count == min(2, full.result.fd_count)
        counters = service.metrics_payload()["counters"]
        assert counters["service.jobs.topk_derived"] == 1
        assert counters["service.discovery.runs"] == 1

    def test_top_k_never_served_as_full_cover(self, service, city_relation):
        service.register_relation(city_relation, name="city")
        topk = service.discover("city", config={"top_k": 1})
        assert not topk.cached
        assert topk.result.top_k == 1
        full = service.discover("city")
        # The cached k-prefix must not shadow the full cover: this is a
        # genuine second discovery run, and it returns everything.
        assert not full.cached
        assert full.result.top_k is None
        assert full.result.fd_count >= topk.result.fd_count
        assert service.metrics_payload()["counters"]["service.discovery.runs"] == 2

    def test_fresh_top_k_uses_rank_aware_discovery(self, service):
        relation = make_random_relation(3)
        service.register_relation(relation, name="rand")
        job = service.discover("rand", config={"top_k": 2})
        assert not job.cached
        assert job.result.top_k == 2
        counters = service.metrics_payload()["counters"]
        assert counters["service.discovery.runs"] == 1
        assert counters.get("service.jobs.topk_derived", 0) == 0

    def test_append_skips_top_k_entries(self, service, city_relation):
        service.register_relation(city_relation, name="city")
        service.discover("city", config={"top_k": 2})
        service.discover("city")
        new_entry = service.append_rows("city", [("gus", "z1", "c9", "nc")])
        counters = service.metrics_payload()["counters"]
        # Only the full cover is migrated by synergized induction —
        # inducting over a k-prefix would be unsound.
        assert counters["service.store.incremental_updates"] == 1
        assert counters["service.store.topk_skipped"] == 1
        # The new version still answers top-k cheaply: derived from the
        # migrated full cover, no discovery re-run.
        job = service.discover(new_entry.fingerprint, config={"top_k": 2})
        assert job.cached
        assert job.result.top_k == 2
        counters = service.metrics_payload()["counters"]
        assert counters["service.discovery.runs"] == 2
        assert counters["service.jobs.topk_derived"] == 1

    def test_rank_job_honors_top_k(self, service, city_relation):
        service.register_relation(city_relation, name="city")
        full = service.rank("city")
        job = service.rank("city", config={"top_k": 2})
        assert job.status == "done"
        assert len(job.ranking) == min(2, len(full.ranking))
        assert job.ranking == full.ranking[: len(job.ranking)]


# ----------------------------------------------------------------------
# JobScheduler (with a controllable executor)
# ----------------------------------------------------------------------


class TestJobScheduler:
    def test_priorities_order_execution(self):
        started = threading.Event()
        release = threading.Event()
        order = []

        def executor(job):
            if job.dataset == "gate":
                started.set()
                release.wait(5.0)
            order.append(job.dataset)

        scheduler = JobScheduler(executor, max_workers=1)
        try:
            gate = scheduler.submit("gate", "discover", JobConfig())
            assert started.wait(5.0)  # worker is busy; the queue is ours
            low = scheduler.submit("low", "discover", JobConfig(), priority=0)
            high = scheduler.submit("high", "discover", JobConfig(), priority=10)
            release.set()
            for job in (gate, low, high):
                scheduler.wait(job.job_id, timeout=10.0)
            assert order == ["gate", "high", "low"]
        finally:
            scheduler.shutdown()

    def test_cancel_queued_job(self):
        started = threading.Event()
        release = threading.Event()

        def executor(job):
            started.set()
            release.wait(5.0)

        scheduler = JobScheduler(executor, max_workers=1)
        try:
            scheduler.submit("gate", "discover", JobConfig())
            assert started.wait(5.0)
            queued = scheduler.submit("victim", "discover", JobConfig())
            assert scheduler.cancel(queued.job_id) == "cancelled"
            release.set()
            done = scheduler.wait(queued.job_id, timeout=5.0)
            assert done.status == "cancelled"
        finally:
            scheduler.shutdown()

    def test_failed_job_captures_error(self):
        def executor(job):
            raise RuntimeError("boom")

        scheduler = JobScheduler(executor, max_workers=1)
        try:
            job = scheduler.submit("x", "discover", JobConfig())
            scheduler.wait(job.job_id, timeout=5.0)
            assert job.status == "failed"
            assert "boom" in job.error
        finally:
            scheduler.shutdown()

    def test_shutdown_cancels_queued(self):
        started = threading.Event()
        release = threading.Event()

        def executor(job):
            started.set()
            release.wait(5.0)

        scheduler = JobScheduler(executor, max_workers=1)
        scheduler.submit("gate", "discover", JobConfig())
        assert started.wait(5.0)
        queued = scheduler.submit("waiting", "discover", JobConfig())
        release.set()
        scheduler.shutdown()
        assert queued.status == "cancelled"
        with pytest.raises(RuntimeError):
            scheduler.submit("late", "discover", JobConfig())

    def test_bad_kind_rejected(self):
        scheduler = JobScheduler(lambda job: None, max_workers=1)
        try:
            with pytest.raises(ValueError):
                scheduler.submit("x", "explode", JobConfig())
        finally:
            scheduler.shutdown()


# ----------------------------------------------------------------------
# FDService in process
# ----------------------------------------------------------------------


class TestFDService:
    def test_discover_matches_direct(self, service, city_relation):
        service.register_relation(city_relation, name="city")
        job = service.discover("city")
        assert job.status == "done"
        assert cover_to_json(job.result.fds, city_relation.schema) == direct_cover_json(
            city_relation
        )

    def test_repeat_request_cached(self, service, city_relation):
        service.register_relation(city_relation, name="city")
        first = service.discover("city")
        second = service.discover("city")
        assert not first.cached and second.cached
        assert second.result.fds == first.result.fds
        counters = service.metrics_payload()["counters"]
        assert counters["service.discovery.runs"] == 1
        assert counters["service.jobs.cache_hits"] == 1

    def test_distinct_configs_are_distinct_entries(self, service, city_relation):
        service.register_relation(city_relation, name="city")
        service.discover("city", config={"algorithm": "dhyfd"})
        service.discover("city", config={"algorithm": "fdep"})
        assert service.metrics_payload()["counters"]["service.discovery.runs"] == 2

    def test_rank_job_carries_ranking(self, service, city_relation):
        service.register_relation(city_relation, name="city")
        job = service.rank("city")
        assert job.status == "done"
        assert job.ranking, "rank job should produce ranked FDs"
        assert {"fd", "redundancy", "redundancy_excluding_null"} <= set(
            job.ranking[0]
        )

    def test_job_trace_summary_attached(self, service, city_relation):
        service.register_relation(city_relation, name="city")
        job = service.discover("city")
        assert job.trace is not None
        assert "service.job" in job.trace.get("spans", {})

    def test_persisted_store_reused_across_service_restarts(
        self, tmp_path, city_relation
    ):
        with FDService(max_workers=1, store_dir=tmp_path) as first:
            first.register_relation(city_relation, name="city")
            job = first.discover("city")
            assert not job.cached
        with FDService(max_workers=1, store_dir=tmp_path) as second:
            second.register_relation(city_relation, name="city")
            job = second.discover("city")
            assert job.cached
            assert second.metrics_payload()["counters"].get(
                "service.discovery.runs", 0
            ) == 0


# ----------------------------------------------------------------------
# HTTP server + client
# ----------------------------------------------------------------------


class TestHTTPService:
    def test_health_and_metrics(self, http_service):
        _, client = http_service
        health = client.health()
        assert health["status"] == "ok"
        assert "jobs" in health
        assert "counters" in client.metrics()

    def test_upload_discover_byte_identical(self, http_service, city_relation):
        _, client = http_service
        info = client.upload_csv(CITY_CSV, name="city")
        assert info["fingerprint"] == city_relation.fingerprint()
        status = client.discover("city")
        assert status["status"] == "done"
        result = ServiceClient.result_from_status(status)
        assert cover_to_json(result.fds, city_relation.schema) == direct_cover_json(
            city_relation
        )

    def test_upload_rows_roundtrip(self, http_service, null_relation):
        _, client = http_service
        info = client.upload_rows(
            null_relation.schema.names,
            list(null_relation.iter_rows()),
            name="nulls",
        )
        assert info["fingerprint"] == null_relation.fingerprint()

    def test_async_submit_and_poll(self, http_service, city_relation):
        _, client = http_service
        info = client.upload_csv(CITY_CSV)
        job_id = client.submit(info["fingerprint"])
        status = client.wait(job_id, timeout=30.0)
        assert status["status"] == "done"
        assert status["result"]["algorithm"] == "dhyfd"

    def test_append_over_http(self, http_service, city_relation):
        service, client = http_service
        client.upload_csv(CITY_CSV, name="city")
        client.discover("city")
        info = client.append("city", [["gus", "z1", "c9", "nc"]])
        assert info["n_rows"] == 7
        counters = client.metrics()["counters"]
        assert counters["service.store.incremental_updates"] == 1
        status = client.discover(info["fingerprint"])
        assert status["cached"] is True

    def test_rank_over_http(self, http_service):
        _, client = http_service
        info = client.upload_csv(CITY_CSV)
        status = client.rank(info["fingerprint"])
        assert status["status"] == "done"
        assert status["ranking"]

    def test_top_k_query_param_over_http(self, http_service, city_relation):
        _, client = http_service
        client.upload_csv(CITY_CSV, name="city")
        full = ServiceClient.result_from_status(client.discover("city"))
        status = client.discover("city", top_k=2)
        result = ServiceClient.result_from_status(status)
        assert result.top_k == 2
        assert result.fd_count == min(2, full.fd_count)
        counters = client.metrics()["counters"]
        # Served from the cached full cover, not a second discovery.
        assert counters["service.jobs.topk_derived"] == 1
        assert counters["service.discovery.runs"] == 1

    def test_rank_top_k_over_http(self, http_service):
        _, client = http_service
        info = client.upload_csv(CITY_CSV)
        full = client.rank(info["fingerprint"])
        status = client.rank(info["fingerprint"], top_k=2)
        assert status["status"] == "done"
        assert len(status["ranking"]) == min(2, len(full["ranking"]))
        assert status["ranking"] == full["ranking"][: len(status["ranking"])]

    def test_bad_top_k_query_400(self, http_service):
        _, client = http_service
        client.upload_csv(CITY_CSV, name="city")
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/discover?top_k=zero", {"dataset": "city"})
        assert excinfo.value.status == 400

    def test_unknown_dataset_404(self, http_service):
        _, client = http_service
        with pytest.raises(ServiceError) as excinfo:
            client.discover("no-such-dataset")
        assert excinfo.value.status == 404

    def test_unknown_job_404(self, http_service):
        _, client = http_service
        with pytest.raises(ServiceError) as excinfo:
            client.status("job-999")
        assert excinfo.value.status == 404

    def test_bad_upload_400(self, http_service):
        _, client = http_service
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/datasets", {"name": "empty"})
        assert excinfo.value.status == 400

    def test_bad_config_400(self, http_service):
        _, client = http_service
        info = client.upload_csv(CITY_CSV)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(info["fingerprint"], config={"algorithm": "bogus"})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("config", [{"backend": "numpy"}, {"jbos": 2}])
    def test_unknown_config_key_400(self, http_service, config):
        """Keys the algorithm's constructor does not take are refused at
        submit instead of failing the job when it runs."""
        _, client = http_service
        info = client.upload_csv(CITY_CSV)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(info["fingerprint"], config=config)
        assert excinfo.value.status == 400
        assert client.jobs() == []

    def test_unknown_endpoint_404(self, http_service):
        _, client = http_service
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/teapot")
        assert excinfo.value.status == 404

    def test_jobs_listing(self, http_service):
        _, client = http_service
        info = client.upload_csv(CITY_CSV)
        client.discover(info["fingerprint"])
        jobs = client.jobs()
        assert len(jobs) == 1
        assert "result" not in jobs[0]  # listing omits result bodies

    def test_cancel_endpoint(self, http_service):
        _, client = http_service
        info = client.upload_csv(CITY_CSV)
        job_id = client.submit(info["fingerprint"])
        response = client.cancel(job_id)
        assert response["status"] in ("cancelled", "running", "done")


# ----------------------------------------------------------------------
# Acceptance: concurrent clients, budgets over HTTP
# ----------------------------------------------------------------------


class TestAcceptance:
    def test_concurrent_clients_byte_identical_and_deduplicated(
        self, http_service, city_relation, null_relation
    ):
        """N threads, same and different (dataset, config) jobs: every
        cover byte-identical to direct discovery, repeats served from
        the store with zero extra discovery runs (asserted via metrics).
        """
        service, client = http_service
        base = client.base_url
        city_info = client.upload_csv(CITY_CSV, name="city")
        nulls_info = client.upload_rows(
            null_relation.schema.names,
            list(null_relation.iter_rows()),
            name="nulls",
        )
        combos = [
            (city_info["fingerprint"], {"algorithm": "dhyfd"}, city_relation),
            (city_info["fingerprint"], {"algorithm": "tane"}, city_relation),
            (nulls_info["fingerprint"], {"algorithm": "dhyfd"}, null_relation),
        ]
        expected = {
            (fp, cfg["algorithm"]): direct_cover_json(rel, cfg["algorithm"])
            for fp, cfg, rel in combos
        }

        outcomes = []
        errors = []

        def worker(index):
            fp, cfg, _rel = combos[index % len(combos)]
            try:
                thread_client = ServiceClient(base)
                status = thread_client.discover(fp, config=dict(cfg), timeout=60.0)
                result = ServiceClient.result_from_status(status)
                outcomes.append(
                    (
                        (fp, cfg["algorithm"]),
                        cover_to_json(result.fds, result.schema),
                    )
                )
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(f"thread {index}: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(12)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)

        assert not errors, errors
        assert len(outcomes) == 12
        for key, cover in outcomes:
            assert cover == expected[key], f"cover mismatch for {key}"
        counters = client.metrics()["counters"]
        # 12 requests over 3 unique (dataset, config) combos: exactly 3
        # discovery runs; every repeat was a store hit or coalesced onto
        # an in-flight leader.
        assert counters["service.discovery.runs"] == len(combos)
        hits = counters.get("service.jobs.cache_hits", 0)
        coalesced = counters.get("service.jobs.coalesced", 0)
        assert hits + coalesced >= 12 - len(combos)

    def test_budget_tripped_job_surfaces_partial_over_http(self, http_service):
        """A job with an impossible time budget and on_limit="partial"
        reports completed=False and its limit_reason through the HTTP
        status endpoint."""
        _, client = http_service
        relation = make_random_relation(11)  # 40 rows x 5 columns
        info = client.upload_rows(
            relation.schema.names, list(relation.iter_rows()), name="big"
        )
        status = client.discover(
            info["fingerprint"],
            config={"time_limit": 0.0, "on_limit": "partial"},
            timeout=60.0,
        )
        assert status["status"] == "done"
        result = status["result"]
        assert result["completed"] is False
        assert result["limit_reason"] == "time"
        # partial covers are answers, not facts: they must not be cached
        assert client.metrics()["store"]["entries"] == 0

    def test_partial_results_not_served_to_followers(self, http_service):
        """A later identical request after a partial run re-discovers
        (the partial cover never enters the store)."""
        _, client = http_service
        info = client.upload_csv(CITY_CSV)
        config = {"time_limit": 0.0, "on_limit": "partial"}
        first = client.discover(info["fingerprint"], config=dict(config))
        second = client.discover(info["fingerprint"], config=dict(config))
        assert second["cached"] is False
