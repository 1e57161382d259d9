"""Tests for repro.cluster: topology, router, failover, retries, drain.

The acceptance bar (ISSUE 6): routing is deterministic across router
restarts; covers served *through the router* are byte-identical to a
direct in-process ``discover()``; killing one replica leaves the other
shards serving while the dead shard answers 503 (never hangs); the
client retries transient transport failures with backoff; SIGTERM
drain refuses new jobs with 503 + Retry-After while finishing accepted
ones; and ``/metrics`` carries scheduler gauges.

The router contract is pinned too: a wedged replica costs a 504 (and
a ``degraded`` health) after the configured deadline, malformed or
oversized requests get a 400, unknown paths a 404, idle clients are
dropped after ``client_timeout``, and one upload whose fingerprint is
still being computed stalls no other request.

The replica "fleet" here is in-process: real ``ServiceHTTPServer``
instances on daemon threads behind a real :class:`Router` (one asyncio
event loop on its own thread) — every byte still travels through HTTP
sockets, only the process boundary is elided (the subprocess path is
covered by ``benchmarks/smoke_cluster.py`` and the CI cluster leg).
"""

from __future__ import annotations

import http.server
import io
import json
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

import repro.cluster.router as router_module
from repro.algorithms.registry import make_algorithm
from repro.cluster import (
    Router,
    RoutingTable,
    merge_health,
    merge_metrics,
    shard_for,
    upload_fingerprint,
)
from repro.relational.fd_io import cover_to_json
from repro.relational.relation import Relation
from repro.service import (
    FDService,
    SchedulerDraining,
    ServiceClient,
    ServiceError,
    start_in_thread,
)
from repro.service.server import MAX_BODY_BYTES

ROWS = [
    ("ann", "z1", "c1", "nc"),
    ("bob", "z1", "c1", "nc"),
    ("cat", "z2", "c1", "nc"),
    ("dan", "z3", "c2", "nc"),
    ("eve", "z3", "c2", "nc"),
    ("fay", "z4", "c3", "nc"),
]
COLUMNS = ["name", "zip", "city", "state"]


def make_relation(extra=()):
    return Relation.from_rows(list(ROWS) + list(extra), schema=list(COLUMNS))


def direct_cover_json(relation, algorithm="dhyfd"):
    result = make_algorithm(algorithm).discover(relation)
    return cover_to_json(result.fds, relation.schema)


class InThreadCluster:
    """Two real HTTP replicas behind a real router, all in one process."""

    def __init__(self, tmp_path, n=2):
        self.services = []
        self.servers = []
        self.endpoints = []
        for _ in range(n):
            service = FDService(max_workers=2)
            server, _ = start_in_thread(service)
            self.services.append(service)
            self.servers.append(server)
            self.endpoints.append(f"http://127.0.0.1:{server.server_port}")
        self.router = Router(
            lambda: list(self.endpoints),
            routes_path=tmp_path / "routes.json",
            fanout_timeout=3.0,
        )
        self.router.start()

    def kill(self, shard):
        """Take one replica fully down (socket closed ⇒ ECONNREFUSED)."""
        self.servers[shard].shutdown()
        self.servers[shard].server_close()
        self.services[shard].close()
        self.endpoints[shard] = None

    def close(self):
        self.router.shutdown()
        for shard, server in enumerate(self.servers):
            if self.endpoints[shard] is not None:
                server.shutdown()
                server.server_close()
                self.services[shard].close()


@pytest.fixture
def cluster(tmp_path):
    c = InThreadCluster(tmp_path)
    yield c
    c.close()


@pytest.fixture
def client(cluster):
    return ServiceClient(cluster.router.url, timeout=30.0, retries=1, backoff=0.05)


# ----------------------------------------------------------------------
# Topology: deterministic shard placement
# ----------------------------------------------------------------------


class TestTopology:
    def test_shard_for_is_stable_constants(self):
        # Pinned values: placement must survive interpreter restarts
        # (unlike builtin hash()) and refactors of shard_for itself —
        # moving a fingerprint silently strands its replica's state.
        assert shard_for("alpha", 2) == 0
        assert shard_for("beta", 2) == 1
        assert shard_for("alpha", 4) == 2
        for ref in ("alpha", "beta", "x" * 64):
            assert shard_for(ref, 3) == shard_for(ref, 3)
            assert 0 <= shard_for(ref, 3) < 3

    def test_routing_table_pins_persist_across_restart(self, tmp_path):
        path = tmp_path / "routes.json"
        table = RoutingTable(2, path=path)
        hashed = shard_for("fp-child", 2)
        pinned_shard = 1 - hashed  # force a pin that disagrees with the hash
        table.pin("fp-child", pinned_shard)
        assert table.shard_of("fp-child") == pinned_shard

        reloaded = RoutingTable(2, path=path)
        assert reloaded.shard_of("fp-child") == pinned_shard
        assert reloaded.shard_of("never-pinned") == shard_for("never-pinned", 2)

    def test_pin_agreeing_with_hash_is_elided(self, tmp_path):
        table = RoutingTable(2, path=tmp_path / "routes.json")
        ref = "some-ref"
        table.pin(ref, shard_for(ref, 2))
        assert table.pinned() == {}

    def test_table_rejects_mismatched_shard_count(self, tmp_path):
        path = tmp_path / "routes.json"
        table = RoutingTable(2, path=path)
        table.pin("fp", 1 - shard_for("fp", 2))
        with pytest.raises(ValueError):
            RoutingTable(3, path=path)

    def test_upload_fingerprint_matches_registry(self):
        relation = make_relation()
        body = {"columns": COLUMNS, "rows": [list(r) for r in ROWS]}
        assert upload_fingerprint(body) == relation.fingerprint()

    def test_upload_fingerprint_csv_matches(self):
        relation = make_relation()
        csv_text = "\n".join(
            [",".join(COLUMNS)] + [",".join(row) for row in ROWS]
        )
        assert upload_fingerprint({"csv": csv_text}) == relation.fingerprint()


# ----------------------------------------------------------------------
# Routing through a live router
# ----------------------------------------------------------------------


class TestRouting:
    def test_cover_through_router_matches_direct(self, cluster, client):
        relation = make_relation()
        expected = direct_cover_json(relation)
        info = client.upload_rows(COLUMNS, [list(r) for r in ROWS])
        assert info["fingerprint"] == relation.fingerprint()

        status = client.discover(info["fingerprint"], config={"algorithm": "dhyfd"})
        assert status["status"] == "done"
        result = ServiceClient.result_from_status(status)
        assert cover_to_json(result.fds, result.schema) == expected

    def test_top_k_query_param_proxied_through_router(self, cluster, client):
        """The router must forward ``?top_k=`` untouched: dropping the
        query string would silently serve the full cover."""
        info = client.upload_rows(COLUMNS, [list(r) for r in ROWS], name="city")
        full = ServiceClient.result_from_status(
            client.discover(info["fingerprint"])
        )
        topk = ServiceClient.result_from_status(
            client.discover(info["fingerprint"], top_k=3)
        )
        assert topk.top_k == 3
        assert topk.fd_count == min(3, full.fd_count)
        ranked = client.rank(info["fingerprint"], top_k=2)
        assert ranked["status"] == "done"
        assert len(ranked["ranking"]) == 2

    def test_upload_lands_on_hashed_shard(self, cluster, client):
        relation = make_relation()
        shard = shard_for(relation.fingerprint(), 2)
        client.upload_rows(COLUMNS, [list(r) for r in ROWS], name="city")
        assert len(cluster.services[shard].registry) == 1
        assert len(cluster.services[1 - shard].registry) == 0

    def test_job_ids_carry_shard_namespace(self, cluster, client):
        relation = make_relation()
        shard = shard_for(relation.fingerprint(), 2)
        info = client.upload_rows(COLUMNS, [list(r) for r in ROWS])
        status = client.discover(info["fingerprint"], config={})
        assert status["job_id"].startswith(f"s{shard}:")
        # The namespaced id round-trips through /jobs/<id>.
        assert client.status(status["job_id"])["status"] == "done"

    def test_append_routes_to_parent_shard(self, cluster, client):
        parent = make_relation()
        info = client.upload_rows(COLUMNS, [list(r) for r in ROWS], name="city")
        home = shard_for(parent.fingerprint(), 2)

        appended = client.append(info["fingerprint"], [("gil", "z5", "c4", "nc")])
        # Wherever the child fingerprint hashes, it must be registered
        # on the parent's shard (the append executed there).
        child_entry = cluster.services[home].registry.get(appended["fingerprint"])
        assert child_entry.parent == parent.fingerprint()
        # And follow-up requests for the child route there too.
        status = client.discover(appended["fingerprint"], config={})
        assert status["status"] == "done"
        assert status["job_id"].startswith(f"s{home}:")

    def test_routing_survives_router_restart(self, cluster, client, tmp_path):
        """Same routes.json ⇒ a new router sends requests to the same shards."""
        info = client.upload_rows(COLUMNS, [list(r) for r in ROWS], name="city")
        appended = client.append(info["fingerprint"], [("gil", "z5", "c4", "nc")])
        home = shard_for(make_relation().fingerprint(), 2)

        second = Router(
            lambda: list(cluster.endpoints),
            routes_path=tmp_path / "routes.json",
            fanout_timeout=3.0,
        )
        second.start()
        try:
            client2 = ServiceClient(second.url, timeout=30.0)
            for ref in (info["fingerprint"], appended["fingerprint"], "city"):
                status = client2.discover(ref, config={})
                assert status["status"] == "done"
                assert status["job_id"].startswith(f"s{home}:")
        finally:
            second.shutdown()

    def test_fanout_merges_health_and_metrics(self, cluster, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["shards"] == 2 and health["healthy"] == 2

        client.upload_rows(COLUMNS, [list(r) for r in ROWS])
        metrics = client.metrics()
        assert "cluster.queue_depth" in metrics["gauges"]
        assert "cluster.worker_utilization" in metrics["gauges"]
        registered = metrics["counters"]["cluster.service.registry.registered"]
        assert registered == 1

    def test_datasets_listing_reports_owning_replica(self, cluster, client):
        relation = make_relation()
        shard = shard_for(relation.fingerprint(), 2)
        client.upload_rows(COLUMNS, [list(r) for r in ROWS], name="city")
        listing = client.datasets()
        assert len(listing) == 1
        assert listing[0]["replica"] == f"replica-{shard}"

    def test_unknown_job_id_not_routable(self, cluster, client):
        with pytest.raises(ServiceError) as err:
            client.status("no-shard-prefix")
        assert err.value.status == 404


# ----------------------------------------------------------------------
# Failover: a dead shard degrades, never hangs
# ----------------------------------------------------------------------


class TestFailover:
    def test_dead_shard_503_other_shard_serves(self, cluster, tmp_path):
        client = ServiceClient(cluster.router.url, timeout=30.0, retries=0)
        # One dataset per shard, discovered once while both are up.
        per_shard = {}
        extra = 0
        while len(per_shard) < 2:
            relation = make_relation(
                [(f"x{i}", f"z{9 + i}", "c9", "nc") for i in range(extra)]
            )
            per_shard.setdefault(shard_for(relation.fingerprint(), 2), relation)
            extra += 1
        for relation in per_shard.values():
            info = client.upload_rows(COLUMNS, [list(r) for r in relation.iter_rows()])
            assert client.discover(info["fingerprint"], config={})["status"] == "done"

        cluster.kill(0)

        start = time.monotonic()
        with pytest.raises(ServiceError) as err:
            client.discover(per_shard[0].fingerprint(), config={})
        elapsed = time.monotonic() - start
        assert err.value.status == 503
        assert err.value.retry_after is not None
        assert elapsed < 5.0, f"dead shard took {elapsed:.1f}s — must not hang"

        # The surviving shard is untouched: cached cover, served fast.
        status = client.discover(per_shard[1].fingerprint(), config={})
        assert status["status"] == "done"
        assert status["cached"] is True

    def test_health_degrades_without_hanging(self, cluster):
        client = ServiceClient(cluster.router.url, timeout=30.0, retries=0)
        cluster.kill(1)
        start = time.monotonic()
        health = client.health()
        assert time.monotonic() - start < 5.0
        assert health["status"] == "degraded"
        assert health["healthy"] == 1
        assert health["replicas"]["replica-1"] == {"status": "down"}


# ----------------------------------------------------------------------
# Router contract: deadlines, bad requests, idle clients, no stalls
# ----------------------------------------------------------------------


def _timed_request(url, method="GET", data=None, timeout=10.0):
    """``(status, JSON payload, seconds)``; status None on a client timeout."""
    request = urllib.request.Request(url, data=data, method=method)
    start = time.monotonic()
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            status, body = response.status, response.read()
    except urllib.error.HTTPError as exc:
        status, body = exc.code, exc.read()
    except OSError:  # socket timeout, connection reset
        return None, None, time.monotonic() - start
    return status, json.loads(body or b"{}"), time.monotonic() - start


def _raw_exchange(url, data, timeout=10.0):
    """Send raw bytes; return everything read until EOF."""
    parsed = urllib.parse.urlsplit(url)
    with socket.create_connection((parsed.hostname, parsed.port), timeout) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


@pytest.fixture
def contract_router(tmp_path):
    """Shard 0 is a live replica, shard 1 a socket that never answers;
    every router deadline is 1 s."""
    service = FDService(max_workers=1)
    server, _ = start_in_thread(service)
    wedged = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    wedged.bind(("127.0.0.1", 0))
    wedged.listen(16)
    router = Router(
        [
            f"http://127.0.0.1:{server.server_port}",
            f"http://127.0.0.1:{wedged.getsockname()[1]}",
        ],
        routes_path=tmp_path / "routes.json",
        upstream_timeout=1.0,
        fanout_timeout=1.0,
        client_timeout=1.0,
    ).start()
    yield router
    router.shutdown()
    wedged.close()
    server.shutdown()
    server.server_close()
    service.close()


def _wedged_replica_times_out(router):
    status, payload, elapsed = _timed_request(router.url + "/jobs/s1:job-1")
    assert status == 504, payload
    assert 0.8 < elapsed < 3.0
    status, health, elapsed = _timed_request(router.url + "/health")
    assert status == 200
    assert health["status"] == "degraded"
    assert health["replicas"]["replica-1"] == {"status": "down"}
    assert 0.8 < elapsed < 3.0


def _malformed_json_is_400(router):
    status, payload, _ = _timed_request(
        router.url + "/discover", method="POST", data=b"{not json"
    )
    assert status == 400
    assert "invalid JSON" in payload["error"]


def _unknown_path_is_404(router):
    status, payload, _ = _timed_request(router.url + "/no/such/endpoint")
    assert status == 404
    assert "error" in payload


def _oversized_body_refused_unread(router):
    # No body follows the header: a router that tried to read it would
    # drop the connection at client_timeout instead of answering.
    head = (
        "POST /datasets HTTP/1.1\r\nHost: router\r\n"
        f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
    )
    raw = _raw_exchange(router.url, head.encode("latin-1"))
    assert raw.startswith(b"HTTP/1.1 400 "), raw[:80]
    assert b"exceeds" in raw


def _idle_client_dropped(router):
    parsed = urllib.parse.urlsplit(router.url)
    start = time.monotonic()
    with socket.create_connection((parsed.hostname, parsed.port), 10.0) as idle:
        # Other clients are served while the idle one holds a connection.
        status, payload, elapsed = _timed_request(router.url + "/cluster")
        assert status == 200 and payload["shards"] == 2
        assert elapsed < 0.9
        assert idle.recv(1024) == b""  # dropped: EOF, no response
    assert 0.8 < time.monotonic() - start < 3.0


ROUTER_CONTRACT = {
    "wedged-replica-504-and-degraded-health": _wedged_replica_times_out,
    "malformed-json-400": _malformed_json_is_400,
    "unknown-path-404": _unknown_path_is_404,
    "oversized-content-length-400-unread": _oversized_body_refused_unread,
    "idle-client-dropped-after-client-timeout": _idle_client_dropped,
}


@pytest.mark.parametrize("case", sorted(ROUTER_CONTRACT))
def test_router_contract(contract_router, case):
    ROUTER_CONTRACT[case](contract_router)


def test_proxied_job_ids_namespaced_at_every_depth(tmp_path):
    """A proxied job reply gets exactly what ``_prefix_job_ids`` gives:
    every string ``job_id`` at any depth prefixed, nothing else touched."""
    reply = {
        "job_id": "job-1",
        "children": [{"job_id": "job-2", "note": '"job_id": "not-a-member"'}],
        "meta": {"job_id": None, "count": 3, "ratio": 0.25},
    }

    class Replica(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            body = json.dumps(reply).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    replica = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Replica)
    threading.Thread(target=replica.serve_forever, daemon=True).start()
    router = Router(
        [f"http://127.0.0.1:{replica.server_port}"], routes_path=tmp_path / "routes.json"
    ).start()
    try:
        status, payload, _ = _timed_request(router.url + "/jobs/s0:job-1")
    finally:
        router.shutdown()
        replica.shutdown()
        replica.server_close()
    assert status == 200
    assert payload == router_module._prefix_job_ids(reply, 0)
    assert payload["children"][0]["note"] == reply["children"][0]["note"]


def test_held_upload_does_not_stall_other_requests(cluster, client, monkeypatch):
    """Fingerprinting an upload runs off the event loop: while one is
    held, router-local and proxied requests still answer promptly."""
    entered, release = threading.Event(), threading.Event()
    real_fingerprint = router_module.upload_fingerprint

    def held_fingerprint(body):
        entered.set()
        release.wait(timeout=30.0)
        return real_fingerprint(body)

    monkeypatch.setattr(router_module, "upload_fingerprint", held_fingerprint)
    uploaded = {}
    uploader = threading.Thread(
        target=lambda: uploaded.update(
            client.upload_rows(COLUMNS, [list(r) for r in ROWS], name="city")
        )
    )
    uploader.start()
    try:
        assert entered.wait(timeout=10.0)
        for path in ("/cluster", "/health"):
            status, _, elapsed = _timed_request(cluster.router.url + path, timeout=2.0)
            assert status == 200, f"{path} stalled behind a held upload"
            assert elapsed < 2.0
    finally:
        release.set()
        uploader.join(timeout=30.0)
    fingerprint = make_relation().fingerprint()
    assert uploaded["fingerprint"] == fingerprint
    shard = shard_for(fingerprint, 2)
    assert len(cluster.services[shard].registry) == 1
    assert len(cluster.services[1 - shard].registry) == 0


# ----------------------------------------------------------------------
# Merge helpers (pure functions)
# ----------------------------------------------------------------------


class TestMergers:
    def test_merge_health_all_down(self):
        merged = merge_health([None, None])
        assert merged["status"] == "down" and merged["healthy"] == 0

    def test_merge_metrics_sums_and_prefixes(self):
        shard = {
            "counters": {"service.discovery.runs": 2},
            "gauges": {"queue_depth": 1, "worker_utilization": 0.5},
        }
        merged = merge_metrics([shard, shard, None])
        counters, gauges = merged["counters"], merged["gauges"]
        assert counters["cluster.service.discovery.runs"] == 4
        assert counters["replica-0.service.discovery.runs"] == 2
        assert gauges["cluster.queue_depth"] == 2
        assert merged["cluster"] == {"replicas": 3, "healthy": 2}


# ----------------------------------------------------------------------
# Client retries
# ----------------------------------------------------------------------


class TestClientRetries:
    def _ok_response(self, payload):
        # BytesIO is already a context manager; the client only read()s.
        return io.BytesIO(json.dumps(payload).encode())

    def test_connection_refused_retried_then_succeeds(self, monkeypatch):
        calls = []

        def fake_urlopen(request, timeout=None):
            calls.append(time.monotonic())
            if len(calls) < 3:
                raise urllib.error.URLError(ConnectionRefusedError(111, "refused"))
            return self._ok_response({"status": "ok"})

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        client = ServiceClient("http://127.0.0.1:9", retries=3, backoff=0.01)
        assert client.health() == {"status": "ok"}
        assert len(calls) == 3
        # Exponential backoff: the second gap is at least as long.
        assert calls[2] - calls[1] >= (calls[1] - calls[0]) * 0.5

    def test_retries_exhausted_raises_retryable_error(self, monkeypatch):
        def fake_urlopen(request, timeout=None):
            raise urllib.error.URLError(ConnectionResetError(104, "reset"))

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        client = ServiceClient("http://127.0.0.1:9", retries=2, backoff=0.01)
        with pytest.raises(ServiceError) as err:
            client.health()
        assert err.value.retryable is True

    def test_non_retryable_http_error_fails_fast(self, monkeypatch):
        calls = []

        def fake_urlopen(request, timeout=None):
            calls.append(1)
            raise urllib.error.HTTPError(
                request.full_url, 404, "not found", {}, io.BytesIO(b"{}")
            )

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        client = ServiceClient("http://127.0.0.1:9", retries=3, backoff=0.01)
        with pytest.raises(ServiceError) as err:
            client.health()
        assert err.value.status == 404
        assert calls == [1]

    def test_503_retried_honoring_retry_after(self, monkeypatch):
        calls = []

        def fake_urlopen(request, timeout=None):
            calls.append(time.monotonic())
            if len(calls) == 1:
                raise urllib.error.HTTPError(
                    request.full_url,
                    503,
                    "draining",
                    {"Retry-After": "0.05"},
                    io.BytesIO(b'{"error": "draining"}'),
                )
            return self._ok_response({"status": "ok"})

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        client = ServiceClient("http://127.0.0.1:9", retries=2, backoff=0.0)
        assert client.health() == {"status": "ok"}
        assert calls[1] - calls[0] >= 0.04

    def test_append_never_retries_connection_errors(self, monkeypatch):
        """Append is not idempotent: a connection reset after delivery
        is ambiguous, and replaying would apply the rows twice."""
        calls = []

        def fake_urlopen(request, timeout=None):
            calls.append(1)
            raise urllib.error.URLError(ConnectionResetError(104, "reset"))

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        client = ServiceClient("http://127.0.0.1:9", retries=3, backoff=0.01)
        with pytest.raises(ServiceError) as err:
            client.append("city", [["gus", "z1", "c9", "nc"]])
        assert err.value.retryable is True
        assert calls == [1]

    def test_append_still_retries_503(self, monkeypatch):
        """A 503 is pre-execution by contract (draining replica refused
        the job), so retrying an append after one is safe."""
        calls = []

        def fake_urlopen(request, timeout=None):
            calls.append(1)
            if len(calls) == 1:
                raise urllib.error.HTTPError(
                    request.full_url,
                    503,
                    "draining",
                    {"Retry-After": "0.01"},
                    io.BytesIO(b'{"error": "draining"}'),
                )
            return self._ok_response({"fingerprint": "fp", "n_rows": 7})

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        client = ServiceClient("http://127.0.0.1:9", retries=2, backoff=0.0)
        info = client.append("city", [["gus", "z1", "c9", "nc"]])
        assert info["n_rows"] == 7
        assert len(calls) == 2

    def test_idempotent_post_still_retries_connection_errors(self, monkeypatch):
        """Discover/rank submissions stay retryable: they are idempotent
        by cache key, so a replay cannot corrupt state."""
        calls = []

        def fake_urlopen(request, timeout=None):
            calls.append(1)
            if len(calls) == 1:
                raise urllib.error.URLError(ConnectionRefusedError(111, "refused"))
            return self._ok_response({"status": "done", "job_id": "s0:1"})

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        client = ServiceClient("http://127.0.0.1:9", retries=2, backoff=0.01)
        assert client.discover("city")["status"] == "done"
        assert len(calls) == 2

    def test_zero_retries_disables_looping(self, monkeypatch):
        calls = []

        def fake_urlopen(request, timeout=None):
            calls.append(1)
            raise urllib.error.URLError(ConnectionRefusedError(111, "refused"))

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        client = ServiceClient("http://127.0.0.1:9", retries=0)
        with pytest.raises(ServiceError):
            client.health()
        assert calls == [1]


# ----------------------------------------------------------------------
# Graceful drain + scheduler gauges
# ----------------------------------------------------------------------


class TestDrainAndGauges:
    def test_drain_refuses_new_finishes_inflight(self):
        service = FDService(max_workers=1)
        try:
            service.register_rows(COLUMNS, [list(r) for r in ROWS], name="city")
            release = threading.Event()
            entered = threading.Event()

            original = service._execute

            def slow_execute(job):
                entered.set()
                release.wait(timeout=10.0)
                original(job)

            service.scheduler._executor = slow_execute
            job = service.submit("city")
            assert entered.wait(timeout=5.0)

            done = {}
            drainer = threading.Thread(
                target=lambda: done.setdefault("ok", service.drain(timeout=10.0))
            )
            drainer.start()
            time.sleep(0.05)
            with pytest.raises(SchedulerDraining):
                service.submit("city", config={"algorithm": "fastfds"})
            release.set()
            drainer.join(timeout=10.0)
            assert done["ok"] is True
            assert service.scheduler.wait(job.job_id, timeout=5.0).status == "done"
        finally:
            release.set()
            service.close()

    def test_drain_times_out_on_stuck_job(self):
        service = FDService(max_workers=1)
        try:
            service.register_rows(COLUMNS, [list(r) for r in ROWS], name="city")
            release = threading.Event()

            def stuck_execute(job):
                release.wait(timeout=30.0)

            service.scheduler._executor = stuck_execute
            service.submit("city")
            assert service.drain(timeout=0.2) is False
        finally:
            release.set()
            service.close()

    def test_draining_maps_to_http_503_with_retry_after(self, tmp_path):
        service = FDService(max_workers=1)
        server, _ = start_in_thread(service)
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{server.server_port}", retries=0
            )
            client.upload_rows(COLUMNS, [list(r) for r in ROWS], name="city")
            service.scheduler.drain(timeout=0.1)
            with pytest.raises(ServiceError) as err:
                client.discover("city", config={})
            assert err.value.status == 503
            assert err.value.retry_after is not None
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_gauges_in_metrics_payload(self):
        with FDService(max_workers=2) as service:
            gauges = service.metrics_payload()["gauges"]
            assert gauges["queue_depth"] == 0
            assert gauges["in_flight"] == 0
            assert gauges["worker_utilization"] == 0.0
            # Gauges are numeric so the cluster merge can sum them.
            assert gauges["draining"] == 0

    def test_utilization_reflects_running_jobs(self):
        with FDService(max_workers=2) as service:
            service.register_rows(COLUMNS, [list(r) for r in ROWS], name="city")
            release = threading.Event()
            entered = threading.Event()

            def slow_execute(job):
                entered.set()
                release.wait(timeout=10.0)

            service.scheduler._executor = slow_execute
            service.submit("city")
            assert entered.wait(timeout=5.0)
            gauges = service.scheduler.gauges()
            assert gauges["in_flight"] == 1
            assert gauges["worker_utilization"] == 0.5
            release.set()
