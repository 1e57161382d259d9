"""Fingerprint-routed HTTP front-end for a replica fleet.

One ``asyncio`` event loop on one thread, one coroutine per client
connection.  The coroutines do their I/O with the loop's socket
methods (``sock_accept``, ``sock_recv``, ``sock_sendall``,
``sock_connect``), each replica call on a fresh connection; deadlines
are ``asyncio.wait_for``, and fanouts run their legs with
``asyncio.gather``.  CPU work that grows with an upload (decoding its
JSON body and computing its fingerprint) runs in one
``asyncio.to_thread`` call, so one big upload never stalls the requests
around it.  The router speaks the exact :mod:`repro.service` protocol
(``Content-Length`` framed HTTP/1.1, one request per connection), which
means :class:`ServiceClient` works against a cluster unchanged.

Routing rules (see :mod:`repro.cluster.topology`):

* ``POST /datasets`` — the router parses the upload, computes
  :meth:`Relation.fingerprint`, and hashes it to a shard, so the same
  content always lands on the same replica no matter who uploads it; a
  ``colocate_with`` body key instead routes the upload to the named
  dataset's shard (multi-table schemas need their base tables on one
  replica);
* ``POST /datasets/<ref>/append``, ``POST /discover``, ``POST /rank``
  — routed by the referenced dataset (pinned entry, else fingerprint
  hash); append responses pin the *new* fingerprint to the parent's
  shard;
* ``POST /multitable/schemas`` — requires every referenced table on
  one shard (409 otherwise — re-upload with ``colocate_with``);
  responses pin the schema fingerprint and name to that shard, and
  ``POST /multitable/discover`` / ``GET /multitable/schemas/<ref>``
  follow the pin;
* ``GET/POST /jobs...`` — job ids are namespaced ``s<shard>:<id>`` on
  the way out and routed by that prefix on the way back in;
* ``GET /health``, ``GET /metrics``, ``GET /datasets``, ``GET /jobs``
  — fanned out to every live replica and merged (metrics counters are
  re-published under per-replica prefixes plus ``cluster.*`` totals);
* ``GET /cluster`` — router-local topology: replicas table, pinned
  routes, router counters.

A request for a shard that is down is answered ``503`` with a
``Retry-After`` header immediately — never a hang — and the shard
comes back transparently once the replica manager restarts it
(:class:`ServiceClient`'s retry/backoff makes the window invisible to
callers).
"""

from __future__ import annotations

import asyncio
import json
import re
import socket
import threading
import urllib.parse
from http.client import responses as _REASONS
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..relational.io import read_csv_text
from ..relational.relation import Relation
from ..service.server import MAX_BODY_BYTES
from .topology import RoutingTable

#: Prefixed job ids: ``s<shard>:<replica-local job id>``.
_JOB_REF = re.compile(r"^s(\d+):(.+)$")

#: A ``"job_id": "<id>"`` member of a replica's JSON reply (quotes inside
#: strings are escaped, so only members match).  Inserting ``s<shard>:``
#: namespaces ids like :func:`_prefix_job_ids`, without a decode/encode.
_JOB_ID_MEMBER = re.compile(rb'("job_id"\s*:\s*")')

#: Longest header block accepted, in requests and responses alike.
_HEADER_LIMIT = 64 * 1024


class RouterError(RuntimeError):
    """Fatal router setup/runtime failure."""


class _PlanError(Exception):
    """A routing decision that ends in an immediate error response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


# ----------------------------------------------------------------------
# HTTP/1.x framing: only what the service protocol needs
# ----------------------------------------------------------------------


async def _recv(sock: socket.socket) -> bytes:
    chunk = await asyncio.get_running_loop().sock_recv(sock, 65536)
    if not chunk:
        raise asyncio.IncompleteReadError(b"", None)
    return chunk


async def _read_message(sock: socket.socket) -> Tuple[List[str], Dict[str, str], bytes]:
    """One message: start-line fields, lower-cased headers and the body,
    framed by ``Content-Length`` (none without it).  A length above
    ``MAX_BODY_BYTES`` is refused before any of the body is read."""
    buf = bytearray()
    while b"\r\n\r\n" not in buf:
        if len(buf) > _HEADER_LIMIT:
            raise _PlanError(400, "header block too large")
        buf += await _recv(sock)
    head, _, rest = bytes(buf).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if ":" in line:
            key, value = line.split(":", 1)
            headers[key.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0")
    if not raw_length.isdecimal():
        raise _PlanError(400, f"malformed Content-Length: {raw_length!r}")
    length = int(raw_length)
    if length > MAX_BODY_BYTES:
        raise _PlanError(400, f"body exceeds {MAX_BODY_BYTES} bytes")
    body = bytearray(rest)
    while len(body) < length:
        body += await _recv(sock)
    return lines[0].split(" ", 2), headers, bytes(body[:length])


def _serialize(start_line: str, headers: Dict[str, object], body: bytes) -> bytes:
    lines = [start_line] + [f"{name}: {value}" for name, value in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    retry_after: Optional[int] = None,
) -> bytes:
    headers: Dict[str, object] = {
        "Content-Type": content_type,
        "Content-Length": len(body),
        "Connection": "close",
    }
    if retry_after is not None:
        headers["Retry-After"] = retry_after
    return _serialize(f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}", headers, body)


def _json_response(status: int, payload: dict, retry_after: Optional[int] = None) -> bytes:
    return _response(status, json.dumps(payload).encode("utf-8"), retry_after=retry_after)


async def _exchange(
    url: str,
    method: str,
    path: str,
    body: bytes,
    extra_headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, Dict[str, str], bytes]:
    """One ``Connection: close`` request to a replica: status, headers, body."""
    loop = asyncio.get_running_loop()
    parsed = urllib.parse.urlsplit(url)
    headers: Dict[str, object] = {
        "Host": parsed.netloc,
        "Connection": "close",
        "Accept": "application/json",
        **(extra_headers or {}),
    }
    if body or method == "POST":
        headers.update({"Content-Type": "application/json", "Content-Length": len(body)})
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setblocking(False)
        await loop.sock_connect(sock, (parsed.hostname, parsed.port or 80))
        await loop.sock_sendall(sock, _serialize(f"{method} {path} HTTP/1.1", headers, body))
        start, reply_headers, reply = await _read_message(sock)
    if len(start) < 2 or not start[0].startswith("HTTP/1."):
        raise ValueError(f"malformed status line: {' '.join(start)!r}")
    return int(start[1]), reply_headers, reply


def _parse_body(body_bytes: bytes) -> dict:
    """The request body as a JSON object (400 otherwise)."""
    try:
        payload = json.loads(body_bytes) if body_bytes else {}
    except ValueError as exc:
        raise _PlanError(400, f"invalid JSON body: {exc}") from None
    if not isinstance(payload, dict):
        raise _PlanError(400, "request body must be a JSON object")
    return payload


# ----------------------------------------------------------------------
# Merging fanned-out replica payloads
# ----------------------------------------------------------------------


def _replica_name(shard: int) -> str:
    return f"replica-{shard}"


def merge_health(per_shard: Sequence[Optional[dict]]) -> dict:
    """Cluster /health: ok only when every shard answered ok."""
    replicas: Dict[str, dict] = {}
    datasets = cached = 0
    jobs: Dict[str, int] = {}
    healthy = 0
    for shard, payload in enumerate(per_shard):
        name = _replica_name(shard)
        if payload is None:
            replicas[name] = {"status": "down"}
            continue
        healthy += 1
        replicas[name] = payload
        datasets += int(payload.get("datasets", 0))
        cached += int(payload.get("cached_results", 0))
        for key, value in (payload.get("jobs") or {}).items():
            if isinstance(value, (int, float)):
                jobs[key] = jobs.get(key, 0) + value
    status = "ok" if healthy == len(per_shard) else ("degraded" if healthy else "down")
    return {
        "status": status,
        "replicas": replicas,
        "shards": len(per_shard),
        "healthy": healthy,
        "datasets": datasets,
        "cached_results": cached,
        "jobs": jobs,
    }


def merge_metrics(per_shard: Sequence[Optional[dict]]) -> dict:
    """Cluster /metrics: per-replica prefixed series plus cluster totals.

    Every replica counter/gauge reappears twice: once under its
    ``replica-<shard>.`` prefix (so a dashboard can tell shards apart)
    and summed under ``cluster.`` (so the load harness reads one
    number).  Gauges like ``worker_utilization`` sum into cluster-wide
    capacity terms; divide by ``cluster.replicas`` for an average.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    cluster_counters: Dict[str, float] = {}
    cluster_gauges: Dict[str, float] = {}
    healthy = 0
    for shard, payload in enumerate(per_shard):
        if payload is None:
            continue
        healthy += 1
        prefix = _replica_name(shard)
        for name, value in (payload.get("counters") or {}).items():
            counters[f"{prefix}.{name}"] = value
            cluster_counters[name] = cluster_counters.get(name, 0) + value
        for name, value in (payload.get("gauges") or {}).items():
            gauges[f"{prefix}.{name}"] = value
            cluster_gauges[name] = cluster_gauges.get(name, 0) + value
        for section in ("store", "scheduler", "journal"):
            for name, value in (payload.get(section) or {}).items():
                if isinstance(value, (int, float)):
                    counters[f"{prefix}.{section}.{name}"] = value
                    key = f"{section}.{name}"
                    cluster_counters[key] = cluster_counters.get(key, 0) + value
    counters.update({f"cluster.{k}": v for k, v in cluster_counters.items()})
    gauges.update({f"cluster.{k}": v for k, v in cluster_gauges.items()})
    return {
        "cluster": {"replicas": len(per_shard), "healthy": healthy},
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
    }


def merge_datasets(per_shard: Sequence[Optional[dict]]) -> dict:
    datasets: List[dict] = []
    for shard, payload in enumerate(per_shard):
        if payload is None:
            continue
        for entry in payload.get("datasets") or []:
            entry = dict(entry)
            entry["replica"] = _replica_name(shard)
            datasets.append(entry)
    return {"datasets": datasets}


def merge_schemas(per_shard: Sequence[Optional[dict]]) -> dict:
    schemas: List[dict] = []
    for shard, payload in enumerate(per_shard):
        if payload is None:
            continue
        for entry in payload.get("schemas") or []:
            entry = dict(entry)
            entry["replica"] = _replica_name(shard)
            schemas.append(entry)
    return {"schemas": schemas}


def merge_jobs(per_shard: Sequence[Optional[dict]]) -> dict:
    jobs: List[dict] = []
    for shard, payload in enumerate(per_shard):
        if payload is None:
            continue
        for entry in payload.get("jobs") or []:
            jobs.append(_prefix_job_ids(entry, shard))
    jobs.sort(key=lambda job: job.get("submitted_at") or 0)
    return {"jobs": jobs}


#: Fanned-out ``GET`` paths and how their replica payloads merge.
_MERGERS: Dict[str, Callable[[Sequence[Optional[dict]]], dict]] = {
    "/health": merge_health,
    "/metrics": merge_metrics,
    "/datasets": merge_datasets,
    "/jobs": merge_jobs,
    "/multitable/schemas": merge_schemas,
}


def _prefix_job_ids(obj: object, shard: int) -> object:
    """Namespace every ``job_id`` value in a payload with its shard."""
    if isinstance(obj, dict):
        return {
            key: (
                f"s{shard}:{value}"
                if key == "job_id" and isinstance(value, str)
                else _prefix_job_ids(value, shard)
            )
            for key, value in obj.items()
        }
    if isinstance(obj, list):
        return [_prefix_job_ids(item, shard) for item in obj]
    return obj


def upload_fingerprint(body: dict) -> str:
    """The fingerprint a replica will assign this upload.

    Mirrors :meth:`FDService.register_csv` / ``register_rows`` exactly
    — same parse, same construction — so the router's routing decision
    and the replica's registry key always agree.
    """
    semantics = body.get("semantics", "eq")
    if "csv" in body:
        relation = read_csv_text(
            body["csv"],
            semantics=semantics,
            on_bad_row=body.get("on_bad_row", "raise"),
        )
    elif "columns" in body and "rows" in body:
        relation = Relation.from_rows(
            body["rows"], schema=list(body["columns"]), semantics=semantics
        )
    else:
        raise _PlanError(
            400, "dataset upload needs either 'csv' text or 'columns' + 'rows'"
        )
    return relation.fingerprint()


def _upload_route(body_bytes: bytes) -> str:
    """The reference an upload routes by: its ``colocate_with`` dataset
    (so a schema over both tables can be registered on that shard), else
    its fingerprint.  Both steps grow with the upload: run it off the loop."""
    body = _parse_body(body_bytes)
    return str(body.get("colocate_with") or upload_fingerprint(body))


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------


class Router:
    """One asyncio event loop, on one thread, proxying a replica fleet."""

    def __init__(
        self,
        endpoints: Union[Sequence[Optional[str]], Callable[[], Sequence[Optional[str]]]],
        host: str = "127.0.0.1",
        port: int = 0,
        routes_path: Optional[str] = None,
        describe: Optional[Callable[[], List[dict]]] = None,
        upstream_timeout: float = 300.0,
        fanout_timeout: float = 5.0,
        client_timeout: float = 30.0,
        retry_after: int = 1,
    ):
        """Args:
            endpoints: per-shard base URLs, or a callable returning them
                (the replica manager's :meth:`endpoints` — re-read every
                request so restarts propagate).  ``None`` entries mean
                the shard is down.
            host/port: router bind address (port 0 picks a free port).
            routes_path: persisted pinned-routes JSON (see
                :class:`RoutingTable`); None keeps them in memory.
            describe: optional replicas-table callable for ``/cluster``.
            upstream_timeout: per-request replica deadline (504 after).
            fanout_timeout: deadline for /health /metrics /datasets
                /jobs fanouts — a wedged replica is dropped from the
                merge after this long instead of stalling liveness
                checks (the manager restarts it independently).
            client_timeout: read/write deadline on the client side.
            retry_after: seconds advertised in 503 ``Retry-After``.
        """
        self._endpoints = endpoints if callable(endpoints) else (lambda: list(endpoints))
        self.n_shards = len(self._endpoints())
        if self.n_shards < 1:
            raise RouterError("router needs at least one replica endpoint")
        self.table = RoutingTable(self.n_shards, path=routes_path)
        self._describe = describe
        self.upstream_timeout = upstream_timeout
        self.fanout_timeout = fanout_timeout
        self.client_timeout = client_timeout
        self.retry_after = retry_after
        self.counters: Dict[str, int] = {}
        self._thread: Optional[threading.Thread] = None
        # Bound here so .address is valid before the loop runs.
        self._listener = socket.create_server((host, port), backlog=1024)
        self._listener.setblocking(False)
        self._loop = asyncio.new_event_loop()
        #: Cancelled by :meth:`shutdown`, even before the loop runs.
        self._stopping = self._loop.create_future()

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return self._listener.getsockname()[:2]

    @property
    def url(self) -> str:
        return "http://%s:%d" % self.address

    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown` (blocking)."""
        try:
            self._loop.run_until_complete(self._serve())
        finally:
            self._loop.close()

    def start(self) -> "Router":
        """Run :meth:`serve_forever` on a daemon thread."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-cluster-router", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop the loop (from any thread) and join it if threaded."""
        try:
            self._loop.call_soon_threadsafe(self._stopping.cancel)
        except RuntimeError:  # the loop has already closed
            pass
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    async def _serve(self) -> None:
        listening = {self._stopping, self._loop.create_task(self._listen())}
        await asyncio.wait(listening, return_when=asyncio.FIRST_COMPLETED)
        tasks = asyncio.all_tasks() - {asyncio.current_task()}
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._listener.close()

    async def _listen(self) -> None:
        handlers: Set[asyncio.Task] = set()  # the loop holds tasks weakly
        while True:
            try:
                sock, _ = await self._loop.sock_accept(self._listener)
            except OSError:  # e.g. out of file descriptors: back off, keep serving
                await asyncio.sleep(0.1)
                continue
            task = self._loop.create_task(self._handle(sock))
            handlers.add(task)
            task.add_done_callback(handlers.discard)

    def _count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def _shard_down(self, message: str) -> bytes:
        self._count("router.shard_down_503")
        return _json_response(503, {"error": message}, retry_after=self.retry_after)

    async def _handle(self, sock: socket.socket) -> None:
        """Answer one request; an idle, vanished or reset client is dropped."""
        self._count("router.connections")
        with sock:
            try:
                try:
                    start, headers, body = await asyncio.wait_for(
                        _read_message(sock), self.client_timeout
                    )
                    if len(start) != 3 or not start[2].startswith("HTTP/1."):
                        raise _PlanError(400, f"malformed request line: {' '.join(start)!r}")
                    response = await self._plan(start[0].upper(), start[1], headers, body)
                except _PlanError as exc:
                    response = _json_response(exc.status, {"error": str(exc)})
                except (asyncio.TimeoutError, asyncio.IncompleteReadError, ConnectionError):
                    return
                except Exception as exc:  # noqa: BLE001 — protocol boundary
                    self._count("router.plan_errors")
                    response = _json_response(500, {"error": f"{type(exc).__name__}: {exc}"})
                await asyncio.wait_for(
                    self._loop.sock_sendall(sock, response), self.client_timeout
                )
            except (asyncio.TimeoutError, ConnectionError):
                pass
            except Exception:  # noqa: BLE001 — isolate connections
                self._count("router.connection_errors")

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _plan(
        self, method: str, target: str, headers: Dict[str, str], body_bytes: bytes
    ) -> bytes:
        path, _, query = target.partition("?")
        parts = [p for p in path.split("/") if p]
        #: Proxied paths keep the original query string (``?top_k=`` on
        #: /discover and /rank must reach the replica verbatim).
        query = f"?{query}" if query else ""
        target = path + query

        if method == "GET" and parts == ["cluster"]:
            return _json_response(200, self._cluster_payload())
        fanout = "/" + "/".join(parts)
        if method == "GET" and fanout in _MERGERS:
            return await self._fanout(fanout, _MERGERS[fanout])
        if (
            method == "GET"
            and len(parts) == 3
            and parts[:2] == ["multitable", "schemas"]
        ):
            shard = self.table.shard_of(parts[2])
            return await self._proxy(shard, method, target, body_bytes)

        if method == "POST" and parts == ["datasets"]:
            shard = self.table.shard_of(await asyncio.to_thread(_upload_route, body_bytes))
            return await self._proxy(shard, method, target, body_bytes, hook="upload")
        body = _parse_body(body_bytes) if method == "POST" else {}
        if method == "POST" and parts == ["multitable", "schemas"]:
            tables = body.get("tables")
            if not isinstance(tables, dict) or not tables:
                raise _PlanError(
                    400,
                    "schema registration needs a 'tables' object "
                    "(table name -> dataset name or fingerprint)",
                )
            shards = {
                str(ref): self.table.shard_of(str(ref)) for ref in tables.values()
            }
            if len(set(shards.values())) > 1:
                self._count("router.schema_colocation_409")
                raise _PlanError(
                    409,
                    "schema tables live on different shards "
                    f"({shards}); re-upload the tables with 'colocate_with' "
                    "so they share a replica",
                )
            shard = next(iter(shards.values()))
            return await self._proxy(shard, method, target, body_bytes, hook="schema")
        if (
            method == "POST"
            and len(parts) == 3
            and parts[0] == "datasets"
            and parts[2] == "append"
        ):
            shard = self.table.shard_of(parts[1])
            return await self._proxy(shard, method, target, body_bytes, hook="append")
        if method == "POST" and parts in (["discover"], ["rank"], ["multitable", "discover"]):
            if parts[0] == "multitable":
                ref = body.get("schema") or body.get("dataset")
                missing = "multitable discovery needs a 'schema' reference"
            else:
                ref, missing = body.get("dataset"), "job submission needs a 'dataset' reference"
            if not ref:
                raise _PlanError(400, missing)
            shard = self.table.shard_of(str(ref))
            # The client's Idempotency-Key must survive the proxy hop: the
            # replica dedups retried job submissions through it.
            idem = headers.get("idempotency-key")
            idem_headers = {"Idempotency-Key": idem} if idem else None
            return await self._proxy(
                shard, method, target, body_bytes, hook="jobs", extra_headers=idem_headers
            )
        if parts and parts[0] == "jobs" and len(parts) in (2, 3):
            match = _JOB_REF.match(parts[1])
            shard = int(match.group(1)) if match else -1
            if not 0 <= shard < self.n_shards:
                raise _PlanError(404, f"unknown job {parts[1]!r} (ids look like s0:job-1)")
            if (method, parts[2:]) not in (("GET", []), ("POST", ["cancel"])):
                raise _PlanError(404, f"no such endpoint: {method} {path}")
            local = "/".join(["/jobs", match.group(2)] + parts[2:]) + query
            return await self._proxy(shard, method, local, body_bytes, hook="jobs")
        raise _PlanError(404, f"no such endpoint: {method} {path}")

    def _cluster_payload(self) -> dict:
        endpoints = list(self._endpoints())
        payload = {
            "shards": self.n_shards,
            "endpoints": endpoints,
            "healthy": sum(1 for url in endpoints if url),
            "routes": self.table.pinned(),
            "router": dict(sorted(self.counters.items())),
        }
        if self._describe is not None:
            payload["replicas"] = self._describe()
        return payload

    # ------------------------------------------------------------------
    # Proxy / fanout execution
    # ------------------------------------------------------------------

    async def _proxy(
        self,
        shard: int,
        method: str,
        path: str,
        body: bytes,
        hook: Optional[str] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> bytes:
        url = self._endpoints()[shard]
        if url is None:
            return self._shard_down(f"shard {shard} is down; retry shortly")
        self._count(f"router.routed.shard-{shard}")
        try:
            status, headers, reply = await asyncio.wait_for(
                _exchange(url, method, path, body, extra_headers), self.upstream_timeout
            )
        except asyncio.TimeoutError:
            self._count("router.upstream_timeouts")
            return _json_response(504, {"error": f"shard {shard} unavailable: timed out"})
        except Exception as exc:  # noqa: BLE001 — any failed exchange: shard down
            return self._shard_down(f"shard {shard} unavailable: {type(exc).__name__}: {exc}")
        if hook == "jobs":
            reply = _JOB_ID_MEMBER.sub(rb"\1s%d:" % shard, reply)
        elif hook and status in (200, 201):
            # Pin the fingerprint and name alias an upload, append or
            # schema registration created to the shard that holds it.
            try:
                payload = json.loads(reply)
                refs = [payload.get("fingerprint"), payload.get("name")]
            except (ValueError, AttributeError):  # not JSON, or not an object
                refs = []
            for ref in refs:
                if isinstance(ref, str) and ref:
                    self.table.pin(ref, shard)
        return _response(status, reply, headers.get("content-type", "application/json"))

    async def _fanout(
        self, path: str, merger: Callable[[Sequence[Optional[dict]]], dict]
    ) -> bytes:
        endpoints = list(self._endpoints())
        self._count("router.fanouts")
        if not any(endpoints):
            return _json_response(
                503, {"error": "no replicas are up"}, retry_after=self.retry_after
            )
        per_shard = await asyncio.gather(*(self._fanout_leg(url, path) for url in endpoints))
        return _json_response(200, merger(per_shard))

    async def _fanout_leg(self, url: Optional[str], path: str) -> Optional[dict]:
        """One replica's payload, or None if it is down, fails or is late."""
        if url is None:
            return None
        try:
            status, _, body = await asyncio.wait_for(
                _exchange(url, "GET", path, b""), self.fanout_timeout
            )
            return json.loads(body or b"{}") if status == 200 else None
        except Exception:  # noqa: BLE001 — a failed leg drops out of the merge
            return None
