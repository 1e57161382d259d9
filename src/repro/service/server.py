"""Stdlib HTTP front-end for :class:`~repro.service.app.FDService`.

A :class:`ThreadingHTTPServer` speaking JSON on every endpoint — no
framework, no dependencies.  The protocol:

=======  ==============================  =======================================
method   path                            body / effect
=======  ==============================  =======================================
GET      ``/health``                     liveness + queue occupancy
GET      ``/metrics``                    all service counters
GET      ``/datasets``                   registered dataset versions
POST     ``/datasets``                   ``{csv | columns+rows, name?,
                                         semantics?}`` → fingerprint
POST     ``/datasets/<ref>/append``      ``{rows}`` → new fingerprint
POST     ``/discover``                   ``{dataset, config?, priority?,
                                         wait?}`` → job (id or full status);
                                         ``?top_k=K`` limits the cover to
                                         the K highest-redundancy FDs
POST     ``/rank``                       same, plus a ranking in the status
                                         (``?top_k=K`` keeps its first K)
GET      ``/multitable/schemas``         registered multi-table schemas
GET      ``/multitable/schemas/<ref>``   one schema description
POST     ``/multitable/schemas``         ``{name?, tables, keys?,
                                         foreign_keys?, infer_fks?}`` →
                                         schema fingerprint
POST     ``/multitable/discover``        ``{schema, path, on_dangling?,
                                         config?, wait?}`` → join-FD job
                                         (see ``docs/multitable.md``)
GET      ``/jobs``                       all job statuses (no result bodies)
GET      ``/jobs/<id>``                  one job status incl. result payload
POST     ``/jobs/<id>/cancel``           cancel (queued) / request (running)
=======  ==============================  =======================================

``<ref>`` is a dataset fingerprint or name.  Errors come back as
``{"error": ...}`` with a 4xx/5xx status.  ``wait: true`` on
``/discover``/``/rank`` blocks the request until the job finishes and
returns the full status — handy for CLIs; pollers use ``/jobs/<id>``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .app import FDService
from .config import ConfigError
from .registry import UnknownDatasetError
from .scheduler import SchedulerDraining, UnknownJobError
from .schemas import UnknownSchemaError

#: Upload size ceiling (bytes) — a guardrail, not a quota system.
MAX_BODY_BYTES = 256 * 1024 * 1024


class BadRequest(ValueError):
    """A malformed request body or path (HTTP 400)."""


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`FDService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: FDService, quiet: bool = True):
        self.service = service
        self.quiet = quiet
        super().__init__(address, ServiceRequestHandler)


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes JSON requests onto the bound service."""

    server: ServiceHTTPServer
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    def _send_json(
        self,
        payload: Dict[str, object],
        status: int = 200,
        retry_after: Optional[float] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(int(max(1, retry_after))))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise BadRequest(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        return payload

    def _dispatch(self, handler, *args) -> None:
        try:
            handler(*args)
        except BadRequest as exc:
            self._send_json({"error": str(exc)}, status=400)
        except (ConfigError, ValueError) as exc:
            self._send_json({"error": str(exc)}, status=400)
        except SchedulerDraining as exc:
            self._send_json({"error": str(exc)}, status=503, retry_after=2)
        except (UnknownDatasetError, UnknownJobError, UnknownSchemaError) as exc:
            self._send_json({"error": str(exc.args[0])}, status=404)
        except Exception as exc:  # noqa: BLE001 — protocol boundary
            self._send_json(
                {"error": f"{type(exc).__name__}: {exc}"}, status=500
            )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["health"]:
            self._dispatch(self._get_health)
        elif parts == ["metrics"]:
            self._dispatch(self._get_metrics)
        elif parts == ["datasets"]:
            self._dispatch(self._get_datasets)
        elif parts == ["jobs"]:
            self._dispatch(self._get_jobs)
        elif parts == ["multitable", "schemas"]:
            self._dispatch(self._get_schemas)
        elif len(parts) == 3 and parts[:2] == ["multitable", "schemas"]:
            self._dispatch(self._get_schema, parts[2])
        elif len(parts) == 2 and parts[0] == "jobs":
            self._dispatch(self._get_job, parts[1])
        else:
            self._send_json({"error": f"no such endpoint: GET {self.path}"}, 404)

    def do_POST(self) -> None:  # noqa: N802
        split = urlsplit(self.path)
        parts = [p for p in split.path.split("/") if p]
        query = parse_qs(split.query)
        if parts == ["datasets"]:
            self._dispatch(self._post_dataset)
        elif len(parts) == 3 and parts[0] == "datasets" and parts[2] == "append":
            self._dispatch(self._post_append, parts[1])
        elif parts == ["discover"]:
            self._dispatch(self._post_job, "discover", query)
        elif parts == ["rank"]:
            self._dispatch(self._post_job, "rank", query)
        elif parts == ["multitable", "schemas"]:
            self._dispatch(self._post_schema)
        elif parts == ["multitable", "discover"]:
            self._dispatch(self._post_multitable, query)
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
            self._dispatch(self._post_cancel, parts[1])
        else:
            self._send_json({"error": f"no such endpoint: POST {self.path}"}, 404)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def _get_health(self) -> None:
        self._send_json(self.server.service.health())

    def _get_metrics(self) -> None:
        self._send_json(self.server.service.metrics_payload())

    def _get_datasets(self) -> None:
        self._send_json({"datasets": self.server.service.registry.list()})

    def _get_jobs(self) -> None:
        jobs = self.server.service.scheduler.jobs()
        self._send_json(
            {"jobs": [job.status_payload(include_result=False) for job in jobs]}
        )

    def _get_job(self, job_id: str) -> None:
        job = self.server.service.scheduler.get(job_id)
        self._send_json(job.status_payload())

    def _post_dataset(self) -> None:
        body = self._read_body()
        name = body.get("name")
        semantics = body.get("semantics", "eq")
        if "csv" in body:
            entry = self.server.service.register_csv(
                body["csv"],
                name=name,
                semantics=semantics,
                on_bad_row=body.get("on_bad_row", "raise"),
            )
        elif "columns" in body and "rows" in body:
            entry = self.server.service.register_rows(
                body["columns"], body["rows"], name=name, semantics=semantics
            )
        else:
            raise BadRequest(
                "dataset upload needs either 'csv' text or 'columns' + 'rows'"
            )
        self._send_json(entry.describe(), status=201)

    def _post_append(self, ref: str) -> None:
        body = self._read_body()
        rows = body.get("rows")
        if not isinstance(rows, list):
            raise BadRequest("append needs a 'rows' list")
        entry = self.server.service.append_rows(ref, rows)
        self._send_json(entry.describe())

    @staticmethod
    def _apply_top_k(
        config: Dict[str, object], query: Optional[Dict[str, List[str]]]
    ) -> None:
        """Fold ``?top_k=`` into the config, overriding any body value.

        The query param is the outermost request, so it wins.
        """
        if query and "top_k" in query:
            raw = query["top_k"][-1]
            try:
                config["top_k"] = int(raw)
            except ValueError:
                raise BadRequest(f"top_k must be an integer, got {raw!r}") from None

    def _submit_and_respond(
        self, target: str, kind: str, config: Dict[str, object], body: Dict[str, object]
    ) -> None:
        """Queue the job; block for the status when ``wait`` was asked."""
        job = self.server.service.submit(
            target,
            kind,
            config,
            priority=int(body.get("priority", 0)),
            idempotency_key=self.headers.get("Idempotency-Key"),
        )
        if body.get("wait"):
            timeout = body.get("timeout")
            self.server.service.scheduler.wait(
                job.job_id, timeout=float(timeout) if timeout is not None else None
            )
            self._send_json(job.status_payload())
        else:
            self._send_json(
                {"job_id": job.job_id, "status": job.status}, status=202
            )

    def _post_job(
        self, kind: str, query: Optional[Dict[str, List[str]]] = None
    ) -> None:
        body = self._read_body()
        dataset = body.get("dataset")
        if not dataset:
            raise BadRequest("job submission needs a 'dataset' reference")
        config = body.get("config") or {}
        if "algorithm" in body:
            config.setdefault("algorithm", body["algorithm"])
        self._apply_top_k(config, query)
        self._submit_and_respond(dataset, kind, config, body)

    def _get_schemas(self) -> None:
        self._send_json({"schemas": self.server.service.schemas.list()})

    def _get_schema(self, ref: str) -> None:
        self._send_json(self.server.service.schemas.get(ref).describe())

    def _post_schema(self) -> None:
        body = self._read_body()
        tables = body.get("tables")
        if not isinstance(tables, dict) or not tables:
            raise BadRequest(
                "schema registration needs a 'tables' object "
                "(table name -> dataset name or fingerprint)"
            )
        entry = self.server.service.register_schema(
            body.get("name"),
            {str(k): str(v) for k, v in tables.items()},
            keys=body.get("keys"),
            foreign_keys=body.get("foreign_keys"),
            infer_fks=bool(body.get("infer_fks")),
            require_inclusion=bool(body.get("require_inclusion")),
        )
        self._send_json(entry.describe(), status=201)

    def _post_multitable(self, query: Optional[Dict[str, List[str]]] = None) -> None:
        """Submit a join-FD job: like ``/discover`` but against a schema.

        ``path`` and ``on_dangling`` may ride at the top level of the
        body (the ergonomic spelling) or inside ``config`` as
        ``join_path``/``on_dangling`` — top level wins.
        """
        body = self._read_body()
        schema = body.get("schema") or body.get("dataset")
        if not schema:
            raise BadRequest("multitable discovery needs a 'schema' reference")
        config = body.get("config") or {}
        if "algorithm" in body:
            config.setdefault("algorithm", body["algorithm"])
        if "path" in body:
            config["join_path"] = body["path"]
        if "on_dangling" in body:
            config["on_dangling"] = body["on_dangling"]
        self._apply_top_k(config, query)
        self._submit_and_respond(str(schema), "multitable", config, body)

    def _post_cancel(self, job_id: str) -> None:
        status = self.server.service.scheduler.cancel(job_id)
        self._send_json({"job_id": job_id, "status": status})


def make_server(
    service: FDService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> ServiceHTTPServer:
    """Bind a server (``port=0`` picks a free port; see ``server_port``)."""
    return ServiceHTTPServer((host, port), service, quiet=quiet)


def start_in_thread(
    service: FDService, host: str = "127.0.0.1", port: int = 0
) -> Tuple[ServiceHTTPServer, threading.Thread]:
    """Run a server on a daemon thread (tests and embedded use)."""
    server = make_server(service, host=host, port=port)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    thread.start()
    return server, thread
