"""Thin stdlib client for the :mod:`repro.service` HTTP server.

Wraps ``urllib`` with JSON encoding and error mapping so callers (the
``repro-fd submit`` CLI verb, tests, notebooks) talk to a discovery
server in a few lines::

    client = ServiceClient("http://127.0.0.1:8765")
    info = client.upload_csv(csv_text, name="orders")
    status = client.discover(info["fingerprint"], config={"time_limit": 60})
    result = ServiceClient.result_from_status(status)   # DiscoveryResult

Results come back as the same JSON documents
:meth:`~repro.core.result.DiscoveryResult.to_json` writes, so a cover
fetched over HTTP is byte-identical to one discovered in process.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
import uuid
from typing import Dict, List, Optional, Sequence

from ..core.result import DiscoveryResult
from ..relational.null import is_null


class ServiceError(RuntimeError):
    """An error response (or transport failure) from the service."""

    def __init__(
        self,
        message: str,
        status: Optional[int] = None,
        retryable: bool = False,
        retry_after: Optional[float] = None,
    ):
        super().__init__(message)
        #: HTTP status code, or None for transport-level failures.
        self.status = status
        #: True for connection-refused/reset style transport failures.
        self.retryable = retryable
        #: Parsed ``Retry-After`` header on 503 responses, if any.
        self.retry_after = retry_after


#: Socket-level failures worth retrying: the server went away mid-flight
#: (restart) or was not yet accepting (still booting).
_RETRYABLE_ERRNOS = ("refused", "reset", "broken pipe", "aborted")


def _is_retryable_reason(reason: object) -> bool:
    """True for connection-refused/reset style transport failures."""
    if isinstance(reason, (ConnectionRefusedError, ConnectionResetError, BrokenPipeError)):
        return True
    text = str(reason).lower()
    return any(marker in text for marker in _RETRYABLE_ERRNOS)


class ServiceClient:
    """JSON-over-HTTP client for one discovery server.

    Transient transport failures — connection refused/reset while the
    server restarts, or a 503 + ``Retry-After`` from a draining server
    — are retried with exponential backoff, so server restarts are
    invisible to callers.  Most requests are safe to repeat: uploads
    are idempotent by fingerprint and job submissions coalesce through
    the service's single-flight dedup.  :meth:`append` is the
    exception — it only retries 503s, never connection failures, since
    a reset mid-request may mean the rows were already applied.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        retries: int = 3,
        backoff: float = 0.2,
    ):
        """Args:
            base_url: e.g. ``"http://127.0.0.1:8765"`` (no trailing slash).
            timeout: per-request socket timeout in seconds.
            retries: extra attempts after a retryable failure (0 disables).
            backoff: initial sleep between attempts, doubled each retry
                (a 503's ``Retry-After`` header takes precedence).
        """
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {backoff}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]] = None,
        timeout: Optional[float] = None,
        idempotent: bool = True,
        headers: Optional[Dict[str, str]] = None,
    ) -> Dict[str, object]:
        """One request with retries.

        ``idempotent=False`` (the append path) disables retrying
        connection-reset style failures: a reset after the server read
        the body means the request may already have been applied, and
        replaying a non-idempotent append would apply it twice.  503s
        are still retried — the server refused the job before doing any
        work, so repeating is always safe.  Job submissions stay
        ``idempotent=True`` because every one carries an
        ``Idempotency-Key`` header the service dedups through its
        journal — a replayed submit returns the original job instead of
        queueing a duplicate.
        """
        last_error: Optional[ServiceError] = None
        for attempt in range(self.retries + 1):
            try:
                return self._request_once(method, path, payload, timeout, headers)
            except ServiceError as exc:
                retry_after = exc.retry_after if exc.status == 503 else None
                if exc.status == 503 and attempt < self.retries:
                    last_error = exc
                elif (
                    exc.status is None
                    and exc.retryable
                    and idempotent
                    and attempt < self.retries
                ):
                    last_error = exc
                else:
                    raise
            delay = self.backoff * (2 ** attempt)
            if retry_after is not None:
                delay = max(delay, retry_after)
            if delay > 0:
                time.sleep(delay)
        raise last_error  # pragma: no cover — loop always raises or returns

    def _request_once(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]] = None,
        timeout: Optional[float] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Dict[str, object]:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        merged = {"Content-Type": "application/json"}
        if headers:
            merged.update(headers)
        request = urllib.request.Request(
            self.base_url + path,
            data=body,
            method=method,
            headers=merged,
        )
        try:
            with urllib.request.urlopen(
                request, timeout=timeout if timeout is not None else self.timeout
            ) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode("utf-8")).get("error", "")
            except Exception:  # noqa: BLE001 — best-effort error detail
                detail = ""
            retry_after = None
            try:
                header = exc.headers.get("Retry-After") if exc.headers else None
                retry_after = float(header) if header is not None else None
            except (TypeError, ValueError):
                retry_after = None
            raise ServiceError(
                detail or f"HTTP {exc.code} from {method} {path}",
                status=exc.code,
                retry_after=retry_after,
            ) from None
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach {self.base_url}: {exc.reason}",
                retryable=_is_retryable_reason(exc.reason),
            ) from None
        except TimeoutError as exc:
            # A read timeout is not retried: the request may well still
            # be executing server-side.
            raise ServiceError(
                f"request to {self.base_url}{path} timed out: {exc}"
            ) from None

    # ------------------------------------------------------------------
    # Datasets
    # ------------------------------------------------------------------

    def upload_csv(
        self,
        csv_text: str,
        name: Optional[str] = None,
        semantics: str = "eq",
    ) -> Dict[str, object]:
        """Upload CSV text; returns the dataset description (fingerprint...)."""
        payload: Dict[str, object] = {
            "csv": csv_text, "name": name, "semantics": semantics,
        }
        return self._request("POST", "/datasets", payload)

    def upload_rows(
        self,
        columns: Sequence[str],
        rows: Sequence[Sequence[object]],
        name: Optional[str] = None,
        semantics: str = "eq",
    ) -> Dict[str, object]:
        """Upload a relation as columns + row tuples (nulls become None)."""
        encoded = [
            [None if is_null(value) else value for value in row] for row in rows
        ]
        payload: Dict[str, object] = {
            "columns": list(columns),
            "rows": encoded,
            "name": name,
            "semantics": semantics,
        }
        return self._request("POST", "/datasets", payload)

    def append(self, dataset: str, rows: Sequence[Sequence[object]]) -> Dict[str, object]:
        """Append rows; returns the new dataset version description.

        Not idempotent — repeating a delivered append applies the rows
        twice — so connection-level failures are *not* retried (see
        :meth:`_request`); a 503 from a draining server still is.
        """
        encoded = [
            [None if is_null(value) else value for value in row] for row in rows
        ]
        return self._request(
            "POST",
            f"/datasets/{dataset}/append",
            {"rows": encoded},
            idempotent=False,
        )

    def datasets(self) -> List[Dict[str, object]]:
        """All registered dataset versions."""
        return self._request("GET", "/datasets")["datasets"]

    # ------------------------------------------------------------------
    # Multi-table schemas (see docs/multitable.md)
    # ------------------------------------------------------------------

    def register_schema(
        self,
        name: Optional[str],
        tables: Dict[str, str],
        keys: Optional[Dict[str, Sequence[str]]] = None,
        foreign_keys: Optional[Sequence[Dict[str, object]]] = None,
        infer_fks: bool = False,
    ) -> Dict[str, object]:
        """Declare a schema over uploaded datasets; returns its description.

        ``tables`` maps table names to dataset names/fingerprints;
        ``keys`` declares primary keys; ``foreign_keys`` lists edge
        dicts ``{child, child_columns, parent, parent_columns?}``.
        Idempotent by graph fingerprint, so retries are safe.
        """
        return self._request(
            "POST",
            "/multitable/schemas",
            {
                "name": name,
                "tables": dict(tables),
                "keys": {t: list(k) for t, k in (keys or {}).items()},
                "foreign_keys": [dict(fk) for fk in (foreign_keys or [])],
                "infer_fks": infer_fks,
            },
        )

    def schemas(self) -> List[Dict[str, object]]:
        """All registered multi-table schemas."""
        return self._request("GET", "/multitable/schemas")["schemas"]

    def multitable(
        self,
        schema: str,
        path: Sequence[str],
        on_dangling: Optional[str] = None,
        config: Optional[Dict[str, object]] = None,
        priority: int = 0,
        timeout: Optional[float] = None,
        top_k: Optional[int] = None,
    ) -> Dict[str, object]:
        """Submit a join-FD job and wait server-side; returns the status.

        The status carries the usual ``result`` cover plus a
        ``ranking`` whose entries are tagged with per-FD ``scope``
        (intra/inter) and origin ``tables``, and a ``multitable`` block
        with the join's provenance stats.
        """
        suffix = "" if top_k is None else f"?top_k={int(top_k)}"
        return self._request(
            "POST",
            "/multitable/discover" + suffix,
            {
                "schema": schema,
                "path": list(path),
                "on_dangling": on_dangling,
                "config": config or {},
                "priority": priority,
                "wait": True,
                "timeout": timeout,
            },
            timeout=timeout,
            headers={"Idempotency-Key": uuid.uuid4().hex},
        )

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------

    @staticmethod
    def _job_path(kind: str, top_k: Optional[int]) -> str:
        """The job endpoint, with ``top_k`` as a query param when set."""
        if top_k is None:
            return f"/{kind}"
        return f"/{kind}?top_k={int(top_k)}"

    def submit(
        self,
        dataset: str,
        kind: str = "discover",
        config: Optional[Dict[str, object]] = None,
        priority: int = 0,
        top_k: Optional[int] = None,
        idempotency_key: Optional[str] = None,
    ) -> str:
        """Queue a job; returns its id immediately.

        Every logical submission carries an ``Idempotency-Key`` header
        (a fresh UUID unless the caller pins one), so transport-level
        retries — and caller-level replays with the same key — land on
        the original job instead of queueing duplicates.
        """
        response = self._request(
            "POST",
            self._job_path(kind, top_k),
            {"dataset": dataset, "config": config or {}, "priority": priority},
            headers={"Idempotency-Key": idempotency_key or uuid.uuid4().hex},
        )
        return response["job_id"]

    def status(self, job_id: str) -> Dict[str, object]:
        """One job's status payload (includes the result when done)."""
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self) -> List[Dict[str, object]]:
        """Status of every job the server knows about."""
        return self._request("GET", "/jobs")["jobs"]

    def wait(
        self, job_id: str, timeout: Optional[float] = None, poll: float = 0.05
    ) -> Dict[str, object]:
        """Poll until the job reaches a terminal state; returns its status."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["status"] in ("done", "failed", "cancelled", "lost"):
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(f"timed out waiting for {job_id}")
            time.sleep(poll)

    def cancel(self, job_id: str) -> Dict[str, object]:
        """Cancel a queued job (or request cancellation of a running one)."""
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def discover(
        self,
        dataset: str,
        config: Optional[Dict[str, object]] = None,
        priority: int = 0,
        timeout: Optional[float] = None,
        top_k: Optional[int] = None,
    ) -> Dict[str, object]:
        """Submit a discover job and wait server-side; returns the status.

        ``top_k`` limits the cover to the k FDs of highest redundancy
        (sent as the ``?top_k=`` query param, which overrides any
        body-config value).
        """
        return self._request(
            "POST",
            self._job_path("discover", top_k),
            {
                "dataset": dataset,
                "config": config or {},
                "priority": priority,
                "wait": True,
                "timeout": timeout,
            },
            timeout=timeout,
            headers={"Idempotency-Key": uuid.uuid4().hex},
        )

    def rank(
        self,
        dataset: str,
        config: Optional[Dict[str, object]] = None,
        priority: int = 0,
        timeout: Optional[float] = None,
        top_k: Optional[int] = None,
    ) -> Dict[str, object]:
        """Submit a rank job and wait server-side; returns the status.

        ``top_k`` bounds the returned ranking to its first k entries
        (the full cover is still discovered and cached).
        """
        return self._request(
            "POST",
            self._job_path("rank", top_k),
            {
                "dataset": dataset,
                "config": config or {},
                "priority": priority,
                "wait": True,
                "timeout": timeout,
            },
            timeout=timeout,
            headers={"Idempotency-Key": uuid.uuid4().hex},
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, object]:
        """The server's ``/health`` payload."""
        return self._request("GET", "/health")

    def metrics(self) -> Dict[str, object]:
        """The server's ``/metrics`` payload."""
        return self._request("GET", "/metrics")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @staticmethod
    def result_from_status(status: Dict[str, object]) -> DiscoveryResult:
        """Decode the ``result`` document inside a finished job status."""
        if status.get("status") == "failed":
            raise ServiceError(f"job failed: {status.get('error')}")
        result = status.get("result")
        if result is None:
            raise ServiceError(f"job {status.get('job_id')} carries no result yet")
        return DiscoveryResult.from_payload(result)
