#!/usr/bin/env python
"""End-to-end smoke test for the discovery service (docs/service.md).

Boots ``python -m repro serve`` as a real subprocess on a free port,
uploads a benchmark replica over HTTP, runs discover + rank with
``jobs=2`` and a memory budget, and asserts the served cover is
byte-identical to a direct in-process ``discover()`` — plus that the
repeat request was served from the result store.

A second phase boots ``serve`` with ``--store-dir`` and
``--dataset-dir``, uploads a named dataset, declares a schema and
discovers, then SIGTERMs and reboots it: the name must still resolve,
the schema must still be listed, and a repeat discover must be a store
hit with a byte-identical cover.

Run directly (CI runs this as a dedicated leg)::

    PYTHONPATH=src python benchmarks/smoke_service.py
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import time

from repro.algorithms.registry import make_algorithm
from repro.datasets import load_benchmark
from repro.relational.fd_io import cover_to_json
from repro.service import ServiceClient

DATASET = "iris"
ROWS = 60
CONFIG = {"algorithm": "dhyfd", "jobs": 2, "memory_budget": "256m"}


def boot_server(*extra):
    """Start ``repro serve --port 0 [extra...]`` and parse the bound URL."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--max-workers", "2", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line and proc.poll() is not None:
            raise SystemExit(f"server died on startup (rc={proc.returncode})")
        if "listening on " in line:
            url = line.split("listening on ", 1)[1].split()[0]
            return proc, url
    proc.kill()
    raise SystemExit("server did not announce its URL within 30s")


def main() -> int:
    relation = load_benchmark(DATASET, n_rows=ROWS)
    expected = cover_to_json(
        make_algorithm("dhyfd", jobs=2).discover(relation).fds, relation.schema
    )

    proc, url = boot_server()
    try:
        client = ServiceClient(url, timeout=120.0)
        info = client.upload_rows(
            relation.schema.names, list(relation.iter_rows()), name=DATASET
        )
        print(f"uploaded {DATASET} ({ROWS} rows) as {info['fingerprint'][:12]}...")

        status = client.discover(info["fingerprint"], config=dict(CONFIG))
        assert status["status"] == "done", status
        result = ServiceClient.result_from_status(status)
        served = cover_to_json(result.fds, result.schema)
        assert served == expected, "served cover differs from direct discover()"
        print(f"discover: {len(result.fds)} FDs, byte-identical to direct run")

        rank_status = client.rank(info["fingerprint"], config=dict(CONFIG))
        assert rank_status["status"] == "done", rank_status
        assert rank_status["cached"] is True, "rank should reuse the stored cover"
        assert rank_status["ranking"], "rank produced no ranking"
        print(f"rank: {len(rank_status['ranking'])} ranked FDs, served from store")

        counters = client.metrics()["counters"]
        assert counters["service.discovery.runs"] == 1, counters
        print("metrics: exactly 1 discovery run for 2 requests — OK")
    finally:
        stop_server(proc)
    restart_phase(relation, expected)
    print("service smoke test passed")
    return 0


def stop_server(proc) -> int:
    """SIGTERM (graceful drain) and wait; returns the exit code."""
    proc.terminate()
    try:
        return proc.wait(timeout=30.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise SystemExit("server did not exit within 30s of SIGTERM")


def restart_phase(relation, expected: str) -> None:
    """Names, schemas and covers survive a SIGTERM restart of one
    persisted ``serve``."""
    with tempfile.TemporaryDirectory() as tmp:
        dirs = ("--store-dir", f"{tmp}/store", "--dataset-dir", f"{tmp}/datasets")
        proc, url = boot_server(*dirs)
        try:
            client = ServiceClient(url, timeout=120.0)
            client.upload_rows(relation.schema.names, list(relation.iter_rows()), name=DATASET)
            client.register_schema("smoke", {"t": DATASET})
            status = client.discover(DATASET, config=dict(CONFIG))
            assert status["status"] == "done", status
            result = ServiceClient.result_from_status(status)
            assert cover_to_json(result.fds, result.schema) == expected
        finally:
            rc = stop_server(proc)
        assert rc == 0, f"SIGTERM exit code {rc}"
        print("restart: persisted serve stopped cleanly")

        proc, url = boot_server(*dirs)
        try:
            client = ServiceClient(url, timeout=120.0)
            assert DATASET in [d["name"] for d in client.datasets()], client.datasets()
            assert "smoke" in [s["name"] for s in client.schemas()], client.schemas()
            hits = client.metrics()["counters"].get("service.store.hits", 0)
            status = client.discover(DATASET, config=dict(CONFIG))
            assert status["status"] == "done", status
            result = ServiceClient.result_from_status(status)
            assert cover_to_json(result.fds, result.schema) == expected, (
                "cover after restart differs"
            )
            counters = client.metrics()["counters"]
            assert counters.get("service.store.hits", 0) > hits, counters
            assert counters.get("service.discovery.runs", 0) == 0, counters
        finally:
            stop_server(proc)
        print("restart: name resolves, schema listed, repeat discover is a store hit")


if __name__ == "__main__":
    sys.exit(main())
