#!/usr/bin/env python
"""End-to-end smoke test for the discovery service (docs/service.md).

Boots ``python -m repro serve`` as a real subprocess on a free port,
uploads a benchmark replica over HTTP, runs discover + rank with a
memory budget, and asserts the served cover is
byte-identical to a direct in-process ``discover()`` — plus that the
repeat request was served from the result store.

A top-k phase asks a fresh ``serve`` for ``/discover?top_k=3``: the
answer must be byte-identical to the first 3 of the library's
``rank_cover`` of the left-reduced cover, and a following plain
``/discover`` must be a store hit (one discovery run for both).

A restart phase boots ``serve`` with ``--store-dir`` and
``--dataset-dir``, uploads a named dataset, declares a schema,
discovers and ranks, then SIGTERMs and reboots it with ``--recover``:
the name must still resolve, the schema must still be listed, the rank
job polled by id must carry the same ranking, and a repeat discover
must be a store hit with a byte-identical cover.

A last phase SIGKILLs a persisted ``serve`` mid-discovery, after the
job's first checkpoint reaches its journal, and reboots it on the same
directories with ``--recover``: the job id never 404s, the job resumes
past its completed levels, and its cover is byte-identical to a direct
run (docs/durability.md).

Run directly (CI runs this as a dedicated leg)::

    PYTHONPATH=src python benchmarks/smoke_service.py
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import struct
import subprocess
import sys
import tempfile
import time
import zlib

from repro.algorithms.registry import make_algorithm
from repro.datasets import load_benchmark
from repro.datasets.synthetic import random_relation
from repro.ranking import rank_cover
from repro.relational.fd import FDSet
from repro.relational.fd_io import cover_to_json
from repro.service import ServiceClient, ServiceError

DATASET = "iris"
ROWS = 60
CONFIG = {"algorithm": "dhyfd", "memory_budget": "256m"}
#: Configuration for the kill-mid-job phase; with its 16-column input
#: the run is a multi-second lattice walk, so there is a wide window to
#: SIGKILL the server between checkpoints.
SLOW_CONFIG = {"algorithm": "dhyfd"}


def boot_server(*extra, env=None):
    """Start ``repro serve --port 0 [extra...]`` and parse the bound URL."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--max-workers", "2", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
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
        make_algorithm("dhyfd").discover(relation).fds, relation.schema
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
    top_k_phase(relation)
    restart_phase(relation, expected)
    kill_mid_job_phase()
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


def top_k_phase(relation, k: int = 3) -> None:
    """``/discover?top_k`` is a prefix of the ranked left-reduced cover,
    cut from the full cover it stores."""
    cover = make_algorithm("dhyfd").discover(relation).fds
    ranking = rank_cover(relation, cover, top_k=k)
    expected = cover_to_json(FDSet(r.fd for r in ranking.ranked), relation.schema)
    proc, url = boot_server()
    try:
        client = ServiceClient(url, timeout=120.0)
        info = client.upload_rows(relation.schema.names, list(relation.iter_rows()))
        status = client.discover(info["fingerprint"], config=dict(CONFIG), top_k=k)
        assert status["status"] == "done", status
        result = ServiceClient.result_from_status(status)
        assert result.top_k == k, result.top_k
        assert cover_to_json(result.fds, result.schema) == expected, (
            "served top-k differs from the first k of rank_cover"
        )
        status = client.discover(info["fingerprint"], config=dict(CONFIG))
        assert status["status"] == "done", status
        assert status["cached"] is True, "full discover should be a store hit"
        result = ServiceClient.result_from_status(status)
        assert len(result.fds) == len(cover), "full discover served a prefix"
        counters = client.metrics()["counters"]
        assert counters["service.discovery.runs"] == 1, counters
    finally:
        stop_server(proc)
    print(f"top-k: /discover?top_k={k} is the first {k} of rank_cover; "
          "the full discover after it is a store hit")


def restart_phase(relation, expected: str) -> None:
    """Names, schemas, covers and finished jobs' answers survive a
    SIGTERM restart of one persisted ``serve``."""
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
            ranked = client.rank(DATASET, config=dict(CONFIG))
            assert ranked["status"] == "done" and ranked["ranking"], ranked
        finally:
            rc = stop_server(proc)
        assert rc == 0, f"SIGTERM exit code {rc}"
        print("restart: persisted serve stopped cleanly")

        proc, url = boot_server(*dirs, "--recover")
        try:
            client = ServiceClient(url, timeout=120.0)
            assert DATASET in [d["name"] for d in client.datasets()], client.datasets()
            assert "smoke" in [s["name"] for s in client.schemas()], client.schemas()
            recovered = client.status(ranked["job_id"])
            assert recovered["status"] == "done", recovered
            assert recovered.get("recovered") is True, "rank job not rebuilt from the journal"
            assert recovered.get("ranking") == ranked["ranking"], (
                "recovered rank job lost its ranking"
            )
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
        print(
            "restart: name resolves, schema listed, rank job keeps its ranking, "
            "repeat discover is a store hit"
        )


def wal_checkpointed_jobs(path: pathlib.Path) -> set:
    """Job ids with a checkpoint frame in the server's ``jobs.wal``.

    Read-only frame walk (crc32 + length header, see
    repro/service/journal.py) that simply stops at any torn tail — the
    server is appending to this file while we poll it.
    """
    try:
        raw = path.read_bytes()
    except OSError:
        return set()
    jobs = set()
    offset = 0
    while offset + 8 <= len(raw):
        crc, length = struct.unpack_from("<II", raw, offset)
        start = offset + 8
        end = start + length
        if end > len(raw):
            break
        payload = raw[start:end]
        if zlib.crc32(payload) != crc:
            break
        record = json.loads(payload.decode("utf-8"))
        if record.get("type") == "checkpoint":
            jobs.add(record.get("job_id"))
        offset = end
    return jobs


def kill_mid_job_phase() -> None:
    """SIGKILL a persisted ``serve`` mid-discovery; the job must still finish.

    The acceptance bar of the durable job plane: after the crash the
    same job id keeps resolving (never a 404), the rebooted server
    resumes from the journaled checkpoint (skipping completed levels),
    and the final cover is byte-identical to a direct run.
    """
    relation = random_relation(
        2000, 16, domain_sizes=[3] * 16, null_rate=0.0, seed=5
    )
    expected = cover_to_json(
        make_algorithm("dhyfd").discover(relation).fds, relation.schema
    )
    env = dict(os.environ)
    # Checkpoint at every level boundary so a mid-job SIGKILL always
    # has a recent snapshot to resume from.
    env["REPRO_FD_CHECKPOINT_INTERVAL"] = "0"
    with tempfile.TemporaryDirectory() as tmp:
        dirs = ("--store-dir", f"{tmp}/store", "--dataset-dir", f"{tmp}/datasets")
        wal = pathlib.Path(tmp) / "store" / "jobs.wal"
        proc, url = boot_server(*dirs, env=env)
        try:
            client = ServiceClient(url, timeout=120.0)
            info = client.upload_rows(
                relation.schema.names, list(relation.iter_rows()), name="slow-kill"
            )
            job_id = client.submit(info["fingerprint"], config=dict(SLOW_CONFIG))

            # Wait until the running job has journaled at least one
            # checkpoint, then pull the plug on the server.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if job_id in wal_checkpointed_jobs(wal):
                    break
                time.sleep(0.05)
            else:
                raise SystemExit(f"no checkpoint for {job_id} appeared in {wal}")
            status = client.status(job_id)
            assert status["status"] in ("queued", "running"), (
                f"job finished before the kill ({status['status']}) — "
                "SLOW_CONFIG is not slow enough for this host"
            )
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30.0)
        except BaseException:
            proc.kill()
            proc.wait(timeout=30.0)
            raise
        print(f"killed serve (pid {proc.pid}) mid-job {job_id}")

        proc, url = boot_server(*dirs, "--recover", env=env)
        try:
            # Poll the job id on the rebooted server; a 404 means the
            # job plane lost the job.
            poller = ServiceClient(url, timeout=30.0, retries=0)
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                try:
                    status = poller.status(job_id)
                except ServiceError as exc:
                    assert exc.status != 404, (
                        f"{job_id} 404ed after the crash — recovery lost the job"
                    )
                    time.sleep(0.3)
                    continue
                if status["status"] in ("done", "failed", "cancelled", "lost"):
                    break
                time.sleep(0.2)
            else:
                raise SystemExit(f"{job_id} did not finish within 120s of the reboot")

            assert status["status"] == "done", status
            assert status.get("recovered") is True, "job not rebuilt from the journal"
            assert status.get("resumed") is True, "job restarted cold, not resumed"
            result = ServiceClient.result_from_status(status)
            resumed_levels = status["result"]["stats"]["resumed_levels"]
            assert resumed_levels > 0, "resume did not skip any completed levels"
            assert cover_to_json(result.fds, result.schema) == expected, (
                "resumed cover differs from direct discover()"
            )
            counters = poller.metrics()["counters"]
            assert counters.get("service.jobs.resumed", 0) >= 1, counters
        finally:
            stop_server(proc)
        print(
            f"durability: {job_id} survived SIGKILL, resumed past "
            f"{resumed_levels} completed levels, cover byte-identical"
        )


if __name__ == "__main__":
    sys.exit(main())
