"""Replica manager: N ``repro serve`` worker processes, kept alive.

Each replica is a full single-process :mod:`repro.service` server
owning one shard of the dataset space (the router decides which — see
:mod:`repro.cluster.topology`).  The manager:

* **spawns** ``python -m repro serve --port 0`` per shard, parsing the
  announced URL from stdout, with a per-replica ``--store-dir`` so a
  restarted replica reloads its shard's cached covers;
* **health-checks** every replica (process liveness plus an HTTP
  ``/health`` probe) and **restarts** crashed or wedged ones with a
  small backoff, on a fresh port — the router re-reads
  :meth:`endpoints` every request, so a restart only 503s the shard
  for the restart window;
* **persists** a ``replicas.json`` table (shard, url, pid, state,
  restart count) next to the routing table, so operators and the load
  harness can see the topology;
* **stops** replicas by SIGTERM first (the server's graceful drain —
  in-flight jobs finish, the result store syncs) and SIGKILL only
  after ``drain_timeout`` expires.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..memplane import arena as _arena
from ..service.keyed import atomic_write_text

#: Replica lifecycle states (mirrored into ``replicas.json``).
STARTING = "starting"
UP = "up"
DOWN = "down"
STOPPED = "stopped"


class ReplicaStartupError(RuntimeError):
    """A replica process failed to boot and announce its URL."""


class ReplicaHandle:
    """One managed replica process and everything we know about it."""

    def __init__(self, shard: int):
        self.shard = shard
        self.url: Optional[str] = None
        self.proc: Optional[subprocess.Popen] = None
        self.state = STARTING
        self.restarts = 0
        self.started_at: Optional[float] = None
        #: Consecutive failed /health probes (reset on success).
        self.probe_failures = 0
        #: Last few stdout/stderr lines, for crash diagnostics.
        self.tail: List[str] = []

    @property
    def name(self) -> str:
        return f"replica-{self.shard}"

    @property
    def arena_owner(self) -> str:
        """Segment-owner token this replica's arena stamps on /dev/shm.

        Keyed by the manager pid plus the shard, so the manager can
        sweep a SIGKILLed replica's leftovers without ever touching
        segments of other clusters (or other shards) on the host.
        """
        return f"r{os.getpid()}s{self.shard}"

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    def describe(self) -> Dict[str, object]:
        """JSON-friendly row for the persisted ``replicas.json`` table."""
        return {
            "replica": self.name,
            "shard": self.shard,
            "url": self.url,
            "pid": self.pid,
            "state": self.state,
            "restarts": self.restarts,
            "started_at": self.started_at,
        }


class ReplicaManager:
    """Spawn, watch, restart and drain a fleet of service replicas."""

    def __init__(
        self,
        replicas: int = 2,
        data_dir: Optional[Union[str, Path]] = None,
        host: str = "127.0.0.1",
        max_workers: int = 2,
        drain_timeout: float = 10.0,
        probe_interval: float = 1.0,
        probe_failures: int = 3,
        probe_timeout: float = 2.0,
        startup_timeout: float = 30.0,
        verbose: bool = False,
    ):
        """Args:
            replicas: shard count — one worker process per shard.
            data_dir: holds per-replica store dirs, ``replicas.json``
                and the router's ``routes.json`` (None = no persistence:
                in-memory stores, table not written).
            host: interface each replica binds (always with port 0).
            max_workers: scheduler workers per replica.
            drain_timeout: SIGTERM→SIGKILL grace when stopping/restarting.
            probe_interval: seconds between health sweeps.
            probe_failures: consecutive failed /health probes (with the
                process still alive) before the replica is declared
                wedged and restarted.
            probe_timeout: socket timeout of one /health probe.
            startup_timeout: max wait for a replica to announce its URL.
            verbose: pass ``--verbose`` through to the replicas.
        """
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.n_replicas = replicas
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.host = host
        self.max_workers = max_workers
        self.drain_timeout = drain_timeout
        self.probe_interval = probe_interval
        self.probe_failures = probe_failures
        self.probe_timeout = probe_timeout
        self.startup_timeout = startup_timeout
        self.verbose = verbose
        self.handles = [ReplicaHandle(shard) for shard in range(replicas)]
        self._lock = threading.RLock()
        self._stopping = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ReplicaManager":
        """Boot every replica and start the health monitor."""
        for handle in self.handles:
            self._spawn(handle)
        self._write_table()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-cluster-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def stop(self) -> None:
        """Gracefully drain and stop every replica (idempotent)."""
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=self.probe_interval + 1.0)
        with self._lock:
            procs = [(h, h.proc) for h in self.handles if h.proc is not None]
        for handle, proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + self.drain_timeout + 5.0
        for handle, proc in procs:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
            handle.state = STOPPED
            # A drained replica unlinked its own segments; one that had
            # to be killed did not — sweep either way (idempotent).
            _arena.sweep_orphans(handle.arena_owner)
        self._write_table()

    def __enter__(self) -> "ReplicaManager":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def endpoints(self) -> List[Optional[str]]:
        """Current base URL per shard (None while a shard is down).

        The router calls this on every routing decision, so replica
        restarts (new port) propagate without coordination.
        """
        with self._lock:
            return [
                handle.url if handle.state == UP else None
                for handle in self.handles
            ]

    def describe(self) -> List[Dict[str, object]]:
        """The replicas table as JSON-friendly rows."""
        with self._lock:
            return [handle.describe() for handle in self.handles]

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------

    def _replica_args(self, handle: ReplicaHandle) -> List[str]:
        args = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            self.host,
            "--port",
            "0",
            "--max-workers",
            str(self.max_workers),
            "--drain-timeout",
            str(self.drain_timeout),
        ]
        if self.data_dir is not None:
            store = self.data_dir / handle.name / "store"
            datasets = self.data_dir / handle.name / "datasets"
            store.mkdir(parents=True, exist_ok=True)
            datasets.mkdir(parents=True, exist_ok=True)
            args += ["--store-dir", str(store), "--dataset-dir", str(datasets)]
            # Replay the job journal on every (re)spawn: jobs that died
            # with a crashed replica are requeued or resumed from their
            # last checkpoint instead of 404ing (docs/durability.md).
            args.append("--recover")
        if self.verbose:
            args.append("--verbose")
        return args

    def _spawn(self, handle: ReplicaHandle) -> None:
        """Start one replica and wait for its URL announcement."""
        handle.state = STARTING
        handle.url = None
        handle.probe_failures = 0
        handle.tail = []
        env = dict(os.environ)
        env[_arena.ENV_ARENA_OWNER] = handle.arena_owner
        proc = subprocess.Popen(
            self._replica_args(handle),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        handle.proc = proc
        url: Optional[str] = None
        deadline = time.monotonic() + self.startup_timeout
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                if proc.poll() is not None:
                    break
                continue
            handle.tail = (handle.tail + [line.rstrip()])[-20:]
            if "listening on " in line:
                url = line.split("listening on ", 1)[1].split()[0]
                break
        if url is None:
            proc.kill()
            tail = "\n".join(handle.tail[-5:])
            raise ReplicaStartupError(
                f"{handle.name} did not announce a URL within "
                f"{self.startup_timeout}s (rc={proc.poll()}):\n{tail}"
            )
        # Keep draining stdout so the child never blocks on a full pipe.
        threading.Thread(
            target=self._drain_stdout,
            args=(handle, proc),
            name=f"repro-cluster-stdout-{handle.shard}",
            daemon=True,
        ).start()
        with self._lock:
            handle.url = url
            handle.state = UP
            handle.started_at = time.time()

    @staticmethod
    def _drain_stdout(handle: ReplicaHandle, proc: subprocess.Popen) -> None:
        for line in proc.stdout:
            handle.tail = (handle.tail + [line.rstrip()])[-20:]

    # ------------------------------------------------------------------
    # Health monitor
    # ------------------------------------------------------------------

    def _probe(self, handle: ReplicaHandle) -> bool:
        """One HTTP /health probe; True when the replica answered."""
        if handle.url is None:
            return False
        try:
            with urllib.request.urlopen(
                handle.url + "/health", timeout=self.probe_timeout
            ) as response:
                return response.status == 200
        except Exception:  # noqa: BLE001 — any failure is "not healthy"
            return False

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(self.probe_interval):
            for handle in self.handles:
                if self._stopping.is_set():
                    return
                proc = handle.proc
                if proc is None or handle.state == STOPPED:
                    continue
                if proc.poll() is not None:
                    # Crashed (or exited): restart on a fresh port.
                    self._restart(handle, reason=f"exited rc={proc.returncode}")
                    continue
                if self._probe(handle):
                    if handle.probe_failures or handle.state != UP:
                        with self._lock:
                            handle.probe_failures = 0
                            handle.state = UP
                        self._write_table()
                    continue
                handle.probe_failures += 1
                if handle.probe_failures >= self.probe_failures:
                    # Alive but wedged: kill it and start over.
                    proc.kill()
                    try:
                        proc.wait(timeout=5.0)
                    except subprocess.TimeoutExpired:
                        pass
                    self._restart(handle, reason="health probes failed")

    def _restart(self, handle: ReplicaHandle, reason: str) -> None:
        with self._lock:
            handle.state = DOWN
            handle.url = None
        self._write_table()
        if self._stopping.is_set():
            return
        handle.restarts += 1
        # Small linear backoff so a crash-looping replica cannot spin.
        time.sleep(min(0.2 * handle.restarts, 2.0))
        # The dead replica never ran its atexit unlink (SIGKILL / hard
        # crash): reap its arena segments before the successor — which
        # reuses the owner token — recreates them.
        _arena.sweep_orphans(handle.arena_owner)
        try:
            self._spawn(handle)
        except ReplicaStartupError:
            with self._lock:
                handle.state = DOWN
        self._write_table()

    # ------------------------------------------------------------------
    # Persisted replicas table
    # ------------------------------------------------------------------

    def _write_table(self) -> None:
        if self.data_dir is None:
            return
        payload = {
            "format": "repro-fd-replicas",
            "version": 1,
            "replicas": self.describe(),
        }
        self.data_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            self.data_dir / "replicas.json",
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )
