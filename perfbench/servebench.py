"""Service workloads: ``repro serve`` and ``repro cluster --replicas 2``.

The server runs as a subprocess with its default flags plus a fresh
``--store-dir`` (cluster: ``--data-dir``), so the job journal fsyncs on
every submit and the result store persists.  One client drives it
closed-loop, waiting for each reply before its next request, with
writes and reads interleaved in a fixed order.

The client works through *lifecycles*: upload a fresh dataset — the
first 200 rows of one of four ncvoter replicas, row order permuted by
the seed, so its fingerprint is new — ask for a cold ``discover``, then
twice ``append`` ten held-out rows and ``discover`` the new version.
After each new version come two warm ``discover`` and one
``rank?top_k=10``, each on a seeded pick among the versions finished
so far.  With one client no request waits behind another, so a latency
is the service's own; two concurrent clients made every latency depend
on how often their requests happened to overlap.

After the measured window the server is stopped by SIGTERM (graceful
drain, exit code checked), its shared-memory arena segments are swept,
and every answer is checked against the library's cover and ranking of
the same rows.
"""

from __future__ import annotations

import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    ROOT,
    RUNS_DIR,
    SRC,
    Clock,
    cover_lines,
    digest,
    load_reference,
    median,
    seeded_rng,
    warn,
)
from layers import (
    covers_ranking_layers,
    discovery_layers,
    median_by_key,
    print_layers,
    report_layers,
)

SERVE_BASES = 4
SERVE_ROWS = 200
APPEND_BATCH = 10
APPENDS = 2
TOP_K = 10
BOOTS = 3
REPLICAS = 2
#: Warm requests after each new version: two discovers, then a top-k rank.
READS = ("warm", "warm", "rank")
BOOT_TIMEOUT = 90.0
STOP_TIMEOUT = 60.0
REQUEST_TIMEOUT = 120.0


@dataclass
class Base:
    names: List[str]
    rows: List[List[object]]


def make_bases() -> List[Base]:
    """Four ncvoter replicas; rows past SERVE_ROWS are the append batches."""
    from repro.datasets.benchmarks import load_benchmark

    n_rows = SERVE_ROWS + APPEND_BATCH * APPENDS
    bases = []
    for j in range(SERVE_BASES):
        rel = load_benchmark("ncvoter", n_rows=n_rows, seed=100 + j)
        bases.append(Base(list(rel.schema.names), [list(r) for r in rel.iter_rows()]))
    return bases


def encode_bases(bases: List[Base]) -> None:
    from repro.relational.relation import Relation

    for base in bases:
        Relation.from_rows(base.rows, base.names)


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------


class Server:
    """One ``repro serve`` or ``repro cluster`` subprocess."""

    def __init__(self, cluster: bool, run_dir: Path, tag: str):
        self.cluster = cluster
        self.run_dir = run_dir
        self.data_dir = run_dir / "data"
        self.owner = f"pb{os.getpid()}{tag}"
        self.proc: Optional[subprocess.Popen] = None
        self.url: Optional[str] = None
        self.tail: List[str] = []
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader: Optional[threading.Thread] = None

    def start(self) -> None:
        self.data_dir.mkdir(parents=True)
        tmp = self.run_dir / "tmp"
        tmp.mkdir()
        if self.cluster:
            args = ["cluster", "--replicas", str(REPLICAS), "--router-port", "0",
                    "--data-dir", str(self.data_dir)]
        else:
            args = ["serve", "--port", "0", "--store-dir", str(self.data_dir)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["TMPDIR"] = str(tmp)
        env["REPRO_FD_ARENA_OWNER"] = self.owner
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro"] + args,
            cwd=str(ROOT), env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + BOOT_TIMEOUT
        while self.url is None:
            try:
                line = self._lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                raise RuntimeError(f"server did not announce a URL: {self.tail[-5:]}")
            if "listening on " in line:
                self.url = line.split("listening on ", 1)[1].split()[0]
        while True:
            try:
                with urllib.request.urlopen(self.url + "/health", timeout=5) as resp:
                    if json.loads(resp.read()).get("status") == "ok":
                        return
            except (urllib.error.URLError, OSError, ValueError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never reported healthy")
            time.sleep(0.05)

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.tail = (self.tail + [line.rstrip()])[-20:]
            if self.url is None:
                self._lines.put(line)
        self._lines.put(None)

    def _replicas(self) -> List[dict]:
        if not self.cluster:
            return []
        return json.loads((self.data_dir / "replicas.json").read_text())["replicas"]

    def pids(self) -> List[int]:
        return [self.proc.pid] + [row["pid"] for row in self._replicas() if row.get("pid")]

    def restarts(self) -> int:
        return sum(int(row.get("restarts", 0)) for row in self._replicas())

    def wal_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.data_dir.rglob("jobs.wal"))

    def stop(self) -> bool:
        """SIGTERM drain; True when the server exited 0.  Sweeps the arena."""
        from repro import memplane

        clean = False
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                clean = self.proc.wait(timeout=STOP_TIMEOUT) == 0
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        if self._reader is not None:
            self._reader.join(timeout=10)
        if self.proc is not None and self.proc.stdout is not None:
            self.proc.stdout.close()
        owners = [self.owner]
        if self.cluster and self.proc is not None:
            # The replica manager stamps its replicas' segments itself.
            owners += [f"r{self.proc.pid}s{shard}" for shard in range(REPLICAS)]
        for owner in owners:
            memplane.sweep_orphans(owner)
        if not clean:
            warn(f"server did not drain cleanly: {self.tail[-5:]}")
        return clean


def peak_rss_mb(pids: List[int]) -> float:
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
    return total / 1024.0


# ---------------------------------------------------------------------------
# Traffic
# ---------------------------------------------------------------------------


@dataclass
class Op:
    kind: str                        # upload | cold | warm | rank | append
    base: int
    stage: int                       # append batches applied to the version
    version: Tuple[int, int]         # (lifecycle, stage)
    seconds: float = 0.0             # wall time
    scaled: float = 0.0              # scaled to the reference host speed
    status: Optional[dict] = None
    error: Optional[str] = None


def _timed(op: Op, ops: List[Op], clock: Clock, call) -> Optional[dict]:
    """Run one request, recording its latency and outcome on ``op``."""
    from repro.service.client import ServiceError

    def attempt():
        try:
            return call(), None
        except (ServiceError, KeyError, OSError) as exc:
            return None, f"{type(exc).__name__}: {exc}"

    (op.status, op.error), op.seconds, op.scaled = clock.measure(attempt)
    ops.append(op)
    return op.status


def client_loop(seed: int, url: str, bases: List[Base], deadline: float,
                ops: List[Op], clock: Clock) -> None:
    """Lifecycles of writes, each version followed by warm reads.

    A lifecycle uploads a fresh dataset and discovers it cold; then, twice,
    appends a batch and discovers the new version.  After each of these
    three versions come READS_PER_VERSION warm requests, each on a seeded
    pick among every version finished so far.
    """
    from repro.service.client import ServiceClient

    client = ServiceClient(url, timeout=REQUEST_TIMEOUT)
    rng = seeded_rng(seed, "reader")
    ready: List[Tuple[str, int, int, Tuple[int, int]]] = []
    life = 0
    while time.monotonic() < deadline:
        j = life % SERVE_BASES
        base = bases[j]
        rows = base.rows[:SERVE_ROWS]
        seeded_rng(seed, "upload", life).shuffle(rows)
        info = _timed(Op("upload", j, 0, (life, 0)), ops, clock,
                      lambda: client.upload_rows(base.names, rows))
        if info is None:
            return
        fingerprint = info["fingerprint"]
        for stage in range(APPENDS + 1):
            if time.monotonic() >= deadline:
                return
            op = Op("append" if stage else "cold", j, stage, (life, stage))
            if stage:
                start = SERVE_ROWS + APPEND_BATCH * (stage - 1)
                batch = base.rows[start:start + APPEND_BATCH]

                def call(fp=fingerprint, batch=batch):
                    return client.discover(client.append(fp, batch)["fingerprint"])
            else:
                def call(fp=fingerprint):
                    return client.discover(fp)
            status = _timed(op, ops, clock, call)
            if status is None:
                return
            fingerprint = status["dataset"]
            ready.append((fingerprint, j, stage, (life, stage)))
            for kind in READS:
                read_fp, read_j, read_stage, version = ready[rng.randrange(len(ready))]
                if kind == "warm":
                    def read(fp=read_fp):
                        return client.discover(fp)
                else:
                    def read(fp=read_fp):
                        return client.rank(fp, top_k=TOP_K)
                _timed(Op(kind, read_j, read_stage, version), ops, clock, read)
        life += 1


# ---------------------------------------------------------------------------
# Checking answers against the library
# ---------------------------------------------------------------------------


def version_relation(base: Base, stage: int):
    """The library's relation of a dataset version: base rows + appends."""
    from repro.relational.relation import Relation

    return Relation.from_rows(base.rows[:SERVE_ROWS + APPEND_BATCH * stage], base.names)


def reference_outputs(bases: List[Base]) -> Dict[str, Dict[str, object]]:
    """Digests of the library's cover and top-k ranking of every version.

    Row order never changes either, so these hold for every seed.  The
    ranking lines use ``FD.format`` because that is what the service sends.
    """
    from repro.algorithms.registry import make_algorithm
    from repro.covers.canonical import canonical_cover
    from repro.ranking.ranker import rank_cover

    out = {}
    for j, base in enumerate(bases):
        for stage in range(APPENDS + 1):
            relation = version_relation(base, stage)
            fds = make_algorithm("dhyfd").discover(relation).fds
            ranked = rank_cover(relation, canonical_cover(fds)).ranked[:TOP_K]
            out[f"{j}/{stage}"] = {
                "left_reduced": digest(cover_lines(fds, base.names)),
                "top10": digest([
                    f"{r.fd.format(relation.schema)} : {r.redundancy}/"
                    f"{r.redundancy_excluding_null}" for r in ranked
                ]),
            }
    return out


def check(op: Op, bases: List[Base], reference: Dict, first_answer: Dict) -> bool:
    from repro.core.result import DiscoveryResult

    if op.error is not None or op.status is None:
        return False
    if op.kind == "upload":
        return op.status.get("n_rows") == SERVE_ROWS
    if op.status.get("status") != "done":
        return False
    ref = reference[f"{op.base}/{op.stage}"]
    if op.kind == "rank":
        return digest([
            f"{e['fd']} : {e['redundancy']}/{e['redundancy_excluding_null']}"
            for e in op.status.get("ranking") or []
        ]) == ref["top10"]
    fds = DiscoveryResult.from_payload(op.status["result"]).fds
    lines = cover_lines(fds, bases[op.base].names)
    if digest(lines) != ref["left_reduced"]:
        return False
    # Warm answers must repeat the version's first (cold or post-append) answer.
    return first_answer.setdefault(op.version, lines) == lines


def library_layers(bases: List[Base]) -> Tuple[Dict[str, float], float]:
    """covers/ranking figures and tracing overhead from library profiles.

    Each base relation is profiled untraced, then traced.
    """
    from repro.profiling.profiler import profile
    from repro.telemetry import Tracer, trace_summary

    rows, plain_s, traced_s = [], 0.0, 0.0
    for base in bases:
        relation = version_relation(base, 0)
        t0 = time.perf_counter()
        profile(relation, top_k=TOP_K)
        plain_s += time.perf_counter() - t0
        tracer = Tracer()
        t0 = time.perf_counter()
        result = profile(relation, top_k=TOP_K, trace=tracer)
        traced_s += time.perf_counter() - t0
        row = covers_ranking_layers(trace_summary(tracer))
        row["covers.left_reduced_fds"] = len(result.left_reduced)
        row["covers.canonical_fds"] = len(result.canonical)
        rows.append(row)
    return median_by_key(rows), traced_s / plain_s - 1.0


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


def _counter(metrics: dict, name: str, cluster: bool) -> float:
    key = f"cluster.{name}" if cluster else name
    return float(metrics.get("counters", {}).get(key, 0.0))


def _gauge(metrics: dict, name: str, cluster: bool) -> float:
    key = f"cluster.{name}" if cluster else name
    return float(metrics.get("gauges", {}).get(key, 0.0))


def run(workload: str, seed: int, seconds: float, trace: bool, report) -> None:
    from repro.service.client import ServiceClient

    cluster = workload == "serve-cluster"
    run_root = RUNS_DIR / f"{workload}-s{seed}-t{int(trace)}-p{os.getpid()}"
    shutil.rmtree(run_root, ignore_errors=True)
    run_root.mkdir(parents=True)

    setups: List[Tuple[float, float]] = []   # (wall s, scaled s)
    encode_s: List[float] = []
    server: Optional[Server] = None
    clock = Clock()
    try:
        # Set-up, several times: generate, encode, boot until healthy.
        # Every boot but the last is drained straight away.
        for boot in range(BOOTS):
            server = Server(cluster, run_root / f"boot{boot}", f"b{boot}")

            def set_up(server: Server = server) -> List[Base]:
                bases = make_bases()
                t1 = time.perf_counter()
                encode_bases(bases)
                encode_s.append(time.perf_counter() - t1)
                server.start()
                return bases

            bases, wall, scaled = clock.measure(set_up)
            setups.append((wall, scaled))
            if boot < BOOTS - 1:
                report.op(server.stop(), f"boot{boot} drain")
                server = None

        ops: List[Op] = []
        client_loop(seed, server.url, bases, time.monotonic() + seconds, ops, clock)

        rss_mb = peak_rss_mb(server.pids())
        metrics: dict = {}
        health: dict = {}
        wal = restarts = 0
        if trace:
            client = ServiceClient(server.url, timeout=REQUEST_TIMEOUT)
            metrics, health = client.metrics(), client.health()
            wal, restarts = server.wal_bytes(), server.restarts()
        drained = server.stop()
        server = None
        report.op(drained, "final drain")
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(run_root, ignore_errors=True)

    reference = load_reference()["serve"]
    first_answer: Dict[tuple, List[str]] = {}
    ok_ops: List[Op] = []
    for op in ops:
        ok = check(op, bases, reference, first_answer)
        report.op(ok, f"{op.kind} base{op.base} stage{op.stage} {op.error or ''}")
        if ok:
            ok_ops.append(op)

    def latencies(kind: str, scaled: bool = True) -> List[float]:
        return [(op.scaled if scaled else op.seconds) * 1000.0
                for op in ok_ops if op.kind == kind]

    if not trace:
        report.value("setup_s", median([s[1] for s in setups]), "s", len(setups))
        report.line("raw.setup_s", median([s[0] for s in setups]), "s", len(setups),
                    note="(wall time, unscaled)")
        for prefix, kinds in (("upload", ("upload",)), ("cold", ("cold",)),
                              ("warm", ("warm", "rank")), ("append", ("append",))):
            report.timings(prefix, {kind: latencies(kind) for kind in kinds},
                           {kind: latencies(kind, False) for kind in kinds})
        busy_s = sum(op.scaled for op in ok_ops)
        report.value("throughput_ops", len(ok_ops) / busy_s, "1/s", len(ok_ops),
                     note="(requests per second of request time)")
        where = "router + replicas" if cluster else "server"
        report.value("peak_rss_mb", rss_mb, "MB", 1, note=f"(VmHWM summed over {where})")
        report.line("host.cal_ms", median(clock.calibrations) * 1000.0, "ms",
                    len(clock.calibrations),
                    note="(calibration loop; scale = ref / this)")
        for alias, source in (("cold_job_p50_ms", "cold_p50_ms"),
                              ("warm_req_p50_ms", "warm_p50_ms"),
                              ("throughput_rps", "throughput_ops"),
                              ("server_rss_mb", "peak_rss_mb")):
            report.alias(alias, source)
        return

    cold = [op for op in ok_ops if op.kind == "cold"]
    layers = median_by_key(
        discovery_layers(op.status["trace"], [op.status["result"]["stats"]])
        for op in cold
    )
    covers_ranking, overhead = library_layers(bases)
    layers.update(covers_ranking)
    layers["relational.encode_s"] = median(encode_s)
    layers["telemetry.overhead_frac"] = overhead
    report_layers(report, layers, len(cold), "(per cold job / library profile)")
    path = RUNS_DIR / f"{workload}-s{seed}.jobs.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for op in cold:
            handle.write(json.dumps({"job_id": op.status.get("job_id"),
                                     "client_s": op.seconds,
                                     "trace": op.status["trace"]}) + "\n")
    report.lines.append(f"# cold-job trace summaries: {path.relative_to(ROOT)}")

    def job_ms(op: Op, start_key: str, end_key: str) -> float:
        return (op.status[end_key] - op.status[start_key]) * 1000.0

    warm = [op for op in ok_ops if op.kind == "warm"]
    jobs = {k: v for k, v in (health.get("jobs") or {}).items() if k != "workers"}
    submitted = _counter(metrics, "service.jobs.submitted", cluster)
    hits = _counter(metrics, "service.jobs.cache_hits", cluster)
    runs = _counter(metrics, "service.discovery.runs", cluster)
    extra = {
        "service.queue_wait_ms": median(
            [job_ms(op, "submitted_at", "started_at") for op in cold]),
        "service.run_ms": median([job_ms(op, "started_at", "finished_at") for op in cold]),
        "service.http_ms": median(
            [op.seconds * 1000.0 - job_ms(op, "submitted_at", "finished_at") for op in warm]),
        "service.result_kb": median([len(json.dumps(op.status)) / 1024.0 for op in warm]),
        "service.store_hit_frac": hits / (hits + runs) if hits + runs else 0.0,
        "service.topk_derived": _counter(metrics, "service.jobs.topk_derived", cluster),
        "service.journal.wal_bytes_per_job": wal / submitted if submitted else 0.0,
        "service.jobs_retained": float(sum(
            v for v in jobs.values() if isinstance(v, (int, float)))),
        "incremental.updates": _counter(metrics, "service.store.incremental_updates", cluster),
        "memplane.arena_bytes": _gauge(metrics, "memplane.arena_bytes", cluster),
        "memplane.prefix_shared": _gauge(metrics, "memplane.prefix_shared", cluster),
        "memplane.attach_hits": _gauge(metrics, "memplane.attach_hits", cluster),
        "cluster.restarts": float(restarts),
        "cluster.replica_skew": 1.0,
    }
    if cluster:
        per_replica = [
            float(metrics.get("counters", {}).get(
                f"replica-{shard}.service.jobs.submitted", 0.0))
            for shard in range(REPLICAS)
        ]
        extra["cluster.replica_skew"] = (
            max(per_replica) / min(per_replica) if min(per_replica) else float("inf"))
    print_layers(report, extra, len(ok_ops), "(service side)")
