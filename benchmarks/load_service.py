#!/usr/bin/env python
"""Open/closed-loop load generator for repro.service.

The missing perf trajectory starts here: this harness drives
configurable concurrent query streams against one ``repro-fd serve``
process and writes ``BENCH_load.json`` — throughput, p50/p95/p99
latency, error rates and the measured saturation point — so every
later scaling change has a baseline number to beat.

Modes:

* **closed loop** (default): C worker streams, each issuing the next
  request the moment the previous one returns — measures capacity.
  With a ``--concurrency`` sweep (``1,2,4,8``) the harness walks up
  the curve and reports the saturation point (the first stage whose
  throughput gain over the previous stage falls under 10%).
* **open loop**: requests arrive on a fixed schedule (``--rate`` per
  second) regardless of completions — measures latency under a target
  load, queueing included.

The workload uploads ``--datasets`` distinct relations, warms each
one (so steady-state measures request-serving capacity, not repeated
discovery), then issues ``discover`` requests round-robin with a
sprinkle of ``metrics`` reads.

``--cold`` loads the discovery path instead.  Each concurrency stage
uploads its own fresh copies of the datasets (rows rotated by the
stage index, so every fingerprint is new and nothing is served from
the store) and C streams drain a shared queue that holds each
dataset once: exactly one ``discover`` per dataset.  A cold stage
reports its makespan (first submission to last completion) and its
p50/p95 job latency; ``--duration`` does not apply.

Examples::

    # spawn a serve, sweep concurrency, write BENCH_load.json
    PYTHONPATH=src python benchmarks/load_service.py \
        --concurrency 1,2,4 --duration 5

    # closed loop against an already-running server
    PYTHONPATH=src python benchmarks/load_service.py \
        --server http://127.0.0.1:8765 --concurrency 8 --duration 10

    # open loop at 50 req/s
    PYTHONPATH=src python benchmarks/load_service.py \
        --spawn single --mode open --rate 50 --duration 10

    # cold discovery: 8 letter datasets per stage, one discover each
    PYTHONPATH=src python benchmarks/load_service.py \
        --spawn single --cold --benchmark letter --rows 2000 --datasets 8 \
        --concurrency 1,2,4
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone
from typing import Dict, List, Optional, Tuple

from repro.datasets import load_benchmark
from repro.service import ServiceClient, ServiceError

#: Fraction of requests that read /metrics instead of running a job —
#: keeps the observability path honest under load.
METRICS_MIX = 0.1


# ----------------------------------------------------------------------
# Target lifecycle
# ----------------------------------------------------------------------


def _spawn(command: List[str]) -> Tuple[subprocess.Popen, str]:
    """Start a server subprocess and parse its announced URL."""
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ},
    )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line and proc.poll() is not None:
            raise SystemExit(f"target died on startup (rc={proc.returncode})")
        if "listening on " in line:
            url = line.split("listening on ", 1)[1].split()[0]
            threading.Thread(
                target=lambda: [None for _ in proc.stdout],
                name="load-target-stdout",
                daemon=True,
            ).start()
            return proc, url
    proc.kill()
    raise SystemExit("target did not announce its URL within 60s")


def spawn_target(args: argparse.Namespace) -> Tuple[Optional[subprocess.Popen], str, str]:
    """Resolve --server / --spawn into (process-or-None, url, kind)."""
    if args.server:
        return None, args.server, "external"
    command = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--port",
        "0",
        "--max-workers",
        str(args.max_workers),
    ]
    proc, url = _spawn(command)
    return proc, url, "single"


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------


def upload_datasets(
    client: ServiceClient, args: argparse.Namespace, rotate: int = 0
) -> List[str]:
    """Upload ``--datasets`` distinct relations; returns fingerprints.

    Each dataset is the benchmark replica at a different row count, so
    contents (and therefore fingerprints) differ.
    ``rotate`` moves that many leading rows to the end: the same rows
    under a new fingerprint, which the store has never seen.
    """
    fingerprints = []
    for index in range(args.datasets):
        relation = load_benchmark(args.benchmark, n_rows=args.rows + index)
        rows = list(relation.iter_rows())
        info = client.upload_rows(
            relation.schema.names,
            rows[rotate:] + rows[:rotate],
            name=f"{args.benchmark}-{index}",
        )
        fingerprints.append(info["fingerprint"])
    return fingerprints


def warm(client: ServiceClient, fingerprints: List[str], config: Dict[str, object]) -> None:
    """One discover per dataset so steady state serves from the store."""
    for fingerprint in fingerprints:
        status = client.discover(fingerprint, config=dict(config))
        if status["status"] != "done":
            raise SystemExit(f"warmup job failed: {status}")


class StreamStats:
    """Latencies and errors collected by one or more query streams."""

    def __init__(self):
        self.lock = threading.Lock()
        self.latencies: List[float] = []
        self.errors = 0
        self.error_kinds: Dict[str, int] = {}

    def ok(self, seconds: float) -> None:
        with self.lock:
            self.latencies.append(seconds)

    def fail(self, kind: str) -> None:
        with self.lock:
            self.errors += 1
            self.error_kinds[kind] = self.error_kinds.get(kind, 0) + 1


def _percentile(ordered: List[float], q: float) -> float:
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def _one_request(
    client: ServiceClient,
    fingerprints: List[str],
    config: Dict[str, object],
    counter: int,
    stats: StreamStats,
) -> None:
    if counter % int(1 / METRICS_MIX) == 0:
        _timed_request(client, None, config, stats)
    else:
        _timed_request(client, fingerprints[counter % len(fingerprints)], config, stats)


def _timed_request(
    client: ServiceClient,
    fingerprint: Optional[str],
    config: Dict[str, object],
    stats: StreamStats,
) -> None:
    """One timed ``discover`` of ``fingerprint``; a ``/metrics`` read if None."""
    start = time.perf_counter()
    try:
        if fingerprint is None:
            client.metrics()
        else:
            status = client.discover(fingerprint, config=dict(config))
            if status["status"] != "done":
                stats.fail(f"job-{status['status']}")
                return
        stats.ok(time.perf_counter() - start)
    except ServiceError as exc:
        stats.fail(f"http-{exc.status}" if exc.status else "transport")
    except Exception as exc:  # noqa: BLE001 — harness keeps going
        stats.fail(type(exc).__name__)


def run_closed_stage(
    url: str,
    fingerprints: List[str],
    config: Dict[str, object],
    concurrency: int,
    duration: float,
    timeout: float,
) -> Dict[str, object]:
    """C streams, each issuing back-to-back requests for ``duration``."""
    stats = StreamStats()
    stop = threading.Event()

    def stream(stream_index: int) -> None:
        client = ServiceClient(url, timeout=timeout, retries=2, backoff=0.1)
        counter = stream_index + 1
        while not stop.is_set():
            _one_request(client, fingerprints, config, counter, stats)
            counter += concurrency

    threads = [
        threading.Thread(target=stream, args=(i,), name=f"load-stream-{i}", daemon=True)
        for i in range(concurrency)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(duration)
    stop.set()
    for thread in threads:
        thread.join(timeout=timeout + 5.0)
    elapsed = time.perf_counter() - start
    return _stage_payload({"concurrency": concurrency}, stats, elapsed)


def run_cold_stage(
    url: str,
    fingerprints: List[str],
    config: Dict[str, object],
    concurrency: int,
    timeout: float,
) -> Dict[str, object]:
    """C streams drain one shared queue: one ``discover`` per dataset."""
    stats = StreamStats()
    pending: "queue.Queue[str]" = queue.Queue()
    for fingerprint in fingerprints:
        pending.put(fingerprint)

    def stream() -> None:
        client = ServiceClient(url, timeout=timeout, retries=2, backoff=0.1)
        while True:
            try:
                fingerprint = pending.get_nowait()
            except queue.Empty:
                return
            _timed_request(client, fingerprint, config, stats)

    threads = [
        threading.Thread(target=stream, name=f"cold-stream-{i}", daemon=True)
        for i in range(concurrency)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    makespan = time.perf_counter() - start
    payload = _stage_payload({"concurrency": concurrency}, stats, makespan)
    payload["makespan_s"] = round(makespan, 3)
    return payload


def run_open_stage(
    url: str,
    fingerprints: List[str],
    config: Dict[str, object],
    rate: float,
    duration: float,
    timeout: float,
) -> Dict[str, object]:
    """Fixed arrival schedule: ``rate`` requests/s for ``duration``."""
    stats = StreamStats()
    client = ServiceClient(url, timeout=timeout, retries=2, backoff=0.1)
    threads: List[threading.Thread] = []
    interval = 1.0 / rate
    start = time.perf_counter()
    counter = 0
    while True:
        now = time.perf_counter() - start
        if now >= duration:
            break
        target = counter * interval
        if target > now:
            time.sleep(target - now)
        counter += 1
        thread = threading.Thread(
            target=_one_request,
            args=(client, fingerprints, config, counter, stats),
            daemon=True,
        )
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join(timeout=timeout + 5.0)
    elapsed = time.perf_counter() - start
    payload = _stage_payload({"rate_target_rps": rate}, stats, elapsed)
    payload["offered_rps"] = round(counter / elapsed, 2)
    return payload


def _stage_payload(
    head: Dict[str, object], stats: StreamStats, elapsed: float
) -> Dict[str, object]:
    ordered = sorted(stats.latencies)
    requests = len(ordered) + stats.errors
    payload = dict(head)
    payload.update(
        {
            "duration_s": round(elapsed, 3),
            "requests": requests,
            "errors": stats.errors,
            "error_kinds": stats.error_kinds,
            "throughput_rps": round(len(ordered) / elapsed, 2) if elapsed else 0.0,
            "latency_ms": {
                "p50": round(_percentile(ordered, 0.50) * 1000, 2),
                "p95": round(_percentile(ordered, 0.95) * 1000, 2),
                "p99": round(_percentile(ordered, 0.99) * 1000, 2),
                "mean": round(
                    (sum(ordered) / len(ordered) * 1000) if ordered else 0.0, 2
                ),
                "max": round((ordered[-1] * 1000) if ordered else 0.0, 2),
            },
        }
    )
    return payload


def find_saturation(stages: List[Dict[str, object]]) -> Optional[Dict[str, object]]:
    """First sweep stage whose throughput gain drops under 10%."""
    for previous, current in zip(stages, stages[1:]):
        prev_rps = previous["throughput_rps"] or 0.0001
        gain = (current["throughput_rps"] - prev_rps) / prev_rps
        if gain < 0.10:
            return {
                "concurrency": current["concurrency"],
                "throughput_rps": current["throughput_rps"],
                "gain_over_previous": round(gain, 4),
            }
    return None


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    target = parser.add_mutually_exclusive_group()
    target.add_argument("--server", default=None, help="base URL of a running target")
    target.add_argument(
        "--spawn",
        default="single",
        choices=["single"],
        help="boot a `repro serve` subprocess as the target (the default)",
    )
    parser.add_argument(
        "--max-workers", type=int, default=2, help="scheduler workers of the server"
    )
    parser.add_argument("--mode", default="closed", choices=["closed", "open"])
    parser.add_argument(
        "--concurrency",
        default="1,2,4,8",
        help="closed loop: comma-separated stream counts to sweep",
    )
    parser.add_argument(
        "--rate", type=float, default=20.0, help="open loop: arrivals per second"
    )
    parser.add_argument(
        "--duration", type=float, default=10.0, help="seconds per stage"
    )
    parser.add_argument("--benchmark", default="iris", help="benchmark replica to serve")
    parser.add_argument("--rows", type=int, default=60, help="base rows per dataset")
    parser.add_argument(
        "--datasets", type=int, default=4, help="distinct datasets to serve"
    )
    parser.add_argument(
        "--algorithm", default="dhyfd", help="discovery algorithm under load"
    )
    parser.add_argument(
        "--cold",
        action="store_true",
        help="load discovery: per stage, one discover per freshly uploaded "
        "dataset, drawn by the streams from a shared queue",
    )
    parser.add_argument(
        "--timeout", type=float, default=120.0, help="per-request client timeout"
    )
    parser.add_argument(
        "--out",
        default="BENCH_load.json",
        help="write the JSON report here (default: BENCH_load.json)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cold and args.mode != "closed":
        parser.error("--cold runs closed-loop stages only")
    proc, url, kind = spawn_target(args)
    config = {"algorithm": args.algorithm}
    try:
        client = ServiceClient(url, timeout=args.timeout, retries=2, backoff=0.2)
        print(f"target: {kind} at {url}")
        fingerprints = upload_datasets(client, args)
        print(f"uploaded {len(fingerprints)} datasets ({args.benchmark}, base rows {args.rows})")
        if not args.cold:
            warm(client, fingerprints, config)
            print("warmed: every dataset has a stored cover")

        stages: List[Dict[str, object]] = []
        if args.mode == "closed":
            levels = [int(level) for level in args.concurrency.split(",") if level]
            for index, level in enumerate(levels):
                if args.cold:
                    if index:  # stage 0 runs on the datasets uploaded above
                        fingerprints = upload_datasets(client, args, rotate=index)
                    stage = run_cold_stage(url, fingerprints, config, level, args.timeout)
                    head = f"cold c={level}: makespan {stage['makespan_s']}s,"
                else:
                    stage = run_closed_stage(
                        url, fingerprints, config, level, args.duration, args.timeout
                    )
                    head = f"closed c={level}: {stage['throughput_rps']} req/s,"
                stages.append(stage)
                print(
                    f"{head} "
                    f"p50={stage['latency_ms']['p50']}ms "
                    f"p95={stage['latency_ms']['p95']}ms "
                    f"p99={stage['latency_ms']['p99']}ms "
                    f"errors={stage['errors']}"
                )
            saturation = None if args.cold else find_saturation(stages)
        else:
            stage = run_open_stage(
                url, fingerprints, config, args.rate, args.duration, args.timeout
            )
            stages.append(stage)
            saturation = None
            print(
                f"open rate={args.rate}/s (offered {stage['offered_rps']}/s): "
                f"{stage['throughput_rps']} req/s done, "
                f"p50={stage['latency_ms']['p50']}ms "
                f"p99={stage['latency_ms']['p99']}ms errors={stage['errors']}"
            )

        report = {
            "benchmark": "load_service",
            "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "target": {
                "kind": kind,
                "url": url,
                "max_workers": args.max_workers,
            },
            "workload": {
                "mode": args.mode,
                "benchmark": args.benchmark,
                "base_rows": args.rows,
                "datasets": args.datasets,
                "algorithm": args.algorithm,
                "warm": not args.cold,
                "cold_discovers_per_stage": args.datasets if args.cold else None,
                "metrics_mix": METRICS_MIX,
                "duration_per_stage_s": args.duration,
            },
            "stages": stages,
            "saturation": saturation,
            "environment": {
                "python": platform.python_version(),
                "platform": platform.platform(),
                "cpus": os.cpu_count(),
            },
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
        if saturation is not None:
            print(
                f"saturation: c={saturation['concurrency']} at "
                f"{saturation['throughput_rps']} req/s"
            )
        total_errors = sum(stage["errors"] for stage in stages)
        total_requests = sum(stage["requests"] for stage in stages)
        if total_requests == 0 or total_errors > total_requests * 0.05:
            print(f"FAILED: {total_errors}/{total_requests} requests errored")
            return 1
        return 0
    finally:
        if proc is not None:
            proc.terminate()
            try:
                proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                proc.kill()


if __name__ == "__main__":
    sys.exit(main())
