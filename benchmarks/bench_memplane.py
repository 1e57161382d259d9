"""Micro-benchmark: repeated discovery jobs over a registered dataset.

The memory plane (docs/memplane.md) gives every job on a host the same
two shared tiers: the dataset arena (one shm copy of the encoded
columns, attached — not copied — per job) and the shared partition
tier (singleton and low-arity stripped partitions, derived once and
reused across jobs).  The workload this pays for is the service's
steady state: many small profiling jobs against a dataset that was
registered once.

The job here is the paper's full per-dataset pipeline — discovery,
canonical cover, redundancy ranking (Table IV) and the §VI-B column
report for every column — over a near-key synthetic relation whose
singleton partitions are expensive to derive and cheap to reuse.

Assertions:

* covers, rankings, redundancy counts and column reports are
  byte-identical between the tier-bypassed baseline and the cold and
  warm paths — at every scale;
* a repeat arena lease attaches to the registered copy (no new
  ingest), while the first lease after ``reset_arena()`` copies in —
  at every scale;
* the >= 2x throughput gate on repeated warm jobs fires only above
  smoke scale, where relations are big enough for wall-clock to mean
  anything (measured cut at the ``full`` scale is >2.5x).

The "off" baseline bypasses the shared partition layer (no cache
joins it; see ``_utils.tier_bypassed``), so each baseline job
re-derives everything as it would with no shared layer.

Writes ``benchmarks/out/BENCH_memplane.json`` (uploaded by CI) plus a
human-readable table.
"""

from __future__ import annotations

import json
import os
import platform
import time

from repro import memplane
from repro.bench.tables import format_table
from repro.datasets.synthetic import random_relation
from repro.profiling.profiler import profile
from repro.ranking.report import column_determinants

from _utils import OUT_DIR, SCALE, pick, tier_bypassed

#: (n_rows, n_cols, domain size) per scale.  Near-key regime: domain
#: ~ sqrt(rows) makes the singleton partitions large and expensive —
#: exactly the state the shared tier keeps warm between jobs.
SHAPE = pick(smoke=(2_000, 7, 45), quick=(12_000, 7, 110), full=(14_000, 7, 118))
#: Jobs per timed batch ("repeated small discovery jobs").
JOBS = pick(smoke=2, quick=3, full=4)
#: Best-of batches per mode (same role as bench_topk's REPEATS).
REPEATS = pick(smoke=1, quick=2, full=2)
#: Arena leases (ingest copy-in or attach) per timed batch.
SETUPS = pick(smoke=5, quick=20, full=40)

#: Timing gates need relations big enough to out-shout noise.
ASSERT_SPEEDUP = SCALE != "smoke"
MIN_SPEEDUP = 2.0

_results = {}


def near_key_relation():
    n_rows, n_cols, domain = SHAPE
    return random_relation(n_rows, n_cols, domain_sizes=domain, seed=7)


def job(rel):
    """One full profiling job: discover + covers + rank + §VI-B reports."""
    prof = profile(rel)
    reports = [
        column_determinants(rel, prof.canonical, column)
        for column in range(rel.n_cols)
    ]
    return prof, reports


def snapshot(prof, reports):
    """Everything a client would see, in comparable form."""
    return (
        frozenset(prof.canonical),
        tuple(
            (r.fd, r.redundancy, r.redundancy_excluding_null)
            for r in prof.ranking.ranked
        ),
        (prof.redundancy.red_including_null, prof.redundancy.red_excluding_null),
        tuple(tuple(report) for report in reports),
    )


def run_jobs(rel, n):
    """One batch of n jobs: summed per-job wall clock plus snapshots."""
    total, snaps = 0.0, []
    for _ in range(n):
        start = time.perf_counter()
        prof, reports = job(rel)
        total += time.perf_counter() - start
        snaps.append(snapshot(prof, reports))
    return total, snaps


def test_repeated_jobs_speedup():
    rel = near_key_relation()

    # Baseline: shared tier bypassed — every job re-derives everything.
    # Best-of-REPEATS batches, like the other timed benches.
    off_s, off_snaps = float("inf"), []
    with tier_bypassed():
        for _ in range(REPEATS):
            batch_s, snaps = run_jobs(rel, JOBS)
            off_s = min(off_s, batch_s)
            off_snaps += snaps

    # Memory plane in the path: register the dataset, pay the one cold
    # job that fills the shared partition tier, then time the warm
    # steady state.
    warm_s, warm_snaps = float("inf"), []
    try:
        memplane.reset_tiers()
        memplane.reset_arena()
        assert memplane.get_arena().ingest(rel), "dataset registration failed"
        cold_start = time.perf_counter()
        cold_snap = snapshot(*job(rel))
        cold_seconds = time.perf_counter() - cold_start
        for _ in range(REPEATS):
            batch_s, snaps = run_jobs(rel, JOBS)
            warm_s = min(warm_s, batch_s)
            warm_snaps += snaps
        gauges = memplane.gauges()
    finally:
        memplane.reset_arena()
        memplane.reset_tiers()

    # Identity contract, asserted at every scale: the plane is a cache,
    # never a semantic change.
    reference = off_snaps[0]
    for snap in off_snaps[1:] + [cold_snap] + warm_snaps:
        assert snap == reference, "memplane changed an observable result"

    assert gauges["memplane.tier_hits"] > 0, "shared tier never consulted"

    speedup = off_s / warm_s if warm_s > 0 else float("inf")
    _results["jobs"] = {
        "jobs_per_batch": JOBS,
        "repeats": REPEATS,
        "off_seconds": round(off_s, 4),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_s, 4),
        "off_jobs_per_second": round(JOBS / off_s, 2),
        "warm_jobs_per_second": round(JOBS / warm_s, 2),
        "speedup": round(speedup, 2),
        "tier_hits": gauges["memplane.tier_hits"],
        "tier_hit_rate": gauges["memplane.tier_hit_rate"],
        "canonical_cover": len(reference[0]),
    }
    if ASSERT_SPEEDUP:
        assert speedup >= MIN_SPEEDUP, (
            f"warm jobs only {speedup:.2f}x over the bypassed tier "
            f"({off_s:.3f}s vs {warm_s:.3f}s for {JOBS} jobs)"
        )


def test_per_job_buffer_setup():
    """Per-job shm setup: ingest copy-in vs attach to the arena copy."""
    rel = near_key_relation()

    def lease_batch(fresh):
        total = 0.0
        for _ in range(SETUPS):
            if fresh:
                memplane.reset_arena()
            arena = memplane.get_arena()
            misses = arena.attach_misses
            start = time.perf_counter()
            lease = arena.lease(rel)
            total += time.perf_counter() - start
            assert (arena.attach_misses == misses + 1) is fresh
            lease.release()
        return total

    try:
        copy_s = lease_batch(fresh=True)
        memplane.reset_arena()
        assert memplane.get_arena().ingest(rel)
        attach_s = lease_batch(fresh=False)
    finally:
        memplane.reset_arena()

    _results["buffer_setup"] = {
        "setups_per_batch": SETUPS,
        "ingest_copy_seconds": round(copy_s, 4),
        "arena_attach_seconds": round(attach_s, 4),
        "setup_ratio": round(copy_s / attach_s, 2) if attach_s > 0 else None,
    }


def teardown_module(module):
    n_rows, n_cols, domain = SHAPE
    report = {
        "bench": "memplane",
        "scale": SCALE,
        "relation": {"n_rows": n_rows, "n_cols": n_cols, "domain_size": domain},
        "speedup_gate": MIN_SPEEDUP if ASSERT_SPEEDUP else None,
        "env": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "results": _results,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "BENCH_memplane.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    rows = []
    if "jobs" in _results:
        r = _results["jobs"]
        rows.append(
            [
                f"{r['jobs_per_batch']} profile jobs",
                f"{r['off_seconds']:.4f}",
                f"{r['warm_seconds']:.4f}",
                f"{r['speedup']:.2f}x",
            ]
        )
    if "buffer_setup" in _results:
        r = _results["buffer_setup"]
        ratio = r["setup_ratio"]
        rows.append(
            [
                f"{r['setups_per_batch']} arena leases",
                f"{r['ingest_copy_seconds']:.4f}",
                f"{r['arena_attach_seconds']:.4f}",
                f"{ratio:.2f}x" if ratio is not None else "-",
            ]
        )
    print(
        "\n"
        + format_table(
            ["workload", "baseline s", "memplane s", "speedup"],
            rows,
            title=f"Memory plane, rows={n_rows}, cols={n_cols}, "
            f"dom={domain}, scale={SCALE}",
        )
        + f"\n[written to {path}]"
    )
