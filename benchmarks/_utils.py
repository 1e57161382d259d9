"""Shared helpers for the benchmark suite.

Every bench module regenerates one table or figure of the paper.  The
suite honours ``REPRO_BENCH_SCALE``:

* ``smoke`` — minimal fragments, seconds total (CI sanity);
* ``quick`` — the default; every experiment's *shape* at small scale;
* ``full``  — the registry's bench-scale rows everywhere (minutes).

Each module prints its paper-style table and also writes it under
``benchmarks/out/`` so a full run leaves artifacts behind.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Dict, List, Optional

SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick")
if SCALE not in {"smoke", "quick", "full"}:
    raise ValueError(f"REPRO_BENCH_SCALE must be smoke/quick/full, got {SCALE}")

#: Wall-clock cap per (data set, algorithm) cell, mirroring the paper's
#: one-hour TL at bench scale.
TIME_LIMIT = {"smoke": 5.0, "quick": 20.0, "full": 120.0}[SCALE]

OUT_DIR = Path(__file__).parent / "out"


def pick(smoke, quick, full):
    """Select a per-scale value."""
    return {"smoke": smoke, "quick": quick, "full": full}[SCALE]


def write_artifact(name: str, text: str) -> None:
    """Print a report and persist it under benchmarks/out/."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[written to {path}]")


def fmt(value: Optional[float], digits: int = 3) -> str:
    """Format a float cell, with '-' for missing."""
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


@contextlib.contextmanager
def tier_bypassed():
    """Run with the shared partition layer switched out of the path.

    ``repro.partitions.cache.shared_store`` answers None for every
    relation, so each ``PartitionCache(shared=True)`` stays private and
    each job re-derives its partitions exactly as it would with no
    shared layer at all.  This is the "off" baseline of the
    memory-plane and multi-table benchmarks.
    """
    from repro.partitions import cache

    shared_store = cache.shared_store
    cache.shared_store = lambda relation: None
    try:
        yield
    finally:
        cache.shared_store = shared_store
