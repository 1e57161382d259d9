"""Shared helpers for the benchmark suite.

Every bench module regenerates one table or figure of the paper.  The
suite honours ``REPRO_BENCH_SCALE``:

* ``smoke`` — minimal fragments, seconds total (CI sanity);
* ``quick`` — the default; every experiment's *shape* at small scale;
* ``full``  — the registry's bench-scale rows everywhere (minutes).

Each module prints its paper-style table and, except at ``smoke``
scale, also writes it under ``benchmarks/out/`` so a run leaves
artifacts behind.  Smoke-scale tables are only printed: they would
overwrite the tracked quick-scale reports.
"""

from __future__ import annotations

import os
from pathlib import Path

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
    """Print a report and persist it under benchmarks/out/ (not at smoke scale)."""
    if SCALE == "smoke":
        print(f"\n{text}\n[smoke scale: {name}.txt not written]")
        return
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[written to {path}]")
