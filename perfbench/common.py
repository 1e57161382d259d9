"""Shared pieces of the benchmark: statistics, the host-speed clock, the
report, stamps, digests.

Nothing here imports the program at module load; the functions that need
it import lazily, after ``run.py`` has put the checkout's ``src`` first on
``sys.path``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
#: Scratch space of every run (store dirs, traces), inside the checkout.
RUNS_DIR = ROOT / ".perfbench-runs"

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


# ---------------------------------------------------------------------------
# Sample statistics
# ---------------------------------------------------------------------------


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def tail(samples: Sequence[float]) -> Tuple[str, float]:
    """The highest percentile with at least ten samples beyond it.

    That is the sample of nearest rank ``n - 10``, floored at the median
    rank so that from 11 to 19 samples the tail is the median rather
    than below it.  With ten samples or fewer no percentile has ten
    beyond it, and the maximum is reported (label ``max``).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return "max", float(ordered[-1])
    rank = max(n - TAIL_BEYOND, math.ceil(n / 2))
    return f"p{100.0 * rank / n:.1f}", max(float(ordered[rank - 1]), median(ordered))


def repeat_for(fn, min_seconds: float):
    """Call ``fn`` until ``min_seconds`` have passed; (last result, mean s).

    Short operations are timed this way so that one sample spans more
    than the sub-second speed swings of a shared host.
    """
    calls = 0
    start = time.perf_counter()
    while True:
        result = fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return result, elapsed / calls


# ---------------------------------------------------------------------------
# Host speed: a calibration loop and times scaled to a reference speed
# ---------------------------------------------------------------------------

#: Iterations of the calibration loop's arithmetic part.
CAL_ITERATIONS = 15_000
#: Entries of the calibration table (~9 MB: past a core's own caches, so
#: the loop also feels a neighbour contending for cache and memory).
CAL_TABLE = 1 << 17
#: Lookups in the calibration table per loop.
CAL_LOOKUPS = 6_000
#: Median seconds of one calibration loop on the reference host, a 2-vCPU
#: x86_64 VM running python 3.11.7.  Scaled times read as wall times on
#: that host at this speed.
REF_CAL_S = 0.0019


class Clock:
    """Times operations, each also scaled to the reference host speed.

    A shared VM's speed drifts by up to 1.7x, in spells of seconds to
    minutes, and a spell moves every timing in it alike.  Each timed call
    is followed by a calibration loop (a fixed ~2 ms of interpreter
    arithmetic and lookups in a table larger than a core's caches, median
    of three); a sample's scaled time is its wall time x the square root
    of ``REF_CAL_S`` / the mean of the calibrations before and after it.
    The square root is fitted, not chosen: between calm and loaded sets of
    runs the workloads slowed by about the square root of the loop's
    slowdown (exponents 0.43-0.57), the table lookups being more
    sensitive to a contended memory system than the program is.
    """

    def __init__(self) -> None:
        self.raw: Dict[Tuple[str, str], List[float]] = {}
        self.scaled: Dict[Tuple[str, str], List[float]] = {}
        rng = random.Random(0)
        self._table = {rng.getrandbits(40): i for i in range(CAL_TABLE)}
        keys = list(self._table)
        self._keys = [keys[rng.randrange(CAL_TABLE)] for _ in range(CAL_LOOKUPS)]
        self.calibrations = [self.calibrate()]

    def _loop(self) -> int:
        total = 0
        for i in range(CAL_ITERATIONS):
            total += i * i % 7
        table = self._table
        for key in self._keys:
            total += table[key]
        return total

    def calibrate(self, repeats: int = 3) -> float:
        """Median seconds of ``repeats`` calibration loops (robust to one spike)."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self._loop()
            times.append(time.perf_counter() - start)
        return median(times)

    def measure(self, fn, min_seconds: float = 0.0):
        """Run ``fn`` (repeated for ``min_seconds``); (result, wall s, scaled s)."""
        result, seconds = repeat_for(fn, min_seconds)
        before = self.calibrations[-1]
        after = self.calibrate()
        self.calibrations.append(after)
        return result, seconds, seconds * math.sqrt(REF_CAL_S * 2.0 / (before + after))

    def time(self, op: str, group: str, fn, min_seconds: float = 0.0):
        """``measure`` and record the sample under (op, group); the result."""
        result, seconds, scaled = self.measure(fn, min_seconds)
        self.raw.setdefault((op, group), []).append(seconds)
        self.scaled.setdefault((op, group), []).append(scaled)
        return result

    def groups(self, op: str, scaled: bool = True) -> Dict[str, List[float]]:
        """Samples of ``op`` in milliseconds, by group."""
        samples = self.scaled if scaled else self.raw
        return {group: [s * 1000.0 for s in values]
                for (name, group), values in samples.items() if name == op}


def seeded_rng(seed: int, *labels: object) -> random.Random:
    """An RNG keyed by the run seed plus labels (stable across runs)."""
    return random.Random(":".join(str(part) for part in (seed,) + labels))


# ---------------------------------------------------------------------------
# The report: metrics for the JSON line, lines for humans, op accounting
# ---------------------------------------------------------------------------


class Report:
    """Collects one run's metrics, printed lines and operation outcomes."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.lines: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def op(self, ok: bool, what: str) -> None:
        """Account one attempted operation (wrong output counts as failed)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def value(
        self, name: str, value: float, unit: str, n: Optional[int] = None, note: str = ""
    ) -> None:
        """Record a metric (reported in the JSON line when BENCHMARK.json names it)."""
        self.metrics[name] = {"value": float(value), "unit": unit}
        self.line(name, value, unit, n, note)

    def line(
        self, name: str, value: float, unit: str, n: Optional[int] = None, note: str = ""
    ) -> None:
        """Print-only figure (not part of the JSON line)."""
        count = f"  n={n}" if n is not None else ""
        extra = f"  {note}" if note else ""
        self.lines.append(f"{name:<34} {value:>14.4f} {unit:<6}{count}{extra}")

    def timings(self, prefix: str, groups: Dict[str, Sequence[float]],
                raw: Optional[Dict[str, Sequence[float]]] = None) -> None:
        """``<prefix>_p50_ms``: the medians of each group's samples, summed.

        A group is one input of a library pass, or one kind of request
        that a user sends in turn (a warm discover, then a top-k rank);
        summing per-group medians keeps the median off the gap between
        groups of different cost.  The tail (summed per-group tails) is
        printed, not gated: from run to run it spreads by 0.2-0.4 of its
        median on a shared 2-vCPU VM, beyond the largest bound a benchmark
        metric may have.  ``raw`` prints the unscaled wall-time median.
        """
        if not groups or not all(groups.values()):
            raise RuntimeError(f"no {prefix} samples were measured")
        n = min(len(samples) for samples in groups.values())
        label = "max" if n <= TAIL_BEYOND else f"p{100.0 * (n - TAIL_BEYOND) / n:.1f}"
        self.value(f"{prefix}_p50_ms", sum(median(s) for s in groups.values()), "ms", n)
        self.line(f"{prefix}_tail_ms", sum(tail(s)[1] for s in groups.values()), "ms", n,
                  note=f"(about {label})")
        if raw is not None:
            self.line(f"raw.{prefix}_p50_ms", sum(median(s) for s in raw.values()), "ms", n,
                      note="(wall time, unscaled)")

    def alias(self, name: str, source: str, scale: float = 1.0, unit: str = "") -> None:
        """Print an existing metric again under the name ISSUE-style docs use."""
        entry = self.metrics[source]
        self.line(name, float(entry["value"]) * scale, unit or str(entry["unit"]),
                  note=f"(= {source})")

    def json_line(self, expected: Sequence[str]) -> str:
        missing = [name for name in expected if name not in self.metrics]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        return json.dumps(
            {
                "correct": self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: self.metrics[name] for name in expected},
            }
        )


def load_spec() -> Dict[str, object]:
    with open(SPEC_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def load_reference() -> Dict[str, object]:
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Stamp: what code and hardware produced the numbers
# ---------------------------------------------------------------------------


def _git_rev() -> str:
    """HEAD of the checkout when it is a git repository, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text(encoding="utf-8").strip()
    except OSError:
        return "none"
    if not text.startswith("ref: "):
        return text[:12]
    ref = text[5:]
    try:
        return (ROOT / ".git" / ref).read_text(encoding="utf-8").strip()[:12]
    except OSError:
        pass
    try:
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    """Content hash of ``src/repro`` (identifies the code without git)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def stamp() -> Dict[str, object]:
    import numpy

    from repro.parallel.config import get_default_jobs
    from repro.partitions.kernels import get_default_backend

    return {
        "git_rev": _git_rev(),
        "src_digest": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": get_default_backend(),
        "jobs": get_default_jobs(),
    }


# ---------------------------------------------------------------------------
# Output digests (benchmark-owned formats, independent of FD.format)
# ---------------------------------------------------------------------------


def fd_line(fd, names: Sequence[str]) -> str:
    from repro.relational import attrset

    lhs = ",".join(names[a] for a in attrset.to_list(fd.lhs))
    rhs = ",".join(names[a] for a in attrset.to_list(fd.rhs))
    return f"{lhs} -> {rhs}"


def cover_lines(fds: Iterable, names: Sequence[str]) -> List[str]:
    """A cover as sorted text lines (order-free comparison)."""
    return sorted(fd_line(fd, names) for fd in fds)


def ranking_lines(ranked: Iterable, names: Sequence[str]) -> List[str]:
    """A ranking as ordered text lines with both redundancy counts."""
    return [
        f"{fd_line(r.fd, names)} : {r.redundancy}/{r.redundancy_excluding_null}"
        for r in ranked
    ]


def digest(lines: Sequence[str]) -> Dict[str, object]:
    text = "\n".join(lines)
    return {"count": len(lines), "sha": hashlib.sha256(text.encode()).hexdigest()[:16]}


# ---------------------------------------------------------------------------
# Tracing helpers
# ---------------------------------------------------------------------------


def span(tracer, name: str, **attrs):
    """A benchmark-side span on ``tracer``, or nothing when untraced."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, **attrs)


def warn(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
