"""Micro-benchmark: per-row vs vectorized partition kernels.

Times the refinement / intersection / agree-set hot paths on synthetic
relations with the per-row (``python``) and vectorized (``numpy``)
implementations, asserts the results are identical, and prints a
speedup table.  Single operations call the two implementations
directly; pipelines and DHyFD force one of them through
``kernels.VECTOR_MIN_WORK``.  The refinement path is gated at >= 3x
and the combined refine+intersect pipeline (what discovery actually
spends its time on) at >= 2x; the remaining per-operation speedups are
recorded in the artifact.  Also runs full DHyFD discovery on the
smallest benchmark replica with each implementation forced and checks
the covers are byte-identical, so the end-to-end path stays
differential-tested at benchmark scale.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

import numpy as np

from repro.bench.tables import format_table
from repro.core.dhyfd import DHyFD
from repro.datasets.benchmarks import load_benchmark
from repro.datasets.synthetic import random_relation
from repro.partitions import kernels
from repro.partitions.stripped import StrippedPartition
from repro.relational import attrset

from _utils import pick, write_artifact

#: (n_rows, domain) for the kernel micro-benchmarks per scale.  Small
#: domains keep clusters large — the regime where partition work
#: dominates discovery time.
SHAPE = pick(smoke=(4_000, 4), quick=(20_000, 6), full=(120_000, 8))
N_COLS = 8
REPEATS = pick(smoke=3, quick=3, full=5)

_rows = []


def _relation():
    n_rows, domain = SHAPE
    return random_relation(n_rows, N_COLS, domain_sizes=domain, seed=7)


@contextmanager
def _forced(impl):
    """Force every size-dispatched kernel to one implementation."""
    previous = kernels.VECTOR_MIN_WORK
    kernels.VECTOR_MIN_WORK = sys.maxsize if impl == "python" else 0
    try:
        yield
    finally:
        kernels.VECTOR_MIN_WORK = previous


def _time(fn):
    """Best-of-N wall clock and the last result."""
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _same(left, right):
    """Two flat partitions hold the same values with the same dtypes."""
    return all(
        a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(left, right)
    )


def _record(op, py_seconds, np_seconds):
    speedup = py_seconds / np_seconds if np_seconds > 0 else float("inf")
    _rows.append([op, f"{py_seconds:.4f}", f"{np_seconds:.4f}",
                  f"{speedup:.1f}x"])
    return speedup


def test_refine_many_speedup():
    """The Algorithm 5 refinement hot path must clear 3x."""
    rel = _relation()
    base = StrippedPartition.for_attribute(rel, 0)
    codes = [rel.codes(a) for a in range(1, N_COLS)]
    py_s, py_r = _time(lambda: kernels._refine_clusters_python(codes, base.flat))
    np_s, np_r = _time(lambda: kernels._refine_clusters_numpy(codes, base.flat))
    assert _same(py_r, np_r)
    speedup = _record("refine_many", py_s, np_s)
    assert speedup >= 3.0, f"refine_many speedup only {speedup:.1f}x"


def test_hot_path_pipeline_speedup():
    """Level-wise pipeline: build singletons, intersect pairs, refine.

    This is the mix of kernel calls TANE/DHyFD actually issue; the
    combined pipeline is the acceptance gate for the vectorization.
    """
    rel = _relation()

    def run(impl):
        with _forced(impl):
            singles = [
                StrippedPartition.for_attribute(rel, a) for a in range(N_COLS)
            ]
            pairs = [
                singles[i].intersect(singles[j])
                for i in range(N_COLS)
                for j in range(i + 1, N_COLS)
            ]
            refined = singles[0].refine_many(rel, list(range(1, N_COLS)))
        return pairs + [refined]

    py_s, py_r = _time(lambda: run("python"))
    np_s, np_r = _time(lambda: run("numpy"))
    assert all(_same(p.flat, n.flat) for p, n in zip(py_r, np_r))
    speedup = _record("level2 pipeline", py_s, np_s)
    assert speedup >= 2.0, f"pipeline speedup only {speedup:.1f}x"


def test_intersect_speedup():
    rel = _relation()
    left = StrippedPartition.for_attribute(rel, 0).flat
    right = StrippedPartition.for_attribute(rel, 1).flat

    def run(impl):
        with _forced(impl):
            return kernels.intersect_clusters(rel.n_rows, left, right)

    py_s, py_r = _time(lambda: run("python"))
    np_s, np_r = _time(lambda: run("numpy"))
    assert _same(py_r, np_r)
    speedup = _record("intersect", py_s, np_s)
    assert speedup >= 1.5, f"intersect speedup only {speedup:.1f}x"


def test_for_attrs_speedup():
    rel = _relation()
    mask = attrset.from_attrs(range(N_COLS))

    def run(impl):
        with _forced(impl):
            return StrippedPartition.for_attrs(rel, mask)

    py_s, py_r = _time(lambda: run("python"))
    np_s, np_r = _time(lambda: run("numpy"))
    assert _same(py_r.flat, np_r.flat)
    _record("for_attrs", py_s, np_s)


def test_agree_sets_speedup():
    # quadratic in rows: use a small slice of the benchmark shape
    n_rows = pick(smoke=300, quick=600, full=1200)
    rel = random_relation(n_rows, N_COLS, domain_sizes=SHAPE[1], seed=7)
    matrix = rel.matrix()
    py_s, py_r = _time(lambda: kernels._pairwise_agree_sets_python(matrix))
    np_s, np_r = _time(lambda: kernels._pairwise_agree_sets_numpy(matrix))
    assert py_r == np_r
    _record("all_agree_sets", py_s, np_s)


def test_dhyfd_end_to_end_covers_match():
    """Full discovery on the smallest replica: identical covers."""
    relation = load_benchmark("iris", n_rows=pick(60, 150, 150))

    def run(impl):
        with _forced(impl):
            return DHyFD().discover(relation)

    py_s, py_r = _time(lambda: run("python"))
    np_s, np_r = _time(lambda: run("numpy"))
    assert py_r.fds == np_r.fds
    _record("dhyfd(iris)", py_s, np_s)


def teardown_module(module):
    write_artifact(
        "kernel_speedups",
        format_table(
            ["operation", "python s", "numpy s", "speedup"],
            _rows,
            title=f"Partition-kernel micro-benchmarks, "
            f"rows={SHAPE[0]}, cols={N_COLS}, scale={pick('smoke', 'quick', 'full')}",
        ),
    )
