"""Size-dispatched kernels for the partition and agree-set hot paths.

Every discovery algorithm in this library bottoms out in a few array
operations: grouping rows by codes (partition construction), splitting
existing clusters by more codes (Algorithm 5 refinement), the TANE
partition product, the constant-per-cluster FD check, and agree-set
computation over row pairs.

Partitions are flat: a ``(rows, offsets)`` pair of :data:`INDEX`
arrays, where cluster ``i`` is ``rows[offsets[i]:offsets[i + 1]]``.
The order is canonical: clusters sorted by their first row, rows
ascending inside each.  Grouping is refinement of the one all-rows
cluster, and the product refines one partition by the cluster ids of
the other (its probe table), so refinement carries three operations.
It and the constant check are implemented twice:

* per-row dict/loop code (``_*_python``), also the reference that
  ``tests/test_kernels_differential.py`` compares against;
* vectorized code (``_*_numpy``): one composite key per row, one value
  sort, ``reduceat`` reductions — O(rows) work in C, not Python.

Both return *identical* arrays.  Which one runs is decided per call
from its size, because a vectorized call pays a fixed 25–35 µs of array
set-up while DHyFD refines everything from huge level-1 clusters down
to tiny deep ones: per-row code below :data:`VECTOR_MIN_WORK` work,
vectorized at or above it.  The work is the number of input rows, times
``len(codes_list)`` for a refinement.  Measured crossovers (best of
200 calls, 2-vCPU x86_64 VM): refining one cluster by one key per-row
vs vectorized takes 8 vs 36 µs at 4 rows, 40 vs 60 µs at 192 rows and
264 vs 61 µs at 1,024 rows; by three keys the crossover falls at
128–192 rows, over 4-row clusters at 64–128 rows; grouping and the
product cross over at 256–512 rows, the constant check at 64–128.
:func:`agree_masks` is faster vectorized from two row pairs up, so it
and :func:`pairwise_agree_sets` have only vectorized code; the tests
check them against :meth:`~repro.relational.relation.Relation.agree_set`.

When telemetry is enabled (:func:`repro.telemetry.current_tracer`),
every kernel call records a ``kernels.<op>.<python|numpy>`` counter and
a seconds histogram naming the implementation that ran, so traces show
exactly where partition time goes.
"""

from __future__ import annotations

import time
from typing import Callable, List, Sequence, Set, Tuple

import numpy as np

from ..relational.attrset import AttrSet
from ..telemetry import current_tracer

Cluster = List[int]

#: dtype of the flat ``rows`` and ``offsets`` arrays of a partition.
INDEX = np.int32

#: A partition's clusters in flat form: ``(rows, offsets)``.
Flat = Tuple[np.ndarray, np.ndarray]

#: Work (input rows; rows × keys for refinement) at and above which the
#: size-dispatched kernels run vectorized code instead of per-row code.
VECTOR_MIN_WORK = 128


def get_default_backend() -> str:
    """Name of the kernel selection policy, stamped into benchmark runs.

    Always ``"auto"``: each kernel call picks its implementation from
    its size (see :data:`VECTOR_MIN_WORK`).
    """
    return "auto"


def _timed(op: str, kind: str, impl: Callable, *args):
    """Call ``impl``; when traced, count and time it as ``kernels.<op>.<kind>``."""
    tracer = current_tracer()
    if not tracer.enabled:
        return impl(*args)
    start = time.perf_counter()
    result = impl(*args)
    seconds = time.perf_counter() - start
    metrics = tracer.metrics
    metrics.counter(f"kernels.{op}.{kind}.calls").inc()
    metrics.histogram(f"kernels.{op}.{kind}.seconds").observe(seconds)
    return result


def _dispatch(op: str, work: int, numpy_impl: Callable, python_impl: Callable, *args):
    """Per-row code below :data:`VECTOR_MIN_WORK` work, vectorized at or above."""
    if work >= VECTOR_MIN_WORK:
        return _timed(op, "numpy", numpy_impl, *args)
    return _timed(op, "python", python_impl, *args)


def universal(n_rows: int) -> Flat:
    """One cluster of all ``n_rows`` rows (none when there are fewer than 2)."""
    if n_rows < 2:
        return np.zeros(0, dtype=INDEX), np.zeros(1, dtype=INDEX)
    return np.arange(n_rows, dtype=INDEX), np.array([0, n_rows], dtype=INDEX)


def cluster_lists(rows: np.ndarray, offsets: np.ndarray) -> List[Cluster]:
    """The flat form as one Python list of row indices per cluster."""
    row_list = rows.tolist()
    bounds = offsets.tolist()
    return [row_list[s:e] for s, e in zip(bounds, bounds[1:])]


def _cluster_ids(offsets: np.ndarray) -> np.ndarray:
    """The cluster id of every position of a flat ``rows`` array."""
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


# ----------------------------------------------------------------------
# Refinement: split clusters by one or more code arrays (Algorithm 5)
# ----------------------------------------------------------------------


def group_rows(codes: np.ndarray) -> Flat:
    """Group all rows by ``codes``; clusters of size >= 2, canonical order."""
    return _dispatch(
        "group",
        len(codes),
        _refine_clusters_numpy,
        _refine_clusters_python,
        [codes],
        universal(len(codes)),
    )


def refine_clusters(
    codes_list: Sequence[np.ndarray], clusters: Flat, by_source: bool = False
) -> Flat:
    """Split every cluster by the codes of one or more attributes.

    Rows that end up alone are stripped; the surviving clusters come
    back in canonical order or, with ``by_source``, grouped by the
    cluster they came from (in input order) and canonical within each
    group.  Several code arrays are grouped by their full key tuple in
    one pass instead of attribute by attribute.
    """
    return _dispatch(
        "refine",
        len(clusters[0]) * len(codes_list),
        _refine_clusters_numpy,
        _refine_clusters_python,
        codes_list,
        clusters,
        by_source,
    )


def intersect_clusters(n_rows: int, left: Flat, right: Flat) -> Flat:
    """The partition product ``π_X ∩ π_Y`` of two flat partitions.

    ``right`` is refined by the probe table of ``left``: each row's
    ``left`` cluster id, or a code of its own for a row outside every
    ``left`` cluster, which refinement then strips.
    """
    n_left = len(left[1]) - 1
    probe = np.arange(n_left, n_left + n_rows)
    probe[left[0]] = _cluster_ids(left[1])
    return _dispatch(
        "intersect",
        len(left[0]) + len(right[0]),
        _refine_clusters_numpy,
        _refine_clusters_python,
        [probe],
        right,
    )


def _refine_clusters_python(
    codes_list: Sequence[np.ndarray], clusters: Flat, by_source: bool = False
) -> Flat:
    rows, offsets = clusters
    if len(codes_list) == 1:
        keys = codes_list[0][rows].tolist()
    else:
        keys = list(zip(*(codes[rows].tolist() for codes in codes_list)))
        keys = keys or [()] * len(rows)
    row_list = rows.tolist()
    bounds = offsets.tolist()
    result: List[Cluster] = []
    for start, end in zip(bounds, bounds[1:]):
        buckets: dict = {}
        for row, key in zip(row_list[start:end], keys[start:end]):
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [row]
            else:
                bucket.append(row)
        # buckets open in row order: canonical within the source cluster
        result.extend(bucket for bucket in buckets.values() if len(bucket) >= 2)
    if not by_source:
        result.sort(key=lambda cluster: cluster[0])
    flat_rows: Cluster = []
    new_bounds = [0]
    for cluster in result:
        flat_rows += cluster
        new_bounds.append(len(flat_rows))
    return np.array(flat_rows, dtype=INDEX), np.array(new_bounds, dtype=INDEX)


def _refine_clusters_numpy(
    codes_list: Sequence[np.ndarray], clusters: Flat, by_source: bool = False
) -> Flat:
    rows, offsets = clusters
    if len(rows) == 0:
        return universal(0)
    # One composite key per row, its cluster id and then each code as
    # mixed-radix digits (relabelled densely where the product would
    # overflow), so that one sort groups by the whole tuple.
    cids = _cluster_ids(offsets)
    key, bound = cids, len(offsets) - 1
    for codes in codes_list:
        values = codes[rows]
        low = int(values.min())
        span = int(values.max()) - low + 1
        if bound * span > 1 << 62:
            key = np.unique(key, return_inverse=True)[1]
            values = np.unique(values, return_inverse=True)[1]
            bound, low, span = len(rows), 0, len(rows)
        key = key * span + (values - low)
        bound *= span
    order = _stable_order(key, bound)
    skey = key[order]
    boundaries = np.flatnonzero(skey[1:] != skey[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(skey)]))
    keep = ends - starts >= 2
    starts, ends = starts[keep], ends[keep]
    srows = rows[order]
    # Groups are disjoint, so their first rows order them canonically.
    if by_source:
        groups = np.lexsort((srows[starts], cids[order[starts]]))
    else:
        groups = np.argsort(srows[starts])
    lengths = (ends - starts)[groups]
    new_offsets = np.zeros(len(groups) + 1, dtype=INDEX)
    np.cumsum(lengths, out=new_offsets[1:])
    shift = np.repeat(starts[groups] - new_offsets[:-1], lengths)
    return srows[np.arange(len(shift)) + shift], new_offsets


def _stable_order(key: np.ndarray, bound: int) -> np.ndarray:
    """A stable sorting permutation of ``key`` (values in ``[0, bound)``).

    Where ``bound`` leaves room, each position is packed into the low
    bits of its key and the packed values are sorted: one value sort,
    several times cheaper than ``argsort`` or ``lexsort``.
    """
    shift = max(1, (len(key) - 1).bit_length())
    if bound > 1 << (62 - shift):
        return np.argsort(key, kind="stable")
    packed = np.sort((key << shift) | np.arange(len(key)))
    return packed & ((1 << shift) - 1)


# ----------------------------------------------------------------------
# Constant-per-cluster check (FD verification π_X refines A)
# ----------------------------------------------------------------------


def clusters_constant_on(codes: np.ndarray, clusters: Flat) -> bool:
    """True iff every cluster holds a single code value of ``codes``."""
    return _dispatch(
        "constant",
        len(clusters[0]),
        _clusters_constant_on_numpy,
        _clusters_constant_on_python,
        codes,
        clusters,
    )


def _clusters_constant_on_python(codes: np.ndarray, clusters: Flat) -> bool:
    values = codes[clusters[0]].tolist()
    bounds = clusters[1].tolist()
    return all(
        len(set(values[start:end])) == 1 for start, end in zip(bounds, bounds[1:])
    )


def _clusters_constant_on_numpy(codes: np.ndarray, clusters: Flat) -> bool:
    rows, offsets = clusters
    if len(rows) == 0:
        return True
    values = codes[rows]
    starts = offsets[:-1]
    mins = np.minimum.reduceat(values, starts)
    maxs = np.maximum.reduceat(values, starts)
    return bool(np.all(mins == maxs))


# ----------------------------------------------------------------------
# Agree sets (sampling and FDEP's negative cover)
# ----------------------------------------------------------------------


def agree_masks(
    matrix: np.ndarray,
    rows_a: np.ndarray,
    rows_b: np.ndarray,
) -> List[AttrSet]:
    """Agree-set bitmask of each row pair ``(rows_a[i], rows_b[i])``."""

    def masks() -> List[AttrSet]:
        a = np.asarray(rows_a, dtype=np.int64)
        b = np.asarray(rows_b, dtype=np.int64)
        return pack_bool_rows(matrix[a] == matrix[b])

    return _timed("agree", "numpy", masks)


def pack_bool_rows(equal: np.ndarray) -> List[AttrSet]:
    """Turn an ``(n, n_cols)`` bool array into per-row bitmask ints."""
    if equal.shape[0] == 0:
        return []
    packed = np.packbits(equal, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return [
        int.from_bytes(data[i * width:(i + 1) * width], "little")
        for i in range(equal.shape[0])
    ]


def pairwise_agree_sets(matrix: np.ndarray) -> Set[AttrSet]:
    """Distinct agree sets over *all* row pairs (FDEP's negative cover).

    Full-schema masks from duplicate rows are included; callers that
    need the non-trivial cover filter them out.
    """

    def agree_sets() -> Set[AttrSet]:
        found: Set[AttrSet] = set()
        for i in range(matrix.shape[0] - 1):
            found.update(pack_bool_rows(matrix[i + 1:] == matrix[i]))
        return found

    return _timed("agree_all", "numpy", agree_sets)
