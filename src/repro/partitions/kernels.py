"""Size-dispatched kernels for the partition and agree-set hot paths.

Every discovery algorithm in this library bottoms out in four array
operations: grouping rows by codes (partition construction), splitting
existing clusters by more codes (Algorithm 5 refinement), the TANE
partition product, and agree-set computation over row pairs.  This
module implements each operation twice:

* a per-row dict/loop implementation (``_*_python``), which is also the
  reference that ``tests/test_kernels_differential.py`` compares
  against;
* a vectorized implementation (``_*_numpy``) over flat row-index arrays
  (``lexsort`` grouping, ``reduceat`` reductions, ``packbits`` bitmask
  packing) that does O(rows) work in C instead of Python.

Both return *identical* results: cluster lists are emitted in a
canonical order (sorted by each cluster's first row index, with rows
inside a cluster in ascending order, assuming ascending inputs), and
agree sets are plain :class:`~repro.relational.attrset.AttrSet` ints.

Which one runs is decided per call from the size of its input.  A
vectorized call pays a fixed 15–30 µs of array set-up, so it only wins
once there is enough per-row work to amortize it, while DHyFD refines
everything from huge level-1 clusters down to tiny deep ones.
:func:`group_rows`, :func:`refine_clusters`, :func:`intersect_clusters`
and :func:`clusters_constant_on` therefore run per-row code when their
work is below :data:`VECTOR_MIN_WORK` and vectorized code at or above
it.  The work is the number of input rows; for :func:`refine_clusters`
it is rows × ``len(codes_list)``, because validation often refines a
small cluster by several keys at once.  Measured crossovers (best of
200 calls, 2-vCPU Intel Xeon VM): refining one cluster by one key
per-row vs vectorized takes 3.7 vs 32 µs at 4 rows, 40 vs 45 µs at 128
rows and 294 vs 110 µs at 1,024 rows; by three keys the crossover falls
between 16 and 32 rows (48–96 rows × keys); grouping, intersection and
the constant check cross over at 64–256 rows.  :func:`agree_masks` is
faster vectorized from two row pairs up, so it and
:func:`pairwise_agree_sets` always run vectorized.

When telemetry is enabled (:func:`repro.telemetry.current_tracer`),
every kernel call records a ``kernels.<op>.<python|numpy>`` counter and
a seconds histogram naming the implementation that ran, so traces show
exactly where partition time goes.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, List, Sequence, Set, Tuple

import numpy as np

from ..relational.attrset import AttrSet
from ..telemetry import current_tracer

Cluster = List[int]

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


def _n_rows(clusters: Sequence[Cluster]) -> int:
    return sum(map(len, clusters))


def _canonical(clusters: List[Cluster]) -> List[Cluster]:
    """Order clusters by their first row so implementations agree exactly."""
    clusters.sort(key=lambda cluster: cluster[0])
    return clusters


def _flatten(
    clusters: Sequence[Cluster], dtype=np.int64
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten cluster lists into flat (rows, cluster-ids) arrays."""
    lengths = np.fromiter(
        (len(c) for c in clusters), dtype=np.int64, count=len(clusters)
    )
    rows = np.fromiter(
        itertools.chain.from_iterable(clusters),
        dtype=dtype,
        count=int(lengths.sum()),
    )
    cids = np.repeat(np.arange(len(clusters), dtype=dtype), lengths)
    return rows, cids


def flatten_clusters(
    clusters: Sequence[Cluster],
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten cluster lists into ``(rows, lengths)`` index arrays.

    The compact transport format used to ship partitions to pool
    workers: two int64 arrays instead of nested Python lists.  Inverse
    of :func:`unflatten_clusters`.
    """
    lengths = np.fromiter(
        (len(c) for c in clusters), dtype=np.int64, count=len(clusters)
    )
    rows = np.fromiter(
        itertools.chain.from_iterable(clusters),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    return rows, lengths


def unflatten_clusters(rows: np.ndarray, lengths: np.ndarray) -> List[Cluster]:
    """Rebuild cluster lists from ``(rows, lengths)`` index arrays."""
    clusters: List[Cluster] = []
    start = 0
    row_list = rows.tolist()
    for length in lengths.tolist():
        clusters.append(row_list[start:start + length])
        start += length
    return clusters


def _emit(srows: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> List[Cluster]:
    """Slice sorted rows into clusters, already in canonical order.

    Reorders the (start, end) group bounds by each group's first row —
    groups are disjoint so first rows are unique — then does one bulk
    ``tolist`` and cheap Python-list slicing per group.
    """
    if len(starts) == 0:
        return []
    order = np.argsort(srows[starts], kind="stable")
    starts_list = starts[order].tolist()
    ends_list = ends[order].tolist()
    rows_list = srows.tolist()
    return [rows_list[s:e] for s, e in zip(starts_list, ends_list)]


# ----------------------------------------------------------------------
# Grouping: all rows by one code array (π_A construction)
# ----------------------------------------------------------------------


def group_rows(codes: np.ndarray) -> List[Cluster]:
    """Group all rows by ``codes``; clusters of size >= 2, canonical order."""
    return _dispatch("group", len(codes), _group_rows_numpy, _group_rows_python, codes)


def _group_rows_python(codes: np.ndarray) -> List[Cluster]:
    buckets: dict = {}
    for row in range(len(codes)):
        code = int(codes[row])
        bucket = buckets.get(code)
        if bucket is None:
            buckets[code] = [row]
        else:
            bucket.append(row)
    return _canonical([b for b in buckets.values() if len(b) >= 2])


def _group_rows_numpy(codes: np.ndarray) -> List[Cluster]:
    if len(codes) < 2:
        return []
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    boundaries = np.nonzero(np.diff(sorted_codes))[0] + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(order)]))
    keep = np.nonzero(ends - starts >= 2)[0]
    return _emit(order, starts[keep], ends[keep])


# ----------------------------------------------------------------------
# Refinement: split clusters by one or more code arrays (Algorithm 5)
# ----------------------------------------------------------------------


def refine_clusters(
    codes_list: Sequence[np.ndarray],
    clusters: Sequence[Cluster],
) -> List[Cluster]:
    """Split every cluster by the codes of one or more attributes.

    Rows that end up alone are stripped; the surviving clusters come
    back in canonical order.  ``codes_list`` may hold several code
    arrays — the vectorized code then groups by the full key tuple in a
    single ``lexsort`` pass instead of refining attribute by attribute.
    """
    return _dispatch(
        "refine",
        _n_rows(clusters) * len(codes_list),
        _refine_clusters_numpy,
        _refine_clusters_python,
        codes_list,
        clusters,
    )


def _refine_clusters_python(
    codes_list: Sequence[np.ndarray], clusters: Sequence[Cluster]
) -> List[Cluster]:
    result: List[Cluster] = [list(c) for c in clusters]
    for codes in codes_list:
        next_clusters: List[Cluster] = []
        for cluster in result:
            buckets: dict = {}
            for row in cluster:
                code = int(codes[row])
                bucket = buckets.get(code)
                if bucket is None:
                    buckets[code] = [row]
                else:
                    bucket.append(row)
            next_clusters.extend(
                bucket for bucket in buckets.values() if len(bucket) >= 2
            )
        result = next_clusters
        if not result:
            break
    return _canonical(result)


def _refine_clusters_numpy(
    codes_list: Sequence[np.ndarray], clusters: Sequence[Cluster]
) -> List[Cluster]:
    if not clusters:
        return []
    if not codes_list:
        return _canonical([list(c) for c in clusters])
    rows, cids = _flatten(clusters)
    keys = [codes[rows] for codes in codes_list]
    # lexsort's last key is primary: cluster id first, then the codes.
    order = np.lexsort(tuple(keys) + (cids,))
    srows = rows[order]
    scids = cids[order]
    change = scids[1:] != scids[:-1]
    for key in keys:
        skey = key[order]
        change |= skey[1:] != skey[:-1]
    boundaries = np.nonzero(change)[0] + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(srows)]))
    keep = np.nonzero(ends - starts >= 2)[0]
    return _emit(srows, starts[keep], ends[keep])


# ----------------------------------------------------------------------
# Partition product (TANE's π_X ∩ π_Y)
# ----------------------------------------------------------------------


def intersect_clusters(
    n_rows: int,
    left: Sequence[Cluster],
    right: Sequence[Cluster],
) -> List[Cluster]:
    """The probe-table partition product of two cluster lists."""
    return _dispatch(
        "intersect",
        _n_rows(left) + _n_rows(right),
        _intersect_clusters_numpy,
        _intersect_clusters_python,
        n_rows,
        left,
        right,
    )


def _intersect_clusters_python(
    n_rows: int, left: Sequence[Cluster], right: Sequence[Cluster]
) -> List[Cluster]:
    tag = np.full(n_rows, -1, dtype=np.int64)
    for cluster_id, cluster in enumerate(left):
        for row in cluster:
            tag[row] = cluster_id
    new_clusters: List[Cluster] = []
    for cluster in right:
        groups: dict = {}
        for row in cluster:
            t = tag[row]
            if t >= 0:
                groups.setdefault(int(t), []).append(row)
        for group in groups.values():
            if len(group) >= 2:
                new_clusters.append(group)
    return _canonical(new_clusters)


def _intersect_clusters_numpy(
    n_rows: int, left: Sequence[Cluster], right: Sequence[Cluster]
) -> List[Cluster]:
    if not left or not right:
        return []
    # int32 keys make the radix sort roughly twice as cheap; fall back
    # to int64 when the composite (cid, tag) key could overflow.
    if n_rows < 2**31 and len(left) * len(right) < 2**31:
        dtype = np.int32
    else:
        dtype = np.int64
    tag = np.full(n_rows, -1, dtype=dtype)
    left_rows, left_cids = _flatten(left, dtype)
    tag[left_rows] = left_cids
    rows, cids = _flatten(right, dtype)
    tags = tag[rows]
    if tags.min(initial=0) < 0:
        valid = tags >= 0
        rows, cids, tags = rows[valid], cids[valid], tags[valid]
    if len(rows) < 2:
        return []
    # single composite key: (cid, tag) packed into one integer.
    key = cids * dtype(len(left)) + tags
    order = np.argsort(key, kind="stable")
    srows = rows[order]
    skey = key[order]
    boundaries = np.nonzero(skey[1:] != skey[:-1])[0] + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(srows)]))
    keep = np.nonzero(ends - starts >= 2)[0]
    return _emit(srows, starts[keep], ends[keep])


# ----------------------------------------------------------------------
# Constant-per-cluster check (FD verification π_X refines A)
# ----------------------------------------------------------------------


def clusters_constant_on(
    codes: np.ndarray,
    clusters: Sequence[Cluster],
) -> bool:
    """True iff every cluster holds a single code value of ``codes``."""
    return _dispatch(
        "constant",
        _n_rows(clusters),
        _clusters_constant_on_numpy,
        _clusters_constant_on_python,
        codes,
        clusters,
    )


def _clusters_constant_on_python(
    codes: np.ndarray, clusters: Sequence[Cluster]
) -> bool:
    for cluster in clusters:
        first = codes[cluster[0]]
        for row in cluster[1:]:
            if codes[row] != first:
                return False
    return True


def _clusters_constant_on_numpy(
    codes: np.ndarray, clusters: Sequence[Cluster]
) -> bool:
    if not clusters:
        return True
    lengths = np.fromiter(
        (len(c) for c in clusters), dtype=np.int64, count=len(clusters)
    )
    rows = np.concatenate([np.asarray(c, dtype=np.int64) for c in clusters])
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    values = codes[rows]
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
    return _timed("agree", "numpy", _agree_masks_numpy, matrix, rows_a, rows_b)


def _agree_masks_python(
    matrix: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray
) -> List[AttrSet]:
    masks: List[AttrSet] = []
    for row_a, row_b in zip(rows_a, rows_b):
        equal = matrix[row_a] == matrix[row_b]
        mask = 0
        for col in np.nonzero(equal)[0]:
            mask |= 1 << int(col)
        masks.append(mask)
    return masks


def _pack_bool_rows(equal: np.ndarray) -> List[AttrSet]:
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


def _agree_masks_numpy(
    matrix: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray
) -> List[AttrSet]:
    rows_a = np.asarray(rows_a, dtype=np.int64)
    rows_b = np.asarray(rows_b, dtype=np.int64)
    return _pack_bool_rows(matrix[rows_a] == matrix[rows_b])


def pairwise_agree_sets(matrix: np.ndarray) -> Set[AttrSet]:
    """Distinct agree sets over *all* row pairs (FDEP's negative cover).

    Full-schema masks from duplicate rows are included; callers that
    need the non-trivial cover filter them out.
    """
    return _timed("agree_all", "numpy", _pairwise_agree_sets_numpy, matrix)


def _pairwise_agree_sets_python(matrix: np.ndarray) -> Set[AttrSet]:
    n_rows = matrix.shape[0]
    agree_sets: Set[AttrSet] = set()
    for i in range(n_rows):
        row_i = matrix[i]
        for j in range(i + 1, n_rows):
            equal = row_i == matrix[j]
            mask = 0
            for col in np.nonzero(equal)[0]:
                mask |= 1 << int(col)
            agree_sets.add(mask)
    return agree_sets


def _pairwise_agree_sets_numpy(matrix: np.ndarray) -> Set[AttrSet]:
    n_rows = matrix.shape[0]
    agree_sets: Set[AttrSet] = set()
    for i in range(n_rows - 1):
        agree_sets.update(_pack_bool_rows(matrix[i + 1:] == matrix[i]))
    return agree_sets
