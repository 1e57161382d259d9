"""Redundant data-value occurrences (paper §VI).

Following Vincent's notion, the occurrence of a value at ``(t, A)`` is
*redundant* w.r.t. an FD set Σ when every change of that value to a
different value violates some FD in Σ.  For an FD ``X → Y`` with
``A ∈ Y`` this happens exactly when another tuple shares t's X-values —
i.e. when ``t`` lies in a non-singleton cluster of ``π_X``.

Three counting policies correspond to the paper's columns:

* ``INCLUDE``          — count every redundant occurrence (#red+0);
* ``EXCLUDE_RHS``      — skip occurrences whose own value is a null
  marker (#red in Table IV; the intro's "σ3 causes only 2 instead of
  61" example);
* ``EXCLUDE_LHS_RHS``  — additionally require the witnessing X-values
  to be null-free (#red-0 in §VI-B and the orange series of Fig. 11).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..partitions.cache import MAX_SHARED_ATTRS, PartitionCache
from ..partitions.stripped import StrippedPartition
from ..relational import attrset
from ..relational.attrset import AttrSet
from ..relational.fd import FD
from ..relational.relation import Relation
from ..telemetry import current_tracer


class NullPolicy(enum.Enum):
    """Which occurrences involving null markers count as redundant."""

    INCLUDE = "include"
    EXCLUDE_RHS = "exclude_rhs"
    EXCLUDE_LHS_RHS = "exclude_lhs_rhs"


def _lhs_null_mask(relation: Relation, lhs: AttrSet) -> Optional[np.ndarray]:
    """Per-row True where any LHS attribute is null (None when lhs = ∅)."""
    mask: Optional[np.ndarray] = None
    for attr in attrset.iter_attrs(lhs):
        column_mask = relation.null_mask(attr)
        mask = column_mask.copy() if mask is None else mask | column_mask
    return mask


def redundant_rows_for_lhs(
    relation: Relation,
    partition: StrippedPartition,
    policy: NullPolicy,
) -> np.ndarray:
    """Boolean per-row mask of rows whose RHS occurrences are redundant.

    A row is marked when it shares its LHS values with at least one
    other (surviving) row; under ``EXCLUDE_LHS_RHS`` rows with null LHS
    values are dropped before cluster sizes are re-checked.
    """
    marked = np.zeros(relation.n_rows, dtype=bool)
    if partition.is_key():
        return marked
    rows, offsets = partition.flat
    lhs_nulls = (
        _lhs_null_mask(relation, partition.attrs)
        if policy is NullPolicy.EXCLUDE_LHS_RHS
        else None
    )
    if lhs_nulls is None:
        marked[rows] = True
        return marked
    # EXCLUDE_LHS_RHS: drop null-LHS rows, then a cluster only witnesses
    # redundancy if at least two of its rows survive.
    survivors = ~lhs_nulls[rows]
    counts = np.add.reduceat(survivors.astype(np.int64), offsets[:-1])
    keep = survivors & np.repeat(counts >= 2, np.diff(offsets))
    marked[rows[keep]] = True
    return marked


def count_redundant(
    relation: Relation,
    fd: FD,
    policy: NullPolicy = NullPolicy.INCLUDE,
    cache: Optional[PartitionCache] = None,
) -> int:
    """Number of redundant occurrences the FD causes under ``policy``."""
    partition = (
        cache.get(fd.lhs)
        if cache is not None
        else StrippedPartition.for_attrs(relation, fd.lhs)
    )
    rows = redundant_rows_for_lhs(relation, partition, policy)
    total = 0
    for attr in attrset.iter_attrs(fd.rhs):
        if policy is NullPolicy.INCLUDE:
            total += int(rows.sum())
        else:
            total += int((rows & ~relation.null_mask(attr)).sum())
    return total


#: Partition refinements one row pair × LHS subset test is worth: on a
#: 2-vCPU x86_64 VM (Python 3.11.7) a refine of a 70-row partition costs
#: ~85 µs and one pair × LHS test ~2.5 ns.
PAIR_WORK_PER_REFINE = 34_000
#: Pair × LHS tests per chunk of the pair path; bounds its working set
#: (8 bytes a test, plus one bool) and sets how often it polls a deadline.
PAIR_CHUNK = 1 << 15


def _takes_pairs(relation: Relation, lhss: Sequence[AttrSet]) -> bool:
    """Is the pair path cheaper than the partitions of ``lhss``?

    LHSs of at most :data:`~repro.partitions.cache.MAX_SHARED_ATTRS`
    attributes outlive the call in the shared partition tier; every
    wider one is a refine on each pass.  The pair path tests every row
    pair against every LHS, and packs agree sets into one ``uint64``.
    As wide LHSs are a subset of all, it is taken only below
    :data:`PAIR_WORK_PER_REFINE` pairs (at most 261 rows), which
    bounds its ``n × n`` agree matrix.
    """
    if relation.n_cols > 64:
        return False
    wide = sum(1 for lhs in lhss if attrset.count(lhs) > MAX_SHARED_ATTRS)
    return _n_pairs(relation) * len(lhss) < PAIR_WORK_PER_REFINE * wide


def _n_pairs(relation: Relation) -> int:
    """Unordered row pairs of ``relation``."""
    return relation.n_rows * (relation.n_rows - 1) // 2


def _agree_with_others(relation: Relation, policy: NullPolicy) -> np.ndarray:
    """``(n, n - 1)`` uint64: row ``t``'s agree set with every other row.

    The diagonal is dropped, so a row never witnesses itself.  Under
    ``EXCLUDE_LHS_RHS`` a column where the rows hold nulls is cleared:
    rows only agree on a null when both hold it, and then neither may
    witness.
    """
    n = relation.n_rows
    agree = np.zeros((n, n), dtype=np.uint64)
    for attr in range(relation.n_cols):
        codes = relation.codes(attr)
        equal = codes[:, None] == codes[None, :]
        if policy is NullPolicy.EXCLUDE_LHS_RHS:
            equal[relation.null_mask(attr)] = False
        np.bitwise_or(agree, np.uint64(1 << attr), out=agree, where=equal)
    if n < 2:
        return np.zeros((n, 0), dtype=np.uint64)
    return agree.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n].reshape(n, n - 1)


def _pair_masks(
    relation: Relation, lhss: Sequence[AttrSet], policy: NullPolicy, deadline
) -> np.ndarray:
    """``(len(lhss), n_rows)`` row masks: rows ending a pair that agrees on X."""
    agree = _agree_with_others(relation, policy)
    wanted = np.array(lhss, dtype=np.uint64)[:, None, None]
    masks = np.empty((len(lhss), relation.n_rows), dtype=bool)
    step = max(1, PAIR_CHUNK // max(1, agree.size))
    common = np.empty((step,) + agree.shape, dtype=np.uint64)
    hits = np.empty(common.shape, dtype=bool)
    for start in range(0, len(lhss), step):
        if deadline is not None:
            deadline.check()
        x = wanted[start:start + step]
        k = len(x)
        np.bitwise_and(agree, x, out=common[:k])
        np.equal(common[:k], x, out=hits[:k])
        hits[:k].any(axis=2, out=masks[start:start + k])
    return masks


def lhs_row_masks(
    relation: Relation,
    lhs_list: Iterable[AttrSet],
    policy: NullPolicy = NullPolicy.INCLUDE,
    cache: Optional[PartitionCache] = None,
    deadline=None,
) -> Dict[AttrSet, np.ndarray]:
    """Redundant-row mask of ``π_X`` for every distinct ``X`` in ``lhs_list``.

    The one source of per-LHS masks: the §VI ranking, the Table IV
    report and :func:`redundancy_positions` are all built from it, so
    :func:`~repro.profiling.profiler.profile`, which needs ranking and
    report, runs one mask pass.  A row is redundant for ``X`` iff it
    ends a row pair whose agree set contains ``X`` (the pair/partition
    duality of paper §IV), so the masks come one of two ways, picked
    per call by the work each would do:

    * pairs — every row pair's agree set packed into a ``uint64``, then
      one broadcast ``(A & X) == X`` per chunk of LHSs;
    * partitions — ``π_X`` from ``cache`` (a fresh shared
      :class:`PartitionCache` when None) for each LHS.

    The pair path is taken iff ``pairs × LHSs`` is below
    :data:`PAIR_WORK_PER_REFINE` times the LHSs wider than the shared
    partition tier keeps, and the relation has at most 64 columns.  One
    ``lhs_masks`` trace event names the path, the distinct-LHS count
    and the pair count.  ``deadline`` (a
    :class:`~repro.core.base.Deadline` or
    :class:`~repro.core.base.RunContext`) is polled once per LHS chunk
    on the pair path and once per LHS on the partition path.
    """
    lhss = list(dict.fromkeys(lhs_list))
    pairs = _takes_pairs(relation, lhss)
    current_tracer().event(
        "lhs_masks",
        path="pairs" if pairs else "partitions",
        lhss=len(lhss),
        pairs=_n_pairs(relation),
    )
    if pairs:
        return dict(zip(lhss, _pair_masks(relation, lhss, policy, deadline)))
    if cache is None:
        cache = PartitionCache(relation, shared=True)
    masks: Dict[AttrSet, np.ndarray] = {}
    for lhs in lhss:
        if deadline is not None:
            deadline.check()
        masks[lhs] = redundant_rows_for_lhs(relation, cache.get(lhs), policy)
    cache.record_telemetry(scope="redundancy")
    return masks


def membership(sets: Sequence[AttrSet], n_cols: int) -> np.ndarray:
    """``(len(sets), n_cols)`` bool: True where column ``a`` is in set ``i``."""
    width = (n_cols + 7) // 8
    packed = np.frombuffer(
        b"".join(s.to_bytes(width, "little") for s in sets), dtype=np.uint8
    ).reshape(len(sets), width)
    bits = np.unpackbits(packed, axis=1, count=n_cols, bitorder="little")
    return bits.astype(bool)


def null_matrix(relation: Relation) -> np.ndarray:
    """``(n_rows, n_cols)`` bool: True at every null occurrence."""
    nulls = np.zeros((relation.n_rows, relation.n_cols), dtype=bool)
    for attr in range(relation.n_cols):
        nulls[:, attr] = relation.null_mask(attr)
    return nulls


def mask_matrix(
    relation: Relation, fds: Sequence[FD], masks: Dict[AttrSet, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """The masks of the distinct LHSs of ``fds`` as one bool
    ``(LHSs, rows)`` matrix, and each FD's row in it."""
    index: Dict[AttrSet, int] = {}
    lhs_of = np.array(
        [index.setdefault(fd.lhs, len(index)) for fd in fds], dtype=np.intp
    )
    if not index:
        return np.zeros((0, relation.n_rows), dtype=bool), lhs_of
    return np.stack([masks[lhs] for lhs in index]), lhs_of


def _positions_from_masks(
    relation: Relation,
    fds: Sequence[FD],
    masks: Dict[AttrSet, np.ndarray],
    policy: NullPolicy = NullPolicy.INCLUDE,
) -> np.ndarray:
    """OR-merge per-LHS row masks into the ``(n_rows, n_cols)`` matrix.

    Each FD marks its LHS's rows in every RHS column: the boolean
    product of the masks with the LHS → RHS incidence matrix, one
    column at a time.  Under a policy other than ``INCLUDE`` a marked
    occurrence must also be non-null.
    """
    matrix, lhs_of = mask_matrix(relation, fds, masks)
    incidence = np.zeros((len(matrix), relation.n_cols), dtype=bool)
    rhs = membership([fd.rhs for fd in fds], relation.n_cols)
    np.logical_or.at(incidence, lhs_of, rhs)
    marked = np.zeros((relation.n_rows, relation.n_cols), dtype=bool)
    for attr in range(relation.n_cols):
        marked[:, attr] = matrix[incidence[:, attr]].any(axis=0)
    if policy is not NullPolicy.INCLUDE:
        marked &= ~null_matrix(relation)
    return marked


def redundancy_positions(
    relation: Relation,
    cover: Iterable[FD],
    policy: NullPolicy = NullPolicy.INCLUDE,
    cache: Optional[PartitionCache] = None,
    deadline=None,
) -> np.ndarray:
    """Boolean ``(n_rows, n_cols)`` matrix of redundant positions.

    The union over the cover: a position may be redundant due to
    several FDs but is counted once (the data-set totals of Table IV).
    The per-LHS masks come from :func:`lhs_row_masks` (``deadline`` as
    there).
    """
    fds = list(cover)
    masks = lhs_row_masks(relation, (fd.lhs for fd in fds), policy, cache, deadline)
    return _positions_from_masks(relation, fds, masks, policy)


@dataclass(frozen=True)
class RedundancyReport:
    """One Table IV row: data redundancy of a data set under a cover."""

    n_values: int
    red_excluding_null: int
    red_including_null: int
    seconds: float

    @property
    def red_percent(self) -> float:
        """%red."""
        if self.n_values == 0:
            return 0.0
        return 100.0 * self.red_excluding_null / self.n_values

    @property
    def red_including_percent(self) -> float:
        """%red+0."""
        if self.n_values == 0:
            return 0.0
        return 100.0 * self.red_including_null / self.n_values


def report_from_masks(
    relation: Relation,
    fds: Sequence[FD],
    masks: Dict[AttrSet, np.ndarray],
    started: float,
) -> RedundancyReport:
    """The Table IV row of ``fds`` from their :func:`lhs_row_masks`.

    ``started`` is the :func:`time.perf_counter` reading the timed pass
    began at.
    """
    including = _positions_from_masks(relation, fds, masks)
    return RedundancyReport(
        n_values=relation.n_values,
        red_excluding_null=int((including & ~null_matrix(relation)).sum()),
        red_including_null=int(including.sum()),
        seconds=time.perf_counter() - started,
    )


def dataset_redundancy(
    relation: Relation,
    cover: Iterable[FD],
    deadline=None,
) -> RedundancyReport:
    """Compute #values / #red / #red+0 for a relation and cover (timed)."""
    start = time.perf_counter()
    fds = list(cover)
    with current_tracer().span("redundancy", fds=len(fds)):
        masks = lhs_row_masks(relation, (fd.lhs for fd in fds), deadline=deadline)
        return report_from_masks(relation, fds, masks, start)
