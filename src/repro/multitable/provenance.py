"""Virtual joins as provenance index arrays (no joined relation).

Joining the base tables of a :class:`~repro.multitable.schema.SchemaGraph`
along a key/foreign-key path produces a (possibly much larger) relation
— but FD discovery never needs its *values*, only which base rows each
join row came from.  This module computes exactly that:

* :func:`build_provenance` walks a join path and produces one int64
  **provenance index array per base table**: entry ``i`` is the base row
  that join row ``i`` draws its columns from (``-1`` = padded, i.e. an
  outer-join null fill).  Join rows are never materialized.
* :func:`lift_column` lifts a base column through a provenance array
  — the π lift is *relabel* (gather base DIIS codes through the index,
  substituting null sentinels per the graph's null semantics) *and
  re-strip* (first-occurrence dense re-encode).  The lifted
  :class:`~repro.relational.encoding.EncodedColumn` is byte-identical
  to encoding the materialized join column, so lifted relations
  fingerprint identically to materialized ones.
* :func:`materialize_join` is the *independent* differential oracle: a
  plain hash join over decoded values that really builds the joined
  rows and re-encodes them with ``Relation.from_rows``.  It exists for
  tests only and announces itself with a
  ``multitable.materialize`` telemetry event — the virtual path never
  emits one.

Provenance construction and the column lift run vectorized over flat
index arrays.  Join rows are ordered with current rows outer and
matching child rows ascending inner, the order :func:`materialize_join`
emits; the tests check the index arrays, counters and lifted columns
against it.

Dangling foreign keys (a child value missing from the parent) follow
the ``on_dangling`` policy, mirroring ``read_csv``'s ``on_bad_row=``:
``"raise"`` refuses, ``"drop"`` inner-joins them away, ``"pad"``
left-outer-joins with null fills.  A *null* FK component is not a
violation under either null semantics — the row simply matches nothing
(dropped under ``raise``/``drop``, padded under ``"pad"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..relational.encoding import EncodedColumn
from ..relational.null import NullSemantics
from ..relational.relation import Relation
from ..relational.schema import RelationSchema
from ..telemetry import current_tracer
from .schema import JoinStep, MultitableError, SchemaGraph

#: Recognized dangling-FK policies (mirrors ``read_csv on_bad_row=``).
POLICIES = ("raise", "drop", "pad")

#: Provenance entry marking a padded (outer-join null) join row.
PAD = -1

_DANGLING = -2  # internal marker from _match_rows; never escapes


class DanglingRowError(MultitableError):
    """A child FK value has no parent row and the policy is ``raise``."""


def resolve_policy(on_dangling: Optional[str]) -> str:
    """Validate an ``on_dangling`` policy, mapping ``None`` to ``raise``."""
    if on_dangling is None:
        return "raise"
    if on_dangling not in POLICIES:
        raise MultitableError(
            f"on_dangling must be one of {POLICIES}, got {on_dangling!r}"
        )
    return on_dangling


@dataclass(frozen=True)
class JoinProvenance:
    """Row provenance of a virtual join.

    ``index[table][i]`` is the base row of ``table`` that join row ``i``
    draws from (:data:`PAD` for outer-join null fills).  This is the
    entire representation of the join: ``n_rows`` join rows exist only
    as positions in these arrays.
    """

    tables: Tuple[str, ...]
    index: Dict[str, np.ndarray]
    n_rows: int
    policy: str
    dropped_rows: int
    padded_cells: int

    def stats(self) -> Dict[str, object]:
        return {
            "tables": list(self.tables),
            "n_rows": self.n_rows,
            "policy": self.policy,
            "dropped_rows": self.dropped_rows,
            "padded_cells": self.padded_cells,
        }


# ----------------------------------------------------------------------
# FK matching (shared value-level primitive)
# ----------------------------------------------------------------------


def _match_rows(
    child: Relation,
    child_attrs: Sequence[int],
    parent: Relation,
    parent_attrs: Sequence[int],
) -> np.ndarray:
    """Owner array: child row -> parent row, ``-1`` null FK, ``-2`` dangling.

    Matching is over decoded values of non-null components, so EQ and
    NEQ encodings of the same data produce the same owners (two nulls
    never match, under either semantics).
    """
    pcols = [parent.column(a) for a in parent_attrs]
    parent_map: Dict[Tuple[object, ...], int] = {}
    for row in range(parent.n_rows):
        if any(c.null_mask[row] for c in pcols):
            continue
        key = tuple(c.decode(int(c.codes[row])) for c in pcols)
        parent_map.setdefault(key, row)
    ccols = [child.column(a) for a in child_attrs]
    if len(ccols) == 1:
        # translate over the code space: O(cardinality) dict lookups
        # instead of O(rows), then one vectorized gather.
        col = ccols[0]
        code_map = np.full(max(col.cardinality, 1), _DANGLING, dtype=np.int64)
        for code, value in enumerate(col.decoder):
            if value is None:
                code_map[code] = -1
            else:
                code_map[code] = parent_map.get((value,), _DANGLING)
        return code_map[col.codes]
    out = np.empty(child.n_rows, dtype=np.int64)
    for row in range(child.n_rows):
        if any(c.null_mask[row] for c in ccols):
            out[row] = -1
            continue
        key = tuple(c.decode(int(c.codes[row])) for c in ccols)
        out[row] = parent_map.get(key, _DANGLING)
    return out


def _step_attrs(graph: SchemaGraph, step: JoinStep) -> Tuple[List[int], List[int]]:
    child = graph.table(step.fk.child)
    parent = graph.table(step.fk.parent)
    child_attrs = [child.schema.resolve(c) for c in step.fk.child_columns]
    parent_attrs = [parent.schema.resolve(c) for c in step.fk.parent_columns]
    return child_attrs, parent_attrs


# ----------------------------------------------------------------------
# Provenance construction
# ----------------------------------------------------------------------


def build_provenance(
    graph: SchemaGraph,
    path: Sequence[str],
    on_dangling: str = "raise",
) -> JoinProvenance:
    """Compute the per-table provenance index arrays of a join path.

    The joined relation is never built: the result is one int64 array
    per path table plus counters.  Join-row order is deterministic —
    rows of the first table in row order, then per step current join
    rows outer and matching child rows ascending inner — and identical
    with :func:`materialize_join`.
    """
    policy = resolve_policy(on_dangling)
    steps = graph.resolve_path(path)
    names = [str(p) for p in path]
    tracer = current_tracer()
    with tracer.span(
        "multitable.provenance",
        path="/".join(names),
        policy=policy,
    ):
        index, dropped, padded = _build_index(graph, names, steps, policy)
        n_rows = int(len(index[names[0]]))
        tracer.counter("multitable.provenance.calls").inc()
        tracer.event(
            "multitable.provenance.built",
            n_rows=n_rows,
            dropped_rows=dropped,
            padded_cells=padded,
        )
    return JoinProvenance(
        tables=tuple(names),
        index=index,
        n_rows=n_rows,
        policy=policy,
        dropped_rows=dropped,
        padded_cells=padded,
    )


def _build_index(
    graph: SchemaGraph,
    names: List[str],
    steps: List[JoinStep],
    policy: str,
) -> Tuple[Dict[str, np.ndarray], int, int]:
    """The per-table index arrays, built vectorized over flat arrays."""
    first = graph.table(names[0])
    index: Dict[str, np.ndarray] = {
        names[0]: np.arange(first.n_rows, dtype=np.int64)
    }
    dropped = 0
    padded = 0
    for step in steps:
        src = index[step.source]
        n = len(src)
        child_attrs, parent_attrs = _step_attrs(graph, step)
        owner = _match_rows(
            graph.table(step.fk.child),
            child_attrs,
            graph.table(step.fk.parent),
            parent_attrs,
        )
        if step.direction == "forward":
            target = np.full(n, PAD, dtype=np.int64)
            live = src >= 0
            target[live] = owner[src[live]]
            if policy == "raise" and bool(np.any(target == _DANGLING)):
                child_row = int(src[np.argmax(target == _DANGLING)])
                raise DanglingRowError(
                    f"row {child_row} of {step.fk.child!r} references a "
                    f"missing {step.fk.parent!r} row "
                    f"(foreign key {step.fk.format()}); "
                    "use on_dangling='drop' or 'pad'"
                )
            if policy == "pad":
                target[target < 0] = PAD
                padded += int(np.sum(target == PAD))
                index[step.target] = target
            else:
                keep = target >= 0
                dropped += int(np.sum(~keep))
                index = {name: arr[keep] for name, arr in index.items()}
                index[step.target] = target[keep]
        else:  # expand: parent -> child, one-to-many
            parent_rows = graph.table(step.fk.parent).n_rows
            valid = np.nonzero(owner >= 0)[0]
            owners = owner[valid]
            order = np.argsort(owners, kind="stable")  # child rows stay ascending
            sorted_children = valid[order]
            counts = np.bincount(owners, minlength=parent_rows).astype(np.int64)
            offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
            cnt = np.zeros(n, dtype=np.int64)
            live = src >= 0
            cnt[live] = counts[src[live]]
            if policy == "pad":
                eff = np.maximum(cnt, 1)
            else:
                eff = cnt
                dropped += int(np.sum(cnt == 0))
            rep = np.repeat(np.arange(n, dtype=np.int64), eff)
            starts = np.concatenate(([0], np.cumsum(eff)[:-1]))
            pos = np.arange(int(eff.sum()), dtype=np.int64) - starts[rep]
            child_idx = np.full(len(rep), PAD, dtype=np.int64)
            has = cnt[rep] > 0
            child_idx[has] = sorted_children[offsets[src[rep[has]]] + pos[has]]
            padded += int(np.sum(child_idx == PAD))
            index = {name: arr[rep] for name, arr in index.items()}
            index[step.target] = child_idx
    return index, dropped, padded


# ----------------------------------------------------------------------
# The π lift: relabel + re-strip through a provenance array
# ----------------------------------------------------------------------


def _lift_keys(
    column: EncodedColumn, idx: np.ndarray, semantics: NullSemantics
) -> np.ndarray:
    """Relabel: gather base codes through ``idx`` with null sentinels.

    Non-null join rows keep the base row's (non-negative) DIIS code.
    Null join rows (padded, or drawn from a base null) become negative
    sentinels — one shared sentinel under EQ, a distinct sentinel per
    join row under NEQ (a base null fanned out by a one-to-many step is
    *several* nulls in the join, and under NEQ each agrees with
    nothing).  Equality over this key array is exactly value equality
    on the materialized join column.
    """
    n = len(idx)
    keys = np.empty(n, dtype=np.int64)
    live = idx >= 0
    keys[live] = column.codes[idx[live]]
    is_null = ~live
    if bool(np.any(live)):
        base_null = np.zeros(n, dtype=bool)
        base_null[live] = column.null_mask[idx[live]]
        is_null |= base_null
    if semantics is NullSemantics.EQ:
        keys[is_null] = -1
    else:
        null_rows = np.nonzero(is_null)[0]
        keys[null_rows] = -null_rows - 1
    return keys


def lift_column(
    column: EncodedColumn,
    idx: np.ndarray,
    semantics: NullSemantics,
) -> EncodedColumn:
    """Re-strip: densely re-encode a relabelled column in join-row order.

    The result is byte-identical (codes, null mask, cardinality and
    decoder) to ``encode_column`` over the materialized join column:
    codes are assigned in first-occurrence order, nulls follow the
    semantics, and decoder entries are the base decoder's values.
    """
    n = len(idx)
    keys = _lift_keys(column, idx, semantics)
    null_mask = keys < 0
    if n == 0:
        return EncodedColumn(
            codes=np.empty(0, dtype=np.int64),
            null_mask=null_mask,
            cardinality=0,
            decoder=(),
        )
    unique, first, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    # np.unique sorts; rank unique values by first occurrence instead so
    # code assignment matches encode_column exactly.
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(unique), dtype=np.int64)
    rank[order] = np.arange(len(unique), dtype=np.int64)
    codes = rank[inverse].astype(np.int64)
    decoder = tuple(
        None if key < 0 else column.decode(int(key)) for key in unique[order]
    )
    return EncodedColumn(
        codes=codes,
        null_mask=null_mask,
        cardinality=int(len(unique)),
        decoder=decoder,
    )


def lift_relation(
    graph: SchemaGraph,
    provenance: JoinProvenance,
) -> Relation:
    """The virtual join as an encoded relation, built purely from lifts.

    Column names are ``"table.column"`` in path order.  Every encoded
    column (and therefore the relation fingerprint) is byte-identical
    to :func:`materialize_join`'s output — but no decoded join row is
    ever created; the only allocations are the lifted code arrays.
    """
    semantics = graph.semantics
    tracer = current_tracer()
    names: List[str] = []
    columns: List[EncodedColumn] = []
    with tracer.span(
        "multitable.lift",
        path="/".join(provenance.tables),
        n_rows=provenance.n_rows,
    ):
        for table in provenance.tables:
            relation = graph.table(table)
            idx = provenance.index[table]
            for attr, name in enumerate(relation.schema.names):
                names.append(f"{table}.{name}")
                columns.append(lift_column(relation.column(attr), idx, semantics))
        tracer.counter("multitable.lift.columns").inc(len(columns))
    return Relation(RelationSchema(names), columns, semantics, provenance.n_rows)


def attribute_tables(
    graph: SchemaGraph, tables: Sequence[str]
) -> List[str]:
    """Owning table of each lifted-relation attribute, in schema order."""
    owners: List[str] = []
    for table in tables:
        owners.extend([table] * graph.table(table).n_cols)
    return owners


# ----------------------------------------------------------------------
# The independent oracle: really build the join
# ----------------------------------------------------------------------


def materialize_join(
    graph: SchemaGraph,
    path: Sequence[str],
    on_dangling: str = "raise",
) -> Relation:
    """Hash-join the path over decoded values and re-encode the result.

    Deliberately shares no code with :func:`build_provenance`: this is
    the differential-testing oracle, so it works on decoded Python
    values and pays for full row tuples plus a fresh
    ``Relation.from_rows`` encode.  Emits a ``multitable.materialize``
    telemetry event — its absence is how the tests prove the virtual
    path never built the join.
    """
    policy = resolve_policy(on_dangling)
    steps = graph.resolve_path(path)
    names = [str(p) for p in path]
    semantics = graph.semantics
    tracer = current_tracer()

    def decoded_rows(relation: Relation) -> List[Tuple[object, ...]]:
        cols = [relation.column(a) for a in range(relation.n_cols)]
        return [
            tuple(
                None if col.null_mask[row] else col.decode(int(col.codes[row]))
                for col in cols
            )
            for row in range(relation.n_rows)
        ]

    with tracer.span("multitable.materialize", path="/".join(names)):
        tracer.event("multitable.materialize", path="/".join(names))
        tracer.counter("multitable.materialize.calls").inc()
        offsets: Dict[str, int] = {}
        width = 0
        column_names: List[str] = []
        for name in names:
            offsets[name] = width
            relation = graph.table(name)
            width += relation.n_cols
            column_names.extend(
                f"{name}.{col}" for col in relation.schema.names
            )
        rows: List[Tuple[object, ...]] = decoded_rows(graph.table(names[0]))
        for step in steps:
            child_rel = graph.table(step.fk.child)
            parent_rel = graph.table(step.fk.parent)
            child_attrs = [
                child_rel.schema.resolve(c) for c in step.fk.child_columns
            ]
            parent_attrs = [
                parent_rel.schema.resolve(c) for c in step.fk.parent_columns
            ]
            if step.direction == "forward":
                parent_rows = decoded_rows(parent_rel)
                table: Dict[Tuple[object, ...], Tuple[object, ...]] = {}
                for parent_row in parent_rows:
                    key = tuple(parent_row[a] for a in parent_attrs)
                    if any(v is None for v in key):
                        continue
                    table.setdefault(key, parent_row)
                pad_fill = (None,) * parent_rel.n_cols
                base = offsets[step.source]
                positions = [base + a for a in child_attrs]
                new_rows: List[Tuple[object, ...]] = []
                for row in rows:
                    key = tuple(row[p] for p in positions)
                    if any(v is None for v in key):
                        match = None
                    else:
                        match = table.get(key)
                        if match is None and policy == "raise":
                            raise DanglingRowError(
                                f"dangling value {key!r} in {step.fk.child!r} "
                                f"(foreign key {step.fk.format()})"
                            )
                    if match is not None:
                        new_rows.append(row + match)
                    elif policy == "pad":
                        new_rows.append(row + pad_fill)
                rows = new_rows
            else:  # expand
                child_rows = decoded_rows(child_rel)
                children: Dict[Tuple[object, ...], List[Tuple[object, ...]]] = {}
                for child_row in child_rows:
                    key = tuple(child_row[a] for a in child_attrs)
                    if any(v is None for v in key):
                        continue
                    children.setdefault(key, []).append(child_row)
                pad_fill = (None,) * child_rel.n_cols
                base = offsets[step.source]
                positions = [base + a for a in parent_attrs]
                new_rows = []
                for row in rows:
                    key = tuple(row[p] for p in positions)
                    if any(v is None for v in key):
                        matches: List[Tuple[object, ...]] = []
                    else:
                        matches = children.get(key, [])
                    if matches:
                        for child_row in matches:
                            new_rows.append(row + child_row)
                    elif policy == "pad":
                        new_rows.append(row + pad_fill)
                rows = new_rows
        return Relation.from_rows(rows, schema=column_names, semantics=semantics)
