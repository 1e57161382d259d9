"""Column-focused redundancy reports (paper §VI-B).

One way data stewards consume the ranking: fix a column of interest and
list every minimal LHS in the cover that determines it, with redundancy
counts both including and excluding nulls.  The paper's worked example
is the ``city`` column of ncvoter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Union

from ..partitions.cache import PartitionCache
from ..relational import attrset
from ..relational.fd import FD
from ..relational.relation import Relation
from .redundancy import NullPolicy, redundant_rows_for_lhs


@dataclass(frozen=True)
class ColumnDeterminant:
    """One row of the §VI-B table: a minimal LHS for the target column."""

    lhs: attrset.AttrSet
    red: int
    red_null_free: int

    def format(self, relation: Relation) -> str:
        """Render as 'lhs  #red  #red-0'."""
        return (
            f"{relation.schema.format_attr_set(self.lhs)}  "
            f"#red={self.red}  #red-0={self.red_null_free}"
        )


def column_determinants(
    relation: Relation,
    cover: Iterable[FD],
    column: Union[str, int],
) -> List[ColumnDeterminant]:
    """Minimal LHSs of the cover that determine ``column``, with counts.

    ``red`` counts redundant occurrences in the target column under the
    null-inclusive policy; ``red_null_free`` excludes occurrences where
    the target value or any LHS value is null (the paper's #red-0).
    Sorted by descending ``red``.
    """
    target = relation.schema.resolve(column)
    target_nulls = relation.null_mask(target)
    cache = PartitionCache(relation, shared=True)
    rows_out: List[ColumnDeterminant] = []
    for fd in cover:
        if not attrset.contains(fd.rhs, target):
            continue
        partition = cache.get(fd.lhs)
        marked_all = redundant_rows_for_lhs(relation, partition, NullPolicy.INCLUDE)
        marked_clean = redundant_rows_for_lhs(
            relation, partition, NullPolicy.EXCLUDE_LHS_RHS
        )
        rows_out.append(
            ColumnDeterminant(
                lhs=fd.lhs,
                red=int(marked_all.sum()),
                red_null_free=int((marked_clean & ~target_nulls).sum()),
            )
        )
    rows_out.sort(key=lambda row: (-row.red, row.lhs))
    return rows_out
