"""Redundancy-based FD ranking (the paper's third contribution)."""

from .explain import RedundancyWitness, explain_redundancy, violating_pairs
from .ranker import (
    DEFAULT_BUCKET_FRACTIONS,
    RankedFD,
    RankingResult,
    rank_cover,
    redundancy_histogram,
)
from .redundancy import (
    NullPolicy,
    RedundancyReport,
    count_redundant,
    dataset_redundancy,
    lhs_row_masks,
    redundancy_positions,
    redundant_rows_for_lhs,
)
from .report import ColumnDeterminant, column_determinants

__all__ = [
    "ColumnDeterminant",
    "DEFAULT_BUCKET_FRACTIONS",
    "NullPolicy",
    "RankedFD",
    "RedundancyWitness",
    "RankingResult",
    "RedundancyReport",
    "column_determinants",
    "count_redundant",
    "dataset_redundancy",
    "explain_redundancy",
    "lhs_row_masks",
    "rank_cover",
    "redundancy_histogram",
    "redundancy_positions",
    "redundant_rows_for_lhs",
    "violating_pairs",
]
