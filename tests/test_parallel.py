"""repro.parallel reports one worker; the serial path's own checks.

Discovery, ranking and sampling run serially in the calling process,
so :func:`repro.parallel.get_default_jobs` is always ``1``.  Also here:
the level log's candidate accounting and the vectorized redundant-row
marking against the original per-row loop.
"""

import numpy as np
import pytest

from repro import parallel
from repro.core.dhyfd import DHyFD
from repro.partitions.stripped import StrippedPartition
from repro.ranking.redundancy import NullPolicy, redundant_rows_for_lhs
from repro.relational import attrset
from tests.conftest import make_random_relation


class TestJobsResolution:
    def test_default_is_serial(self):
        assert parallel.get_default_jobs() == 1


class TestDiscoveryDeterminism:
    def test_level_log_counts_only_validated_nodes(self):
        # The LevelDecision fix: candidate totals never undercount the
        # valid FDs found at the level (deleted/empty-RHS nodes are
        # excluded from both sides).
        entries = []
        for seed in range(8):
            relation = make_random_relation(seed)
            entries.extend(DHyFD().discover(relation).stats.level_log)
        assert entries
        for entry in entries:
            assert entry["valid"] <= entry["candidates"]


# ----------------------------------------------------------------------
# Vectorized redundant_rows_for_lhs (vs the original per-row loop)
# ----------------------------------------------------------------------


def _reference_rows_for_lhs(relation, partition, policy):
    from repro.ranking.redundancy import _lhs_null_mask

    marked = np.zeros(relation.n_rows, dtype=bool)
    lhs_nulls = (
        _lhs_null_mask(relation, partition.attrs)
        if policy is NullPolicy.EXCLUDE_LHS_RHS
        else None
    )
    for cluster in partition.clusters:
        if lhs_nulls is None:
            rows = cluster
        else:
            rows = [row for row in cluster if not lhs_nulls[row]]
            if len(rows) < 2:
                continue
        for row in rows:
            marked[row] = True
    return marked


class TestVectorizedRowMarking:
    @pytest.mark.parametrize("policy", list(NullPolicy))
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference_loop(self, seed, policy):
        relation = make_random_relation(seed)
        for attrs in (
            attrset.EMPTY,
            attrset.singleton(0),
            attrset.full_set(relation.n_cols),
        ):
            partition = StrippedPartition.for_attrs(relation, attrs)
            expected = _reference_rows_for_lhs(relation, partition, policy)
            actual = redundant_rows_for_lhs(relation, partition, policy)
            assert np.array_equal(actual, expected)
