"""Unit tests for redundant-occurrence counting (paper §VI)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import profile
from repro.datasets.armstrong import armstrong_relation
from repro.datasets.benchmarks import load_benchmark
from repro.datasets.synthetic import random_relation
from repro.partitions.cache import PartitionCache
from repro.ranking.ranker import rank_cover
from repro.ranking.redundancy import (
    NullPolicy,
    count_redundant,
    dataset_redundancy,
    redundancy_positions,
    redundant_rows_for_lhs,
)
from repro.relational import attrset
from repro.relational.fd import FD, FDSet
from repro.relational.null import NULL, NullSemantics
from repro.relational.relation import Relation


def A(*attrs):
    return attrset.from_attrs(attrs)


class TestCountRedundant:
    def test_constant_fd_counts_all_rows(self, city_relation):
        # ∅ -> state fixes the state value of every row (the paper's σ1)
        fd = FD(attrset.EMPTY, A(3))
        assert count_redundant(city_relation, fd) == 6

    def test_key_lhs_counts_nothing(self, city_relation):
        # name is a key: no two rows share it, nothing is fixed
        fd = FD(A(0), A(1))
        assert count_redundant(city_relation, fd) == 0

    def test_cluster_sizes(self, city_relation):
        # zip -> city: clusters {ann,bob} and {dan,eve} -> 4 occurrences
        fd = FD(A(1), A(2))
        assert count_redundant(city_relation, fd) == 4

    def test_multi_rhs_counts_per_attribute(self, city_relation):
        fd = FD(A(1), A(2, 3))
        assert count_redundant(city_relation, fd) == 8

    def test_duplicate_rows_counted(self, duplicate_relation):
        # k -> g: the duplicated key rows form a cluster of 2
        fd = FD(A(0), A(1))
        assert count_redundant(duplicate_relation, fd) == 2

    def test_cache_shared(self, city_relation):
        cache = PartitionCache(city_relation)
        fd = FD(A(1), A(2))
        assert count_redundant(city_relation, fd, cache=cache) == 4
        assert count_redundant(city_relation, fd, cache=cache) == 4


class TestNullPolicies:
    def make(self):
        # maybe: NULL,NULL,v,v  tag: x,x,y,y  -> maybe->tag has clusters
        rows = [
            ("a", NULL, "x"),
            ("b", NULL, NULL),
            ("c", "v", "y"),
            ("d", "v", "y"),
        ]
        return Relation.from_rows(rows, ["id", "maybe", "tag"])

    def test_include_counts_nulls(self):
        rel = self.make()
        fd = FD(A(1), A(2))
        assert count_redundant(rel, fd, NullPolicy.INCLUDE) == 4

    def test_exclude_rhs_drops_null_values(self):
        rel = self.make()
        fd = FD(A(1), A(2))
        # row 1's tag is NULL -> excluded
        assert count_redundant(rel, fd, NullPolicy.EXCLUDE_RHS) == 3

    def test_exclude_lhs_rhs_drops_null_witnesses(self):
        rel = self.make()
        fd = FD(A(1), A(2))
        # rows 0,1 have NULL maybe -> dropped from the cluster
        assert count_redundant(rel, fd, NullPolicy.EXCLUDE_LHS_RHS) == 2

    def test_exclude_lhs_rhs_shrinks_cluster_below_two(self):
        rows = [
            ("a", NULL, "x"),
            ("b", "v", "x"),
            ("c", "v", "x"),
        ]
        rel = Relation.from_rows(rows, ["id", "lhs", "rhs"])
        # under EQ NULL is its own value: cluster {a} alone is stripped,
        # cluster {b,c} stays
        fd = FD(A(1), A(2))
        assert count_redundant(rel, fd, NullPolicy.EXCLUDE_LHS_RHS) == 2

    def test_empty_lhs_with_null_policy(self):
        rel = self.make()
        fd = FD(attrset.EMPTY, A(2))
        assert count_redundant(rel, fd, NullPolicy.INCLUDE) == 4
        assert count_redundant(rel, fd, NullPolicy.EXCLUDE_RHS) == 3
        assert count_redundant(rel, fd, NullPolicy.EXCLUDE_LHS_RHS) == 3


class TestRedundancyPositions:
    def test_union_not_double_counted(self, city_relation):
        cover = [FD(A(1), A(2)), FD(attrset.EMPTY, A(3))]
        positions = redundancy_positions(city_relation, cover)
        # zip->city marks 4 city cells; ∅->state marks 6 state cells
        assert positions.sum() == 10
        assert positions[:, 2].sum() == 4
        assert positions[:, 3].sum() == 6

    def test_overlapping_fds_count_once(self, city_relation):
        cover = [FD(A(1), A(2)), FD(A(0, 1), A(2))]
        # second FD's positions are a subset of the first's
        positions = redundancy_positions(city_relation, cover)
        assert positions.sum() == 4

    def test_shape(self, city_relation):
        positions = redundancy_positions(city_relation, [])
        assert positions.shape == (6, 4)
        assert positions.sum() == 0


class TestDatasetRedundancy:
    def test_report_fields(self, city_relation):
        cover = FDSet([FD(A(1), A(2)), FD(attrset.EMPTY, A(3))])
        report = dataset_redundancy(city_relation, cover)
        assert report.n_values == 24
        assert report.red_including_null == 10
        assert report.red_excluding_null == 10  # no nulls present
        assert abs(report.red_including_percent - 100 * 10 / 24) < 1e-9
        assert report.seconds >= 0

    def test_null_exclusion(self):
        rows = [("a", NULL), ("b", NULL)]
        rel = Relation.from_rows(rows, ["x", "y"])
        cover = FDSet([FD(attrset.EMPTY, A(1))])
        report = dataset_redundancy(rel, cover)
        assert report.red_including_null == 2
        assert report.red_excluding_null == 0

    def test_empty_cover(self, city_relation):
        report = dataset_redundancy(city_relation, FDSet())
        assert report.red_including_null == 0
        assert report.red_percent == 0.0


class TestBruteForceEquivalence:
    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 300))
    def test_matches_definition(self, seed):
        """A position is redundant iff another row shares its LHS values."""
        rel = random_relation(20, 4, domain_sizes=3, null_rate=0.15, seed=seed)
        fd = FD(A(0, 1), A(2))
        matrix = rel.matrix()
        expected = 0
        for i in range(rel.n_rows):
            if any(
                j != i
                and matrix[j][0] == matrix[i][0]
                and matrix[j][1] == matrix[i][1]
                for j in range(rel.n_rows)
            ):
                expected += 1
        assert count_redundant(rel, fd, NullPolicy.INCLUDE) == expected


class TestSinglePass:
    """``profile()`` builds ranking and report from one mask pass."""

    @staticmethod
    def _relations():
        fd = lambda lhs, rhs: FD(A(*lhs), A(rhs))  # noqa: E731
        yield armstrong_relation(4, [fd([0], 1), fd([1, 2], 3)])
        yield armstrong_relation(5, [fd([0, 1], 2), fd([2], 3), fd([3, 4], 0)])
        yield armstrong_relation(6, [fd([0], 1), fd([1], 2), fd([2, 3], 4)])
        for seed in range(3):
            yield random_relation(
                60, 5, domain_sizes=[2, 3, 4, 3, 2], null_rate=0.2, seed=seed
            )

    @pytest.mark.parametrize("semantics", list(NullSemantics))
    def test_profile_matches_standalone_passes(self, semantics):
        for relation in self._relations():
            outcome = profile(relation, null_semantics=semantics, trace=True)
            encoded, cover = outcome.relation, outcome.canonical
            ranking = rank_cover(encoded, cover)
            report = dataset_redundancy(encoded, cover)
            assert outcome.ranking.ranked == ranking.ranked
            assert (
                outcome.redundancy.n_values,
                outcome.redundancy.red_excluding_null,
                outcome.redundancy.red_including_null,
            ) == (
                report.n_values,
                report.red_excluding_null,
                report.red_including_null,
            )

    def test_profile_derives_each_lhs_partition_once(self):
        # hepatitis 70x18 takes the pair path: one mask pass, no partitions.
        hepatitis = load_benchmark("hepatitis")
        relation = hepatitis.project_columns(
            [c for c in range(hepatitis.n_cols) if c not in (1, 2)]
        )
        assert (relation.n_rows, relation.n_cols) == (70, 18)
        outcome = profile(relation, trace=True)
        unique_lhs = {fd.lhs for fd in outcome.canonical}
        (event,) = outcome.tracer.find_events("lhs_masks")
        assert event.attrs == {
            "path": "pairs", "lhss": len(unique_lhs), "pairs": 70 * 69 // 2
        }
        assert not [
            event
            for event in outcome.tracer.find_events("partition_cache")
            if event.attrs["scope"] in ("ranking", "redundancy")
        ]

    def test_partition_path_derives_each_lhs_partition_once(self):
        # ncvoter at 1,000 rows takes the partition path.
        outcome = profile(load_benchmark("ncvoter"), trace=True)
        (event,) = outcome.tracer.find_events("lhs_masks")
        assert event.attrs["path"] == "partitions"
        misses = sum(
            event.attrs["misses"]
            for event in outcome.tracer.find_events("partition_cache")
            if event.attrs["scope"] in ("ranking", "redundancy")
        )
        unique_lhs = {fd.lhs for fd in outcome.canonical}
        assert 0 < misses <= len(unique_lhs)
