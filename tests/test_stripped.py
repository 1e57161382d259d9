"""Unit tests for stripped partitions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import random_relation
from repro.partitions import kernels
from repro.partitions.stripped import StrippedPartition
from repro.relational import attrset
from repro.relational.relation import Relation


def clusters_as_sets(partition):
    return {frozenset(c) for c in partition.clusters}


class TestConstruction:
    def test_universal(self, city_relation):
        universal = StrippedPartition.universal(city_relation)
        assert universal.num_clusters == 1
        assert universal.size == 6
        assert universal.attrs == attrset.EMPTY

    def test_universal_single_row(self):
        rel = Relation.from_rows([("a",)])
        assert StrippedPartition.universal(rel).num_clusters == 0

    def test_for_attribute_strips_singletons(self, city_relation):
        # names are unique -> everything stripped
        partition = StrippedPartition.for_attribute(city_relation, 0)
        assert partition.num_clusters == 0
        assert partition.is_key()

    def test_for_attribute_groups(self, city_relation):
        # zip: z1 has 2 rows, z3 has 2 rows, z2/z4 stripped
        partition = StrippedPartition.for_attribute(city_relation, 1)
        assert clusters_as_sets(partition) == {frozenset({0, 1}), frozenset({3, 4})}

    def test_for_attrs_multi(self, city_relation):
        partition = StrippedPartition.for_attrs(
            city_relation, attrset.from_attrs([1, 2])
        )
        assert clusters_as_sets(partition) == {frozenset({0, 1}), frozenset({3, 4})}

    def test_for_attrs_empty_is_universal(self, city_relation):
        partition = StrippedPartition.for_attrs(city_relation, attrset.EMPTY)
        assert partition.size == 6


class TestMeasures:
    def test_cardinality_and_size(self, city_relation):
        partition = StrippedPartition.for_attribute(city_relation, 2)
        # city: c1 x3, c2 x2, c3 stripped
        assert partition.num_clusters == 2
        assert partition.size == 5
        assert partition.error == 3

    def test_error_zero_iff_key(self, city_relation):
        assert StrippedPartition.for_attribute(city_relation, 0).error == 0
        assert StrippedPartition.for_attribute(city_relation, 3).error == 5

    def test_memory_bytes_positive(self, city_relation):
        partition = StrippedPartition.for_attribute(city_relation, 2)
        assert partition.memory_bytes() > 0

    def test_iter_and_len(self, city_relation):
        partition = StrippedPartition.for_attribute(city_relation, 1)
        assert len(partition) == 2
        assert sum(len(c) for c in partition) == partition.size


class TestRefinement:
    def test_refine_matches_direct(self, city_relation):
        base = StrippedPartition.for_attribute(city_relation, 2)
        refined = base.refine(city_relation, 1)
        direct = StrippedPartition.for_attrs(
            city_relation, attrset.from_attrs([1, 2])
        )
        assert clusters_as_sets(refined) == clusters_as_sets(direct)
        assert refined.attrs == attrset.from_attrs([1, 2])

    def test_refine_cluster_helper(self, city_relation):
        codes = city_relation.codes(1)
        split = kernels.refine_clusters([codes], [[0, 1, 2]])
        assert {frozenset(c) for c in split} == {frozenset({0, 1})}

    def test_refine_many(self, city_relation):
        base = StrippedPartition.universal(city_relation)
        refined = base.refine_many(city_relation, [1, 2])
        direct = StrippedPartition.for_attrs(
            city_relation, attrset.from_attrs([1, 2])
        )
        assert clusters_as_sets(refined) == clusters_as_sets(direct)


class TestIntersection:
    def test_intersect_matches_refinement(self, city_relation):
        zip_part = StrippedPartition.for_attribute(city_relation, 1)
        city_part = StrippedPartition.for_attribute(city_relation, 2)
        product = zip_part.intersect(city_part)
        direct = StrippedPartition.for_attrs(
            city_relation, attrset.from_attrs([1, 2])
        )
        assert clusters_as_sets(product) == clusters_as_sets(direct)
        assert product.attrs == attrset.from_attrs([1, 2])


class TestRefinesAttribute:
    def test_valid_fd(self, city_relation):
        zip_part = StrippedPartition.for_attribute(city_relation, 1)
        assert zip_part.refines_attribute(city_relation, 2)  # zip -> city
        assert zip_part.refines_attribute(city_relation, 3)  # zip -> state

    def test_invalid_fd(self, city_relation):
        city_part = StrippedPartition.for_attribute(city_relation, 2)
        assert not city_part.refines_attribute(city_relation, 1)  # city !-> zip


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 1000),
    n_rows=st.integers(2, 40),
    n_cols=st.integers(1, 5),
    attrs=st.sets(st.integers(0, 4), min_size=1, max_size=3),
)
def test_partition_invariants(seed, n_rows, n_cols, attrs):
    """Clusters are disjoint, all >= 2, and respect code equality."""
    attrs = {a % n_cols for a in attrs}
    rel = random_relation(n_rows, n_cols, domain_sizes=3, seed=seed)
    mask = attrset.from_attrs(attrs)
    partition = StrippedPartition.for_attrs(rel, mask)
    seen = set()
    matrix = rel.matrix()
    cols = sorted(attrs)
    for cluster in partition.clusters:
        assert len(cluster) >= 2
        assert not (set(cluster) & seen)
        seen |= set(cluster)
        first = [matrix[cluster[0]][c] for c in cols]
        for row in cluster:
            assert [matrix[row][c] for c in cols] == first
    # rows outside clusters are unique on the projection
    projections = {}
    for row in range(rel.n_rows):
        key = tuple(matrix[row][c] for c in cols)
        projections.setdefault(key, []).append(row)
    expected = {frozenset(v) for v in projections.values() if len(v) >= 2}
    assert {frozenset(c) for c in partition.clusters} == expected


@settings(deadline=None, max_examples=20)
@given(
    seed=st.integers(0, 1000),
    split=st.integers(0, 4),
)
def test_intersect_commutative(seed, split):
    rel = random_relation(30, 5, domain_sizes=3, seed=seed)
    left = StrippedPartition.for_attrs(rel, attrset.from_attrs([0, split % 5]))
    right = StrippedPartition.for_attrs(rel, attrset.from_attrs([(split + 1) % 5]))
    forward = left.intersect(right)
    backward = right.intersect(left)
    assert {frozenset(c) for c in forward.clusters} == {
        frozenset(c) for c in backward.clusters
    }
