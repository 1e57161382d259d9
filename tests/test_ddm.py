"""Unit tests for the dynamic data manager (Algorithm 3)."""

from __future__ import annotations

from repro.core.ddm import DynamicDataManager
from repro.fdtree.extended import ExtendedFDTree
from repro.partitions.stripped import StrippedPartition
from repro.relational import attrset


def A(*attrs):
    return attrset.from_attrs(attrs)


def clusters_as_sets(partition):
    return {frozenset(c) for c in partition.clusters}


class TestLookup:
    def test_precomputes_singletons(self, city_relation):
        ddm = DynamicDataManager(city_relation)
        assert len(ddm.singletons) == city_relation.n_cols
        for attr, partition in enumerate(ddm.singletons):
            assert partition.attrs == attrset.singleton(attr)

    def test_best_singleton_prefers_smallest(self, city_relation):
        ddm = DynamicDataManager(city_relation)
        # name is a key -> its partition is empty (size 0), the smallest
        best = ddm.store.best_singleton(A(0, 2, 3))
        assert best.attrs == attrset.singleton(0)

    def test_best_singleton_empty_path_gives_universal(self, city_relation):
        ddm = DynamicDataManager(city_relation)
        assert ddm.store.best_singleton(attrset.EMPTY) is ddm.universal

    def test_partition_for_default_id_node(self, city_relation):
        ddm = DynamicDataManager(city_relation)
        tree = ExtendedFDTree(city_relation.n_cols)
        node = tree.add_fd(A(1, 2), A(3))
        partition = ddm.partition_for_node(node)
        assert attrset.is_subset(partition.attrs, A(1, 2))

    def test_partition_for_inconsistent_id_falls_back(self, city_relation):
        ddm = DynamicDataManager(city_relation)
        ddm.dynamic = [StrippedPartition.for_attribute(city_relation, 3)]
        tree = ExtendedFDTree(city_relation.n_cols)
        node = tree.add_fd(A(1, 2), A(0))
        node.id = city_relation.n_cols  # points at π_3, not ⊆ {1,2}
        partition = ddm.partition_for_node(node)
        assert attrset.is_subset(partition.attrs, A(1, 2))

    def test_partition_for_out_of_range_id(self, city_relation):
        ddm = DynamicDataManager(city_relation)
        tree = ExtendedFDTree(city_relation.n_cols)
        node = tree.add_fd(A(1), A(0))
        node.id = 99
        partition = ddm.partition_for_node(node)
        assert partition.attrs == attrset.singleton(1)


class TestAccounting:
    """Regression: lookup counters must not conflate by-design
    singleton-id resolutions with real stale fallbacks, and internal
    resolutions made by update() must not count at all."""

    def test_singleton_id_counts_as_singleton_lookup(self, city_relation):
        ddm = DynamicDataManager(city_relation)
        tree = ExtendedFDTree(city_relation.n_cols)
        node = tree.add_fd(A(1, 2), A(3))
        ddm.partition_for_node(node)
        assert ddm.singleton_lookups == 1
        assert ddm.hits == 0
        assert ddm.stale_fallbacks == 0
        assert ddm.misses == 0

    def test_dynamic_id_counts_as_hit(self, city_relation):
        ddm = DynamicDataManager(city_relation)
        tree = ExtendedFDTree(city_relation.n_cols)
        end = tree.add_fd(A(1, 2), A(3))
        ddm.update([end])
        ddm.partition_for_node(end)
        assert ddm.hits == 1
        assert ddm.singleton_lookups == 0
        assert ddm.stale_fallbacks == 0

    def test_stale_id_counts_as_fallback(self, city_relation):
        ddm = DynamicDataManager(city_relation)
        ddm.dynamic = [StrippedPartition.for_attribute(city_relation, 3)]
        tree = ExtendedFDTree(city_relation.n_cols)
        node = tree.add_fd(A(1, 2), A(0))
        node.id = city_relation.n_cols  # points at π_3, not ⊆ {1,2}
        ddm.partition_for_node(node)
        assert ddm.stale_fallbacks == 1
        assert ddm.misses == 1
        assert ddm.hits == 0
        assert ddm.singleton_lookups == 0

    def test_update_does_not_inflate_counters(self, city_relation):
        ddm = DynamicDataManager(city_relation)
        tree = ExtendedFDTree(city_relation.n_cols)
        end = tree.add_fd(A(1, 2), A(3))
        ddm.update([end])
        ddm.update([end])  # second round resolves the dynamic id again
        assert ddm.hits == 0
        assert ddm.singleton_lookups == 0
        assert ddm.stale_fallbacks == 0


class TestUpdate:
    def test_update_refines_to_paths(self, city_relation):
        ddm = DynamicDataManager(city_relation)
        tree = ExtendedFDTree(city_relation.n_cols)
        end = tree.add_fd(A(1, 2), A(3))
        parent = end.parent  # node for attr 1 at level 1
        ddm.update([parent])
        assert len(ddm.dynamic) == 1
        assert ddm.dynamic[0].attrs == A(1)
        assert parent.id == city_relation.n_cols

    def test_update_copies_ids_to_descendants(self, city_relation):
        ddm = DynamicDataManager(city_relation)
        tree = ExtendedFDTree(city_relation.n_cols)
        end = tree.add_fd(A(1, 2), A(3))
        parent = end.parent
        ddm.update([parent])
        assert end.id == parent.id

    def test_updated_partition_correct(self, city_relation):
        ddm = DynamicDataManager(city_relation)
        tree = ExtendedFDTree(city_relation.n_cols)
        end = tree.add_fd(A(1, 2), A(3))
        ddm.update([end])
        expected = StrippedPartition.for_attrs(city_relation, A(1, 2))
        assert clusters_as_sets(ddm.dynamic[0]) == clusters_as_sets(expected)

    def test_second_update_reuses_previous(self, city_relation):
        ddm = DynamicDataManager(city_relation)
        tree = ExtendedFDTree(city_relation.n_cols)
        end = tree.add_fd(A(1, 2), A(3))
        parent = end.parent
        ddm.update([parent])
        ddm.update([end])  # refine π_1 -> π_12 starting from dynamic
        assert ddm.update_count == 2
        expected = StrippedPartition.for_attrs(city_relation, A(1, 2))
        assert clusters_as_sets(ddm.dynamic[0]) == clusters_as_sets(expected)
        assert end.id == city_relation.n_cols

    def test_memory_accounting(self, city_relation):
        ddm = DynamicDataManager(city_relation)
        assert ddm.dynamic_memory_bytes() == 0
        tree = ExtendedFDTree(city_relation.n_cols)
        end = tree.add_fd(A(1, 2), A(3))
        ddm.update([end])
        assert ddm.dynamic_memory_bytes() > 0
        assert ddm.memory_bytes() > ddm.dynamic_memory_bytes()
