"""Unit tests for the partition cache."""

from __future__ import annotations

from repro.datasets.synthetic import random_relation
from repro.partitions.cache import PartitionCache
from repro.partitions.stripped import StrippedPartition
from repro.relational import attrset


class TestCache:
    def test_seeds_singletons(self, city_relation):
        cache = PartitionCache(city_relation)
        assert len(cache) == city_relation.n_cols + 1  # singletons + empty

    def test_get_matches_direct(self, city_relation):
        cache = PartitionCache(city_relation)
        mask = attrset.from_attrs([1, 2])
        cached = cache.get(mask)
        direct = StrippedPartition.for_attrs(city_relation, mask)
        assert {frozenset(c) for c in cached.clusters} == {
            frozenset(c) for c in direct.clusters
        }

    def test_hit_tracking(self, city_relation):
        cache = PartitionCache(city_relation)
        mask = attrset.from_attrs([1, 2])
        cache.get(mask)
        misses = cache.misses
        cache.get(mask)
        assert cache.misses == misses
        assert cache.hits >= 1

    def test_empty_set(self, city_relation):
        cache = PartitionCache(city_relation)
        assert cache.get(attrset.EMPTY).size == city_relation.n_rows

    def test_peek(self, city_relation):
        cache = PartitionCache(city_relation)
        mask = attrset.from_attrs([0, 1])
        assert cache.peek(mask) is None
        cache.get(mask)
        assert cache.peek(mask) is not None

    def test_singletons_in_attribute_order(self, city_relation):
        cache = PartitionCache(city_relation)
        singletons = cache.singletons()
        assert [p.attrs for p in singletons] == [
            attrset.singleton(a) for a in range(city_relation.n_cols)
        ]
        assert all(p is cache.peek(p.attrs) for p in singletons)

    def test_best_singleton_ties_go_to_lowest_attribute(self):
        # singleton sizes 26, 40, 29, 24, 40: strict minima and a tie
        rel = random_relation(40, 5, domain_sizes=[30, 3, 30, 60, 3], seed=5)
        cache = PartitionCache(rel)
        hits = cache.hits
        for mask in range(1, 1 << rel.n_cols):
            members = attrset.to_list(mask)
            sizes = [cache.peek(attrset.singleton(a)).size for a in members]
            expected = members[sizes.index(min(sizes))]
            assert cache.best_singleton(mask).attrs == attrset.singleton(expected)
        assert cache.best_singleton(attrset.EMPTY) is cache.universal
        assert cache.hits == hits  # not a lookup

    def test_memory_accounting(self, city_relation):
        cache = PartitionCache(city_relation)
        before = cache.memory_bytes()
        cache.get(attrset.from_attrs([1, 2]))
        assert cache.memory_bytes() >= before

    def test_uses_best_subset(self):
        rel = random_relation(50, 4, domain_sizes=3, seed=7)
        cache = PartitionCache(rel)
        two = attrset.from_attrs([0, 1])
        three = attrset.from_attrs([0, 1, 2])
        cache.get(two)
        result = cache.get(three)
        direct = StrippedPartition.for_attrs(rel, three)
        assert {frozenset(c) for c in result.clusters} == {
            frozenset(c) for c in direct.clusters
        }

    def test_reuses_cached_multi_attr_subset(self):
        # Regression: _best_subset used to consider only immediate
        # sub-masks and singletons, so a cached π_AB was never reused
        # for π_ABCD (no 3-attribute subset is cached here).
        rel = random_relation(60, 5, domain_sizes=3, seed=11)
        cache = PartitionCache(rel)
        two = attrset.from_attrs([0, 1])
        four = attrset.from_attrs([0, 1, 2, 3])
        cached_two = cache.get(two)
        assert cache._best_subset(four) is cached_two
        result = cache.get(four)
        direct = StrippedPartition.for_attrs(rel, four)
        assert {frozenset(c) for c in result.clusters} == {
            frozenset(c) for c in direct.clusters
        }

    def test_prefers_largest_cached_subset(self):
        rel = random_relation(60, 5, domain_sizes=3, seed=11)
        cache = PartitionCache(rel)
        cache.get(attrset.from_attrs([0, 1]))
        cached_three = cache.get(attrset.from_attrs([0, 1, 2]))
        target = attrset.from_attrs([0, 1, 2, 4])
        assert cache._best_subset(target) is cached_three

    def test_subset_scan_ignores_non_subsets(self):
        rel = random_relation(60, 5, domain_sizes=3, seed=11)
        cache = PartitionCache(rel)
        cache.get(attrset.from_attrs([2, 3]))  # not a subset of target
        target = attrset.from_attrs([0, 1, 4])
        base = cache._best_subset(target)
        assert attrset.is_proper_subset(base.attrs, target)
        assert attrset.count(base.attrs) <= 1
