"""Unit tests for the partition cache and its shared partition tier."""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.algorithms.naive import NaiveFDDiscovery
from repro.core.dhyfd import DHyFD
from repro.datasets.synthetic import random_relation
from repro.partitions import cache as partition_cache
from repro.partitions.cache import MAX_SHARED_ATTRS, PartitionCache
from repro.partitions.stripped import StrippedPartition
from repro.ranking.ranker import rank_cover
from repro.relational import attrset
from tests.conftest import make_random_relation


def _fd_tuples(fds):
    return sorted((fd.lhs, fd.rhs) for fd in fds)


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


def _clusters(partition):
    return {frozenset(c) for c in partition.clusters}


def _brute_best_subset(cache, attrs):
    """The subset rule, spelled out over every cached entry."""
    for attr in attrset.iter_attrs(attrs):
        parent = cache.peek(attrset.remove(attrs, attr))
        if parent is not None:
            return parent
    best = None
    for mask, partition in cache._store.items():  # insertion order
        if attrset.count(mask) < 2 or not attrset.is_proper_subset(mask, attrs):
            continue
        if best is None or (attrset.count(mask), -partition.size) > (
            attrset.count(best.attrs), -best.size
        ):
            best = partition  # strictly better: earlier entries win ties
    return best if best is not None else cache.best_singleton(attrs)


class TestBestSubsetIndex:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_on_random_caches(self, seed):
        rng = random.Random(seed)
        n_cols = 9
        rel = random_relation(
            30, n_cols, domain_sizes=[rng.choice([1, 2, 3]) for _ in range(n_cols)],
            seed=seed,
        )
        cache = PartitionCache(rel)
        full = attrset.full_set(n_cols)
        for _ in range(40):
            cache.get(rng.randrange(1, full + 1))
        for _ in range(80):
            attrs = rng.randrange(1, full + 1)
            assert cache._best_subset(attrs) is _brute_best_subset(cache, attrs)
            assert _clusters(cache.get(attrs)) == _clusters(
                StrippedPartition.for_attrs(rel, attrs)
            )

    def test_finds_subsets_cached_after_thousands_of_entries(self):
        # Over 4,096 non-subset entries are cached before the subsets of
        # the target; every cached entry must stay reachable.
        n_cols = 14
        rel = random_relation(
            24, n_cols, domain_sizes=[2, 2, 3, 2, 3, 2] + [3] * 8, seed=3
        )
        cache = PartitionCache(rel)
        target = attrset.from_attrs(range(6))
        fillers = [
            mask for mask in range(1 << n_cols)
            if attrset.count(mask) > 1 and mask & ~target
        ][:4200]
        for mask in fillers:
            cache.get(mask)
        cache.get(attrset.from_attrs([0, 1]))
        late = [
            cache.get(attrset.from_attrs(members))
            for members in ([0, 1, 2], [3, 4, 5], [1, 3, 5])
        ]
        best = cache._best_subset(target)
        assert best is _brute_best_subset(cache, target)
        assert attrset.count(best.attrs) == 3
        assert best.size == min(p.size for p in late)
        assert _clusters(cache.get(target)) == _clusters(
            StrippedPartition.for_attrs(rel, target)
        )


# ----------------------------------------------------------------------
# Shared partition tier
# ----------------------------------------------------------------------


class TestSharedTier:
    def test_cache_seeds_consults_and_publishes(self):
        relation = random_relation(60, 4, domain_sizes=3, seed=101)
        partition_cache.reset_tiers()
        cold = PartitionCache(relation, shared=True)
        assert cold.shared_hits == 0
        shared = partition_cache.shared_store(relation)
        assert len(shared) == relation.n_cols  # singletons published
        mask = attrset.from_attrs([0, 1])
        cold.get(mask)
        warm = PartitionCache(relation, shared=True)
        assert warm.shared_hits == relation.n_cols  # seeded from the layer
        misses_before = warm.misses
        partition = warm.get(mask)
        assert warm.misses == misses_before + 1  # the local miss...
        assert warm.shared_hits == relation.n_cols + 1  # ...hit the layer
        assert partition is cold.peek(mask)  # literally the same object
        # Each shared lookup is counted once: 4 + 1 cold misses, then
        # 4 + 1 warm hits.
        gauges = partition_cache.tier_gauges()
        assert gauges["memplane.tier_hits"] == relation.n_cols + 1
        assert gauges["memplane.tier_misses"] == relation.n_cols + 1
        assert gauges["memplane.tier_partitions"] == relation.n_cols + 1
        # A private store neither reads nor publishes.
        private = PartitionCache(relation)
        private.get(attrset.from_attrs([2, 3]))
        assert private.shared_hits == 0
        assert len(shared) == relation.n_cols + 1

    def test_concurrent_lookups_are_each_counted_once(self):
        relation = random_relation(40, 4, domain_sizes=3, seed=103)
        mask = attrset.from_attrs([0, 1])
        threads, rounds = 8, 25
        partition_cache.reset_tiers()

        def work():
            for _ in range(rounds):
                PartitionCache(relation, shared=True).get(mask)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=work) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in pool)
        finally:
            sys.setswitchinterval(interval)
        gauges = partition_cache.tier_gauges()
        lookups = threads * rounds * (relation.n_cols + 1)
        assert gauges["memplane.tier_hits"] + gauges["memplane.tier_misses"] == lookups
        assert gauges["memplane.tier_partitions"] == relation.n_cols + 1

    def test_tier_ignores_wide_partitions(self):
        relation = random_relation(30, MAX_SHARED_ATTRS + 1, seed=102)
        partition_cache.reset_tiers()
        cache = PartitionCache(relation, shared=True)
        cache.get(attrset.from_attrs(range(MAX_SHARED_ATTRS)))
        cache.get(attrset.from_attrs(range(MAX_SHARED_ATTRS + 1)))
        widths = {
            attrset.count(mask)
            for mask in partition_cache.shared_store(relation)
        }
        assert max(widths) == MAX_SHARED_ATTRS

    def test_tier_for_identity_and_gates(self):
        relation = make_random_relation(18)
        store = partition_cache.shared_store(relation)
        assert store is partition_cache.shared_store(relation)
        assert store is not partition_cache.shared_store(
            relation.with_semantics("neq")
        )

    def test_ranking_identical_cold_warm_and_disabled(self, monkeypatch):
        """Cold, warm and bypassed tiers all give the row-pair counts.

        A position ``(t, A)`` of ``X -> Y`` (``A`` in ``Y``) is redundant
        iff another row shares ``t``'s X-codes; ``#red`` also needs
        ``t[A]`` non-null.
        """
        relation = make_random_relation(19)
        cover = DHyFD().discover(relation).fds
        matrix = relation.matrix()
        expected = {}
        for fd in cover:
            lhs = attrset.to_list(fd.lhs)
            shared = [
                any(
                    j != i and all(matrix[j][a] == matrix[i][a] for a in lhs)
                    for j in range(relation.n_rows)
                )
                for i in range(relation.n_rows)
            ]
            rhs = attrset.to_list(fd.rhs)
            expected[fd] = (
                sum(shared) * len(rhs),
                sum(
                    1
                    for a in rhs
                    for i in range(relation.n_rows)
                    if shared[i] and not relation.null_mask(a)[i]
                ),
            )

        def counts(result):
            return {
                r.fd: (r.redundancy, r.redundancy_excluding_null)
                for r in result.ranked
            }

        partition_cache.reset_tiers()
        assert counts(rank_cover(relation, cover)) == expected  # cold
        assert counts(rank_cover(relation, cover)) == expected  # warm
        assert partition_cache.tier_gauges()["memplane.tier_hits"] > 0
        partition_cache.reset_tiers()
        monkeypatch.setattr(partition_cache, "shared_store", lambda relation: None)
        assert counts(rank_cover(relation, cover)) == expected  # bypassed
        assert partition_cache.tier_gauges()["memplane.tier_datasets"] == 0


# ----------------------------------------------------------------------
# Covers match the brute-force oracle whether the tier is cold or warm
# ----------------------------------------------------------------------


class TestCoverDifferential:
    @pytest.mark.parametrize("seed", [20, 21])
    def test_cold_and_warm_tier_match_oracle(self, seed):
        relation = make_random_relation(seed)
        oracle = _fd_tuples(NaiveFDDiscovery().discover(relation).fds)
        partition_cache.reset_tiers()
        for tier in ("cold", "warm"):
            result = DHyFD().discover(relation)
            assert _fd_tuples(result.fds) == oracle, tier
