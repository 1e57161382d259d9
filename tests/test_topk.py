"""Top-k discovery: tracker unit tests, top-k ranking prefixes, differential.

The contract under test (ISSUE: rank-aware top-k discovery): for any
relation, ``discover_top_k(k)`` returns exactly the FDs that a full
discovery followed by :func:`rank_cover` would place in positions
1..k — same ``(-redundancy, lhs, rhs)`` tie-break — while pruning
candidate LHSs whose redundancy upper bound cannot reach the running
k-th redundancy (``stats.pruned_candidates``).
"""

from __future__ import annotations

import pytest

from repro.algorithms.registry import make_algorithm
from repro.core.dhyfd import DHyFD
from repro.algorithms.tane import TANE
from repro.partitions.cache import PartitionCache
from repro.ranking.ranker import rank_cover
from repro.ranking.redundancy import redundancy_upper_bound
from repro.ranking.topk import TopKTracker
from repro.relational import attrset
from repro.relational.fd import FD, FDSet
from repro.relational.null import NullSemantics
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from tests.conftest import kernel_mode


def fd(lhs_bits, rhs_bit):
    return FD(lhs_bits, attrset.singleton(rhs_bit))


class TestTopKTracker:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            TopKTracker(0)

    def test_threshold_none_until_full(self):
        tracker = TopKTracker(2)
        assert tracker.threshold is None
        assert not tracker.full
        tracker.add(fd(0b01, 1), 10)
        assert tracker.threshold is None
        tracker.add(fd(0b10, 0), 4)
        assert tracker.full
        assert tracker.threshold == 4

    def test_threshold_tracks_kth_largest(self):
        tracker = TopKTracker(2)
        for redundancy, f in [(3, fd(0b001, 1)), (9, fd(0b010, 0)), (7, fd(0b100, 0))]:
            tracker.add(f, redundancy)
        assert tracker.threshold == 7

    def test_can_prune_is_strict(self):
        """bound == threshold must NOT prune: a tie may win on lhs/rhs."""
        tracker = TopKTracker(1)
        tracker.add(fd(0b10, 0), 5)
        assert tracker.can_prune(4)
        assert not tracker.can_prune(5)
        assert not tracker.can_prune(6)

    def test_top_orders_by_redundancy_then_fd(self):
        tracker = TopKTracker(3)
        a, b, c = fd(0b001, 1), fd(0b010, 0), fd(0b100, 0)
        tracker.add(c, 5)
        tracker.add(a, 5)
        tracker.add(b, 9)
        assert tracker.top() == [(b, 9), (a, 5), (c, 5)]

    def test_cover_holds_first_k_only(self):
        tracker = TopKTracker(2)
        for redundancy, f in [(3, fd(0b001, 1)), (9, fd(0b010, 0)), (7, fd(0b100, 0))]:
            tracker.add(f, redundancy)
        assert tracker.cover() == FDSet([fd(0b010, 0), fd(0b100, 0)])


class TestRedundancyUpperBound:
    def make_relation(self):
        rows = [
            ("a", "x", 1),
            ("a", "x", 2),
            ("b", "y", 3),
            ("c", "y", 4),
        ]
        return Relation.from_rows(rows, RelationSchema(["p", "q", "r"]))

    def test_empty_lhs_bound_is_all_rows(self):
        relation = self.make_relation()
        assert redundancy_upper_bound(relation, attrset.EMPTY) == relation.n_rows

    def test_bound_is_min_singleton_size(self):
        relation = self.make_relation()
        # ||pi_p|| = 2 (the two a-rows), ||pi_q|| = 4 (x-pair + y-pair).
        bound = redundancy_upper_bound(relation, attrset.from_attrs([0, 1]))
        assert bound == 2

    def test_cached_exact_partition_tightens_bound(self):
        relation = self.make_relation()
        cache = PartitionCache(relation)
        lhs = attrset.from_attrs([0, 1])
        exact = cache.get(lhs).size
        assert redundancy_upper_bound(relation, lhs, cache) == exact
        assert exact <= 2

    def test_bound_dominates_exact_redundancy(self, random_relation_factory):
        for seed in range(8):
            relation = random_relation_factory(seed)
            result = DHyFD().discover(relation)
            ranking = rank_cover(relation, result.fds)
            for ranked in ranking.ranked:
                bound = redundancy_upper_bound(relation, ranked.fd.lhs)
                assert bound >= ranked.redundancy


class TestBoundedRankCover:
    def test_top_k_prefix_identical(self, random_relation_factory):
        for seed in range(12):
            relation = random_relation_factory(seed)
            cover = DHyFD().discover(relation).fds
            full = rank_cover(relation, cover)
            for k in (1, 3, 10):
                bounded = rank_cover(relation, cover, top_k=k)
                assert bounded.ranked == full.ranked[: k]
                assert bounded.top_k == k

    def test_invalid_top_k_rejected(self, city_relation):
        cover = DHyFD().discover(city_relation).fds
        with pytest.raises(ValueError):
            rank_cover(city_relation, cover, top_k=0)

    def test_full_ranking_reports_no_skips(self, city_relation):
        cover = DHyFD().discover(city_relation).fds
        ranking = rank_cover(city_relation, cover)
        assert ranking.top_k is None


class TestTieOrder:
    def test_duplicated_columns_rank_identically(self):
        """Ties (duplicate columns have equal redundancy) must order
        the same whatever order the cover lists its FDs in: the final
        sort key includes the FD itself, never submission order."""
        rows = [(i % 3, i % 3, i % 3, i) for i in range(30)]
        relation = Relation.from_rows(
            rows, RelationSchema(["x", "y", "z", "key"])
        )
        cover = list(DHyFD().discover(relation).fds)
        forward = rank_cover(relation, cover)
        backward = rank_cover(relation, cover[::-1])
        assert forward.ranked == backward.ranked

    def test_random_relations_rank_identically(self, random_relation_factory):
        for seed in (0, 3, 8, 11):
            relation = random_relation_factory(seed)
            cover = list(DHyFD().discover(relation).fds)
            forward = rank_cover(relation, cover)
            backward = rank_cover(relation, cover[::-1])
            assert forward.ranked == backward.ranked


def first_k(relation, cover, k):
    """The expected top-k: first k of the fully ranked cover."""
    ranking = rank_cover(relation, cover)
    return FDSet(ranked.fd for ranked in ranking.ranked[:k])


class TestDifferentialTopK:
    """discover_top_k == first k of the full ranked cover, everywhere."""

    @pytest.mark.parametrize("algorithm_cls", [DHyFD, TANE])
    @pytest.mark.parametrize("semantics", [NullSemantics.EQ, NullSemantics.NEQ])
    def test_matches_full_ranked_cover(
        self, algorithm_cls, semantics, random_relation_factory
    ):
        pruned_total = 0
        for seed in range(25):
            relation = random_relation_factory(seed, semantics=semantics)
            full = algorithm_cls().discover(relation)
            for k in (1, 5):
                result = algorithm_cls().discover_top_k(relation, k)
                assert result.fds == first_k(relation, full.fds, k), (
                    f"seed={seed} k={k}"
                )
                assert result.top_k == k
                pruned_total += result.stats.pruned_candidates
        # The estimator must actually prune somewhere across the sweep —
        # otherwise "early termination" is dead code.
        assert pruned_total > 0

    @pytest.mark.parametrize("mode", ["python", "numpy"])
    def test_backends_agree(self, mode, random_relation_factory):
        for seed in (1, 3, 11):
            relation = random_relation_factory(seed)
            algo = DHyFD()
            full = DHyFD().discover(relation)
            for k in (1, 4):
                with kernel_mode(mode):
                    result = algo.discover_top_k(relation, k)
                assert result.fds == first_k(relation, full.fds, k)

    def test_generic_fallback_algorithm(self, random_relation_factory):
        """Algorithms without a rank-aware search use the bounded-rank
        fallback and still meet the exactness contract."""
        for seed in (1, 8):
            relation = random_relation_factory(seed)
            algo = make_algorithm("fdep")
            full = algo.discover(relation)
            result = make_algorithm("fdep").discover_top_k(relation, 3)
            assert result.fds == first_k(relation, full.fds, 3)
            assert result.top_k == 3

    def test_pruning_happens_on_engineered_relation(self):
        """Dominant duplicate-column FDs (redundancy 60) above near-key
        columns (stripped sizes <= 40): every compound candidate over
        the near-keys is bounded strictly below the running threshold,
        so both algorithms must prune."""
        rows = []
        for i in range(60):
            rows.append(
                (
                    i % 2,                      # dup1
                    i % 2,                      # dup2 (ties dup1)
                    i if i < 20 else 20 + (i % 5),   # u: 20 singletons + clusters
                    i if i < 20 else 20 + (i // 8),  # v: near-key, other clustering
                    (i * 7) % 13,               # w: forces level-2 FDs
                )
            )
        relation = Relation.from_rows(
            rows, RelationSchema(["dup1", "dup2", "u", "v", "w"])
        )
        for algorithm_cls in (DHyFD, TANE):
            full = algorithm_cls().discover(relation)
            result = algorithm_cls().discover_top_k(relation, 2)
            assert result.fds == first_k(relation, full.fds, 2)
            assert result.stats.pruned_candidates > 0, algorithm_cls.__name__

    def test_k_larger_than_cover_returns_everything(self, city_relation):
        full = DHyFD().discover(city_relation)
        result = DHyFD().discover_top_k(city_relation, 1000)
        assert result.fds == full.fds

    def test_invalid_k_rejected(self, city_relation):
        with pytest.raises(ValueError):
            DHyFD().discover_top_k(city_relation, 0)

    def test_payload_round_trip_preserves_top_k(self, city_relation):
        result = DHyFD().discover_top_k(city_relation, 2)
        from repro.core.result import DiscoveryResult

        restored = DiscoveryResult.from_payload(result.to_payload())
        assert restored.top_k == 2
        assert restored.fds == result.fds
        assert restored.stats.pruned_candidates == result.stats.pruned_candidates
