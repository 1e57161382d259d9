"""Top-k: ranking prefixes and the top-k discovery differential.

The contract under test: for any relation and any algorithm,
``discover_top_k(k)`` returns exactly the FDs that a full discovery
followed by :func:`rank_cover` would place in positions 1..k — same
``(-redundancy, lhs, rhs)`` tie-break.
"""

from __future__ import annotations

import pytest

from repro.algorithms.registry import algorithm_names, make_algorithm
from repro.core.dhyfd import DHyFD
from repro.ranking.ranker import rank_cover
from repro.relational.fd import FDSet
from repro.relational.null import NullSemantics
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from tests.conftest import kernel_mode


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

    # Ids are the class names (``DHyFD``, ``TANE``, ...).
    @pytest.mark.parametrize(
        "algorithm_cls", [type(make_algorithm(name)) for name in algorithm_names()]
    )
    @pytest.mark.parametrize("semantics", [NullSemantics.EQ, NullSemantics.NEQ])
    def test_matches_full_ranked_cover(
        self, algorithm_cls, semantics, random_relation_factory
    ):
        for seed in range(25):
            relation = random_relation_factory(seed, semantics=semantics)
            full = algorithm_cls().discover(relation)
            for k in (1, 5):
                result = algorithm_cls().discover_top_k(relation, k)
                assert result.fds == first_k(relation, full.fds, k), (
                    f"seed={seed} k={k}"
                )
                assert result.top_k == k

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
        """A fresh instance for each call still meets the contract."""
        for seed in (1, 8):
            relation = random_relation_factory(seed)
            algo = make_algorithm("fdep")
            full = algo.discover(relation)
            result = make_algorithm("fdep").discover_top_k(relation, 3)
            assert result.fds == first_k(relation, full.fds, 3)
            assert result.top_k == 3

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
