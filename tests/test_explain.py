"""Tests for redundancy explanations and violation listings."""

from __future__ import annotations

import random

import pytest

from repro.partitions.stripped import StrippedPartition
from repro.ranking.explain import (
    RedundancyWitness,
    explain_redundancy,
    violating_pairs,
)
from repro.relational import attrset
from repro.relational.fd import FD
from repro.relational.null import NullSemantics

from tests.conftest import make_random_relation


def A(*attrs):
    return attrset.from_attrs(attrs)


class TestExplainRedundancy:
    def test_specific_row(self, city_relation):
        # zip -> city: ann (row 0) shares z1 with bob (row 1)
        witnesses = explain_redundancy(city_relation, FD(A(1), A(2)), row=0)
        assert len(witnesses) == 1
        w = witnesses[0]
        assert w.row == 0
        assert w.attr == 2
        assert w.value == "c1"
        assert w.witness_rows == (1,)

    def test_non_redundant_row_empty(self, city_relation):
        # fay (row 5) has a unique zip
        assert explain_redundancy(city_relation, FD(A(1), A(2)), row=5) == []

    def test_sample_mode_one_per_cluster(self, city_relation):
        witnesses = explain_redundancy(city_relation, FD(A(1), A(2)))
        assert len(witnesses) == 2  # clusters {ann,bob} and {dan,eve}

    def test_multi_rhs(self, city_relation):
        witnesses = explain_redundancy(city_relation, FD(A(1), A(2, 3)), row=0)
        assert {w.attr for w in witnesses} == {2, 3}

    def test_constant_fd_witnesses_everyone(self, city_relation):
        witnesses = explain_redundancy(
            city_relation, FD(attrset.EMPTY, A(3)), row=2, max_witnesses=10
        )
        assert witnesses[0].witness_rows == (0, 1, 3, 4, 5)

    def test_format(self, city_relation):
        witness = explain_redundancy(city_relation, FD(A(1), A(2)), row=0)[0]
        text = witness.format(city_relation)
        assert "city='c1'" in text
        assert "row 0" in text


class TestViolatingPairs:
    def test_valid_fd_no_pairs(self, city_relation):
        assert violating_pairs(city_relation, FD(A(1), A(2))) == []

    def test_invalid_fd_finds_pairs(self, city_relation):
        # city !-> zip: the c1 cluster spans z1, z1, z2
        pairs = violating_pairs(city_relation, FD(A(2), A(1)))
        assert pairs
        for left, right in pairs:
            assert city_relation.value(left, 2) == city_relation.value(right, 2)
            assert city_relation.value(left, 1) != city_relation.value(right, 1)

    def test_limit(self, city_relation):
        pairs = violating_pairs(city_relation, FD(attrset.EMPTY, A(0)), limit=2)
        assert len(pairs) == 2

    def test_sigma4_story(self):
        """The ncvoter dirty duplicate is exactly one violating pair."""
        from repro.datasets import ncvoter_like

        rel = ncvoter_like(300)
        voter = rel.schema.index_of("voter_id")
        street = rel.schema.index_of("street_address")
        pairs = violating_pairs(
            rel, FD(attrset.singleton(voter), attrset.singleton(street))
        )
        assert len(pairs) == 1
        left, right = pairs[0]
        assert rel.value(left, voter) == rel.value(right, voter)


def _violating_pairs_reference(relation, fd, limit):
    """Pivot/other pairs in cluster order, the scan ``limit`` stops."""
    codes = [relation.codes(attr) for attr in attrset.to_list(fd.rhs)]
    pairs = []
    for cluster in StrippedPartition.for_attrs(relation, fd.lhs).clusters:
        for other in cluster[1:]:
            if any(col[cluster[0]] != col[other] for col in codes):
                pairs.append((cluster[0], other))
                if len(pairs) >= limit:
                    return pairs
    return pairs


@pytest.mark.parametrize("semantics", [NullSemantics.EQ, NullSemantics.NEQ])
@pytest.mark.parametrize("seed", range(12))
def test_explanations_match_cluster_scan(seed, semantics):
    rel = make_random_relation(seed, semantics)
    rng = random.Random(seed)
    for _ in range(4):
        lhs_attrs = rng.sample(range(rel.n_cols), rng.randint(0, rel.n_cols - 1))
        others = [a for a in range(rel.n_cols) if a not in lhs_attrs]
        lhs = A(*lhs_attrs)
        fd = FD(lhs, A(rng.choice(others)))
        for limit in (1, 3, 1000):
            assert violating_pairs(rel, fd, limit) == _violating_pairs_reference(
                rel, fd, limit
            )
        clusters = StrippedPartition.for_attrs(rel, lhs).clusters
        sampled = explain_redundancy(rel, fd, max_witnesses=3)
        assert [w.row for w in sampled] == [c[0] for c in clusters]
        row = rng.randrange(rel.n_rows)
        home = [c for c in clusters if row in c]
        witnesses = explain_redundancy(rel, fd, row=row, max_witnesses=3)
        assert [w.witness_rows for w in witnesses] == [
            tuple(r for r in c if r != row)[:3] for c in home
        ]
