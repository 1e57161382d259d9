"""The two ways ``lhs_row_masks`` builds redundant-row masks.

A row is redundant for ``X`` iff another row agrees with it on ``X``
(under ``EXCLUDE_LHS_RHS``, with both rows non-null on ``X``).  The
oracle below checks exactly that, one row pair at a time through
``Relation.agree_set``; the pair path and the partition path are each
forced and compared with it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import profile
from repro.core.base import Deadline, TimeLimitExceeded
from repro.datasets.armstrong import armstrong_relation
from repro.datasets.benchmarks import load_benchmark
from repro.datasets.synthetic import random_relation
from repro.ranking import redundancy
from repro.ranking.ranker import rank_cover
from repro.ranking.redundancy import NullPolicy, lhs_row_masks
from repro.relational import attrset
from repro.relational.fd import FD
from repro.relational.null import NullSemantics
from repro.relational.relation import Relation
from repro.telemetry import Tracer, use_tracer

from tests.conftest import make_random_relation


def oracle_masks(relation, lhss, policy):
    """``{X: mask}`` from every ordered row pair's agree set."""
    n = relation.n_rows
    nulls = [
        attrset.from_attrs(
            a for a in range(relation.n_cols) if relation.null_mask(a)[t]
        )
        for t in range(n)
    ]
    agree = {
        (t, u): relation.agree_set(t, u)
        for t in range(n)
        for u in range(n)
        if t != u
    }
    masks = {}
    for lhs in lhss:
        marked = np.zeros(n, dtype=bool)
        for (t, u), common in agree.items():
            if not attrset.is_subset(lhs, common):
                continue
            if policy is NullPolicy.EXCLUDE_LHS_RHS and (nulls[t] | nulls[u]) & lhs:
                continue
            marked[t] = True
        masks[lhs] = marked
    return masks


@pytest.fixture(params=["pairs", "partitions"])
def forced_path(request, monkeypatch):
    """Force one mask path; returns its name."""
    path = request.param
    monkeypatch.setattr(
        redundancy, "_takes_pairs", lambda relation, lhss: path == "pairs"
    )
    return path


def traced_masks(relation, lhss, policy):
    """``lhs_row_masks`` plus the path its one ``lhs_masks`` event names."""
    tracer = Tracer()
    with use_tracer(tracer):
        masks = lhs_row_masks(relation, lhss, policy)
    (event,) = tracer.find_events("lhs_masks")
    assert event.attrs["lhss"] == len(set(lhss))
    assert event.attrs["pairs"] == relation.n_rows * (relation.n_rows - 1) // 2
    return masks, event.attrs["path"]


def assert_matches_oracle(relation, lhss, expected_path=None):
    for semantics in NullSemantics:
        encoded = relation.with_semantics(semantics)
        for policy in NullPolicy:
            masks, path = traced_masks(encoded, lhss, policy)
            if expected_path is not None:
                assert path == expected_path
            expected = oracle_masks(encoded, lhss, policy)
            assert masks.keys() == expected.keys()
            for lhs, mask in expected.items():
                np.testing.assert_array_equal(masks[lhs], mask, err_msg=f"X={lhs:b}")


def all_lhss(n_cols):
    return list(range(1 << n_cols))


class TestAgainstOracle:
    def test_random_relations(self, forced_path):
        for seed in range(10):
            relation = make_random_relation(seed)
            assert_matches_oracle(relation, all_lhss(relation.n_cols), forced_path)

    def test_armstrong_relations(self, forced_path):
        def fd(lhs, rhs):
            return FD(attrset.from_attrs(lhs), attrset.singleton(rhs))

        for n_cols, fds in (
            (4, [fd([0], 1), fd([1, 2], 3)]),
            (5, [fd([0, 1], 2), fd([2], 3), fd([3, 4], 0)]),
            (6, [fd([0], 1), fd([1], 2), fd([2, 3], 4)]),
        ):
            relation = armstrong_relation(n_cols, fds)
            assert_matches_oracle(relation, all_lhss(n_cols), forced_path)

    @pytest.mark.parametrize("n_rows", [0, 1, 2])
    def test_tiny_relations(self, forced_path, n_rows):
        relation = random_relation(
            n_rows, 3, domain_sizes=2, null_rate=0.3, seed=n_rows
        )
        assert_matches_oracle(relation, all_lhss(3), forced_path)

    def test_all_duplicate_rows(self, forced_path):
        relation = Relation.from_rows([("a", None, 1)] * 5, ["x", "y", "z"])
        assert_matches_oracle(relation, all_lhss(3), forced_path)

    def test_empty_lhs_marks_every_row_of_two_or_more(self, forced_path):
        for n_rows in (1, 2, 7):
            relation = random_relation(n_rows, 2, domain_sizes=5, seed=3)
            masks, _ = traced_masks(relation, [attrset.EMPTY], NullPolicy.INCLUDE)
            assert masks[attrset.EMPTY].tolist() == [n_rows >= 2] * n_rows


class TestChooser:
    @staticmethod
    def _wide(n_cols):
        """Five-attribute LHSs (wider than the shared tier) reaching the last column."""
        return [
            attrset.from_attrs(range(start, start + 5))
            for start in range(0, n_cols - 4, 6)
        ] + [attrset.from_attrs([0, 1, 2, 3, n_cols - 1]), attrset.EMPTY]

    def test_64_columns_take_pairs(self):
        relation = random_relation(6, 64, domain_sizes=2, null_rate=0.2, seed=1)
        assert_matches_oracle(relation, self._wide(64), expected_path="pairs")

    def test_65_columns_take_partitions(self):
        relation = random_relation(6, 65, domain_sizes=2, null_rate=0.2, seed=1)
        assert_matches_oracle(relation, self._wide(65), expected_path="partitions")

    def test_no_wide_lhs_takes_partitions(self):
        relation = random_relation(6, 8, domain_sizes=2, seed=1)
        _, path = traced_masks(relation, all_lhss(4), NullPolicy.INCLUDE)
        assert path == "partitions"

    @staticmethod
    def _profiled_path(relation):
        outcome = profile(relation, trace=True)
        (event,) = outcome.tracer.find_events("lhs_masks")
        return event.attrs["path"]

    def test_short_serve_replica_takes_partitions(self):
        relation = load_benchmark("ncvoter", n_rows=200, seed=100)
        assert self._profiled_path(relation) == "partitions"


class TestDeadline:
    def test_expired_deadline_stops_the_pair_path(self):
        relation = random_relation(12, 8, domain_sizes=2, seed=4)
        cover = [
            FD(attrset.from_attrs(range(start, start + 5)), attrset.singleton(7))
            for start in range(3)
        ]
        tracer = Tracer()
        with use_tracer(tracer), pytest.raises(TimeLimitExceeded):
            rank_cover(relation, cover, deadline=Deadline(0.0, "ranking"))
        (event,) = tracer.find_events("lhs_masks")
        assert event.attrs["path"] == "pairs"
