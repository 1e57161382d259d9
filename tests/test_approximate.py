"""Unit tests for approximate FD discovery (g3 / ApproximateTANE)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import ApproximateTANE, NaiveFDDiscovery, g3_error
from repro.datasets.synthetic import planted_fd_relation, random_relation
from repro.relational import attrset
from repro.relational.fd import FD
from repro.partitions.stripped import StrippedPartition
from repro.relational.null import NullSemantics
from repro.relational.relation import Relation

from tests.conftest import make_random_relation


def A(*attrs):
    return attrset.from_attrs(attrs)


class TestG3Error:
    def test_exact_fd_zero_error(self, city_relation):
        assert g3_error(city_relation, A(1), 2) == 0.0  # zip -> city

    def test_violated_fd_error(self, city_relation):
        # city !-> zip: c1 spans z1,z1,z2 -> remove 1 row; others fine
        assert g3_error(city_relation, A(2), 1) == pytest.approx(1 / 6)

    def test_empty_lhs(self):
        rel = Relation.from_rows([("x",), ("x",), ("y",)])
        # make column 0 constant by removing 1 of 3 rows
        assert g3_error(rel, attrset.EMPTY, 0) == pytest.approx(1 / 3)

    def test_key_lhs_zero(self, city_relation):
        assert g3_error(city_relation, A(0), 2) == 0.0

    def test_empty_relation(self):
        rel = Relation.from_rows([("a",)]).project_rows([])
        assert g3_error(rel, attrset.EMPTY, 0) == 0.0


class TestApproximateTANE:
    def test_zero_threshold_matches_exact(self):
        rel = random_relation(40, 5, domain_sizes=3, seed=8)
        exact = NaiveFDDiscovery().discover(rel).fds
        approx = ApproximateTANE(error_threshold=0.0).discover(rel).fds
        assert approx == exact

    def test_recovers_dirty_fd(self):
        # plant 0 -> 1 and then dirty a couple of rows
        rel = planted_fd_relation(120, 4, [([0], 1)], base_domain=6, seed=3)
        rows = [list(r) for r in rel.iter_rows()]
        rows[0][1] = "dirty!"
        dirty = Relation.from_rows(rows, rel.schema)
        exact = NaiveFDDiscovery().discover(dirty).fds
        assert FD(A(0), A(1)) not in exact
        approx = ApproximateTANE(error_threshold=0.05).discover(dirty).fds
        assert FD(A(0), A(1)) in approx

    def test_minimality(self):
        rel = random_relation(50, 5, domain_sizes=3, seed=12)
        result = ApproximateTANE(error_threshold=0.1).discover(rel)
        for fd in result.fds:
            rhs_attr = attrset.to_list(fd.rhs)[0]
            assert g3_error(rel, fd.lhs, rhs_attr) <= 0.1
            for attr in attrset.iter_attrs(fd.lhs):
                reduced = attrset.remove(fd.lhs, attr)
                assert g3_error(rel, reduced, rhs_attr) > 0.1

    def test_threshold_monotone(self):
        rel = random_relation(40, 4, domain_sizes=3, seed=5)
        loose = ApproximateTANE(error_threshold=0.2).discover(rel).fds
        tight = ApproximateTANE(error_threshold=0.02).discover(rel).fds
        # every tight FD is implied by some loose FD with subset LHS
        for fd in tight:
            assert any(
                attrset.is_subset(l.lhs, fd.lhs) and l.rhs == fd.rhs
                for l in loose
            )

    def test_max_lhs_size(self):
        rel = random_relation(30, 5, domain_sizes=2, seed=4)
        result = ApproximateTANE(error_threshold=0.0, max_lhs_size=2).discover(rel)
        assert all(fd.lhs_size <= 2 for fd in result.fds)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            ApproximateTANE(error_threshold=-0.1)

    def test_registered(self):
        from repro.algorithms import make_algorithm

        algo = make_algorithm("atane", error_threshold=0.5)
        assert algo.error_threshold == 0.5


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 200), threshold=st.sampled_from([0.0, 0.05, 0.2]))
def test_approximate_soundness_property(seed, threshold):
    """Every reported FD is within the threshold; every exact FD with
    the threshold >= 0 is covered by some reported generalization."""
    rel = random_relation(25, 4, domain_sizes=2, seed=seed)
    result = ApproximateTANE(error_threshold=threshold).discover(rel)
    for fd in result.fds:
        rhs_attr = attrset.to_list(fd.rhs)[0]
        assert g3_error(rel, fd.lhs, rhs_attr) <= threshold + 1e-12
    exact = NaiveFDDiscovery().discover(rel).fds
    for fd in exact:
        assert any(
            attrset.is_subset(approx.lhs, fd.lhs) and approx.rhs == fd.rhs
            for approx in result.fds
        )


def _g3_reference(relation, lhs, rhs_attr):
    """g3 by the definition: per LHS cluster, all but the largest RHS group go."""
    codes = relation.codes(rhs_attr)
    removals = 0
    for cluster in StrippedPartition.for_attrs(relation, lhs).clusters:
        counts = {}
        for row in cluster:
            counts[int(codes[row])] = counts.get(int(codes[row]), 0) + 1
        removals += len(cluster) - max(counts.values())
    return removals / relation.n_rows


@pytest.mark.parametrize("semantics", [NullSemantics.EQ, NullSemantics.NEQ])
@pytest.mark.parametrize("seed", range(12))
def test_g3_matches_definition(seed, semantics):
    rel = make_random_relation(seed, semantics)
    rng = random.Random(seed)
    for _ in range(6):
        lhs = A(*rng.sample(range(rel.n_cols), rng.randint(0, rel.n_cols - 1)))
        rhs_attr = rng.randrange(rel.n_cols)
        assert g3_error(rel, lhs, rhs_attr) == _g3_reference(rel, lhs, rhs_attr)
