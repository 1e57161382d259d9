"""Unit tests for cover transformations (left-reduction, canonical)."""

from __future__ import annotations

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import DHyFD
from repro.covers.canonical import (
    canonical_cover,
    compare_covers,
    is_left_reduced,
    is_non_redundant,
    left_reduce,
    merge_same_lhs,
    non_redundant_cover,
)
from repro.covers.implication import equivalent
from repro.datasets.synthetic import random_relation
from repro.relational import attrset
from repro.relational.fd import FD, FDSet


def A(*attrs):
    return attrset.from_attrs(attrs)


class TestLeftReduce:
    def test_drops_extraneous_attribute(self):
        # 0 -> 1 makes attribute 1 extraneous in {0,1} -> 2
        fds = [FD(A(0), A(1)), FD(A(0, 1), A(2))]
        reduced = left_reduce(fds)
        assert FD(A(0), A(2)) in reduced
        assert FD(A(0, 1), A(2)) not in reduced

    def test_already_reduced_unchanged(self):
        fds = FDSet([FD(A(0), A(1)), FD(A(2), A(3))])
        assert left_reduce(fds) == fds

    def test_is_left_reduced(self):
        assert is_left_reduced([FD(A(0), A(1)), FD(A(2), A(3))])
        assert not is_left_reduced([FD(A(0), A(1)), FD(A(0, 1), A(2))])


class TestNonRedundant:
    def test_drops_transitive_fd(self):
        fds = [FD(A(0), A(1)), FD(A(1), A(2)), FD(A(0), A(2))]
        cover = non_redundant_cover(fds)
        assert FD(A(0), A(2)) not in cover
        assert len(cover) == 2

    def test_keeps_needed_fds(self):
        fds = [FD(A(0), A(1)), FD(A(1), A(0))]
        assert len(non_redundant_cover(fds)) == 2

    def test_is_non_redundant(self):
        assert is_non_redundant([FD(A(0), A(1)), FD(A(1), A(2))])
        assert not is_non_redundant(
            [FD(A(0), A(1)), FD(A(1), A(2)), FD(A(0), A(2))]
        )

    def test_result_equivalent(self):
        fds = [FD(A(0), A(1)), FD(A(1), A(2)), FD(A(0), A(2)), FD(A(0), A(3))]
        cover = non_redundant_cover(fds)
        assert equivalent(fds, cover)


class TestMerge:
    def test_merges_same_lhs(self):
        merged = merge_same_lhs([FD(A(0), A(1)), FD(A(0), A(2)), FD(A(1), A(3))])
        assert merged == FDSet([FD(A(0), A(1, 2)), FD(A(1), A(3))])

    def test_unique_lhs_property(self):
        merged = merge_same_lhs([FD(A(0), A(1)), FD(A(0), A(2))])
        lhss = [fd.lhs for fd in merged]
        assert len(lhss) == len(set(lhss)) == 1


class TestCanonicalCover:
    def test_textbook_example(self):
        # Σ = {0->1, 1->2, 0->2}: canonical cover drops 0->2.
        fds = [FD(A(0), A(1)), FD(A(1), A(2)), FD(A(0), A(2))]
        cover = canonical_cover(fds)
        assert cover == FDSet([FD(A(0), A(1)), FD(A(1), A(2))])

    def test_merges_rhs(self):
        fds = [FD(A(0), A(1)), FD(A(0), A(2))]
        assert canonical_cover(fds) == FDSet([FD(A(0), A(1, 2))])

    def test_not_left_reduced_input(self):
        fds = [FD(A(0), A(1)), FD(A(0, 1), A(2))]
        cover = canonical_cover(fds, assume_left_reduced=False)
        assert cover == FDSet([FD(A(0), A(1, 2))])

    def test_canonical_properties_on_discovery_output(self):
        rel = random_relation(40, 6, domain_sizes=3, seed=13)
        discovered = DHyFD().discover(rel).fds
        cover = canonical_cover(discovered)
        singletons = list(cover.split())
        assert equivalent(discovered, cover)
        assert is_non_redundant(singletons)
        assert is_left_reduced(singletons)
        lhss = [fd.lhs for fd in cover]
        assert len(lhss) == len(set(lhss))

    def test_never_larger_than_input(self):
        rel = random_relation(40, 6, domain_sizes=3, seed=14)
        discovered = DHyFD().discover(rel).fds
        canonical, comparison = compare_covers(discovered)
        assert comparison.canonical_count <= comparison.left_reduced_count
        assert (
            comparison.canonical_occurrences <= comparison.left_reduced_occurrences
        )
        assert 0 < comparison.size_percent <= 100.0

    def test_compare_covers_counts(self):
        fds = FDSet([FD(A(0), A(1)), FD(A(1), A(2)), FD(A(0), A(2))])
        canonical, comparison = compare_covers(fds)
        assert comparison.left_reduced_count == 3
        assert comparison.left_reduced_occurrences == 6
        assert comparison.canonical_count == 2
        assert comparison.seconds >= 0
        # counted on the singleton expansion of a merged RHS
        _, comparison = compare_covers(FDSet([FD(A(0), A(1, 2)), FD(A(0), A(1))]))
        assert comparison.left_reduced_count == 2
        assert comparison.left_reduced_occurrences == 4
        assert comparison.canonical_occurrences == 3

    def test_result_memo_under_concurrent_readers(self):
        rel = random_relation(40, 6, domain_sizes=3, seed=13)
        result = DHyFD().discover(rel)
        expected = canonical_cover(result.fds)
        covers = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda: covers.append(result.canonical_cover()))
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert covers == [expected] * 8
        assert result.canonical_cover() is result.canonical_cover()

    def test_empty_cover(self):
        canonical, comparison = compare_covers(FDSet())
        assert len(canonical) == 0
        assert comparison.size_percent == 100.0


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 500), rows=st.integers(5, 35))
def test_canonical_equivalence_property(seed, rows):
    """For any discovered cover, canonical form is an equivalent,
    non-redundant, unique-LHS representation that is never bigger."""
    rel = random_relation(rows, 5, domain_sizes=3, seed=seed)
    discovered = DHyFD().discover(rel).fds
    cover = canonical_cover(discovered)
    assert equivalent(discovered, cover)
    assert is_non_redundant(list(cover))
    assert len({fd.lhs for fd in cover}) == len(cover)
    assert len(cover) <= max(1, len(discovered))
