"""Unit tests for FD validation (Algorithm 4)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import validation
from repro.core.dhyfd import DHyFD
from repro.core.validation import check_fd, validate_fd
from repro.datasets.benchmarks import load_benchmark
from repro.datasets.synthetic import random_relation
from repro.partitions.stripped import StrippedPartition
from repro.relational import attrset
from repro.relational.fd import FD
from repro.relational.null import NullSemantics

from tests.conftest import make_random_relation


def A(*attrs):
    return attrset.from_attrs(attrs)


class TestValidateFd:
    def test_valid_fd(self, city_relation):
        partition = StrippedPartition.for_attribute(city_relation, 1)
        result = validate_fd(city_relation, A(1), A(2, 3), partition)
        assert result.valid_rhs == A(2, 3)
        assert result.non_fd_lhs == set()

    def test_invalid_fd_returns_non_fds(self, city_relation):
        partition = StrippedPartition.for_attribute(city_relation, 2)
        result = validate_fd(city_relation, A(2), A(1), partition)
        assert result.valid_rhs == attrset.EMPTY
        assert result.non_fd_lhs
        for agree in result.non_fd_lhs:
            # every reported agree set contains the LHS (city)
            assert attrset.is_subset(A(2), agree)
            # and never the violated attribute (zip)
            assert not attrset.contains(agree, 1)

    def test_mixed_rhs(self, city_relation):
        partition = StrippedPartition.for_attribute(city_relation, 2)
        result = validate_fd(city_relation, A(2), A(1, 3), partition)
        assert result.valid_rhs == A(3)  # state survives, zip does not

    def test_coarser_partition_refined_on_the_fly(self, city_relation):
        universal = StrippedPartition.universal(city_relation)
        result = validate_fd(city_relation, A(1), A(2), universal)
        assert result.valid_rhs == A(2)

    def test_rejects_non_subset_partition(self, city_relation):
        partition = StrippedPartition.for_attribute(city_relation, 2)
        with pytest.raises(ValueError):
            validate_fd(city_relation, A(1), A(3), partition)

    def test_empty_lhs_constant_column(self, city_relation):
        universal = StrippedPartition.universal(city_relation)
        result = validate_fd(
            city_relation, attrset.EMPTY, city_relation.schema.all_attrs(), universal
        )
        assert result.valid_rhs == A(3)  # only state is constant

    def test_comparisons_counted(self, city_relation):
        universal = StrippedPartition.universal(city_relation)
        result = validate_fd(city_relation, attrset.EMPTY, A(3), universal)
        assert result.comparisons == 5  # pivot vs the 5 other rows

    def test_early_exit_within_chunk(self, city_relation):
        universal = StrippedPartition.universal(city_relation)
        # name (a key) disagrees immediately -> the first chunk settles it
        result = validate_fd(city_relation, attrset.EMPTY, A(0), universal)
        assert result.valid_rhs == attrset.EMPTY
        assert 1 <= result.comparisons <= city_relation.n_rows - 1

    def test_early_exit_skips_later_chunks(self):
        """An FD invalidated in the first chunk of a huge cluster must
        not scan the whole cluster."""
        from repro.relational.relation import Relation

        rows = [("g", str(i)) for i in range(1000)]
        rel = Relation.from_rows(rows, ["grp", "val"])
        universal = StrippedPartition.universal(rel)
        result = validate_fd(rel, attrset.EMPTY, A(1), universal)
        assert result.valid_rhs == attrset.EMPTY
        assert result.comparisons <= 64


class TestCheckFd:
    def test_matches_definition(self, city_relation):
        assert check_fd(city_relation, A(1), A(2))
        assert not check_fd(city_relation, A(2), A(1))
        assert check_fd(city_relation, A(0), A(1, 2, 3))  # name is a key
        assert check_fd(city_relation, attrset.EMPTY, A(3))

    def test_null_semantics_affect_validity(self, null_relation):
        # maybe -> tag holds under EQ (nulls agree, both tagged x)
        assert check_fd(null_relation, A(1), A(2))
        neq = null_relation.with_semantics("neq")
        # under NEQ nulls are unique, so clusters shrink; still holds
        assert check_fd(neq, A(1), A(2))
        # tag -> maybe: x-rows have NULL, NULL -> equal under EQ only
        assert check_fd(null_relation, A(2), A(1))
        assert not check_fd(neq, A(2), A(1))

    def test_duplicates_do_not_violate(self, duplicate_relation):
        assert check_fd(duplicate_relation, A(0), A(1, 2))


# ----------------------------------------------------------------------
# Exactness: the batched scan against the per-cluster reference
# ----------------------------------------------------------------------


def _split(cluster, codes_list):
    """One cluster refined by ``codes_list``, canonical, singletons stripped."""
    groups = {}
    for row in cluster:
        key = tuple(int(codes[row]) for codes in codes_list)
        groups.setdefault(key, []).append(row)
    return sorted((g for g in groups.values() if len(g) >= 2), key=lambda g: g[0])


def reference_validate_fd(relation, lhs, rhs, partition):
    """Algorithm 4 as a plain sequential scan, one source cluster at a time.

    Each source cluster of ``partition`` is refined on its own, and each
    refined cluster's rows are compared against its first row in chunks
    of 64; the scan stops once no RHS attribute is left.
    """
    matrix = relation.matrix()
    n_cols = relation.n_cols
    missing = attrset.to_list(attrset.difference(lhs, partition.attrs))
    missing_codes = [relation.codes(attr) for attr in missing]
    valid_rhs = rhs
    non_fds = set()
    comparisons = 0
    for source_cluster in partition.clusters:
        for cluster in _split(source_cluster, missing_codes):
            pivot = matrix[cluster[0]]
            for start in range(1, len(cluster), 64):
                rows = cluster[start:start + 64]
                comparisons += len(rows)
                diff = matrix[rows] != pivot
                for attr in attrset.iter_attrs(valid_rhs):
                    column = diff[:, attr]
                    if not column.any():
                        continue
                    witness = int(np.argmax(column))
                    disagree = attrset.from_attrs(
                        int(col) for col in np.nonzero(diff[witness])[0]
                    )
                    valid_rhs = attrset.difference(valid_rhs, disagree)
                    non_fds.add(attrset.complement(disagree, n_cols))
                    if not valid_rhs:
                        return valid_rhs, non_fds, comparisons
    return valid_rhs, non_fds, comparisons


def _random_candidates(relation, rng, count):
    """``(lhs, rhs, X')`` triples with ``X' ⊆ lhs``, often ``X' ⊊ lhs``."""
    attrs = list(range(relation.n_cols))
    for _ in range(count):
        lhs_attrs = rng.sample(attrs, rng.randint(0, relation.n_cols - 1))
        start_attrs = rng.sample(lhs_attrs, rng.randint(0, len(lhs_attrs)))
        others = [a for a in attrs if a not in lhs_attrs]
        rhs_attrs = rng.sample(others, rng.randint(0, len(others)))
        yield (
            attrset.from_attrs(lhs_attrs),
            attrset.from_attrs(rhs_attrs),
            attrset.from_attrs(start_attrs),
        )


def _assert_matches_reference(relation, rng, count=12):
    for lhs, rhs, start in _random_candidates(relation, rng, count):
        partition = StrippedPartition.for_attrs(relation, start)
        outcome = validate_fd(relation, lhs, rhs, partition)
        assert type(outcome.comparisons) is int
        assert type(outcome.valid_rhs) is int
        assert (
            outcome.valid_rhs, outcome.non_fd_lhs, outcome.comparisons
        ) == reference_validate_fd(relation, lhs, rhs, partition)


@pytest.mark.parametrize("semantics", [NullSemantics.EQ, NullSemantics.NEQ])
@pytest.mark.parametrize("seed", range(40))
def test_matches_reference_on_random_relations(seed, semantics):
    relation = make_random_relation(seed, semantics)
    _assert_matches_reference(relation, random.Random(seed))


@pytest.mark.parametrize("first_batch", [1, 3, 10**9])
@pytest.mark.parametrize("semantics", [NullSemantics.EQ, NullSemantics.NEQ])
@pytest.mark.parametrize("seed", range(6))
def test_matches_reference_with_long_clusters(seed, semantics, first_batch):
    """Clusters of hundreds of rows: several chunks and several batches.

    The batch schedule decides only how much gets refined ahead of the
    scan, so every first-batch size gives the reference's answer.
    """
    rng = random.Random(seed)
    n_cols = rng.randint(3, 6)
    relation = random_relation(
        rng.choice([300, 700]),
        n_cols,
        domain_sizes=[rng.choice([1, 2, 3, 5, 40]) for _ in range(n_cols)],
        null_rate=rng.choice([0.0, 0.2]),
        seed=seed,
        semantics=semantics,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(validation, "FIRST_BATCH_ROWS", first_batch)
        _assert_matches_reference(relation, rng)


# ----------------------------------------------------------------------
# DHyFD's work counters on the registry replicas
# ----------------------------------------------------------------------

#: ``DiscoveryStats`` of ``DHyFD().discover`` on the seed-0 replicas,
#: recorded before validation was batched (and, for the induction
#: counters and hepatitis, before induction queried the FD-node index).
#: Validation and the index change how the work is done, never which
#: rows are compared or which tree nodes Algorithm 2 visits and fills,
#: so these must not move.
PINNED_COUNTERS = {
    "ncvoter": dict(validations=664, comparisons=6648, levels=7, refreshes=4,
                    nodes_visited=21532, fds_inserted=4021),
    "letter": dict(validations=706, comparisons=6482, levels=12, refreshes=1,
                   nodes_visited=19208, fds_inserted=6729),
    "adult": dict(validations=316, comparisons=27151, levels=9, refreshes=1,
                  nodes_visited=11075, fds_inserted=2117),
    # 70 x 18: the replica without its columns 1 and 2 (perfbench's lib-wide)
    "hepatitis": dict(validations=3487, comparisons=7787, levels=10,
                      refreshes=6, nodes_visited=66838, fds_inserted=20494),
}


def _pinned_input(name):
    relation = load_benchmark(name)
    if name == "hepatitis":
        relation = relation.project_columns(
            [c for c in range(relation.n_cols) if c not in (1, 2)]
        )
    return relation


@pytest.mark.parametrize("name", sorted(PINNED_COUNTERS))
def test_dhyfd_counters_pinned(name):
    stats = DHyFD().discover(_pinned_input(name)).stats
    assert dict(
        validations=stats.validations,
        comparisons=stats.comparisons,
        levels=stats.levels_processed,
        refreshes=stats.partition_refreshes,
        nodes_visited=stats.induction_nodes_visited,
        fds_inserted=stats.induction_fds_inserted,
    ) == PINNED_COUNTERS[name]
