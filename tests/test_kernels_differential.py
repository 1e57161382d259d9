"""Differential tests: per-row vs vectorized partition kernels.

Every kernel operation is cross-checked on seeded random relations
(regimes drawn in ``conftest.make_random_relation``) under both null
semantics, plus hand-built edge cases: the empty relation, a single
row, all-duplicate rows, and relations whose partitions are exclusively
single-row (stripped) clusters.  Each comparison runs once with
``kernels.VECTOR_MIN_WORK`` forcing the per-row code and once forcing
the vectorized code; both must return *identical* structures — the
same flat ``(rows, offsets)`` arrays, same agree sets, same validation
outcomes, and byte-identical FD covers from a full DHyFD
run.  The agree-set kernels have only vectorized code; they are checked
against ``Relation.agree_set``, one row pair at a time.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.dhyfd import DHyFD
from repro.core.sampling import AgreeSetSampler, all_agree_sets
from repro.core.validation import validate_fd
from repro.partitions import kernels
from repro.partitions.stripped import StrippedPartition
from repro.relational import attrset
from repro.relational.null import NullSemantics
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from repro.telemetry import Tracer, use_tracer

from tests.conftest import in_both_kernel_modes, make_random_relation

SEEDS = list(range(12))
SEMANTICS = [NullSemantics.EQ, NullSemantics.NEQ]


def _same(left, right):
    """Two flat partitions hold the same values with the same dtypes."""
    return all(
        a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(left, right)
    )


def pairwise_oracle(rel):
    """Every row pair's agree set, from ``Relation.agree_set``."""
    return {
        rel.agree_set(i, j)
        for i in range(rel.n_rows)
        for j in range(i + 1, rel.n_rows)
    }


def edge_case_relations(semantics):
    """Empty, single-row, all-duplicate, and all-stripped relations."""
    schema3 = RelationSchema(["a", "b", "c"])
    return [
        Relation.from_rows([], schema3, semantics),
        Relation.from_rows([("x", "y", "z")], schema3, semantics),
        Relation.from_rows([("x", "y", "z")] * 5, schema3, semantics),
        # every column is a key: all partitions are empty (stripped)
        Relation.from_rows(
            [(f"k{i}", f"m{i}", f"n{i}") for i in range(6)], schema3, semantics
        ),
    ]


@pytest.mark.parametrize("semantics", SEMANTICS)
@pytest.mark.parametrize("seed", SEEDS)
class TestPartitionKernels:
    def test_for_attrs_identical(self, seed, semantics):
        rel = make_random_relation(seed, semantics)
        rng = random.Random(seed + 1)
        for _ in range(4):
            mask = attrset.from_attrs(
                rng.sample(range(rel.n_cols), rng.randint(1, rel.n_cols))
            )
            py, np_ = in_both_kernel_modes(
                lambda: StrippedPartition.for_attrs(rel, mask)
            )
            assert _same(py.flat, np_.flat)
            assert py.attrs == np_.attrs

    def test_refine_identical(self, seed, semantics):
        rel = make_random_relation(seed, semantics)
        rng = random.Random(seed + 2)
        attr = rng.randrange(rel.n_cols)
        other = rng.randrange(rel.n_cols)
        py_base, np_base = in_both_kernel_modes(
            lambda: StrippedPartition.for_attribute(rel, attr)
        )
        assert _same(py_base.flat, np_base.flat)
        py, np_ = in_both_kernel_modes(
            lambda: StrippedPartition.for_attribute(rel, attr).refine(rel, other)
        )
        assert _same(py.flat, np_.flat)

    def test_refine_many_identical(self, seed, semantics):
        rel = make_random_relation(seed, semantics)
        universal = StrippedPartition.universal(rel)
        attrs = list(range(rel.n_cols))
        py, np_ = in_both_kernel_modes(
            lambda: universal.refine_many(rel, attrs)
        )
        assert _same(py.flat, np_.flat)

    def test_intersect_identical(self, seed, semantics):
        rel = make_random_relation(seed, semantics)
        if rel.n_cols < 2:
            pytest.skip("needs two attributes")
        left_mask = attrset.singleton(0)
        right_mask = attrset.singleton(1)

        def product():
            left = StrippedPartition.for_attrs(rel, left_mask)
            right = StrippedPartition.for_attrs(rel, right_mask)
            return left.intersect(right)

        py, np_ = in_both_kernel_modes(product)
        assert _same(py.flat, np_.flat)
        # and both match direct construction of the union partition
        direct = StrippedPartition.for_attrs(rel, left_mask | right_mask)
        assert {frozenset(c) for c in py.clusters} == {
            frozenset(c) for c in direct.clusters
        }

    def test_refine_by_source_identical(self, seed, semantics):
        """Grouped by source cluster: each source refined on its own."""
        rel = make_random_relation(seed, semantics)
        rng = random.Random(seed + 4)
        base = StrippedPartition.for_attribute(rel, rng.randrange(rel.n_cols))
        codes = [rel.codes(a) for a in rng.sample(range(rel.n_cols), 1)]
        py, np_ = in_both_kernel_modes(
            lambda: kernels.refine_clusters(codes, base.flat, by_source=True)
        )
        assert _same(py, np_)
        expected = []
        for cluster in base.clusters:
            single = (
                np.array(cluster, dtype=kernels.INDEX),
                np.array([0, len(cluster)], dtype=kernels.INDEX),
            )
            expected += kernels.cluster_lists(*kernels.refine_clusters(codes, single))
        assert kernels.cluster_lists(*py) == expected

    def test_refines_attribute_identical(self, seed, semantics):
        rel = make_random_relation(seed, semantics)
        for lhs_attr in range(rel.n_cols):
            partition = StrippedPartition.for_attribute(rel, lhs_attr)
            for rhs_attr in range(rel.n_cols):
                py, np_ = in_both_kernel_modes(
                    lambda: partition.refines_attribute(rel, rhs_attr)
                )
                assert py == np_


@pytest.mark.parametrize("semantics", SEMANTICS)
@pytest.mark.parametrize("seed", SEEDS)
class TestAgreeSetKernels:
    def test_sample_round_identical(self, seed, semantics):
        rel = make_random_relation(seed, semantics)
        singletons = [
            StrippedPartition.for_attribute(rel, attr)
            for attr in range(rel.n_cols)
        ]

        def per_pair(matrix, rows_a, rows_b):
            assert matrix is rel.matrix()
            return [rel.agree_set(int(a), int(b)) for a, b in zip(rows_a, rows_b)]

        def run(agree_masks):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(kernels, "agree_masks", agree_masks)
                sampler = AgreeSetSampler(rel, singletons)
                sets_a, stats_a = sampler.sample_round()
                sets_b, stats_b = sampler.sample_round()
            return sets_a, sets_b, stats_a.comparisons, stats_b.comparisons

        assert run(per_pair) == run(kernels.agree_masks)

    def test_all_agree_sets_identical(self, seed, semantics):
        rel = make_random_relation(seed, semantics)
        expected = pairwise_oracle(rel)
        assert kernels.pairwise_agree_sets(rel.matrix()) == expected
        expected.discard(attrset.full_set(rel.n_cols))
        assert expected == all_agree_sets(rel)

    def test_validate_fd_identical(self, seed, semantics):
        rel = make_random_relation(seed, semantics)
        if rel.n_cols < 2:
            pytest.skip("needs two attributes")
        rng = random.Random(seed + 3)
        lhs_attrs = rng.sample(range(rel.n_cols), rng.randint(1, rel.n_cols - 1))
        lhs = attrset.from_attrs(lhs_attrs)
        rhs = attrset.complement(lhs, rel.n_cols)
        start = attrset.singleton(lhs_attrs[0])

        def run():
            partition = StrippedPartition.for_attrs(rel, start)
            outcome = validate_fd(rel, lhs, rhs, partition)
            return outcome.valid_rhs, outcome.non_fd_lhs, outcome.comparisons

        py, np_ = in_both_kernel_modes(run)
        assert py == np_


@pytest.mark.parametrize("semantics", SEMANTICS)
@pytest.mark.parametrize("seed", SEEDS)
def test_dhyfd_covers_identical(seed, semantics):
    """Full discovery produces byte-identical covers in both kernel modes."""
    rel = make_random_relation(seed, semantics)
    py, np_ = in_both_kernel_modes(lambda: DHyFD().discover(rel))
    assert py.fds == np_.fds
    assert py.format_fds() == np_.format_fds()


@pytest.mark.parametrize("semantics", SEMANTICS)
def test_edge_cases(semantics):
    """Empty, single-row, duplicate-only, and key-only relations."""
    for rel in edge_case_relations(semantics):
        mask = attrset.full_set(rel.n_cols)
        py, np_ = in_both_kernel_modes(
            lambda: StrippedPartition.for_attrs(rel, mask)
        )
        assert _same(py.flat, np_.flat)
        assert kernels.pairwise_agree_sets(rel.matrix()) == pairwise_oracle(rel)
        cover_py, cover_np = in_both_kernel_modes(lambda: DHyFD().discover(rel).fds)
        assert cover_py == cover_np


@pytest.mark.parametrize("semantics", SEMANTICS)
def test_single_row_clusters_strip_identically(semantics):
    """Partitions whose refinement leaves only singletons come back empty."""
    rel = Relation.from_rows(
        [("a", "1"), ("a", "2"), ("b", "3"), ("b", "4")],
        RelationSchema(["g", "u"]),
        semantics,
    )
    base = StrippedPartition.for_attribute(rel, 0)
    assert base.num_clusters == 2
    py, np_ = in_both_kernel_modes(lambda: base.refine(rel, 1))
    assert py.clusters == np_.clusters == []


@pytest.mark.parametrize("n_keys", [1, 2, 4])
@pytest.mark.parametrize("at_threshold", [False, True])
def test_refine_dispatch_at_threshold(n_keys, at_threshold):
    """Refines whose rows × keys sit just below / exactly at the constant.

    The dispatcher must pick per-row code below ``VECTOR_MIN_WORK`` and
    vectorized code at it, and agree with both implementations.
    """
    work = kernels.VECTOR_MIN_WORK if at_threshold else kernels.VECTOR_MIN_WORK - 1
    n_rows = work // n_keys
    assert (n_rows * n_keys >= kernels.VECTOR_MIN_WORK) is at_threshold
    rng = np.random.default_rng(n_keys)
    codes_list = [rng.integers(0, 3, size=n_rows) for _ in range(n_keys)]
    clusters = (
        np.arange(n_rows, dtype=kernels.INDEX),
        np.array([0, n_rows // 2, n_rows], dtype=kernels.INDEX),
    )
    tracer = Tracer()
    with use_tracer(tracer):
        dispatched = kernels.refine_clusters(codes_list, clusters)
    chosen = "numpy" if at_threshold else "python"
    assert tracer.metrics.counters[f"kernels.refine.{chosen}.calls"].value == 1
    per_row = kernels._refine_clusters_python(codes_list, clusters)
    vectorized = kernels._refine_clusters_numpy(codes_list, clusters)
    for rows, offsets in (dispatched, per_row, vectorized):
        assert rows.dtype == offsets.dtype == kernels.INDEX
    assert _same(dispatched, per_row) and _same(per_row, vectorized)


@pytest.mark.parametrize("by_source", [False, True])
@pytest.mark.parametrize("n_keys", [1, 3])
def test_refine_wide_code_ranges(n_keys, by_source):
    """Codes spanning more than a composite key can hold, negative ones too.

    The vectorized code falls back from its packed sort (one key) and
    relabels keys densely (three keys); the per-row code never looks
    at magnitudes.
    """
    rng = np.random.default_rng(5)
    n_rows = 300
    codes_list = [
        rng.integers(-2, 3, size=n_rows) * 2**55,
        rng.integers(0, 2, size=n_rows) * 2**61 - 7,
        rng.integers(0, 3, size=n_rows),
    ][:n_keys]
    clusters = (
        np.arange(n_rows, dtype=kernels.INDEX),
        np.array([0, 50, 51, 180, n_rows], dtype=kernels.INDEX),
    )
    per_row = kernels._refine_clusters_python(codes_list, clusters, by_source)
    vectorized = kernels._refine_clusters_numpy(codes_list, clusters, by_source)
    assert _same(per_row, vectorized)
    assert len(per_row[1]) > 4
