"""Differential tests: per-row vs vectorized partition kernels.

Every kernel operation is cross-checked on seeded random relations
(regimes drawn in ``conftest.make_random_relation``) under both null
semantics, plus hand-built edge cases: the empty relation, a single
row, all-duplicate rows, and relations whose partitions are exclusively
single-row (stripped) clusters.  Each comparison runs once with
``kernels.VECTOR_MIN_WORK`` forcing the per-row code and once forcing
the vectorized code; both must return *identical* structures — same
cluster lists in the same canonical order, same agree sets, same
validation outcomes, and byte-identical FD covers from a full DHyFD
run.  The always-vectorized agree-set kernels are compared with their
per-row ``_*_python`` references directly.
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
            assert py.clusters == np_.clusters
            assert py.attrs == np_.attrs

    def test_refine_identical(self, seed, semantics):
        rel = make_random_relation(seed, semantics)
        rng = random.Random(seed + 2)
        attr = rng.randrange(rel.n_cols)
        other = rng.randrange(rel.n_cols)
        py_base, np_base = in_both_kernel_modes(
            lambda: StrippedPartition.for_attribute(rel, attr)
        )
        assert py_base.clusters == np_base.clusters
        py, np_ = in_both_kernel_modes(
            lambda: StrippedPartition.for_attribute(rel, attr).refine(rel, other)
        )
        assert py.clusters == np_.clusters

    def test_refine_many_identical(self, seed, semantics):
        rel = make_random_relation(seed, semantics)
        universal = StrippedPartition.universal(rel)
        attrs = list(range(rel.n_cols))
        py, np_ = in_both_kernel_modes(
            lambda: universal.refine_many(rel, attrs)
        )
        assert py.clusters == np_.clusters

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
        assert py.clusters == np_.clusters
        # and both match direct construction of the union partition
        direct = StrippedPartition.for_attrs(rel, left_mask | right_mask)
        assert {frozenset(c) for c in py.clusters} == {
            frozenset(c) for c in direct.clusters
        }

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

        def run(agree_masks):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(kernels, "agree_masks", agree_masks)
                sampler = AgreeSetSampler(rel, singletons)
                sets_a, stats_a = sampler.sample_round()
                sets_b, stats_b = sampler.sample_round()
            return sets_a, sets_b, stats_a.comparisons, stats_b.comparisons

        assert run(kernels._agree_masks_python) == run(kernels.agree_masks)

    def test_all_agree_sets_identical(self, seed, semantics):
        rel = make_random_relation(seed, semantics)
        py = kernels._pairwise_agree_sets_python(rel.matrix())
        py.discard(attrset.full_set(rel.n_cols))
        assert py == all_agree_sets(rel)

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
        assert py.clusters == np_.clusters
        assert kernels._pairwise_agree_sets_python(
            rel.matrix()
        ) == kernels.pairwise_agree_sets(rel.matrix())
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
    half = n_rows // 2
    clusters = [list(range(half)), list(range(half, n_rows))]
    tracer = Tracer()
    with use_tracer(tracer):
        dispatched = kernels.refine_clusters(codes_list, clusters)
    chosen = "numpy" if at_threshold else "python"
    assert tracer.metrics.counters[f"kernels.refine.{chosen}.calls"].value == 1
    per_row = kernels._refine_clusters_python(codes_list, clusters)
    vectorized = kernels._refine_clusters_numpy(codes_list, clusters)
    assert dispatched == per_row == vectorized
