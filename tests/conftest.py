"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager

import pytest

from repro.datasets.synthetic import random_relation
from repro.partitions import cache as partition_cache
from repro.partitions import kernels
from repro.relational.null import NULL, NullSemantics
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema


def make_random_relation(seed: int, semantics=NullSemantics.EQ) -> Relation:
    """A seeded random relation with a randomized regime.

    Shape, per-column cardinality, and null rate are all drawn from the
    seed, so a range of seeds covers wide/narrow, dense/sparse, and
    null-heavy relations.  Used by the kernel differential tests to
    cross-check the per-row and vectorized kernels.
    """
    rng = random.Random(seed)
    n_rows = rng.choice([2, 3, 10, 40, 120])
    n_cols = rng.randint(1, 6)
    domains = [rng.choice([1, 2, 3, 8, n_rows]) for _ in range(n_cols)]
    null_rate = rng.choice([0.0, 0.0, 0.1, 0.4])
    return random_relation(
        n_rows,
        n_cols,
        domain_sizes=domains,
        null_rate=null_rate,
        seed=seed,
        semantics=semantics,
    )


#: ``kernels.VECTOR_MIN_WORK`` values that force one implementation of
#: every size-dispatched kernel, named after the counters they feed
#: (``kernels.<op>.python`` is per-row, ``kernels.<op>.numpy`` vectorized).
KERNEL_MODES = {"python": sys.maxsize, "numpy": 0}


@contextmanager
def kernel_mode(mode: str):
    """Force the per-row (``"python"``) or vectorized (``"numpy"``) kernels."""
    previous = kernels.VECTOR_MIN_WORK
    kernels.VECTOR_MIN_WORK = KERNEL_MODES[mode]
    try:
        yield
    finally:
        kernels.VECTOR_MIN_WORK = previous


def in_both_kernel_modes(fn):
    """``fn()`` with per-row kernels forced, then with vectorized ones."""
    with kernel_mode("python"):
        per_row = fn()
    with kernel_mode("numpy"):
        vectorized = fn()
    return per_row, vectorized


@pytest.fixture(autouse=True)
def _partition_tier_isolation():
    """Drop shared partition tiers between tests.

    Fixture relations are seeded, so the same content fingerprint
    recurs across tests — without this, one test's warm tier changes
    another test's kernel-call and cache-counter observations.
    """
    yield
    partition_cache.reset_tiers()


@pytest.fixture
def random_relation_factory():
    """Factory fixture wrapping :func:`make_random_relation`."""
    return make_random_relation


@pytest.fixture
def city_relation() -> Relation:
    """A small hand-checkable relation.

    Facts (by column): zip -> city holds; city -> zip is violated
    (city c1 spans zips z1 and z2); state is constant; name is a key.
    """
    rows = [
        ("ann", "z1", "c1", "nc"),
        ("bob", "z1", "c1", "nc"),
        ("cat", "z2", "c1", "nc"),
        ("dan", "z3", "c2", "nc"),
        ("eve", "z3", "c2", "nc"),
        ("fay", "z4", "c3", "nc"),
    ]
    return Relation.from_rows(rows, RelationSchema(["name", "zip", "city", "state"]))


@pytest.fixture
def null_relation() -> Relation:
    """A relation with null markers for semantics tests."""
    rows = [
        ("a", NULL, "x"),
        ("b", NULL, "x"),
        ("c", "v", "y"),
        ("d", "v", "y"),
    ]
    return Relation.from_rows(rows, RelationSchema(["id", "maybe", "tag"]))


@pytest.fixture
def duplicate_relation() -> Relation:
    """Contains exact duplicate rows (a multiset relation)."""
    rows = [
        ("1", "a", "p"),
        ("1", "a", "p"),
        ("2", "b", "p"),
        ("3", "a", "q"),
    ]
    return Relation.from_rows(rows, RelationSchema(["k", "g", "h"]))
