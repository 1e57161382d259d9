"""Tests for incremental FD maintenance."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import DHyFD
from repro.datasets.synthetic import random_relation
from repro.incremental import IncrementalFDMaintainer
from repro.relational import attrset
from repro.relational.fd import FD
from repro.relational.null import NULL
from repro.relational.relation import Relation


def fresh_discovery(relation):
    return DHyFD().discover(relation).fds


class TestAppendRows:
    def test_no_change_when_rows_conform(self, city_relation):
        maintainer = IncrementalFDMaintainer(city_relation)
        before = maintainer.cover
        # a new row consistent with zip->city, constant state, new name
        maintainer.append_rows([("gus", "z9", "c9", "nc")])
        assert maintainer.cover == fresh_discovery(maintainer.relation)
        # zip -> city specifically survives
        assert FD(attrset.singleton(1), attrset.singleton(2)) in maintainer.cover

    def test_violation_specializes(self, city_relation):
        maintainer = IncrementalFDMaintainer(city_relation)
        # break zip -> city: reuse z1 with a different city
        maintainer.append_rows([("gus", "z1", "c9", "nc")])
        assert FD(attrset.singleton(1), attrset.singleton(2)) not in maintainer.cover
        assert maintainer.cover == fresh_discovery(maintainer.relation)

    def test_constant_column_broken(self, city_relation):
        maintainer = IncrementalFDMaintainer(city_relation)
        maintainer.append_rows([("gus", "z9", "c9", "va")])
        assert FD(attrset.EMPTY, attrset.singleton(3)) not in maintainer.cover
        assert maintainer.cover == fresh_discovery(maintainer.relation)

    def test_batch_append(self, city_relation):
        maintainer = IncrementalFDMaintainer(city_relation)
        maintainer.append_rows(
            [
                ("gus", "z1", "c9", "nc"),
                ("hal", "z9", "c1", "va"),
                ("ivy", "z9", "c2", "nc"),
            ]
        )
        assert maintainer.cover == fresh_discovery(maintainer.relation)

    def test_empty_append_is_noop(self, city_relation):
        maintainer = IncrementalFDMaintainer(city_relation)
        before = maintainer.cover
        assert maintainer.append_rows([]) == before
        assert maintainer.relation.n_rows == 6

    def test_append_with_nulls(self, null_relation):
        maintainer = IncrementalFDMaintainer(null_relation)
        maintainer.append_rows([("e", NULL, "z")])
        assert maintainer.cover == fresh_discovery(maintainer.relation)

    def test_successive_appends(self, city_relation):
        maintainer = IncrementalFDMaintainer(city_relation)
        for row in [
            ("gus", "z1", "c9", "nc"),
            ("hal", "z1", "c9", "va"),
            ("ivy", "z2", "c2", "nc"),
        ]:
            maintainer.append_rows([row])
            assert maintainer.cover == fresh_discovery(maintainer.relation)

    def test_precomputed_cover_accepted(self, city_relation):
        cover = fresh_discovery(city_relation)
        maintainer = IncrementalFDMaintainer(city_relation, cover=cover)
        assert maintainer.cover == cover

    def test_shape_mismatch_rejected(self, city_relation):
        maintainer = IncrementalFDMaintainer(city_relation)
        with pytest.raises(Exception):
            maintainer.append_rows([("too", "short")])


class TestRemoveRows:
    def test_deletion_restores_fd(self, city_relation):
        maintainer = IncrementalFDMaintainer(city_relation)
        maintainer.append_rows([("gus", "z1", "c9", "nc")])
        assert FD(attrset.singleton(1), attrset.singleton(2)) not in maintainer.cover
        maintainer.remove_rows([6])  # drop the violator again
        assert FD(attrset.singleton(1), attrset.singleton(2)) in maintainer.cover
        assert maintainer.cover == fresh_discovery(maintainer.relation)
        assert maintainer.rediscoveries == 1

    def test_rediscovery_reuses_algorithm_kwargs(self, monkeypatch, city_relation):
        """Regression: remove_rows used to rediscover with default kwargs,
        dropping the maintainer's configured ratio_threshold/time_limit."""
        from repro.incremental import maintainer as maintainer_mod

        calls = []
        real = maintainer_mod.make_algorithm

        def spying_make_algorithm(name, **kwargs):
            calls.append((name, dict(kwargs)))
            return real(name, **kwargs)

        monkeypatch.setattr(
            maintainer_mod, "make_algorithm", spying_make_algorithm
        )
        maintainer = IncrementalFDMaintainer(
            city_relation, algorithm="dhyfd", ratio_threshold=2.0, time_limit=60.0
        )
        maintainer.remove_rows([0])
        assert len(calls) == 2  # initial discovery + rediscovery
        for name, kwargs in calls:
            assert name == "dhyfd"
            assert kwargs.get("ratio_threshold") == 2.0
            assert kwargs.get("time_limit") == 60.0
        assert maintainer.cover == fresh_discovery(maintainer.relation)

    def test_kwargs_with_precomputed_cover(self, city_relation):
        cover = fresh_discovery(city_relation)
        maintainer = IncrementalFDMaintainer(
            city_relation, cover=cover, ratio_threshold=2.0
        )
        assert maintainer.algorithm_kwargs == {"ratio_threshold": 2.0}
        maintainer.remove_rows([5])
        assert maintainer.cover == fresh_discovery(maintainer.relation)


class TestAppendRowsRelation:
    def test_codes_preserved(self, city_relation):
        extended = city_relation.append_rows([("gus", "z1", "c1", "nc")])
        assert extended.n_rows == 7
        # old rows keep their codes
        for attr in range(4):
            assert (
                extended.codes(attr)[:6] == city_relation.codes(attr)
            ).all()
        # the reused zip value got the same code as before
        assert extended.codes(1)[6] == city_relation.codes(1)[0]

    def test_new_values_get_new_codes(self, city_relation):
        extended = city_relation.append_rows([("gus", "z9", "c1", "nc")])
        assert extended.codes(1)[6] == city_relation.cardinality(1)
        assert extended.cardinality(1) == city_relation.cardinality(1) + 1

    def test_null_eq_reuses_code(self, null_relation):
        extended = null_relation.append_rows([("e", NULL, "z")])
        assert extended.codes(1)[4] == null_relation.codes(1)[0]

    def test_null_neq_fresh_code(self, null_relation):
        rel = null_relation.with_semantics("neq")
        extended = rel.append_rows([("e", NULL, "z")])
        assert extended.codes(1)[4] not in set(rel.codes(1).tolist())

    def test_decoder_roundtrip(self, city_relation):
        extended = city_relation.append_rows([("gus", "z9", "c1", "nc")])
        assert extended.row_values(6) == ("gus", "z9", "c1", "nc")


@settings(deadline=None, max_examples=15)
@given(
    seed=st.integers(0, 300),
    n_new=st.integers(1, 6),
)
def test_incremental_equals_rediscovery_property(seed, n_new):
    """Incremental maintenance equals from-scratch discovery."""
    import random as rnd

    rng = rnd.Random(seed)
    rel = random_relation(20, 4, domain_sizes=3, seed=seed)
    maintainer = IncrementalFDMaintainer(rel)
    new_rows = [
        tuple(f"v{rng.randrange(3)}" for _ in range(4)) for _ in range(n_new)
    ]
    maintainer.append_rows(new_rows)
    assert maintainer.cover == fresh_discovery(maintainer.relation)
