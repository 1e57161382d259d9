"""Unit tests for FD and FDSet."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.relational import attrset
from repro.relational.fd import FD, FDSet, normalize_singleton_cover
from repro.relational.schema import RelationSchema


class TestFD:
    def test_of_with_indices(self):
        fd = FD.of([0, 1], 2)
        assert attrset.to_list(fd.lhs) == [0, 1]
        assert attrset.to_list(fd.rhs) == [2]

    def test_of_with_names(self):
        schema = RelationSchema(["a", "b", "c"])
        fd = FD.of(["a"], "c", schema)
        assert fd == FD.of([0], 2)

    def test_of_multi_rhs(self):
        fd = FD.of([0], [1, 2])
        assert fd.rhs_size == 2

    def test_names_without_schema_rejected(self):
        with pytest.raises(ValueError):
            FD.of(["a"], 1)

    def test_empty_rhs_rejected(self):
        with pytest.raises(ValueError):
            FD(attrset.singleton(0), attrset.EMPTY)

    def test_overlapping_lhs_rhs_rejected(self):
        with pytest.raises(ValueError):
            FD(attrset.from_attrs([0, 1]), attrset.singleton(1))

    def test_empty_lhs_allowed(self):
        fd = FD(attrset.EMPTY, attrset.singleton(0))
        assert fd.lhs_size == 0

    def test_sizes_and_occurrences(self):
        fd = FD.of([0, 1], [2, 3])
        assert fd.lhs_size == 2
        assert fd.rhs_size == 2
        assert fd.attribute_occurrences == 4

    def test_split(self):
        fd = FD.of([0], [1, 2])
        parts = set(fd.split())
        assert parts == {FD.of([0], 1), FD.of([0], 2)}

    def test_format(self):
        schema = RelationSchema(["a", "b", "c"])
        assert FD.of(["a", "b"], "c", schema).format(schema) == "a,b -> c"
        assert FD.of([], "c", schema).format(schema) == "∅ -> c"

    def test_str(self):
        assert str(FD.of([0, 2], 1)) == "0,2 -> 1"

    def test_ordering_deterministic(self):
        fds = [FD.of([1], 2), FD.of([0], 2), FD.of([0], 1)]
        assert sorted(fds) == sorted(fds[::-1])

    def test_hash_equality(self):
        assert FD.of([0], 1) == FD.of([0], 1)
        assert hash(FD.of([0], 1)) == hash(FD.of([0], 1))

    @pytest.mark.parametrize(
        "clone",
        [lambda fd: pickle.loads(pickle.dumps(fd)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_slotted_round_trip(self, clone):
        fd = FD.of([0, 70], [3, 5])
        twin = clone(fd)
        assert twin == fd and hash(twin) == hash(fd)
        assert not twin < fd and not fd < twin
        assert FD.of([0], 1) < twin
        assert not hasattr(twin, "__dict__")

    def test_frozen(self):
        fd = FD.of([0], 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fd.lhs = attrset.singleton(2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fd.note = "x"


class TestFDSet:
    def test_add_discard(self):
        fds = FDSet()
        fd = FD.of([0], 1)
        fds.add(fd)
        fds.add(fd)
        assert len(fds) == 1
        fds.discard(fd)
        assert len(fds) == 0

    def test_contains(self):
        fds = FDSet([FD.of([0], 1)])
        assert FD.of([0], 1) in fds
        assert FD.of([1], 0) not in fds

    def test_iteration_sorted(self):
        fds = FDSet([FD.of([1], 2), FD.of([0], 1)])
        listed = list(fds)
        assert listed == sorted(listed)

    def test_equality(self):
        assert FDSet([FD.of([0], 1)]) == FDSet([FD.of([0], 1)])
        assert FDSet() != FDSet([FD.of([0], 1)])

    def test_copy_independent(self):
        original = FDSet([FD.of([0], 1)])
        clone = original.copy()
        clone.add(FD.of([1], 2))
        assert len(original) == 1

    def test_split(self):
        fds = FDSet([FD.of([0], [1, 2])])
        assert fds.split() == FDSet([FD.of([0], 1), FD.of([0], 2)])

    def test_attribute_occurrences(self):
        fds = FDSet([FD.of([0, 1], 2), FD.of([0], [1, 3])])
        assert fds.attribute_occurrences == 3 + 3

    def test_format(self):
        schema = RelationSchema(["a", "b"])
        fds = FDSet([FD.of(["a"], "b", schema)])
        assert fds.format(schema) == ["a -> b"]


class TestNormalize:
    def test_merges_and_splits(self):
        cover = normalize_singleton_cover([FD.of([0], [1, 2]), FD.of([0], 1)])
        assert cover == FDSet([FD.of([0], 1), FD.of([0], 2)])

    def test_empty(self):
        assert len(normalize_singleton_cover([])) == 0
