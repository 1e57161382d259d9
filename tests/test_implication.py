"""Unit tests for closures and FD implication."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.covers.canonical import non_redundant_cover
from repro.covers.implication import (
    ImplicationEngine,
    closure,
    equivalent,
    implies,
)
from repro.relational import attrset
from repro.relational.fd import FD


def A(*attrs):
    return attrset.from_attrs(attrs)


FDS = [FD(A(0), A(1)), FD(A(1, 2), A(3)), FD(A(3), A(4))]


class TestClosure:
    def test_transitive_chain(self):
        assert closure(A(0, 2), FDS) == A(0, 1, 2, 3, 4)

    def test_no_fire(self):
        assert closure(A(4), FDS) == A(4)

    def test_partial(self):
        assert closure(A(0), FDS) == A(0, 1)

    def test_empty_lhs_fd_always_fires(self):
        fds = [FD(attrset.EMPTY, A(2)), FD(A(2), A(3))]
        assert closure(attrset.EMPTY, fds) == A(2, 3)

    def test_empty_fd_set(self):
        assert closure(A(1), []) == A(1)

    def test_reflexive(self):
        assert attrset.is_subset(A(0, 2), closure(A(0, 2), FDS))


class TestEngine:
    def test_exclude_breaks_chain(self):
        engine = ImplicationEngine(FDS)
        assert engine.closure(A(0, 2), exclude=1) == A(0, 1, 2)

    def test_remove_restore(self):
        engine = ImplicationEngine(FDS)
        engine.remove(0)
        assert engine.closure(A(0)) == A(0)
        engine.restore(0)
        assert engine.closure(A(0)) == A(0, 1)

    def test_active_indices(self):
        engine = ImplicationEngine(FDS)
        engine.remove(1)
        assert engine.active_indices() == [0, 2]

    def test_implies(self):
        engine = ImplicationEngine(FDS)
        assert engine.implies(FD(A(0, 2), A(4)))
        assert not engine.implies(FD(A(0), A(3)))

    def test_repeated_closures_independent(self):
        engine = ImplicationEngine(FDS)
        first = engine.closure(A(0, 2))
        second = engine.closure(A(0, 2))
        assert first == second


class TestImpliesAndEquivalent:
    def test_implies_helper(self):
        assert implies(FDS, FD(A(0, 1, 2), A(4)))
        assert not implies(FDS, FD(A(2), A(3)))

    def test_reflexive_closure_implication(self):
        # reflexivity: the closure of X always contains X itself
        assert closure(A(0, 1), []) == A(0, 1)

    def test_equivalent_true(self):
        left = [FD(A(0), A(1)), FD(A(1), A(2))]
        right = [FD(A(0), A(1, 2)), FD(A(1), A(2))]
        assert equivalent(left, right)

    def test_equivalent_false(self):
        assert not equivalent([FD(A(0), A(1))], [FD(A(1), A(0))])

    def test_equivalent_empty(self):
        assert equivalent([], [])


def naive_closure(start, fds, skip=()):
    """Reference fixpoint: fire any FD whose LHS is in, until stable."""
    closed = start
    changed = True
    while changed:
        changed = False
        for index, fd in enumerate(fds):
            if index in skip:
                continue
            if attrset.is_subset(fd.lhs, closed) and fd.rhs & ~closed:
                closed |= fd.rhs
                changed = True
    return closed


@settings(deadline=None, max_examples=40)
@given(
    fds=st.lists(
        st.tuples(st.integers(0, 31), st.integers(1, 31)).map(
            lambda pair: FD(pair[0] & ~pair[1], pair[1])
            if pair[1] and (pair[0] & ~pair[1]) != pair[1]
            else FD(attrset.EMPTY, pair[1])
        ),
        max_size=8,
    ),
    start=st.integers(0, 31),
)
def test_closure_properties(fds, start):
    """Closure is extensive, monotone-ish, and idempotent."""
    engine = ImplicationEngine(fds)
    closed = engine.closure(start)
    assert attrset.is_subset(start, closed)
    assert engine.closure(closed) == closed
    assert closed == naive_closure(start, fds)


@st.composite
def wide_cover(draw, max_fds=60):
    """FDs over a few attributes scattered across columns 0..69.

    The columns straddle one 64-bit word; drawing them from a small
    pool keeps closures long.  LHSs may be empty and RHSs hold up to
    three attributes.
    """
    pool = draw(
        st.lists(st.integers(0, 69), min_size=1, max_size=12, unique=True)
    )
    attrs = st.sampled_from(pool)
    fds = []
    for _ in range(draw(st.integers(0, max_fds))):
        rhs = attrset.from_attrs(draw(st.lists(attrs, min_size=1, max_size=3)))
        lhs = attrset.from_attrs(draw(st.lists(attrs, max_size=4))) & ~rhs
        fds.append(FD(lhs, rhs))
    return pool, fds


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_closure_matches_naive_fixpoint_wide(data):
    """Interleaved remove/restore, exclude and until against the fixpoint."""
    pool, fds = data.draw(wide_cover())
    some_attrs = st.lists(st.sampled_from(pool), max_size=6).map(attrset.from_attrs)
    engine = ImplicationEngine(fds)
    removed = set()
    for _ in range(data.draw(st.integers(1, 12))):
        if fds and data.draw(st.booleans()):
            index = data.draw(st.integers(0, len(fds) - 1))
            if index in removed:
                engine.restore(index)
                removed.discard(index)
            else:
                engine.remove(index)
                removed.add(index)
        start = data.draw(some_attrs)
        exclude = data.draw(st.none() | st.integers(0, len(fds) - 1)) if fds else None
        until = data.draw(st.none() | some_attrs)
        full = naive_closure(start, fds, removed | {exclude})
        got = engine.closure(start, exclude, until)
        if until is None or not attrset.is_subset(until, full):
            assert got == full
        else:
            # early exit: a partial closure that already covers ``until``
            assert attrset.is_subset(start | until, got)
            assert attrset.is_subset(got, full)
        assert engine.active_indices() == [
            i for i in range(len(fds)) if i not in removed
        ]


def brute_force_non_redundant(fds):
    """Greedy pass of non_redundant_cover with the naive closure."""
    order = sorted(
        {part for fd in fds for part in fd.split()},
        key=lambda fd: (-fd.lhs_size, fd.lhs, fd.rhs),
    )
    kept = list(order)
    for fd in order:
        others = [other for other in kept if other != fd]
        if attrset.is_subset(fd.rhs, naive_closure(fd.lhs, others)):
            kept = others
    return sorted(kept)


@settings(deadline=None, max_examples=100)
@given(cover=wide_cover(max_fds=30))
def test_non_redundant_cover_matches_brute_force_greedy(cover):
    _, fds = cover
    assert list(non_redundant_cover(fds)) == brute_force_non_redundant(fds)
