"""Unit tests for closures and FD implication."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import DHyFD
from repro.covers.canonical import canonical_cover, merge_same_lhs, non_redundant_cover
from repro.covers.implication import (
    ImplicationEngine,
    closure,
    equivalent,
    implies,
)
from repro.datasets.armstrong import armstrong_relation
from repro.datasets.benchmarks import load_benchmark
from repro.relational import attrset
from repro.relational.fd import FD, FDSet


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


# ----------------------------------------------------------------------
# The grouped non-redundancy pass against the one-at-a-time greedy
# ----------------------------------------------------------------------


def reference_non_redundant_cover(fds):
    """The greedy pass one FD at a time: remove ``X -> A``, restore it
    unless the remaining FDs still imply it."""
    singletons = sorted(
        {part for fd in fds for part in fd.split()},
        key=lambda fd: (-fd.lhs_size, fd.lhs, fd.rhs),
    )
    engine = ImplicationEngine(singletons)
    for index, fd in enumerate(singletons):
        engine.remove(index)
        if not engine.implies(fd):
            engine.restore(index)
    return FDSet(singletons[i] for i in engine.active_indices())


def assert_matches_reference(fds):
    reference = reference_non_redundant_cover(fds)
    assert list(non_redundant_cover(fds)) == list(reference)
    assert canonical_cover(fds) == merge_same_lhs(reference)


@st.composite
def grouped_cover(draw):
    """FDs in LHS groups of 2–6 members, some derivable through others.

    Columns come from a small pool straddling one 64-bit word.  One
    group may have the empty LHS.  Chain FDs ``{A} ∪ Y -> B`` (``A`` a
    group member's RHS, ``Y`` part of the group's LHS) make ``X -> B``
    derivable through ``X -> A``; a few random FDs mix the groups.
    """
    pool = draw(st.lists(st.integers(0, 69), min_size=3, max_size=10, unique=True))
    attrs = st.sampled_from(pool)
    fds = []
    lhss = [attrset.from_attrs(draw(st.lists(attrs, max_size=3)))
            for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        lhss.append(attrset.EMPTY)
    for lhs in lhss:
        free = [a for a in pool if not attrset.contains(lhs, a)]
        if len(free) < 2:
            continue
        members = draw(st.lists(
            st.sampled_from(free), min_size=2, max_size=min(6, len(free)), unique=True
        ))
        fds.extend(FD(lhs, attrset.singleton(a)) for a in members)
        for source, target in zip(members, members[1:]):
            if draw(st.booleans()):
                extra = lhs & attrset.from_attrs(draw(st.lists(attrs, max_size=2)))
                fds.append(FD(attrset.singleton(source) | extra, attrset.singleton(target)))
    for _ in range(draw(st.integers(0, 8))):
        rhs = attrset.singleton(draw(attrs))
        lhs = attrset.from_attrs(draw(st.lists(attrs, max_size=3))) & ~rhs
        fds.append(FD(lhs, rhs))
    return fds


@settings(deadline=None, max_examples=200)
@given(fds=grouped_cover())
def test_grouped_pass_matches_reference_on_shared_lhss(fds):
    assert_matches_reference(fds)


@settings(deadline=None, max_examples=25)
@given(
    n_cols=st.integers(3, 7),
    raw=st.lists(st.tuples(st.integers(0, 127), st.integers(0, 6)), max_size=6),
)
def test_grouped_pass_matches_reference_on_armstrong_covers(n_cols, raw):
    """Left-reduced covers discovered from Armstrong relations of random Σ."""
    sigma = []
    for lhs_bits, rhs_attr in raw:
        rhs_attr %= n_cols
        lhs = lhs_bits & attrset.full_set(n_cols) & ~attrset.singleton(rhs_attr)
        sigma.append(FD(lhs, attrset.singleton(rhs_attr)))
    cover = DHyFD().discover(armstrong_relation(n_cols, sigma)).fds
    assert_matches_reference(cover)


def test_grouped_pass_bounds_closures_on_hepatitis(monkeypatch):
    """hepatitis 70×18: 7,985 FDs over 2,929 LHSs take at most 4,958
    closures (one per FD in the one-at-a-time pass)."""
    hepatitis = load_benchmark("hepatitis")
    relation = hepatitis.project_columns(
        [c for c in range(hepatitis.n_cols) if c not in (1, 2)]
    )
    fds = DHyFD().discover(relation).fds
    assert len(fds) == 7985
    calls = []
    closure = ImplicationEngine.closure

    def counting(self, *args, **kwargs):
        calls.append(1)
        return closure(self, *args, **kwargs)

    monkeypatch.setattr(ImplicationEngine, "closure", counting)
    canonical = canonical_cover(fds)
    assert len(calls) <= 4958
    monkeypatch.undo()
    assert canonical == merge_same_lhs(reference_non_redundant_cover(fds))
    assert len(canonical) == 1247
