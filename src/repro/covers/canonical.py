"""Cover transformations: left-reduction, non-redundancy, canonical covers.

A *canonical cover* (Maier [11]) is a left-reduced, non-redundant cover
whose FDs have pairwise distinct LHSs.  The paper's Table III computes
canonical covers from the left-reduced covers that discovery algorithms
emit and reports ~50 % average savings; :func:`canonical_cover` is that
computation, with a timing wrapper used by the benchmark harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Dict, Iterable, List, Tuple

from ..relational import attrset
from ..relational.attrset import AttrSet
from ..relational.fd import FD, FDSet
from .implication import ImplicationEngine


def left_reduce(fds: Iterable[FD]) -> FDSet:
    """Remove extraneous LHS attributes from every FD.

    Works on the singleton-RHS expansion: for ``X -> A``, any ``B ∈ X``
    with ``A ∈ (X − B)⁺`` is extraneous.  Discovery outputs are already
    left-reduced; this is for covers arriving from elsewhere.
    """
    singletons = [part for fd in fds for part in fd.split()]
    engine = ImplicationEngine(singletons)
    reduced = FDSet()
    for fd in singletons:
        lhs = fd.lhs
        for attr in attrset.to_list(lhs):
            candidate = attrset.remove(lhs, attr)
            reached = engine.closure(candidate, until=fd.rhs)
            if attrset.is_subset(fd.rhs, reached):
                lhs = candidate
        reduced.add(FD(lhs, fd.rhs))
    return reduced


def is_left_reduced(fds: Iterable[FD]) -> bool:
    """Is every FD's LHS minimal w.r.t. the whole set?"""
    fd_list = list(fds)
    engine = ImplicationEngine(fd_list)
    for fd in fd_list:
        for attr in attrset.iter_attrs(fd.lhs):
            candidate = attrset.remove(fd.lhs, attr)
            reached = engine.closure(candidate, until=fd.rhs)
            if attrset.is_subset(fd.rhs, reached):
                return False
    return True


def _singleton_pairs(fds: Iterable[FD]) -> List[Tuple[AttrSet, AttrSet]]:
    """The distinct ``(lhs, A)`` pairs of the singleton-RHS expansion.

    Sorted in the greedy order of :func:`non_redundant_cover`: larger
    LHS first, then by LHS, then by RHS — so FDs sharing a LHS are
    adjacent.
    """
    keyed = {
        (-attrset.count(fd.lhs), fd.lhs, attrset.singleton(attr))
        for fd in fds
        for attr in attrset.iter_attrs(fd.rhs)
    }
    return [(lhs, rhs) for _, lhs, rhs in sorted(keyed)]


def _non_redundant_groups(
    pairs: List[Tuple[AttrSet, AttrSet]],
) -> List[Tuple[AttrSet, AttrSet]]:
    """The greedy non-redundancy pass, one LHS group at a time.

    Returns ``(X, kept RHS)`` per LHS group of ``pairs`` (from
    :func:`_singleton_pairs`), in order; the kept RHS may be empty.  The
    output equals that of removing each ``X -> A`` in turn and keeping
    it removed iff the rest still imply it.

    A group's FDs are removed together and ``D = X⁺`` is computed once
    under the rest.  ``X -> A`` with ``A ∈ D`` is redundant: fewer FDs
    derived it than the one-at-a-time pass would see.  For any other
    member the one-at-a-time closure of ``X`` fires the group's other
    active FDs at its first step, so it is the closure of ``D`` plus the
    RHSs kept so far and those of later members, under the rest.
    """
    engine = ImplicationEngine.from_sides(
        [lhs for lhs, _ in pairs], [rhs for _, rhs in pairs]
    )
    closure = engine.closure
    groups: List[Tuple[AttrSet, AttrSet]] = []
    stop = 0
    for lhs, members in groupby(pairs, key=itemgetter(0)):
        rhss = [rhs for _, rhs in members]
        start, stop = stop, stop + len(rhss)
        engine.remove_range(start, stop)
        # the RHSs are distinct single bits, so their sum is their union
        group_rhs = sum(rhss)
        derived = closure(lhs, until=group_rhs)
        # When D misses part of the group it is the full closure, so a
        # member with no other pending or kept RHS is decided by D.
        pending = group_rhs & ~derived
        kept = attrset.EMPTY
        for index, rhs in enumerate(rhss, start):
            if not rhs & pending:
                continue
            pending ^= rhs
            if pending | kept and rhs & closure(derived | pending | kept, until=rhs):
                continue
            kept |= rhs
            engine.restore(index)
        groups.append((lhs, kept))
    return groups


def non_redundant_cover(fds: Iterable[FD]) -> FDSet:
    """Drop every FD implied by the remaining ones.

    Operates on singleton-RHS FDs, removing greedily in a
    deterministic order (larger LHS first, so specific FDs fall to
    general ones).  The result depends on the order but is always a
    non-redundant cover.
    """
    return FDSet(
        FD(lhs, attrset.singleton(attr))
        for lhs, kept in _non_redundant_groups(_singleton_pairs(fds))
        for attr in attrset.iter_attrs(kept)
    )


def is_non_redundant(fds: Iterable[FD]) -> bool:
    """Is no FD implied by the others?"""
    fd_list = list(fds)
    engine = ImplicationEngine(fd_list)
    for index, fd in enumerate(fd_list):
        if engine.implies(fd, exclude=index):
            return False
    return True


def merge_same_lhs(fds: Iterable[FD]) -> FDSet:
    """Union the RHSs of FDs sharing a LHS (unique-LHS normal form)."""
    merged: Dict[AttrSet, AttrSet] = {}
    for fd in fds:
        merged[fd.lhs] = merged.get(fd.lhs, attrset.EMPTY) | fd.rhs
    return FDSet(FD(lhs, rhs) for lhs, rhs in merged.items())


def canonical_cover(fds: Iterable[FD], assume_left_reduced: bool = True) -> FDSet:
    """Compute a canonical cover (left-reduced, non-redundant, unique LHS).

    Args:
        fds: any cover; discovery outputs may set
            ``assume_left_reduced`` to skip the (already satisfied)
            LHS-minimization pass, matching how the paper times the
            Table III computation from left-reduced covers.
    """
    current: Iterable[FD] = fds
    if not assume_left_reduced:
        current = left_reduce(current)
    return _canonical(_singleton_pairs(current))


def _canonical(pairs: List[Tuple[AttrSet, AttrSet]]) -> FDSet:
    """The non-redundant pass over ``pairs``, each group's kept RHS merged."""
    return FDSet(FD(lhs, kept) for lhs, kept in _non_redundant_groups(pairs) if kept)


@dataclass(frozen=True)
class CoverComparison:
    """The Table III row for one data set."""

    left_reduced_count: int
    left_reduced_occurrences: int
    canonical_count: int
    canonical_occurrences: int
    seconds: float

    @property
    def size_percent(self) -> float:
        """%Size — |Can| / |L-r| in percent."""
        if self.left_reduced_count == 0:
            return 100.0
        return 100.0 * self.canonical_count / self.left_reduced_count

    @property
    def occurrence_percent(self) -> float:
        """%Card — ||Can|| / ||L-r|| in percent."""
        if self.left_reduced_occurrences == 0:
            return 100.0
        return 100.0 * self.canonical_occurrences / self.left_reduced_occurrences


def compare_covers(left_reduced: FDSet) -> Tuple[FDSet, CoverComparison]:
    """Canonical cover plus the paper's Table III metrics (timed)."""
    start = time.perf_counter()
    pairs = _singleton_pairs(left_reduced)
    canonical = _canonical(pairs)
    elapsed = time.perf_counter() - start
    comparison = CoverComparison(
        left_reduced_count=len(pairs),
        left_reduced_occurrences=sum(attrset.count(lhs) + 1 for lhs, _ in pairs),
        canonical_count=len(canonical),
        canonical_occurrences=canonical.attribute_occurrences,
        seconds=elapsed,
    )
    return canonical, comparison
