"""FD implication via attribute-set closures.

The closure of ``X`` under an FD set Σ is the largest ``X⁺`` with
``Σ ⊨ X → X⁺``; Σ implies ``X → Y`` iff ``Y ⊆ X⁺``.  The
:class:`ImplicationEngine` computes closures bit-parallel: it indexes
Σ by attribute as Python-int bitmaps over FD positions, so one fixpoint
step fires every applicable FD at once with one big-int operation per
attribute instead of visiting FDs one by one.

* ``lhs_users[a]`` marks the FDs whose LHS contains ``a``, so the FDs
  that fire from ``R`` are ``active & ~OR(lhs_users[a] for a ∉ R)``;
  an FD with an empty LHS is in no ``lhs_users`` entry and fires at
  once.
* ``rhs_users[a]`` marks the FDs whose RHS contains ``a``, so ``a``
  joins ``R`` iff ``fire & rhs_users[a]`` is non-zero.
* ``active`` marks the FDs not removed.

A step costs O(attributes · |Σ| / 64) machine-word operations, and a
closure takes as many steps as its derivation is deep.  Against the
counter (countdown) algorithm of Beeri & Bernstein, which pays per FD
an attribute reaches, canonical covers on a 2-vCPU x86_64 VM ran 12x
faster on hepatitis 70×18 (7,985 → 1,247 FDs: 3.25 → 0.26 s), with
identical output.  With one closure per LHS group instead of one per
FD (:mod:`repro.covers.canonical`) that cover takes 0.10 s instead of
0.21 s, and horse 40×29 (168,263 → 5,512 FDs) 9.7 s instead of 45.5 s.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..relational import attrset
from ..relational.attrset import AttrSet
from ..relational.fd import FD

_WORD = (1 << 64) - 1


def _users(sides: Sequence[AttrSet]) -> Dict[AttrSet, int]:
    """Attribute bit -> bitmap of the positions whose side contains it.

    Built column-wise, one 64-bit word of the sides at a time: the words
    are unpacked into a position × bit matrix and packed again along the
    positions, so each attribute's bitmap comes out as one byte string.
    """
    users: Dict[AttrSet, int] = {}
    width = max(sides, default=0).bit_length()
    for shift in range(0, width, 64):
        words = np.array([(side >> shift) & _WORD for side in sides], dtype="<u8")
        bits = np.unpackbits(
            words.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        )
        packed = np.packbits(bits.T, axis=1, bitorder="little")
        for bit in np.flatnonzero(packed.any(axis=1)).tolist():
            users[1 << (shift + bit)] = int.from_bytes(packed[bit].tobytes(), "little")
    return users


class ImplicationEngine:
    """Closure computation over a fixed FD list with dynamic removals."""

    def __init__(self, fds: Sequence[FD]):
        self._index([fd.lhs for fd in fds], [fd.rhs for fd in fds])

    @classmethod
    def from_sides(
        cls, lhss: Sequence[AttrSet], rhss: Sequence[AttrSet]
    ) -> "ImplicationEngine":
        """An engine over the FDs ``lhss[i] -> rhss[i]``, built without
        :class:`FD` objects."""
        engine = cls.__new__(cls)
        engine._index(lhss, rhss)
        return engine

    def _index(self, lhss: Sequence[AttrSet], rhss: Sequence[AttrSet]) -> None:
        self._lhs_users = _users(lhss)
        self._rhs_users = _users(rhss)
        # the keys are distinct single bits, so their sum is their union
        self._lhs_attrs = sum(self._lhs_users)
        self._rhs_attrs = sum(self._rhs_users)
        #: Bitmap of the FD positions not removed.
        self._active = (1 << len(lhss)) - 1

    def remove(self, index: int) -> None:
        """Exclude the FD at ``index`` from future closures."""
        self._active &= ~(1 << index)

    def remove_range(self, start: int, stop: int) -> None:
        """Exclude the FDs at positions ``start <= i < stop``."""
        self._active &= ~((1 << stop) - (1 << start))

    def restore(self, index: int) -> None:
        """Undo a :meth:`remove`."""
        self._active |= 1 << index

    def active_indices(self) -> List[int]:
        """Indices of FDs not removed, in input order."""
        return attrset.to_list(self._active)

    def closure(
        self,
        attrs: AttrSet,
        exclude: Optional[int] = None,
        until: Optional[AttrSet] = None,
    ) -> AttrSet:
        """``attrs⁺`` under the active FDs, optionally excluding one more.

        ``until`` enables early exit: the computation stops as soon as
        the partial closure contains that mask.  Redundancy elimination
        over FD-rich covers lives on this — most FDs are redundant and
        their RHS is reached after a tiny fraction of the full closure.
        """
        active = self._active
        if exclude is not None:
            active &= ~(1 << exclude)
        lhs_users, rhs_users = self._lhs_users, self._rhs_users
        result = attrs
        while until is None or until & ~result:
            blocked = 0
            missing = self._lhs_attrs & ~result
            while missing:
                low = missing & -missing
                blocked |= lhs_users[low]
                missing ^= low
            fire = active & ~blocked
            if not fire:
                break
            new = 0
            missing = self._rhs_attrs & ~result
            while missing:
                low = missing & -missing
                if rhs_users[low] & fire:
                    new |= low
                missing ^= low
            if not new:
                break
            result |= new
        return result

    def implies(self, fd: FD, exclude: Optional[int] = None) -> bool:
        """Does the active FD set imply ``fd``? (early-exit closure)"""
        return attrset.is_subset(
            fd.rhs, self.closure(fd.lhs, exclude, until=fd.rhs)
        )


def closure(attrs: AttrSet, fds: Iterable[FD]) -> AttrSet:
    """One-shot closure (builds a throwaway engine)."""
    return ImplicationEngine(list(fds)).closure(attrs)


def implies(fds: Iterable[FD], fd: FD) -> bool:
    """One-shot implication test ``Σ ⊨ fd``."""
    return ImplicationEngine(list(fds)).implies(fd)


def equivalent(left: Iterable[FD], right: Iterable[FD]) -> bool:
    """Are the two FD sets covers of each other?"""
    left_list, right_list = list(left), list(right)
    left_engine = ImplicationEngine(left_list)
    right_engine = ImplicationEngine(right_list)
    return all(left_engine.implies(fd) for fd in right_list) and all(
        right_engine.implies(fd) for fd in left_list
    )
