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
an attribute reaches, canonical covers on a 2-vCPU x86_64 VM run 12x
faster on hepatitis 70×18 (7,985 → 1,247 FDs: 3.25 → 0.26 s) and 4.8x
faster on horse at 14 rows (29,030 → 686 FDs: 12.5 → 2.6 s), with
identical output.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..relational import attrset
from ..relational.attrset import AttrSet
from ..relational.fd import FD


def _users(sides: Sequence[AttrSet]) -> Dict[AttrSet, int]:
    """Attribute bit -> bitmap of the positions whose side contains it."""
    positions: Dict[AttrSet, List[int]] = {}
    for index, side in enumerate(sides):
        for attr in attrset.iter_attrs(side):
            positions.setdefault(attrset.singleton(attr), []).append(index)
    users = {}
    for low, indices in positions.items():
        # built as bytes: OR-ing one bit at a time is quadratic in |Σ|
        buf = bytearray((len(sides) + 7) // 8)
        for index in indices:
            buf[index >> 3] |= 1 << (index & 7)
        users[low] = int.from_bytes(buf, "little")
    return users


class ImplicationEngine:
    """Closure computation over a fixed FD list with dynamic removals."""

    def __init__(self, fds: Sequence[FD]):
        self.fds: List[FD] = list(fds)
        self._lhs_users = _users([fd.lhs for fd in self.fds])
        self._rhs_users = _users([fd.rhs for fd in self.fds])
        # the keys are distinct single bits, so their sum is their union
        self._lhs_attrs = sum(self._lhs_users)
        self._rhs_attrs = sum(self._rhs_users)
        #: Bitmap of the FD positions not removed.
        self._active = (1 << len(self.fds)) - 1

    def remove(self, index: int) -> None:
        """Exclude the FD at ``index`` from future closures."""
        self._active &= ~(1 << index)

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
