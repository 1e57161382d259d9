"""Functional dependencies and FD sets.

An :class:`FD` is a pair of attribute-set bitmasks ``lhs -> rhs``.
Discovery algorithms output left-reduced covers where every RHS is a
single attribute; the cover module later merges equal LHSs into
multi-attribute RHSs for canonical covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Union

from . import attrset
from .attrset import AttrSet
from .schema import RelationSchema


@dataclass(frozen=True, order=True)
class FD:
    """A functional dependency ``lhs -> rhs`` over bitmask attribute sets."""

    # Covers hold thousands of FDs and the service keeps every cover
    # version, so FDs carry no per-instance ``__dict__``.
    __slots__ = ("lhs", "rhs")

    lhs: AttrSet
    rhs: AttrSet

    def __post_init__(self) -> None:
        if self.rhs == attrset.EMPTY:
            raise ValueError("an FD must have a non-empty RHS")
        if self.lhs & self.rhs:
            raise ValueError("FD is not in standard form: LHS and RHS overlap")

    def __reduce__(self):
        # pickle's default slot-state restore assigns attributes, which
        # a frozen class forbids; rebuild through the constructor.
        return (FD, (self.lhs, self.rhs))

    @classmethod
    def of(
        cls,
        lhs: Iterable[Union[str, int]],
        rhs: Union[str, int, Iterable[Union[str, int]]],
        schema: Optional[RelationSchema] = None,
    ) -> "FD":
        """Build an FD from column names/indices (names need ``schema``)."""

        def resolve(col: Union[str, int]) -> int:
            if isinstance(col, int):
                return col
            if schema is None:
                raise ValueError("column names require a schema")
            return schema.index_of(col)

        lhs_mask = attrset.from_attrs(resolve(c) for c in lhs)
        if isinstance(rhs, (str, int)):
            rhs_mask = attrset.singleton(resolve(rhs))
        else:
            rhs_mask = attrset.from_attrs(resolve(c) for c in rhs)
        return cls(lhs_mask, rhs_mask)

    @property
    def lhs_size(self) -> int:
        """Number of LHS attributes."""
        return attrset.count(self.lhs)

    @property
    def rhs_size(self) -> int:
        """Number of RHS attributes."""
        return attrset.count(self.rhs)

    @property
    def attribute_occurrences(self) -> int:
        """Total attribute occurrences (the paper's ``||.||`` per FD)."""
        return self.lhs_size + self.rhs_size

    def split(self) -> Iterator["FD"]:
        """Yield the singleton-RHS FDs ``lhs -> A`` for each ``A`` in rhs."""
        for a in attrset.iter_attrs(self.rhs):
            yield FD(self.lhs, attrset.singleton(a))

    def format(self, schema: RelationSchema) -> str:
        """Human-readable rendering with column names."""
        return (
            f"{schema.format_attr_set(self.lhs)} -> "
            f"{schema.format_attr_set(self.rhs)}"
        )

    def __str__(self) -> str:
        lhs = ",".join(str(a) for a in attrset.iter_attrs(self.lhs)) or "∅"
        rhs = ",".join(str(a) for a in attrset.iter_attrs(self.rhs))
        return f"{lhs} -> {rhs}"


_fd_sort_key = attrgetter("lhs", "rhs")


class FDSet:
    """A mutable collection of FDs with convenience metrics.

    Stored as a set of :class:`FD`; iteration order is normalized
    (sorted) so reports are deterministic.
    """

    __slots__ = ("_fds",)

    def __init__(self, fds: Iterable[FD] = ()):
        self._fds = set(fds)

    def add(self, fd: FD) -> None:
        """Insert an FD (no-op if already present)."""
        self._fds.add(fd)

    def discard(self, fd: FD) -> None:
        """Remove an FD if present."""
        self._fds.discard(fd)

    def __contains__(self, fd: object) -> bool:
        return fd in self._fds

    def __len__(self) -> int:
        return len(self._fds)

    def __iter__(self) -> Iterator[FD]:
        # the order of ``FD.__lt__``, without its per-comparison tuples
        return iter(sorted(self._fds, key=_fd_sort_key))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FDSet):
            return self._fds == other._fds
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._fds))

    def __repr__(self) -> str:
        return f"FDSet({len(self._fds)} FDs)"

    def copy(self) -> "FDSet":
        """Shallow copy."""
        return FDSet(self._fds)

    def as_frozenset(self) -> FrozenSet[FD]:
        """Immutable snapshot of the member FDs."""
        return frozenset(self._fds)

    def split(self) -> "FDSet":
        """Expand every FD to singleton-RHS form."""
        out = FDSet()
        for fd in self._fds:
            for part in fd.split():
                out.add(part)
        return out

    @property
    def attribute_occurrences(self) -> int:
        """Total attribute occurrences, the paper's ``||Σ||`` measure."""
        return sum(fd.attribute_occurrences for fd in self._fds)

    def format(self, schema: RelationSchema) -> List[str]:
        """Render all member FDs with column names, sorted."""
        return [fd.format(schema) for fd in self]


def normalize_singleton_cover(fds: Iterable[FD]) -> FDSet:
    """Return the singleton-RHS expansion of ``fds`` as an FDSet.

    This is the normal form in which discovery algorithm outputs are
    compared in tests: two left-reduced covers are equal iff their
    singleton expansions are equal as sets.
    """
    out = FDSet()
    for fd in fds:
        for part in fd.split():
            out.add(part)
    return out
