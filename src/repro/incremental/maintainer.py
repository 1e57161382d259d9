"""Incremental maintenance of a discovered FD cover under appends.

Appending rows can only *invalidate* FDs: a violating pair survives any
extension, so no new FD appears below an existing one — and the minimal
specializations of a previously valid FD are automatically valid on the
old rows (every old pair agreeing on the specialized LHS agrees on the
original LHS too).  The update therefore reduces to:

1. compute the agree sets of every (new row, any row) pair — the only
   pairs that can witness new violations;
2. apply them, largest LHS first, to an extended FD-tree holding the
   current cover via synergized induction.

The tree afterwards holds exactly the new left-reduced cover, without
touching the discovery algorithms again.  Deletions are different —
they can resurrect FDs anywhere in the lattice — so :meth:`remove_rows`
falls back to rediscovery (documented, correct, and still convenient).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

import numpy as np

from ..algorithms.registry import make_algorithm
from ..fdtree.extended import ExtendedFDTree
from ..fdtree.induction import synergized_induct
from ..relational import attrset
from ..relational.attrset import AttrSet
from ..relational.fd import FDSet, normalize_singleton_cover
from ..relational.relation import Relation


class IncrementalFDMaintainer:
    """Keeps a relation and its left-reduced FD cover in sync."""

    def __init__(
        self,
        relation: Relation,
        algorithm: str = "dhyfd",
        cover: Optional[FDSet] = None,
        **algorithm_kwargs,
    ):
        """Args:
            relation: the initial data.
            algorithm: registry name used for (re)discovery.
            cover: a known-correct cover of ``relation`` (skips the
                initial discovery when provided).
            **algorithm_kwargs: constructor kwargs (``jobs``,
                ``ratio_threshold``, ...) forwarded to *every* (re)discovery
                this maintainer performs — the initial one and the
                :meth:`remove_rows` fallback alike.
        """
        self.algorithm = algorithm
        self.algorithm_kwargs = dict(algorithm_kwargs)
        self.relation = relation
        if cover is None:
            cover = self._discover(relation)
        self._cover = cover
        #: Work counters for tests/diagnostics.
        self.appended_rows = 0
        self.pair_comparisons = 0
        self.rediscoveries = 0

    @property
    def cover(self) -> FDSet:
        """The current left-reduced cover (singleton RHSs)."""
        return self._cover

    def append_rows(self, rows: Sequence[Sequence[object]]) -> FDSet:
        """Append rows and incrementally repair the cover."""
        rows = list(rows)
        if not rows:
            return self._cover
        old_count = self.relation.n_rows
        self.relation = self.relation.append_rows(rows)
        self.appended_rows += len(rows)

        violations = self._new_pair_agree_sets(old_count)
        if violations:
            tree = self._tree_from_cover()
            ordered = sorted(
                violations, key=lambda lhs: (-attrset.count(lhs), lhs)
            )
            for lhs in ordered:
                synergized_induct(
                    tree, lhs, attrset.complement(lhs, self.relation.n_cols)
                )
            self._cover = normalize_singleton_cover(tree.iter_fds())
        return self._cover

    def remove_rows(self, row_indices: Sequence[int]) -> FDSet:
        """Delete rows; falls back to rediscovery (deletions may make
        arbitrary new FDs valid)."""
        doomed = set(row_indices)
        keep = [i for i in range(self.relation.n_rows) if i not in doomed]
        self.relation = self.relation.project_rows(keep)
        self._cover = self._discover(self.relation)
        self.rediscoveries += 1
        return self._cover

    # ------------------------------------------------------------------

    def _discover(self, relation: Relation) -> FDSet:
        """Run the configured algorithm with the configured kwargs."""
        algo = make_algorithm(self.algorithm, **self.algorithm_kwargs)
        return algo.discover(relation).fds

    def _tree_from_cover(self) -> ExtendedFDTree:
        tree = ExtendedFDTree(self.relation.n_cols)
        for fd in self._cover:
            tree.add_fd(fd.lhs, fd.rhs)
        return tree

    def _new_pair_agree_sets(self, old_count: int) -> Set[AttrSet]:
        """Agree sets of every pair that involves an appended row."""
        matrix = self.relation.matrix()
        n_rows = self.relation.n_rows
        full = attrset.full_set(self.relation.n_cols)
        agree_sets: Set[AttrSet] = set()
        for new_row in range(old_count, n_rows):
            row_codes = matrix[new_row]
            for other in range(new_row):
                self.pair_comparisons += 1
                equal = row_codes == matrix[other]
                mask = attrset.EMPTY
                for col in np.nonzero(equal)[0]:
                    mask = attrset.add(mask, int(col))
                if mask != full:
                    agree_sets.add(mask)
        return agree_sets
