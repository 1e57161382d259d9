"""Unique column combination (UCC) discovery — minimal keys of a relation.

The paper's related work cites the hybrid key-discovery algorithm of
Giannella & Wyss [7]; this module provides the modern hybrid take
(HyUCC-style), built entirely from parts this library already has:

* ``X`` is a UCC iff no two rows agree on all of ``X`` — equivalently,
  ``X`` intersects the *difference set* of every row pair.  Minimal
  UCCs are therefore exactly the minimal hitting sets of the difference
  sets (the dual of FastFDs' per-attribute covers).
* Instead of materializing all ``O(|r|²)`` difference sets, the
  discovery samples some (sorted-neighborhood, like HyFD), proposes the
  minimal hitting sets of the sample, and *validates* each candidate
  with a stripped partition.  An invalid candidate yields a violating
  row pair whose difference set joins the sample — every round grows
  the negative knowledge, so the loop terminates with the exact answer.

The fixed point is provably the set of minimal UCCs: a validated
candidate cannot have a uniquely-identifying proper subset (the subset
would hit the sampled difference sets too, contradicting hitting-set
minimality), and every true minimal UCC keeps reappearing among the
candidates until it validates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Set

from ..algorithms.fastfds import minimal_hitting_sets
from ..core.base import Deadline
from ..core.sampling import AgreeSetSampler
from ..partitions.cache import PartitionCache
from ..partitions.stripped import StrippedPartition
from ..relational import attrset
from ..relational.attrset import AttrSet
from ..relational.relation import Relation
from ..relational.schema import RelationSchema


@dataclass
class UCCResult:
    """Minimal UCCs plus provenance counters."""

    schema: RelationSchema
    uccs: List[AttrSet]
    elapsed_seconds: float = 0.0
    rounds: int = 0
    validations: int = 0
    sampled_difference_sets: int = 0
    #: Arity bound the discovery ran under (None = unbounded).
    max_arity: Optional[int] = None

    def format(self) -> List[str]:
        """Human-readable UCC list."""
        return [self.schema.format_attr_set(u) for u in self.uccs]


def discover_uccs(
    relation: Relation,
    time_limit: Optional[float] = None,
    deadline: Optional[Deadline] = None,
    max_arity: Optional[int] = None,
) -> UCCResult:
    """Find all minimal unique column combinations of ``relation``.

    Pass ``deadline`` to share a driver's existing
    :class:`~repro.core.base.Deadline`/``RunContext`` (its budget then
    bounds this pass too); otherwise ``time_limit`` builds a fresh one.

    ``max_arity`` bounds the answer to UCCs of at most that many
    attributes: wide tables can have exponentially many minimal keys,
    and callers like :class:`~repro.multitable.SchemaGraph` only care
    about small ones.  The bound is sound *and* complete below the cut:
    every minimal UCC with ``<= max_arity`` attributes is returned
    (a hitting-set candidate under the bound that would shadow it must
    itself be a unique subset, contradicting the UCC's minimality),
    and none above it ever validates a partition.
    """
    if max_arity is not None and max_arity < 1:
        raise ValueError(f"max_arity must be >= 1, got {max_arity}")
    if deadline is None:
        deadline = Deadline(time_limit, "ucc")
    start = time.perf_counter()
    n_cols = relation.n_cols
    full = attrset.full_set(n_cols)

    if relation.n_rows < 2:
        # every set (even ∅) is unique; the single minimal UCC is ∅
        return UCCResult(
            schema=relation.schema,
            uccs=[attrset.EMPTY],
            elapsed_seconds=time.perf_counter() - start,
            max_arity=max_arity,
        )

    sampler = AgreeSetSampler(relation, PartitionCache(relation).singletons())
    agree_sets, _ = sampler.sample_round()
    # duplicate rows (full agree set) make *no* set unique except by
    # treating the duplicates as equal — a full agree set has an empty
    # difference set, which no candidate can hit: no UCC exists at all.
    diff_sets: Set[AttrSet] = {full & ~agree for agree in agree_sets}
    if _has_duplicate_rows(relation, deadline):
        return UCCResult(
            schema=relation.schema,
            uccs=[],
            elapsed_seconds=time.perf_counter() - start,
            max_arity=max_arity,
        )

    result = UCCResult(schema=relation.schema, uccs=[], max_arity=max_arity)
    result.sampled_difference_sets = len(diff_sets)

    while True:
        deadline.check()
        result.rounds += 1
        candidates = minimal_hitting_sets(sorted(diff_sets), deadline)
        if max_arity is not None:
            candidates = [
                c for c in candidates if attrset.count(c) <= max_arity
            ]
        confirmed: List[AttrSet] = []
        new_evidence = False
        for candidate in candidates:
            deadline.check()
            result.validations += 1
            violation = _find_violating_pair(relation, candidate)
            if violation is None:
                confirmed.append(candidate)
            else:
                diff = full & ~relation.agree_set(*violation)
                if diff not in diff_sets:
                    diff_sets.add(diff)
                    new_evidence = True
        if not new_evidence:
            result.uccs = sorted(confirmed)
            break

    result.sampled_difference_sets = len(diff_sets)
    result.elapsed_seconds = time.perf_counter() - start
    return result


def _has_duplicate_rows(
    relation: Relation, deadline: Optional[Deadline] = None
) -> bool:
    matrix = relation.matrix()
    seen = set()
    for row in range(relation.n_rows):
        if deadline is not None and row % 4096 == 0:
            deadline.check()
        key = matrix[row].tobytes()
        if key in seen:
            return True
        seen.add(key)
    return False


def _find_violating_pair(relation: Relation, attrs: AttrSet):
    """Two rows agreeing on all of ``attrs`` (None if unique)."""
    partition = StrippedPartition.for_attrs(relation, attrs)
    for cluster in partition.clusters:
        return cluster[0], cluster[1]
    return None
