"""HyFD (Papenbrock & Naumann [16]) — the sampling-focused hybrid.

HyFD alternates two phases.  The *sampling* phase compares neighbours
in sorted singleton-partition clusters and inducts the resulting
non-FDs; it runs until a round's hit rate (new non-FDs per comparison)
drops below a threshold.  The *validation* phase then checks the
FD-tree level by level; when a level invalidates too large a fraction
of its candidates, HyFD switches back to sampling with a wider window
before continuing.

Two deliberate differences from DHyFD, mirroring the paper's analysis:
every validation rebuilds its partition from a singleton (no dynamic
refinement, so LHS values are recomputed redundantly across levels),
and only the singleton partitions are ever retained (lower memory).
Following the paper's experimental setup, this implementation uses
synergized induction on an extended FD-tree ("Note that HyFD also
implements our synergized FD induction", §V-B).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..core.base import DiscoveryAlgorithm, RunContext, confirmed_split
from ..core.result import DiscoveryStats
from ..core.sampling import AgreeSetSampler
from ..core.validation import validate_fd
from ..fdtree.extended import ExtendedFDTree
from ..fdtree.induction import synergized_induct
from ..partitions.cache import PartitionCache
from ..relational import attrset
from ..relational.attrset import AttrSet
from ..relational.fd import FDSet, normalize_singleton_cover
from ..relational.relation import Relation
from ..resilience import RunBudget
from ..telemetry import current_tracer


class HyFD(DiscoveryAlgorithm):
    """Hybrid sampling/validation FD discovery."""

    name = "hyfd"

    def __init__(
        self,
        time_limit: Optional[float] = None,
        sample_efficiency_threshold: float = 0.01,
        invalid_switch_threshold: float = 0.2,
        budget: Optional[RunBudget] = None,
        on_limit: str = "raise",
    ):
        """Args:
            time_limit: optional wall-clock cap in seconds.
            sample_efficiency_threshold: stop sampling once a round's
                new-non-FDs-per-comparison falls below this.
            invalid_switch_threshold: switch back to sampling when a
                validation level invalidates more than this fraction of
                its candidate FDs.
            budget: optional :class:`~repro.resilience.RunBudget`; HyFD
                holds only its floor of universal and singleton
                partitions, so only the time limit can trip.
            on_limit: ``"raise"`` or ``"partial"`` — see
                :meth:`DiscoveryAlgorithm.discover`.
        """
        super().__init__(time_limit, budget=budget, on_limit=on_limit)
        self.sample_efficiency_threshold = sample_efficiency_threshold
        self.invalid_switch_threshold = invalid_switch_threshold

    def _find_fds(
        self, relation: Relation, deadline: RunContext
    ) -> Tuple[FDSet, DiscoveryStats]:
        stats = DiscoveryStats()
        n_cols = relation.n_cols
        all_attrs = attrset.full_set(n_cols)

        store = PartitionCache(relation)  # private, as in the DDM
        singletons = store.singletons()
        universal = store.universal
        # The floor DHyFD and TANE count: the universal and singleton
        # partitions.
        stats.partition_memory_peak_bytes = universal.memory_bytes() + sum(
            p.memory_bytes() for p in singletons
        )
        sampler = AgreeSetSampler(relation, singletons)

        tree = ExtendedFDTree(n_cols)
        tree.add_fd(attrset.EMPTY, all_attrs)
        applied: Set[AttrSet] = set()

        #: Exactly-validated (lhs, rhs) pairs; sound forever because a
        #: full-relation validation cannot be contradicted later.
        confirmed: List[Tuple[AttrSet, AttrSet]] = []
        deadline.stats = stats
        deadline.set_partial_provider(
            lambda: confirmed_split(confirmed, tree.iter_fds())
        )

        # Constants first: validate ∅ -> R directly.
        root_check = validate_fd(relation, attrset.EMPTY, all_attrs, universal)
        stats.validations += 1
        stats.comparisons += root_check.comparisons
        self._induct(tree, root_check.non_fd_lhs, applied, stats, deadline)
        confirmed.extend(
            (node.path(), node.rhs)
            for node in tree.nodes_at_level(0)
            if not node.deleted and node.rhs
        )

        self._sampling_phase(sampler, tree, applied, stats, deadline)

        tracer = current_tracer()
        level = 1
        candidates = tree.nodes_at_level(level)
        while candidates:
            deadline.check()
            total = sum(attrset.count(node.rhs) for node in candidates)
            violations: Set[AttrSet] = set()
            with tracer.span("validation", level=level, candidates=total):
                for node in candidates:
                    if node.deleted or not node.rhs:
                        continue
                    partition = store.best_singleton(node.path())
                    outcome = validate_fd(
                        relation, node.path(), node.rhs, partition
                    )
                    stats.validations += 1
                    stats.comparisons += outcome.comparisons
                    violations |= outcome.non_fd_lhs
                    deadline.check()
            with tracer.span("induction", level=level, non_fds=len(violations)):
                self._induct(tree, violations, applied, stats, deadline)
            confirmed.extend(
                (node.path(), node.rhs)
                for node in candidates
                if not node.deleted and node.rhs
            )

            surviving = sum(
                attrset.count(node.rhs)
                for node in candidates
                if not node.deleted
            )
            invalid_fraction = 1.0 - (surviving / total) if total else 0.0
            if (
                invalid_fraction > self.invalid_switch_threshold
                and not sampler.exhausted()
            ):
                stats.strategy_switches += 1
                tracer.event(
                    "strategy_switch",
                    level=level,
                    invalid_fraction=invalid_fraction,
                )
                self._sampling_phase(sampler, tree, applied, stats, deadline)

            stats.levels_processed += 1
            level += 1
            candidates = tree.nodes_at_level(level)

        return normalize_singleton_cover(tree.iter_fds()), stats

    # ------------------------------------------------------------------

    def _sampling_phase(
        self,
        sampler: AgreeSetSampler,
        tree: ExtendedFDTree,
        applied: Set[AttrSet],
        stats: DiscoveryStats,
        deadline: RunContext,
    ) -> None:
        """Run sampling rounds until the hit rate drops too low."""
        with current_tracer().span("sampling") as span:
            rounds = 0
            while not sampler.exhausted():
                deadline.check()
                agree_sets, round_stats = sampler.sample_round()
                rounds += 1
                stats.comparisons += round_stats.comparisons
                stats.sampled_non_fds += len(agree_sets)
                self._induct(tree, agree_sets, applied, stats, deadline)
                if round_stats.efficiency < self.sample_efficiency_threshold:
                    break
            span.annotate(rounds=rounds, non_fds=stats.sampled_non_fds)

    def _induct(
        self,
        tree: ExtendedFDTree,
        violations: Set[AttrSet],
        applied: Set[AttrSet],
        stats: DiscoveryStats,
        deadline: RunContext,
    ) -> None:
        fresh = [lhs for lhs in violations if lhs not in applied]
        fresh.sort(key=lambda lhs: (-attrset.count(lhs), lhs))
        for count, lhs in enumerate(fresh):
            if count % 64 == 0:
                deadline.check()
            applied.add(lhs)
            synergized_induct(
                tree, lhs, attrset.complement(lhs, tree.n_cols), tally=stats
            )
            stats.induction_calls += 1
