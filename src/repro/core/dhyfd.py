"""DHyFD — the paper's dynamic hybrid FD-discovery algorithm (Alg. 6).

The strategy in one paragraph: induct a first approximation of the FD
set from one wide sampling round, then validate the extended FD-tree
level by level.  Validation uses whatever stripped partition the DDM
currently assigns to a node (a singleton at first), violations are fed
back through synergized induction, and after each level the
efficiency–inefficiency ratio decides whether the DDM should refine its
partitions up to this level — switching to a row-based, memory-heavier
mode exactly when the evidence says many FDs above will be *valid* and
therefore worth the finer partitions.  Under a memory budget a refresh
is made only when it fits (:func:`_admit_refresh`).

Top-k mode (:meth:`~repro.core.base.DiscoveryAlgorithm.discover_top_k`)
runs this same full search and ranks its cover afterwards, so a top-k
run checkpoints and resumes like any other.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..fdtree.extended import ExtendedFDTree, ExtFDNode
from ..fdtree.induction import synergized_induct
from ..relational import attrset
from ..relational.attrset import AttrSet
from ..relational.fd import FDSet, normalize_singleton_cover
from ..relational.relation import Relation
from ..resilience import RunBudget
from ..telemetry import current_tracer
from .base import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    DiscoveryAlgorithm,
    RunContext,
    confirmed_split,
)
from .ddm import DynamicDataManager, refine_bound
from .ratio import DEFAULT_RATIO_THRESHOLD, LevelDecision
from .result import DiscoveryStats
from .sampling import initial_sample
from .validation import validate_fd


def _checkpoint_payload(
    relation: Relation,
    tree: ExtendedFDTree,
    confirmed: List[Tuple[AttrSet, AttrSet]],
    applied: Set[AttrSet],
    validation_level: int,
    validated_fds: int,
) -> dict:
    """The JSON-friendly resume snapshot at one level boundary.

    Everything needed to re-enter the level loop: the candidate tree
    as ``[lhs, rhs]`` bitmask pairs, the exactly-validated pairs, the
    violation LHSs already inducted, and the validated-level watermark.
    Partitions are deliberately absent — the DDM rebuilds singletons on
    resume and re-refines on its own evidence; the cover is invariant
    to that choice (same guarantee as ``enable_ddm_updates=False``).
    """
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "algorithm": "dhyfd",
        "n_cols": relation.n_cols,
        "semantics": relation.semantics.value,
        "validation_level": validation_level,
        "validated_fds": validated_fds,
        "tree": sorted(
            [node.path(), node.rhs]
            for node in tree.iter_fd_nodes()
            if not node.deleted and node.rhs
        ),
        "confirmed": [[lhs, rhs] for lhs, rhs in confirmed],
        "applied": sorted(applied),
    }


def _rebuild_from_checkpoint(state: dict, n_cols: int):
    """Rebuild the level-loop state from a checkpoint payload.

    Returns ``(tree, confirmed, applied, validation_level,
    validated_fds)`` or ``None`` when the payload is malformed — a
    rejected checkpoint degrades to a (sound) cold start.
    """
    try:
        validation_level = int(state["validation_level"])
        validated_fds = int(state["validated_fds"])
        pairs = [(int(lhs), int(rhs)) for lhs, rhs in state["tree"]]
        confirmed = [(int(lhs), int(rhs)) for lhs, rhs in state["confirmed"]]
        applied = {int(lhs) for lhs in state["applied"]}
    except (KeyError, TypeError, ValueError):
        return None
    if validation_level < 1 or not pairs:
        return None
    full = attrset.full_set(n_cols)
    tree = ExtendedFDTree(n_cols)
    for lhs, rhs in pairs:
        if lhs < 0 or (lhs | full) != full or (rhs | full) != full or not rhs:
            return None
        tree.add_fd(lhs, rhs)
    return tree, confirmed, applied, validation_level, validated_fds


def _admit_refresh(
    ddm: DynamicDataManager, nodes: List[ExtFDNode], context: RunContext
) -> bool:
    """Whether refreshing ``nodes`` fits the memory budget (always without one).

    It fits if what the DDM holds plus the bound on the new array, over
    the bases the nodes refine from, fits.  Failing that, if dropping
    the old array first would make it fit (the nodes then refine from
    their best singletons), the old array is dropped and it fits.
    """
    held = ddm.memory_bytes()
    if context.fits(held + refine_bound(ddm.bases(nodes))):
        return True
    singletons = [ddm.store.best_singleton(node.path()) for node in nodes]
    if context.fits(held - ddm.dynamic_memory_bytes() + refine_bound(singletons)):
        ddm.shed_dynamic()
        return True
    return False


class DHyFD(DiscoveryAlgorithm):
    """Dynamic hybrid FD discovery (paper Algorithm 6)."""

    name = "dhyfd"

    def __init__(
        self,
        ratio_threshold: float = DEFAULT_RATIO_THRESHOLD,
        time_limit: Optional[float] = None,
        enable_ddm_updates: bool = True,
        enable_initial_sampling: bool = True,
        budget: Optional[RunBudget] = None,
        on_limit: str = "raise",
    ):
        """Args:
            ratio_threshold: efficiency/inefficiency level above which
                the DDM refines partitions (paper tunes this to 3.0).
            time_limit: optional wall-clock cap in seconds.
            enable_ddm_updates: ablation switch; False never refines,
                so every validation starts from singleton partitions.
            enable_initial_sampling: ablation switch; False skips the
                one-shot sorted-neighborhood sample, so the first
                FD-tree approximation comes from root validation alone
                and every refinement burden falls on validation.
            budget: optional :class:`~repro.resilience.RunBudget`
                (a refresh that would not fit the memory budget is
                refused; the run never aborts for memory).
            on_limit: ``"raise"`` (default) or ``"partial"`` — see
                :meth:`DiscoveryAlgorithm.discover`.
        """
        super().__init__(time_limit, budget=budget, on_limit=on_limit)
        self.ratio_threshold = ratio_threshold
        self.enable_ddm_updates = enable_ddm_updates
        self.enable_initial_sampling = enable_initial_sampling

    def _find_fds(
        self, relation: Relation, deadline: RunContext
    ) -> Tuple[FDSet, DiscoveryStats]:
        stats = DiscoveryStats()
        tracer = current_tracer()
        n_cols = relation.n_cols
        all_attrs = attrset.full_set(n_cols)

        ddm = DynamicDataManager(relation)
        stats.partition_memory_peak_bytes = ddm.memory_bytes()
        #: Cleared for good when a refinement round raises MemoryError.
        refining = self.enable_ddm_updates
        tree = ExtendedFDTree(n_cols)
        tree.add_fd(attrset.EMPTY, all_attrs)

        #: Exactly-validated (lhs, rhs) pairs — the sound anytime core.
        #: Full-relation validation is definitive, so entries never need
        #: to be retracted when later levels find more violations.
        confirmed: List[Tuple[AttrSet, AttrSet]] = []

        deadline.stats = stats
        # Lazy in ``tree``: a resumed run rebinds it below.
        deadline.set_partial_provider(
            lambda: confirmed_split(confirmed, tree.iter_fds())
        )

        # --- checkpoint/resume: a journal snapshot replaces sampling +
        # root validation with the rebuilt tree and validated-level
        # watermark.
        resume = self._resume_state(relation)
        restored = (
            _rebuild_from_checkpoint(resume, n_cols) if resume is not None else None
        )

        def _emit_level_checkpoint() -> None:
            self.emit_checkpoint(
                lambda: _checkpoint_payload(
                    relation, tree, confirmed, applied,
                    validation_level, validated_fds,
                )
            )

        if restored is not None:
            tree, resumed_confirmed, applied, validation_level, validated_fds = restored
            confirmed.extend(resumed_confirmed)
            controlled_level = 1
            stats.resumed_levels = validation_level
            tracer.event(
                "checkpoint_resume",
                level=validation_level,
                fds=tree.fd_count,
                confirmed=len(confirmed),
            )
        else:
            # --- one-shot sampling plus root validation (Alg. 6 lines 5-6)
            violations: Set[AttrSet] = set()
            if self.enable_initial_sampling:
                with tracer.span("sampling") as span:
                    violations |= initial_sample(relation, ddm.singletons)
                    span.annotate(non_fds=len(violations))
            stats.sampled_non_fds = len(violations)
            with tracer.span("validation", level=0) as span:
                root_check = validate_fd(
                    relation, attrset.EMPTY, all_attrs, ddm.universal
                )
                span.annotate(comparisons=root_check.comparisons)
            stats.comparisons += root_check.comparisons
            stats.validations += 1
            violations |= root_check.non_fd_lhs
            applied = set()
            with tracer.span("induction", level=0, non_fds=len(violations)):
                self._induct_all(tree, violations, applied, 0, 0, None, stats, deadline)
            # Root candidates were exactly validated against ddm.universal:
            # whatever RHS survives induction is sound.
            for node in tree.nodes_at_level(0):
                if not node.deleted and node.rhs:
                    confirmed.append((node.path(), node.rhs))

            controlled_level = 1
            validation_level = 1
            validated_fds = 0
        candidates = tree.nodes_at_level(validation_level)
        if candidates:
            _emit_level_checkpoint()

        while candidates:
            deadline.check()
            # Only nodes the loop actually validates count toward the
            # level's candidate total: deleted and empty-RHS nodes do no
            # work, and counting them skews the efficiency–inefficiency
            # ratio toward refreshing too early.
            todo = [node for node in candidates if not node.deleted and node.rhs]
            total = sum(attrset.count(node.rhs) for node in todo)
            vl_nodes: List[ExtFDNode] = list(candidates)

            with tracer.span(
                "validation", level=validation_level, candidates=total
            ) as span:
                violations, level_comparisons = self._validate_level(
                    relation, todo, ddm, deadline
                )
                stats.validations += len(todo)
                stats.comparisons += level_comparisons
                span.annotate(
                    comparisons=level_comparisons, non_fds=len(violations)
                )

            with tracer.span(
                "induction", level=validation_level, non_fds=len(violations)
            ):
                self._induct_all(
                    tree,
                    violations,
                    applied,
                    controlled_level,
                    validation_level,
                    vl_nodes,
                    stats,
                    deadline,
                )

            live = [node for node in candidates if not node.deleted]
            # Every live (path, rhs) at this level was exactly validated
            # (violations already inducted away) — snapshot for anytime
            # partial results before any limit can trip below.
            for node in live:
                if node.rhs:
                    confirmed.append((node.path(), node.rhs))
            reusables = [node for node in live if node.children]
            valid_here = sum(attrset.count(node.rhs) for node in live)
            validated_fds += valid_here
            decision = LevelDecision(
                level=validation_level,
                total_candidates=total,
                valid_fds=valid_here,
                reusable_nodes=len(reusables),
                fds_above=tree.fd_count - validated_fds,
            )
            stats.level_log.append(
                {
                    "level": validation_level,
                    "candidates": total,
                    "valid": valid_here,
                    "efficiency": decision.efficiency,
                    "inefficiency": decision.inefficiency,
                    "ratio": min(decision.ratio, 1e9),
                }
            )
            wanted = refining and decision.should_update(self.ratio_threshold)
            refresh = wanted and _admit_refresh(ddm, reusables, deadline)
            tracer.event(
                "ratio_decision",
                level=validation_level,
                candidates=total,
                valid=valid_here,
                efficiency=decision.efficiency,
                inefficiency=decision.inefficiency,
                ratio=min(decision.ratio, 1e9),
                refresh=refresh,
                refused=wanted and not refresh,
            )
            if refresh:
                with tracer.span(
                    "refinement", level=validation_level, nodes=len(reusables)
                ) as span:
                    held = ddm.memory_bytes()
                    try:
                        ddm.update(reusables)
                    except MemoryError:
                        # Refinement is a pure optimization: drop the
                        # dynamic array — ids the failed round already
                        # rewrote degrade to singleton fallbacks — and
                        # stop refining.
                        span.annotate(failed=True)
                        refining = False
                        tracer.event(
                            "degradation",
                            stage="disable_refinement",
                            resource="memory",
                            usage=held,
                            limit=deadline.budget.memory_limit_bytes or 0,
                            freed=ddm.shed_dynamic(),
                        )
                    else:
                        controlled_level = validation_level
                        stats.partition_refreshes += 1
                        new_bytes = ddm.dynamic_memory_bytes()
                        span.annotate(memory_bytes=new_bytes)
                        # The old array lives until the new one is built.
                        stats.partition_memory_peak_bytes = max(
                            stats.partition_memory_peak_bytes, held + new_bytes
                        )
            stats.levels_processed += 1
            validation_level += 1
            candidates = tree.nodes_at_level(validation_level)
            # Level boundary: everything below the new watermark is
            # exactly validated, so this is a sound resume point.
            if candidates:
                _emit_level_checkpoint()

        ddm.record_telemetry(stats)
        return normalize_singleton_cover(tree.iter_fds()), stats

    @staticmethod
    def _validate_level(
        relation: Relation,
        todo: List[ExtFDNode],
        ddm: DynamicDataManager,
        deadline: RunContext,
    ) -> Tuple[Set[AttrSet], int]:
        """Validate one level's candidates; returns (non-FDs, comparisons)."""
        violations: Set[AttrSet] = set()
        comparisons = 0
        for node in todo:
            outcome = validate_fd(
                relation, node.path(), node.rhs, ddm.partition_for_node(node)
            )
            violations |= outcome.non_fd_lhs
            comparisons += outcome.comparisons
            deadline.check()
        return violations, comparisons

    @staticmethod
    def _induct_all(
        tree: ExtendedFDTree,
        violations: Set[AttrSet],
        applied: Set[AttrSet],
        cl: int,
        vl: int,
        vl_nodes: Optional[List[ExtFDNode]],
        stats: DiscoveryStats,
        deadline: RunContext,
    ) -> None:
        """Sort non-FDs by descending LHS size and induct the fresh ones."""
        fresh = [lhs for lhs in violations if lhs not in applied]
        fresh.sort(key=lambda lhs: (-attrset.count(lhs), lhs))
        for count, lhs in enumerate(fresh):
            if count % 64 == 0:
                deadline.check()
            applied.add(lhs)
            rhs = attrset.complement(lhs, tree.n_cols)
            synergized_induct(tree, lhs, rhs, cl, vl, vl_nodes, tally=stats)
            stats.induction_calls += 1
