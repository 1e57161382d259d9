"""DHyFD — the paper's dynamic hybrid FD-discovery algorithm (Alg. 6).

The strategy in one paragraph: induct a first approximation of the FD
set from one wide sampling round, then validate the extended FD-tree
level by level.  Validation uses whatever stripped partition the DDM
currently assigns to a node (a singleton at first), violations are fed
back through synergized induction, and after each level the
efficiency–inefficiency ratio decides whether the DDM should refine its
partitions up to this level — switching to a row-based, memory-heavier
mode exactly when the evidence says many FDs above will be *valid* and
therefore worth the finer partitions.

Top-k mode (:meth:`~repro.core.base.DiscoveryAlgorithm.discover_top_k`)
threads a :class:`~repro.ranking.topk.TopKTracker` through the same
search: confirmed FDs are measured lazily through a side
:class:`~repro.partitions.cache.PartitionCache` (the null-inclusive
redundancy of ``X -> A`` is ``||pi_X||``), candidate nodes whose cheap
redundancy bound (smallest singleton partition of the LHS) falls
strictly below the running k-th redundancy are skipped — they stay in
the tree so minimality invariants hold, but are never validated or
confirmed — and the level loop terminates early once no reachable node
can enter the top-k.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..fdtree.extended import ExtendedFDTree, ExtFDNode
from ..fdtree.induction import synergized_induct
from ..memplane.arena import current_arena
from ..parallel import ParallelExecutor, PoolBrokenError, resolve_jobs
from ..parallel import config as parallel_config
from ..parallel import merge_validation_outcomes
from ..parallel import validate_level as parallel_validate_level
from ..partitions.cache import PartitionCache
from ..ranking.redundancy import redundancy_upper_bound
from ..ranking.topk import TopKTracker
from ..relational import attrset
from ..relational.attrset import AttrSet
from ..relational.fd import FD, FDSet, normalize_singleton_cover
from ..relational.relation import Relation
from ..resilience import RunBudget
from ..telemetry import current_tracer
from .base import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    Deadline,
    DiscoveryAlgorithm,
    RunContext,
)
from .ddm import DynamicDataManager
from .ratio import DEFAULT_RATIO_THRESHOLD, LevelDecision
from .result import DiscoveryStats
from .sampling import initial_sample
from .validation import ValidationResult, validate_fd


class _DegradationState:
    """Run-local flags the memory sentinel's ladder flips."""

    __slots__ = ("no_refine",)

    def __init__(self) -> None:
        self.no_refine = False

    def disable_refinement(self) -> int:
        """Pin the ratio decision to "don't spend"; frees nothing itself."""
        self.no_refine = True
        return 0


def _shed_arena() -> int:
    """Ladder rung: evict the dataset arena's unpinned entries."""
    arena = current_arena()
    return arena.shed() if arena is not None else 0


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


class DHyFD(DiscoveryAlgorithm):
    """Dynamic hybrid FD discovery (paper Algorithm 6)."""

    name = "dhyfd"

    def __init__(
        self,
        ratio_threshold: float = DEFAULT_RATIO_THRESHOLD,
        time_limit: Optional[float] = None,
        enable_ddm_updates: bool = True,
        enable_initial_sampling: bool = True,
        jobs: Optional[int] = None,
        parallel_min_rows: Optional[int] = None,
        parallel_min_candidates: Optional[int] = None,
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
            jobs: worker-process count for level validation and the
                initial sample; ``0``/``"auto"`` means one per core,
                ``None`` uses the process default (``REPRO_FD_JOBS`` /
                the CLI's ``--jobs``).  Covers and stats are identical
                for every value — see :mod:`repro.parallel`.
            parallel_min_rows: don't go parallel below this many rows
                (``None`` uses the :mod:`repro.parallel.config` default).
            parallel_min_candidates: don't dispatch a level with fewer
                validated candidates than this.
            budget: optional :class:`~repro.resilience.RunBudget`
                (memory/RSS ceilings enforced via a degradation ladder:
                evict refined partitions → pin no-refinement → shrink
                the worker pool → abort).
            on_limit: ``"raise"`` (default) or ``"partial"`` — see
                :meth:`DiscoveryAlgorithm.discover`.
        """
        super().__init__(time_limit, budget=budget, on_limit=on_limit)
        self.ratio_threshold = ratio_threshold
        self.enable_ddm_updates = enable_ddm_updates
        self.enable_initial_sampling = enable_initial_sampling
        self.jobs = jobs
        self.parallel_min_rows = parallel_min_rows
        self.parallel_min_candidates = parallel_min_candidates

    def _make_executor(self, relation: Relation) -> Optional[ParallelExecutor]:
        """An executor for this run, or None when the serial path wins."""
        jobs = resolve_jobs(self.jobs)
        min_rows = (
            parallel_config.DEFAULT_MIN_PARALLEL_ROWS
            if self.parallel_min_rows is None
            else self.parallel_min_rows
        )
        if jobs <= 1 or relation.n_rows < min_rows:
            return None
        return ParallelExecutor(relation, jobs=jobs)

    def _find_fds(
        self, relation: Relation, deadline: Deadline
    ) -> Tuple[FDSet, DiscoveryStats]:
        executor = self._make_executor(relation)
        try:
            return self._find_fds_impl(relation, deadline, executor)
        finally:
            if executor is not None:
                executor.close()

    def _find_top_k(
        self, relation: Relation, k: int, deadline: Deadline
    ) -> Tuple[FDSet, DiscoveryStats]:
        """Rank-aware search: skip validating lattice regions that
        cannot reach the running k-th redundancy (see ``tracker`` in
        :meth:`_find_fds_impl`)."""
        tracker = TopKTracker(k)
        executor = self._make_executor(relation)
        try:
            fds, stats = self._find_fds_impl(
                relation, deadline, executor, tracker=tracker
            )
        finally:
            if executor is not None:
                executor.close()
        stats.pruned_candidates += tracker.pruned_candidates
        return fds, stats

    def _find_fds_impl(
        self,
        relation: Relation,
        deadline: Deadline,
        executor: Optional[ParallelExecutor],
        tracker: Optional[TopKTracker] = None,
    ) -> Tuple[FDSet, DiscoveryStats]:
        stats = DiscoveryStats()
        tracer = current_tracer()
        n_cols = relation.n_cols
        all_attrs = attrset.full_set(n_cols)

        ddm = DynamicDataManager(relation)
        stats.partition_memory_peak_bytes = ddm.memory_bytes()
        tree = ExtendedFDTree(n_cols)
        tree.add_fd(attrset.EMPTY, all_attrs)

        # --- resilience wiring (active only when driven by discover())
        degraded = _DegradationState()
        #: Exactly-validated (lhs, rhs) pairs — the sound anytime core.
        #: Full-relation validation is definitive, so entries never need
        #: to be retracted when later levels find more violations.
        confirmed: List[Tuple[AttrSet, AttrSet]] = []

        # --- top-k wiring: a side cache measures the exact redundancy
        # of confirmed FDs (the null-inclusive redundancy of X -> A is
        # ||pi_X||), lazily — an FD whose cheap bound (smallest
        # singleton partition on its LHS, or the exact partition when
        # already cached) falls strictly below the running k-th
        # redundancy can never enter the top-k, so its partition is
        # never built.  The same bound gates *validation*: a candidate
        # node is skipped entirely when nothing in its subtree (every
        # descendant FD has a superset LHS, hence a no-larger
        # redundancy) can reach the threshold.
        measure_cache = (
            PartitionCache(relation, shared=True) if tracker is not None else None
        )

        def _can_prune(path: AttrSet) -> bool:
            return tracker.can_prune(
                redundancy_upper_bound(relation, path, measure_cache)
            )

        def _measure(path: AttrSet, rhs: AttrSet) -> None:
            if _can_prune(path):
                return
            redundancy = (
                ddm.universal.size
                if path == attrset.EMPTY
                else measure_cache.get(path).size
            )
            for attr in attrset.iter_attrs(rhs):
                tracker.add(FD(path, attrset.singleton(attr)), redundancy)

        def _partial_snapshot() -> Tuple[FDSet, FDSet]:
            sound = normalize_singleton_cover(
                FD(lhs, rhs) for lhs, rhs in confirmed if rhs
            )
            unverified = FDSet(
                fd
                for fd in normalize_singleton_cover(tree.iter_fds())
                if fd not in sound
            )
            return sound, unverified

        if isinstance(deadline, RunContext):
            deadline.stats = stats
            if tracker is None:
                deadline.set_partial_provider(_partial_snapshot)
            else:
                # Best-k-so-far: every measured FD is exactly validated,
                # so the snapshot is a sound (if possibly incomplete)
                # top-k prefix.
                deadline.set_partial_provider(lambda: (tracker.cover(), FDSet()))
            sentinel = deadline.install_memory_sentinel(ddm.memory_bytes)
            if sentinel is not None:
                sentinel.add_stage(
                    "evict_refined_partitions", ddm.shed_dynamic
                )
                sentinel.add_stage(
                    "disable_refinement", degraded.disable_refinement
                )
                sentinel.add_stage(
                    "shrink_worker_pool",
                    (lambda: executor.disable()) if executor is not None else (lambda: 0),
                )
                # Last resort before aborting: give back the host-wide
                # arena's unpinned datasets (this run's own lease stays
                # pinned, so its shared view survives the shed).
                sentinel.add_stage("evict_arena_datasets", _shed_arena)

        # --- checkpoint/resume: a journal snapshot replaces sampling +
        # root validation with the rebuilt tree and validated-level
        # watermark (full discovery only — top-k runs re-search).
        resume = self._resume_state(relation) if tracker is None else None
        restored = (
            _rebuild_from_checkpoint(resume, n_cols) if resume is not None else None
        )

        def _emit_level_checkpoint() -> None:
            if tracker is not None:
                return
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
                    violations |= initial_sample(
                        relation, ddm.singletons, executor=executor
                    )
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
                    if tracker is not None:
                        _measure(node.path(), node.rhs)

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
            # Top-k pruning: skip validating a node when its redundancy
            # bound is strictly below the running k-th redundancy —
            # neither it nor any specialization (superset LHS, hence
            # no-larger redundancy) can enter the top-k.  Pruned nodes
            # stay in the tree so the minimality invariants (generaliza-
            # tion checks during induction) keep working; they are only
            # excluded from validation and confirmation.
            pruned_ids: Set[int] = set()
            if tracker is not None and tracker.full:
                kept: List[ExtFDNode] = []
                for node in todo:
                    if _can_prune(node.path()):
                        pruned_ids.add(id(node))
                        tracker.pruned_candidates += 1
                    else:
                        kept.append(node)
                todo = kept
            total = sum(attrset.count(node.rhs) for node in todo)
            vl_nodes: List[ExtFDNode] = list(candidates)

            with tracer.span(
                "validation", level=validation_level, candidates=total
            ) as span:
                violations, level_comparisons = self._validate_level(
                    relation, todo, ddm, executor, deadline
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

            live = [
                node
                for node in candidates
                if not node.deleted and id(node) not in pruned_ids
            ]
            # Every live (path, rhs) at this level was exactly validated
            # (violations already inducted away) — snapshot for anytime
            # partial results before any limit can trip below.
            for node in live:
                if node.rhs:
                    confirmed.append((node.path(), node.rhs))
                    if tracker is not None:
                        _measure(node.path(), node.rhs)
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
            refresh = (
                self.enable_ddm_updates
                and not degraded.no_refine
                and decision.should_update(self.ratio_threshold)
            )
            tracer.event(
                "ratio_decision",
                level=validation_level,
                candidates=total,
                valid=valid_here,
                efficiency=decision.efficiency,
                inefficiency=decision.inefficiency,
                ratio=min(decision.ratio, 1e9),
                refresh=refresh,
            )
            if refresh:
                with tracer.span(
                    "refinement", level=validation_level, nodes=len(reusables)
                ) as span:
                    try:
                        ddm.update(reusables)
                    except MemoryError:
                        # Refinement is a pure optimization: shed the
                        # (possibly half-built) dynamic array — stale
                        # ids degrade to singleton fallbacks — and stop
                        # spending memory for the rest of the run.
                        freed = ddm.shed_dynamic()
                        degraded.disable_refinement()
                        span.annotate(failed=True, freed=freed)
                        tracer.event(
                            "degradation",
                            stage="refinement_failed",
                            resource="memory",
                            usage=ddm.memory_bytes(),
                            limit=0,
                            freed=freed,
                        )
                    else:
                        controlled_level = validation_level
                        stats.partition_refreshes += 1
                        span.annotate(memory_bytes=ddm.dynamic_memory_bytes())
            stats.partition_memory_peak_bytes = max(
                stats.partition_memory_peak_bytes, ddm.memory_bytes()
            )
            stats.levels_processed += 1
            validation_level += 1
            candidates = tree.nodes_at_level(validation_level)
            # Level boundary: everything below the new watermark is
            # exactly validated, so this is a sound resume point.
            if candidates:
                _emit_level_checkpoint()
            # Early termination: once the tracker is full, stop as soon
            # as no still-unvalidated FD node (depth >= the next
            # validation level) can reach the running k-th redundancy.
            # Shallower nodes were already validated and measured.
            if (
                tracker is not None
                and tracker.full
                and candidates
                and not any(
                    node.depth >= validation_level
                    and not node.deleted
                    and node.rhs
                    and not _can_prune(node.path())
                    for node in tree.iter_fd_nodes()
                )
            ):
                tracker.pruned_candidates += sum(
                    1
                    for node in tree.iter_fd_nodes()
                    if node.depth >= validation_level
                    and not node.deleted
                    and node.rhs
                )
                break

        ddm.record_telemetry(stats)
        if tracker is not None:
            measure_cache.record_telemetry(scope="topk_measure")
            return tracker.cover(), stats
        return normalize_singleton_cover(tree.iter_fds()), stats

    def _validate_level(
        self,
        relation: Relation,
        todo: List[ExtFDNode],
        ddm: DynamicDataManager,
        executor: Optional[ParallelExecutor],
        deadline: Deadline,
    ) -> Tuple[Set[AttrSet], int]:
        """Validate one level's candidates; returns (non-FDs, comparisons).

        Partitions are resolved through the DDM up front (so its cache
        counters are identical on every path), then validated either
        across the pool or serially.  A broken pool falls back to the
        serial loop over the *same* resolved items — results and stats
        never depend on which path ran.
        """
        items = [
            (node.path(), node.rhs, ddm.partition_for_node(node)) for node in todo
        ]
        min_items = (
            parallel_config.DEFAULT_MIN_PARALLEL_ITEMS
            if self.parallel_min_candidates is None
            else self.parallel_min_candidates
        )
        if executor is not None and executor.active and len(items) >= min_items:
            try:
                outcomes = parallel_validate_level(executor, items)
                deadline.check()
                return merge_validation_outcomes(outcomes)
            except PoolBrokenError:
                pass  # rerun the already-resolved items serially
        outcomes_serial: List[ValidationResult] = []
        for lhs, rhs, partition in items:
            outcomes_serial.append(
                validate_fd(relation, lhs, rhs, partition)
            )
            deadline.check()
        return merge_validation_outcomes(outcomes_serial)

    @staticmethod
    def _induct_all(
        tree: ExtendedFDTree,
        violations: Set[AttrSet],
        applied: Set[AttrSet],
        cl: int,
        vl: int,
        vl_nodes: Optional[List[ExtFDNode]],
        stats: DiscoveryStats,
        deadline: Deadline,
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
