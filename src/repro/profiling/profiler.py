"""One-call FD profiling: discovery + covers + ranking.

This is the library's front door.  :func:`profile` runs a discovery
algorithm over a relation, derives the canonical cover, ranks its FDs
by data redundancy and summarizes data-set-level redundancy — the three
contributions of the paper in one result object.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Union

from ..algorithms.registry import make_algorithm
from ..core.base import Deadline, TimeLimitExceeded
from ..covers.canonical import CoverComparison, compare_covers
from ..ranking.ranker import RankingResult, ranking_from_masks
from ..ranking.redundancy import RedundancyReport, lhs_row_masks, report_from_masks
from ..relational.fd import FDSet
from ..relational.null import NullSemantics
from ..relational.relation import Relation
from ..telemetry import Tracer, current_tracer, use_tracer
from ..core.result import DiscoveryResult


@dataclass
class FDProfile:
    """Everything the paper computes for one data set."""

    relation: Relation
    discovery: DiscoveryResult
    canonical: FDSet
    cover_comparison: CoverComparison
    ranking: Optional[RankingResult]
    redundancy: Optional[RedundancyReport]
    #: The tracer that recorded the run (None unless ``trace`` was set).
    tracer: Optional[Tracer] = None

    @property
    def left_reduced(self) -> FDSet:
        """The discovered left-reduced cover (singleton RHSs)."""
        return self.discovery.fds

    def summary(self) -> str:
        """A short human-readable profile report."""
        lines = [
            f"relation: {self.relation.n_rows} rows x {self.relation.n_cols} cols"
            f" ({self.relation.semantics.value})",
        ]
        if not self.discovery.completed:
            lines.append(
                f"PARTIAL RESULT: {self.discovery.limit_reason} limit hit —"
                f" {self.discovery.fd_count} sound FDs,"
                f" {len(self.discovery.unverified)} unverified candidates"
            )
        lines += [
            f"algorithm: {self.discovery.algorithm}"
            f" in {self.discovery.elapsed_seconds:.3f}s",
            f"left-reduced cover: {self.discovery.fd_count} FDs"
            f" ({self.discovery.attribute_occurrences} attribute occurrences)",
            f"canonical cover: {len(self.canonical)} FDs"
            f" ({self.canonical.attribute_occurrences} attribute occurrences,"
            f" {self.cover_comparison.size_percent:.0f}% of left-reduced)",
        ]
        if self.redundancy is not None:
            lines.append(
                f"redundancy: {self.redundancy.red_including_null} occurrences"
                f" ({self.redundancy.red_including_percent:.2f}% of"
                f" {self.redundancy.n_values} values;"
                f" {self.redundancy.red_excluding_null} excluding nulls)"
            )
        if self.ranking is not None and self.ranking.ranked:
            top = self.ranking.ranked[0]
            lines.append(
                f"top-ranked FD: {top.fd.format(self.relation.schema)}"
                f" with {top.redundancy} redundant occurrences"
            )
        return "\n".join(lines)


def profile(
    relation: Relation,
    algorithm: str = "dhyfd",
    null_semantics: Optional[Union[str, NullSemantics]] = None,
    rank: bool = True,
    time_limit: Optional[float] = None,
    trace: Union[bool, Tracer, None] = False,
    top_k: Optional[int] = None,
    **algorithm_kwargs,
) -> FDProfile:
    """Profile a relation end to end.

    Args:
        relation: the input data.
        algorithm: registry name ("dhyfd", "hyfd", "tane", "fdep", ...).
        null_semantics: re-encode the relation under this semantics
            first (None keeps the relation's current encoding).
        rank: also compute the redundancy ranking and report (skippable
            because they cost one mask pass over the distinct LHSs of
            the canonical cover; the full ranking and the report share
            it).
        top_k: keep only the k highest-redundancy FDs of the ranking
            (the first k of the full ranking; the report still covers
            every FD, so both come from one mask pass).  Discovery and
            covers are unaffected.
        time_limit: wall-clock cap forwarded to the algorithm.  With
            ``on_limit="partial"`` (an ``algorithm_kwargs`` entry) the
            *remaining* wall-clock time also bounds the ranking passes;
            when they run out too, ranking/redundancy come back None.
        trace: telemetry control — ``True`` records the run on a fresh
            :class:`~repro.telemetry.Tracer` (returned as
            ``FDProfile.tracer``); an existing tracer records onto it;
            ``False``/``None`` leaves whatever tracer is already
            current in effect (the no-op tracer by default).
        **algorithm_kwargs: extra constructor args (e.g.
            ``ratio_threshold`` for DHyFD, ``budget``, ``on_limit``).
    """
    if null_semantics is not None:
        relation = relation.with_semantics(null_semantics)
    if trace is True:
        tracer: Optional[Tracer] = Tracer()
    elif trace:
        tracer = trace
    else:
        tracer = None
    algo = make_algorithm(algorithm, time_limit=time_limit, **algorithm_kwargs)
    partial_ok = getattr(algo, "on_limit", "raise") == "partial"
    with use_tracer(tracer if tracer is not None else current_tracer()) as active:
        discovery = algo.discover(relation)
        with active.span("covers", fds=discovery.fd_count):
            canonical, comparison = compare_covers(discovery.fds)
        ranking: Optional[RankingResult] = None
        redundancy: Optional[RedundancyReport] = None
        if rank:
            # Budget the post-discovery passes with whatever wall-clock
            # time the algorithm left over (None = unbounded).
            remaining = (
                None
                if time_limit is None
                else max(0.0, time_limit - discovery.elapsed_seconds)
            )
            rank_deadline = (
                Deadline(remaining, "ranking") if remaining is not None else None
            )
            try:
                # One mask pass serves both the ranking and the report.
                fds = list(canonical)
                start = time.perf_counter()
                with active.span("ranking", fds=len(fds)):
                    masks = lhs_row_masks(
                        relation, (fd.lhs for fd in fds), deadline=rank_deadline
                    )
                    ranking = ranking_from_masks(relation, fds, masks, start, top_k)
                start = time.perf_counter()
                with active.span("redundancy", fds=len(fds)):
                    redundancy = report_from_masks(relation, fds, masks, start)
            except TimeLimitExceeded:
                if not partial_ok:
                    raise
                active.event("partial_result", algorithm="ranking", reason="time")
    return FDProfile(
        relation=relation,
        discovery=discovery,
        canonical=canonical,
        cover_comparison=comparison,
        ranking=ranking,
        redundancy=redundancy,
        tracer=tracer,
    )
