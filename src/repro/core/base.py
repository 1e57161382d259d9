"""Common driver for FD-discovery algorithms: timing, limits, budgets.

Every algorithm (DHyFD and the baselines in :mod:`repro.algorithms`)
subclasses :class:`DiscoveryAlgorithm` and implements ``_find_fds``.
The base class measures wall-clock time and converts the configured
limits into a :class:`RunContext` the subclass polls — reproducing the
paper's "TL" (time limit) entries in Table II, and adding the
resilience layer's memory budget and anytime-partial semantics (see
:mod:`repro.resilience` and ``docs/resilience.md``).

``on_limit`` selects what a tripped limit does: ``"raise"`` (default)
propagates :class:`TimeLimitExceeded` /
:class:`~repro.resilience.BudgetExceeded`; ``"partial"`` returns a
:class:`~repro.core.result.DiscoveryResult` with ``completed=False``,
the *sound* subset of the cover (FDs fully validated against the
relation before the limit hit) and the still-``unverified`` candidates.
"""

from __future__ import annotations

import abc
import os
import time
from dataclasses import replace
from typing import Callable, Dict, Iterable, Optional, Tuple

from ..ranking.ranker import first_k
from ..relational.attrset import AttrSet
from ..relational.fd import FD, FDSet, normalize_singleton_cover
from ..relational.relation import Relation
from ..resilience import BudgetExceeded, RunBudget
from ..resilience import faults
from ..telemetry import current_tracer
from .result import DiscoveryResult, DiscoveryStats

#: Valid ``on_limit`` policies.
ON_LIMIT_POLICIES = ("raise", "partial")

#: Format tag / version of discovery checkpoint payloads (the snapshots
#: the service's job journal persists — see ``docs/durability.md``).
CHECKPOINT_FORMAT = "repro-fd-checkpoint"
CHECKPOINT_VERSION = 1

#: Default seconds between checkpoint emissions; override per-algorithm
#: via ``checkpoint_interval`` or globally via the environment.  Zero
#: means "every opportunity" (tests and chaos drills).
DEFAULT_CHECKPOINT_INTERVAL = 5.0
ENV_CHECKPOINT_INTERVAL = "REPRO_FD_CHECKPOINT_INTERVAL"


def default_checkpoint_interval() -> float:
    """The environment-configured checkpoint cadence (seconds)."""
    raw = os.environ.get(ENV_CHECKPOINT_INTERVAL)
    if raw is None:
        return DEFAULT_CHECKPOINT_INTERVAL
    try:
        return max(0.0, float(raw))
    except ValueError:
        return DEFAULT_CHECKPOINT_INTERVAL


class TimeLimitExceeded(Exception):
    """Raised inside a discovery run when the configured limit passes."""

    def __init__(self, algorithm: str, limit_seconds: float):
        super().__init__(f"{algorithm} exceeded its time limit of {limit_seconds}s")
        self.algorithm = algorithm
        self.limit_seconds = limit_seconds


class Deadline:
    """A poll-style deadline; cheap enough to check in inner loops."""

    __slots__ = ("at", "algorithm", "limit_seconds")

    def __init__(self, limit_seconds: Optional[float], algorithm: str):
        self.limit_seconds = limit_seconds
        self.algorithm = algorithm
        # Zero and negative limits clamp to "already expired": the first
        # check trips instead of the limit silently never firing.
        self.at = (
            None
            if limit_seconds is None
            else time.monotonic() + max(0.0, limit_seconds)
        )

    def check(self) -> None:
        """Raise :class:`TimeLimitExceeded` once the deadline has passed."""
        if self.at is not None and time.monotonic() >= self.at:
            raise TimeLimitExceeded(self.algorithm, self.limit_seconds or 0.0)


class RunContext:
    """Per-run limit state: deadline, memory budget, anytime channel.

    Quacks like :class:`Deadline` — algorithm inner loops poll one
    ``check()`` that covers the wall clock and the deterministic
    ``limit.deadline`` fault point.  Algorithms ask :meth:`fits` before
    or as they allocate partitions, and register a *partial provider*
    returning the sound/unverified split used when
    ``on_limit="partial"`` turns a tripped limit into a partial result.
    """

    __slots__ = ("algorithm", "budget", "deadline", "stats", "_partial")

    def __init__(self, algorithm: str, budget: RunBudget):
        self.algorithm = algorithm
        self.budget = budget
        self.deadline = Deadline(budget.time_limit, algorithm)
        #: Stats object attached by the running algorithm so partial
        #: results keep the work counters accumulated before the limit.
        self.stats: Optional[DiscoveryStats] = None
        self._partial: Optional[Callable[[], Tuple[FDSet, FDSet]]] = None

    def check(self) -> None:
        """Poll the wall clock; raises once the limit has passed."""
        if faults.armed() and faults.should_fire("limit.deadline"):
            raise TimeLimitExceeded(
                self.algorithm, self.budget.time_limit or 0.0
            )
        self.deadline.check()

    def fits(self, nbytes: int) -> bool:
        """Whether ``nbytes`` of partitions stay within the memory budget.

        Always true without a budget.
        """
        limit = self.budget.memory_limit_bytes
        return limit is None or nbytes <= limit

    def set_partial_provider(
        self, provider: Callable[[], Tuple[FDSet, FDSet]]
    ) -> None:
        """Register the (sound cover, unverified FDs) snapshot function."""
        self._partial = provider

    def partial_cover(self) -> Tuple[FDSet, FDSet]:
        """The anytime snapshot; empty covers when nothing was recorded."""
        if self._partial is None:
            return FDSet(), FDSet()
        return self._partial()


def confirmed_split(
    confirmed: Iterable[Tuple[AttrSet, AttrSet]], candidates: Iterable[FD]
) -> Tuple[FDSet, FDSet]:
    """The (sound, unverified) anytime snapshot of a candidate-tree search.

    ``confirmed`` holds the exactly-validated ``(lhs, rhs)`` pairs;
    ``candidates`` are the FDs still in the tree, of which those not
    already sound are reported unverified.
    """
    sound = normalize_singleton_cover(FD(lhs, rhs) for lhs, rhs in confirmed if rhs)
    unverified = FDSet(
        fd for fd in normalize_singleton_cover(candidates) if fd not in sound
    )
    return sound, unverified


class DiscoveryAlgorithm(abc.ABC):
    """Base class: subclasses find a left-reduced, singleton-RHS cover."""

    #: Short identifier used in reports ("tane", "hyfd", "dhyfd", ...).
    name: str = "abstract"

    def __init__(
        self,
        time_limit: Optional[float] = None,
        budget: Optional[RunBudget] = None,
        on_limit: str = "raise",
    ):
        if on_limit not in ON_LIMIT_POLICIES:
            raise ValueError(
                f"on_limit must be one of {ON_LIMIT_POLICIES}, got {on_limit!r}"
            )
        self.time_limit = time_limit
        self.budget = budget
        self.on_limit = on_limit
        #: Callable fed each checkpoint payload (the service wires the
        #: job journal here); None disables checkpoint emission.
        self.checkpoint_sink: Optional[Callable[[Dict[str, object]], None]] = None
        #: Minimum seconds between emissions (0 = every opportunity).
        self.checkpoint_interval: float = default_checkpoint_interval()
        #: A checkpoint payload to resume from instead of starting cold
        #: (validated against the relation in :meth:`_resume_state`).
        self.resume_from: Optional[Dict[str, object]] = None
        self._last_checkpoint_at: Optional[float] = None

    def _run_budget(self) -> RunBudget:
        """The explicit budget, taking ``time_limit`` when it sets none."""
        budget = self.budget if self.budget is not None else RunBudget()
        if budget.time_limit is None and self.time_limit is not None:
            return replace(budget, time_limit=self.time_limit)
        return budget

    def discover(self, relation: Relation) -> DiscoveryResult:
        """Run discovery and return the timed result.

        With ``on_limit="raise"`` a tripped limit propagates
        :class:`TimeLimitExceeded` or
        :class:`~repro.resilience.BudgetExceeded` (callers that want
        "TL" table entries catch them).  With ``on_limit="partial"``
        the result instead reports ``completed=False``, the sound
        subset of the cover, and the ``unverified`` remainder.
        """
        return self._run(relation, top_k=None)

    def discover_top_k(self, relation: Relation, k: int) -> DiscoveryResult:
        """The k FDs of highest null-inclusive redundancy.

        Runs the full search, ranks its left-reduced cover with
        :func:`~repro.ranking.ranker.rank_cover` under the same limits
        and keeps the first k: ``fds`` are exactly those k entries
        (``(-redundancy, lhs, rhs)`` tie-break), and ``result.top_k``
        records k.

        A partial result (``on_limit="partial"`` with a tripped limit)
        keeps the first k of the sound subset's ranking; ``unverified``
        is what :meth:`discover` would report.
        """
        if k < 1:
            raise ValueError(f"top_k must be >= 1, got {k}")
        return self._run(relation, top_k=k)

    def emit_checkpoint(
        self, build: Callable[[], Dict[str, object]], force: bool = False
    ) -> bool:
        """Send a checkpoint to the sink if the cadence allows it.

        ``build`` is only called when a checkpoint is actually due, so
        algorithms can pass a closure over live state without paying
        serialization on every poll.  Sink failures are swallowed — a
        checkpoint is an aid, never a reason to fail the run.
        """
        sink = self.checkpoint_sink
        if sink is None:
            return False
        now = time.monotonic()
        if (
            not force
            and self._last_checkpoint_at is not None
            and now - self._last_checkpoint_at < self.checkpoint_interval
        ):
            return False
        self._last_checkpoint_at = now
        try:
            sink(build())
        except Exception:  # noqa: BLE001 — never fail the run for a sink
            return False
        return True

    def _resume_state(self, relation: Relation) -> Optional[Dict[str, object]]:
        """The validated resume payload for this run, or None.

        A stale or foreign checkpoint (wrong format/version, different
        algorithm, column count or null semantics) is rejected — the
        run silently starts cold, which is always sound.
        """
        state = self.resume_from
        if not isinstance(state, dict):
            return None
        if (
            state.get("format") != CHECKPOINT_FORMAT
            or state.get("version") != CHECKPOINT_VERSION
            or state.get("algorithm") != self.name
            or state.get("n_cols") != relation.n_cols
            or state.get("semantics") != relation.semantics.value
        ):
            current_tracer().event(
                "checkpoint_rejected", algorithm=self.name
            )
            return None
        return state

    def _run(self, relation: Relation, top_k: Optional[int]) -> DiscoveryResult:
        context = RunContext(self.name, self._run_budget())
        self._last_checkpoint_at = None
        tracer = current_tracer()
        start = time.perf_counter()
        completed = True
        unverified = FDSet()
        limit_reason: Optional[str] = None
        annotations = {} if top_k is None else {"top_k": top_k}
        with tracer.span(
            "discovery",
            algorithm=self.name,
            rows=relation.n_rows,
            cols=relation.n_cols,
            **annotations,
        ):
            try:
                fds, stats = self._find_fds(relation, context)
                if top_k is not None:
                    fds = first_k(relation, fds, top_k, context)
            except (TimeLimitExceeded, BudgetExceeded, MemoryError) as exc:
                if self.on_limit != "partial":
                    raise
                fds, unverified = context.partial_cover()
                if top_k is not None:
                    # The limit has already tripped: rank without it.
                    fds = first_k(relation, fds, top_k, None)
                stats = context.stats if context.stats is not None else DiscoveryStats()
                completed = False
                # BudgetExceeded, or a MemoryError no algorithm handled.
                limit_reason = (
                    "time" if isinstance(exc, TimeLimitExceeded) else "memory"
                )
                tracer.event(
                    "partial_result",
                    algorithm=self.name,
                    reason=limit_reason,
                    sound_fds=len(fds),
                    unverified=len(unverified),
                )
        elapsed = time.perf_counter() - start
        return DiscoveryResult(
            algorithm=self.name,
            schema=relation.schema,
            fds=fds,
            elapsed_seconds=elapsed,
            stats=stats,
            completed=completed,
            unverified=unverified,
            limit_reason=limit_reason,
            top_k=top_k,
        )

    @abc.abstractmethod
    def _find_fds(
        self, relation: Relation, deadline: "RunContext"
    ) -> Tuple[FDSet, DiscoveryStats]:
        """Compute the cover; poll ``deadline.check()`` in long loops."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
