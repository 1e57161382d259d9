"""Resource guardrails: run budgets and the memory-pressure sentinel.

The paper's efficiency–inefficiency ratio (Sec. V) is a policy for
*spending memory wisely*; this module is the enforcement side.  A
:class:`RunBudget` bundles the wall-clock limit the stack already had
with two new ceilings — a partition-memory byte budget and an optional
process-RSS ceiling.  A :class:`MemorySentinel`, polled at the same
sites as the deadline, reacts to pressure by walking an ordered
*degradation ladder* installed by the algorithm (evict refined
partitions, then pin the DDM to no-refinement mode) — each stage emitting a ``degradation`` telemetry event — before the
last resort of aborting with :class:`BudgetExceeded`.

The sentinel never aborts a run whose usage has fallen to the
irreducible baseline recorded at install time (the universal plus
singleton partitions an algorithm cannot run without): once the ladder
is exhausted it only raises if usage grows beyond *both* the budget and
that baseline.  This is what makes a constrained run degrade to the
slower, memory-lean strategy instead of dying — and, because
refinement is a pure performance optimization, return a byte-identical
cover.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Union

from ..telemetry import current_tracer

#: Default partition-memory budget (bytes; suffixes ``k``/``m``/``g`` ok).
ENV_MEMORY_BUDGET = "REPRO_FD_MEMORY_BUDGET"

#: Default process-RSS ceiling (same syntax).
ENV_RSS_LIMIT = "REPRO_FD_RSS_LIMIT"

_UNITS = {
    "": 1,
    "b": 1,
    "k": 1024,
    "kb": 1024,
    "m": 1024 ** 2,
    "mb": 1024 ** 2,
    "g": 1024 ** 3,
    "gb": 1024 ** 3,
}


def parse_bytes(value: Union[int, str]) -> int:
    """Parse a byte count: plain integers or ``"64m"``-style suffixes."""
    if isinstance(value, int):
        result = value
    else:
        text = value.strip().lower()
        suffix = text.lstrip("0123456789.")
        number = text[: len(text) - len(suffix)] if suffix else text
        try:
            unit = _UNITS[suffix.strip()]
            result = int(float(number) * unit)
        except (KeyError, ValueError):
            raise ValueError(
                f"cannot parse byte count {value!r} (use e.g. 1048576, '4m', '1g')"
            ) from None
    if result <= 0:
        raise ValueError(f"byte budget must be positive, got {value!r}")
    return result


class BudgetExceeded(Exception):
    """A resource budget was exhausted after all degradation stages.

    ``resource`` is ``"memory"`` (partition-memory budget) or ``"rss"``
    (process ceiling); the analogous wall-clock failure stays the
    pre-existing :class:`~repro.core.base.TimeLimitExceeded`.
    """

    def __init__(self, algorithm: str, resource: str, limit: int, usage: int):
        super().__init__(
            f"{algorithm} exceeded its {resource} budget: "
            f"{usage} > {limit} bytes after all degradation stages"
        )
        self.algorithm = algorithm
        self.resource = resource
        self.limit = limit
        self.usage = usage


@dataclass(frozen=True)
class RunBudget:
    """Resource limits for one discovery run (all optional)."""

    time_limit: Optional[float] = None
    memory_limit_bytes: Optional[int] = None
    rss_limit_bytes: Optional[int] = None

    @classmethod
    def from_env(cls, time_limit: Optional[float] = None) -> "RunBudget":
        """A budget from ``REPRO_FD_MEMORY_BUDGET``/``REPRO_FD_RSS_LIMIT``.

        The chaos CI leg uses these to put the whole test suite under a
        tight budget without touching call sites.
        """
        memory = os.environ.get(ENV_MEMORY_BUDGET)
        rss = os.environ.get(ENV_RSS_LIMIT)
        return cls(
            time_limit=time_limit,
            memory_limit_bytes=parse_bytes(memory) if memory else None,
            rss_limit_bytes=parse_bytes(rss) if rss else None,
        )

    @property
    def limits_memory(self) -> bool:
        """True when either byte ceiling is set."""
        return self.memory_limit_bytes is not None or self.rss_limit_bytes is not None


def process_rss_bytes() -> Optional[int]:
    """Current process resident set size, or None when unmeasurable.

    Reads ``/proc/self/statm`` (Linux); falls back to ``ru_maxrss``
    (peak, in kB on Linux) elsewhere.  Both are approximations — the
    RSS ceiling is a coarse safety net, not precise accounting.
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except Exception:
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:
        return None


class DegradationStage:
    """One rung of the ladder: a name plus an action returning bytes freed."""

    __slots__ = ("name", "action", "applied")

    def __init__(self, name: str, action: Callable[[], Optional[int]]):
        self.name = name
        self.action = action
        self.applied = False

    def apply(self) -> int:
        self.applied = True
        freed = self.action()
        return int(freed or 0)


class MemorySentinel:
    """Escalating memory guard polled alongside the deadline.

    ``probe`` reports the bytes governed by the budget (typically the
    partition store's ``memory_bytes``); ``floor_bytes`` is the
    irreducible baseline below which no stage can shrink usage.  Checks
    are strided so the probe — a sum over every live partition — stays
    off the per-candidate hot path.
    """

    #: Probe every Nth :meth:`check` call (polls sit in inner loops).
    CHECK_STRIDE = 16

    def __init__(
        self,
        budget: RunBudget,
        probe: Callable[[], int],
        algorithm: str,
        floor_bytes: int = 0,
        rss_probe: Callable[[], Optional[int]] = process_rss_bytes,
    ):
        self.budget = budget
        self.probe = probe
        self.algorithm = algorithm
        self.floor_bytes = floor_bytes
        self.rss_probe = rss_probe
        self.stages: List[DegradationStage] = []
        #: Stage names in the order they fired (telemetry mirror).
        self.fired: List[str] = []
        self._tick = 0

    def add_stage(self, name: str, action: Callable[[], Optional[int]]) -> None:
        """Append a rung to the degradation ladder (applied in order)."""
        self.stages.append(DegradationStage(name, action))

    @property
    def exhausted(self) -> bool:
        """True once every stage has been applied."""
        return all(stage.applied for stage in self.stages)

    def _next_stage(self) -> Optional[DegradationStage]:
        for stage in self.stages:
            if not stage.applied:
                return stage
        return None

    def check(self, force: bool = False) -> None:
        """Poll the budget; escalate (and eventually raise) on pressure."""
        self._tick += 1
        if not force and self._tick % self.CHECK_STRIDE:
            return
        self._enforce()

    def _apply_next(self, resource: str, usage: int, limit: int) -> bool:
        stage = self._next_stage()
        if stage is None:
            return False
        freed = stage.apply()
        self.fired.append(stage.name)
        current_tracer().event(
            "degradation",
            stage=stage.name,
            resource=resource,
            usage=usage,
            limit=limit,
            freed=freed,
        )
        return True

    def _enforce(self) -> None:
        limit = self.budget.memory_limit_bytes
        if limit is not None:
            usage = self.probe()
            while usage > limit:
                if not self._apply_next("memory", usage, limit):
                    # Ladder exhausted.  Tolerate usage at (or below) the
                    # irreducible baseline; abort only beyond both bars.
                    if usage > max(limit, self.floor_bytes):
                        raise BudgetExceeded(self.algorithm, "memory", limit, usage)
                    break
                usage = self.probe()
        rss_limit = self.budget.rss_limit_bytes
        if rss_limit is not None:
            rss = self.rss_probe()
            while rss is not None and rss > rss_limit:
                if not self._apply_next("rss", rss, rss_limit):
                    # The RSS ceiling is hard: no baseline tolerance.
                    raise BudgetExceeded(self.algorithm, "rss", rss_limit, rss)
                rss = self.rss_probe()
