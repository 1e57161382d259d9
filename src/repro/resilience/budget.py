"""Resource limits for one discovery run.

A :class:`RunBudget` bundles the wall-clock limit with a
partition-memory byte budget.  The budget is enforced by
:meth:`~repro.core.base.RunContext.watch_memory`, polled at the same
sites as the deadline: under pressure it calls the algorithm's
``relieve`` callback (DHyFD drops its refined partitions, then stops
refining) and aborts with :class:`BudgetExceeded` only once nothing is
left to relieve and usage exceeds both the budget and the irreducible
baseline recorded when the watch was installed.  Refinement is a pure
performance optimization, so a run that survives returns the
unconstrained cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

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
    """The partition-memory budget was exhausted with nothing left to relieve.

    The analogous wall-clock failure is
    :class:`~repro.core.base.TimeLimitExceeded`.
    """

    def __init__(self, algorithm: str, limit: int, usage: int):
        super().__init__(
            f"{algorithm} exceeded its memory budget: "
            f"{usage} > {limit} bytes with nothing left to relieve"
        )
        self.algorithm = algorithm
        self.limit = limit
        self.usage = usage


@dataclass(frozen=True)
class RunBudget:
    """Resource limits for one discovery run (both optional)."""

    time_limit: Optional[float] = None
    memory_limit_bytes: Optional[int] = None
