"""Resource limits for one discovery run.

A :class:`RunBudget` bundles the wall-clock limit with a
partition-memory byte budget.  Algorithms ask
:meth:`~repro.core.base.RunContext.fits` before or as they allocate:
DHyFD admits a partition refresh only when the bound on its new array
fits beside what it holds (dropping the old array first when that
alone makes it fit), so it never aborts for memory and returns the
unconstrained cover.  TANE, with nothing to give back, raises
:class:`BudgetExceeded` once its live partitions exceed both the
budget and its floor (the universal plus singleton partitions).
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
    """The partition-memory budget was exceeded above the run's floor.

    The analogous wall-clock failure is
    :class:`~repro.core.base.TimeLimitExceeded`.
    """

    def __init__(self, algorithm: str, limit: int, usage: int):
        super().__init__(
            f"{algorithm} exceeded its memory budget: "
            f"{usage} > {limit} bytes above its floor"
        )
        self.algorithm = algorithm
        self.limit = limit
        self.usage = usage


@dataclass(frozen=True)
class RunBudget:
    """Resource limits for one discovery run (both optional)."""

    time_limit: Optional[float] = None
    memory_limit_bytes: Optional[int] = None
