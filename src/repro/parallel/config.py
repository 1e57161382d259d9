"""Worker-count resolution and tuning knobs for the parallel layer.

The effective job count is resolved per call site, in precedence order:

1. an explicit ``jobs=`` argument (``DHyFD(jobs=4)``),
2. the process-wide default set by :func:`set_default_jobs` (the CLI's
   ``--jobs`` flag does this),
3. the ``REPRO_FD_JOBS`` environment variable,
4. serial (``1``).

``0`` or ``"auto"`` at any of those levels means "one worker per CPU
core".  The environment variable is read lazily on every resolution so
tests (and long-lived embedding processes) can change it at runtime.

The ``DEFAULT_MIN_PARALLEL_*`` thresholds gate when call sites bother
to spin up a pool at all: below them the per-task work is too small to
amortize process dispatch, so the serial path runs even when ``jobs``
asks for more workers.
"""

from __future__ import annotations

import os
from typing import Optional, Union

#: Environment variable naming the default worker count.
ENV_JOBS = "REPRO_FD_JOBS"

#: Relations with fewer rows than this never go parallel — the shared
#: memory setup plus dispatch would dominate the work being shipped.
DEFAULT_MIN_PARALLEL_ROWS = 1024

#: A parallel call needs at least this many independent work items
#: (candidate nodes, unique FD LHSs, ...) to be worth dispatching.
DEFAULT_MIN_PARALLEL_ITEMS = 4

#: Minimum work items bundled into one pool task (dispatch amortization).
DEFAULT_MIN_BATCH = 8

#: Pool-failure retry attempts before falling back to the serial path.
DEFAULT_POOL_RETRIES = 2

#: Base backoff (seconds) between pool retries; scaled by attempt number.
DEFAULT_POOL_RETRY_BACKOFF = 0.05

_default_jobs: Optional[int] = None


def _parse_jobs(value: Union[int, str], source: str) -> int:
    """Normalize a jobs value; ``0``/``"auto"`` mean one-per-core."""
    if isinstance(value, str):
        text = value.strip().lower()
        if text == "auto":
            return 0
        try:
            value = int(text)
        except ValueError:
            raise ValueError(
                f"{source} must be a non-negative integer or 'auto', got {value!r}"
            ) from None
    if value < 0:
        raise ValueError(f"{source} must be >= 0 (0 means all cores), got {value}")
    return int(value)


def get_default_jobs() -> int:
    """The job count used when a call site passes ``jobs=None``.

    Returns the normalized default (``0`` encodes "auto"): the value
    installed by :func:`set_default_jobs` if any, else ``REPRO_FD_JOBS``,
    else ``1``.
    """
    if _default_jobs is not None:
        return _default_jobs
    env = os.environ.get(ENV_JOBS)
    if env is None or not env.strip():
        return 1
    return _parse_jobs(env, ENV_JOBS)


def set_default_jobs(jobs: Optional[Union[int, str]]) -> Optional[int]:
    """Set the process-wide default job count; ``None`` clears it, so
    ``REPRO_FD_JOBS`` applies again.

    Returns the previous setting (``None`` when there was none), so
    passing it back restores the previous state exactly.
    """
    global _default_jobs
    previous = _default_jobs
    _default_jobs = None if jobs is None else _parse_jobs(jobs, "jobs")
    return previous


def resolve_jobs(jobs: Optional[Union[int, str]] = None) -> int:
    """The effective worker count (>= 1) for one parallel call."""
    value = get_default_jobs() if jobs is None else _parse_jobs(jobs, "jobs")
    if value == 0:
        return max(1, os.cpu_count() or 1)
    return value


class use_jobs:
    """Context manager that temporarily switches the default job count."""

    def __init__(self, jobs: Union[int, str]):
        self.jobs = _parse_jobs(jobs, "jobs")
        self._previous: Optional[int] = None

    def __enter__(self) -> int:
        self._previous = set_default_jobs(self.jobs)
        return self.jobs

    def __exit__(self, *exc_info) -> None:
        set_default_jobs(self._previous)
