"""Named fault-injection points for chaos testing the discovery stack.

A registry of *named failure points*.  Production code
never fails here on its own: each point is a no-op until a test (or a
chaos CI leg) arms it, after which the instrumented site raises the
failure the production code claims to survive.

Fault points
------------

====================== ====================================================
``worker.crash``           a pool worker hard-exits before doing any work
``shm.attach``             attaching a shared-memory segment fails
``partition.build.memory`` ``MemoryError`` while building a partition
``partition.refine.memory`` ``MemoryError`` while refining a partition
``csv.corrupt_row``        a CSV record loses its last field while parsed
``ddm.stale``              a dynamic DDM lookup is forced stale
``limit.deadline``         a deadline poll trips deterministically
``pool.broken``            the process pool reports itself broken mid-run
``arena.attach``           attaching a dataset-arena segment fails
``journal.torn_write``     a WAL append crashes after half the frame
``journal.replay``         WAL replay aborts mid-file (treated as torn)
``scheduler.recover``      scheduler recovery crashes mid-replay
====================== ====================================================

Arming
------

In-process (same interpreter, inherited by fork-started workers)::

    faults.activate("ddm.stale")                 # every firing
    faults.activate("limit.deadline", after=30)  # skip 30 calls, then fire
    faults.activate("worker.crash", times=1)     # fire once, then disarm

Across processes, via the ``REPRO_FD_FAULTS`` environment variable — a
comma-separated list of entries, each either a bare point name (always
fires) or ``name:once=<token-path>`` (fires exactly once *across all
processes*: whichever process unlinks the token file first wins)::

    REPRO_FD_FAULTS="ddm.stale,worker.crash:once=/tmp/tok" pytest ...

:func:`arm_once` creates the token file and appends the entry for you.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: Environment variable holding comma-separated armed fault entries.
ENV_FAULTS = "REPRO_FD_FAULTS"

#: Every failure point the stack instruments.
FAULT_POINTS = frozenset(
    {
        "worker.crash",
        "shm.attach",
        "partition.build.memory",
        "partition.refine.memory",
        "csv.corrupt_row",
        "ddm.stale",
        "limit.deadline",
        "pool.broken",
        "arena.attach",
        "journal.torn_write",
        "journal.replay",
        "scheduler.recover",
    }
)


class FaultInjected(RuntimeError):
    """Default exception raised by a fired fault point."""

    def __init__(self, point: str):
        super().__init__(f"injected fault at {point!r}")
        self.point = point


@dataclass
class _Activation:
    """In-process arming state for one fault point."""

    skip: int = 0  # calls to ignore before firing
    remaining: Optional[int] = None  # firings left (None = unlimited)


_activations: Dict[str, _Activation] = {}


def _require_known(name: str) -> None:
    if name not in FAULT_POINTS:
        raise ValueError(
            f"unknown fault point {name!r}; choose from {sorted(FAULT_POINTS)}"
        )


def activate(name: str, times: Optional[int] = None, after: int = 0) -> None:
    """Arm ``name`` in this process.

    Args:
        name: a member of :data:`FAULT_POINTS`.
        times: fire at most this many times, then disarm (None = every
            call fires).
        after: skip this many :func:`should_fire` calls before the
            first firing — lets tests trip a limit mid-run
            deterministically instead of racing wall-clock time.
    """
    _require_known(name)
    if times is not None and times <= 0:
        raise ValueError("times must be positive (or None for unlimited)")
    if after < 0:
        raise ValueError("after must be >= 0")
    _activations[name] = _Activation(skip=after, remaining=times)


def deactivate(name: str) -> None:
    """Disarm an in-process activation (no-op if not armed)."""
    _activations.pop(name, None)


def reset() -> None:
    """Disarm every in-process activation (environment entries remain)."""
    _activations.clear()


def armed() -> bool:
    """Cheap guard: could *any* fault point fire right now?

    Hot paths call this before :func:`should_fire` so an unarmed
    process pays two dict probes per poll, nothing more.
    """
    return bool(_activations) or ENV_FAULTS in os.environ


def is_active(name: str) -> bool:
    """True when ``name`` is armed in-process or via the environment."""
    if name in _activations:
        return True
    return any(entry.partition(":")[0] == name for entry in _env_entries())


def _env_entries() -> List[str]:
    raw = os.environ.get(ENV_FAULTS, "")
    return [entry for entry in (part.strip() for part in raw.split(",")) if entry]


def should_fire(name: str) -> bool:
    """Consume one firing opportunity for ``name``.

    Checks the in-process registry first (``after`` skips and ``times``
    budgets are decremented here), then the environment: a bare entry
    always fires; a ``name:once=<path>`` entry fires for whichever
    process unlinks the token file first.
    """
    activation = _activations.get(name)
    if activation is not None:
        if activation.skip > 0:
            activation.skip -= 1
        elif activation.remaining is None:
            return True
        else:
            activation.remaining -= 1
            if activation.remaining == 0:
                del _activations[name]
            return True
    for entry in _env_entries():
        point, _, qualifier = entry.partition(":")
        if point != name:
            continue
        if not qualifier:
            return True
        kind, _, arg = qualifier.partition("=")
        if kind == "once" and arg:
            try:
                os.unlink(arg)
                return True
            except OSError:
                continue  # token already claimed by another process
    return False


def fire(name: str, make_exc: Optional[Callable[[], BaseException]] = None) -> None:
    """Raise at an instrumented site iff ``name`` is armed and due.

    The fast path (nothing armed anywhere) is two dict probes, so this
    is safe to place inside partition-construction hot loops.
    """
    if not armed():
        return
    if should_fire(name):
        raise make_exc() if make_exc is not None else FaultInjected(name)


def corrupt_csv_row(record: List[str]) -> List[str]:
    """The ``csv.corrupt_row`` point: drop the record's last field."""
    if armed() and record and should_fire("csv.corrupt_row"):
        return record[:-1]
    return record


def arm_once(name: str) -> str:
    """Arm ``name`` for exactly one firing across *all* processes.

    Creates a token file and appends a ``name:once=<path>`` entry to
    ``REPRO_FD_FAULTS``; returns the token path.  Call :func:`disarm`
    (or restore the environment) when done.
    """
    _require_known(name)
    handle, path = tempfile.mkstemp(prefix=f"repro-fault-{name.replace('.', '-')}-")
    os.close(handle)
    entry = f"{name}:once={path}"
    existing = os.environ.get(ENV_FAULTS)
    os.environ[ENV_FAULTS] = f"{existing},{entry}" if existing else entry
    return path


def disarm(name: str) -> None:
    """Remove ``name`` from the environment and the in-process registry."""
    deactivate(name)
    kept = []
    for entry in _env_entries():
        point, _, qualifier = entry.partition(":")
        if point != name:
            kept.append(entry)
            continue
        kind, _, arg = qualifier.partition("=")
        if kind == "once" and arg:
            try:
                os.unlink(arg)
            except OSError:
                pass
    if kept:
        os.environ[ENV_FAULTS] = ",".join(kept)
    else:
        os.environ.pop(ENV_FAULTS, None)
