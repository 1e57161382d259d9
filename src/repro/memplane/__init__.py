"""Shared-memory leftovers: :func:`sweep_orphans`, plus ``reset_tiers``.

Nothing in the library creates shared-memory segments.  A supervisor
that restarts a server still sweeps the ``reprofd-<owner>-*`` files an
older release may have left under ``/dev/shm``.  The shared partition
layer lives in :mod:`repro.partitions.cache`; its ``reset_tiers`` is
re-exported here for callers that import it from this package.
"""

from __future__ import annotations

import os
import re
from typing import List

from ..partitions.cache import reset_tiers

__all__ = ["SEGMENT_PREFIX", "reset_tiers", "sweep_orphans"]

#: Leading token of every segment name (and ``/dev/shm`` file).
SEGMENT_PREFIX = "reprofd"

_OWNER_SANITIZER = re.compile(r"[^A-Za-z0-9_.-]+")


def sweep_orphans(owner: str, shm_dir: str = "/dev/shm") -> List[str]:
    """Unlink every leftover segment of ``owner``; returns the names.

    Scoped strictly by the owner token: segments of other processes are
    never touched.
    """
    owner = _OWNER_SANITIZER.sub("-", owner.strip())[:48]
    if not owner:
        return []
    prefix = f"{SEGMENT_PREFIX}-{owner}-"
    removed: List[str] = []
    try:
        names = os.listdir(shm_dir)
    except OSError:
        return removed
    for name in names:
        if not name.startswith(prefix):
            continue
        try:
            os.unlink(os.path.join(shm_dir, name))
            removed.append(name)
        except OSError:
            pass
    return removed
