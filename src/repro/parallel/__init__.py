"""Process-pool execution layer with shared-memory relation transport.

See :mod:`repro.parallel.pool` for the execution and failure model and
``docs/parallel.md`` for the architecture write-up.
"""

from .config import (
    DEFAULT_MIN_BATCH,
    DEFAULT_MIN_PARALLEL_ITEMS,
    DEFAULT_MIN_PARALLEL_ROWS,
    ENV_JOBS,
    get_default_jobs,
    resolve_jobs,
    set_default_jobs,
    use_jobs,
)
from .merge import merge_validation_outcomes, pack_row_mask, unpack_row_mask
from .pool import (
    ParallelExecutor,
    PoolBrokenError,
    chunk_items,
    redundancy_row_masks,
    sample_initial,
    validate_level,
)
from .shm import SharedRelationView, ShmSpec

__all__ = [
    "DEFAULT_MIN_BATCH",
    "DEFAULT_MIN_PARALLEL_ITEMS",
    "DEFAULT_MIN_PARALLEL_ROWS",
    "ENV_JOBS",
    "ParallelExecutor",
    "PoolBrokenError",
    "SharedRelationView",
    "ShmSpec",
    "chunk_items",
    "get_default_jobs",
    "merge_validation_outcomes",
    "pack_row_mask",
    "redundancy_row_masks",
    "resolve_jobs",
    "sample_initial",
    "set_default_jobs",
    "unpack_row_mask",
    "use_jobs",
    "validate_level",
]
