"""Worker count of a discovery run: always one.

Discovery, ranking and sampling run serially in the calling process;
:func:`get_default_jobs` only reports that for benchmark stamps.
"""

from .config import get_default_jobs

__all__ = ["get_default_jobs"]
