"""Job configurations: the canonical identity of one discovery request.

The result store keys cached covers by ``(dataset fingerprint,
algorithm, config key)``; two requests share a cache entry exactly when
their :meth:`JobConfig.key` strings are equal.  The key is a canonical
JSON rendering (sorted keys, no whitespace, ``None`` fields dropped),
so dict ordering, spelling of byte sizes (``"64m"`` vs ``67108864``)
and omitted-vs-default fields all normalize away.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..algorithms.registry import algorithm_keywords, algorithm_names
from ..multitable.provenance import POLICIES as _ON_DANGLING_POLICIES
from ..resilience import RunBudget, parse_bytes

_ON_LIMIT_POLICIES = ("raise", "partial")


class ConfigError(ValueError):
    """Raised for malformed job configurations."""


@dataclass(frozen=True)
class JobConfig:
    """Normalized configuration of one discovery/ranking job.

    ``extra`` carries algorithm-specific constructor kwargs (e.g.
    DHyFD's ``ratio_threshold``) as a sorted tuple of pairs so the
    dataclass stays hashable and the cache key deterministic.  A key the
    algorithm's constructor does not accept is rejected here, at
    submit, rather than failing the job when it runs.

    ``top_k`` asks for only the k FDs of highest redundancy.  The store
    never sees it: every job discovers and stores the full cover under
    :meth:`without_top_k`, and its answer is that cover's ranking cut
    to k (see ``FDService._answer``).

    ``join_path`` and ``on_dangling`` apply to ``multitable`` jobs only
    (see :mod:`repro.multitable`): the join path through the schema
    graph and the policy for referential violations.  They are
    dedicated fields — not ``extra`` entries — because ``extra`` is
    forwarded verbatim to the algorithm constructor, and because both
    must participate in the cache key (two paths over one schema are
    different relations).
    """

    algorithm: str = "dhyfd"
    time_limit: Optional[float] = None
    memory_budget: Optional[int] = None
    on_limit: str = "raise"
    top_k: Optional[int] = None
    join_path: Optional[Tuple[str, ...]] = None
    on_dangling: Optional[str] = None
    extra: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        if self.algorithm not in algorithm_names():
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}; "
                f"choose from {algorithm_names()}"
            )
        accepted = algorithm_keywords(self.algorithm)
        if accepted is not None:
            unknown = sorted(name for name, _ in self.extra if name not in accepted)
            if unknown:
                raise ConfigError(
                    f"unknown config keys {unknown} for algorithm {self.algorithm!r}"
                )
        if self.on_limit not in _ON_LIMIT_POLICIES:
            raise ConfigError(
                f"on_limit must be one of {_ON_LIMIT_POLICIES}, got {self.on_limit!r}"
            )
        if self.top_k is not None and self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.join_path is not None and len(self.join_path) < 2:
            raise ConfigError(
                f"join_path needs at least two tables, got {list(self.join_path)}"
            )
        if self.on_dangling is not None and self.on_dangling not in _ON_DANGLING_POLICIES:
            raise ConfigError(
                f"on_dangling must be one of {_ON_DANGLING_POLICIES}, "
                f"got {self.on_dangling!r}"
            )

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, object]]) -> "JobConfig":
        """Build a config from a request dict (HTTP body / CLI flags).

        ``memory_budget`` accepts plain bytes or ``"64m"``-style
        strings; other keys become algorithm ``extra`` kwargs and must
        name constructor parameters of the algorithm.  A ``jobs`` key
        (the worker count of older clients, journals and stored
        entries) is accepted and dropped: every job runs serially.
        """
        data = dict(data or {})
        algorithm = str(data.pop("algorithm", "dhyfd")).lower()
        data.pop("jobs", None)
        time_limit = data.pop("time_limit", None)
        memory_budget = data.pop("memory_budget", None)
        on_limit = str(data.pop("on_limit", "raise"))
        top_k = data.pop("top_k", None)
        try:
            top_k = int(top_k) if top_k is not None else None
        except (TypeError, ValueError):
            raise ConfigError(f"top_k must be an integer, got {top_k!r}")
        join_path = data.pop("join_path", None)
        if join_path is not None:
            if isinstance(join_path, str) or not isinstance(join_path, (list, tuple)):
                raise ConfigError(
                    f"join_path must be a list of table names, got {join_path!r}"
                )
            join_path = tuple(str(name) for name in join_path)
        on_dangling = data.pop("on_dangling", None)
        return cls(
            algorithm=algorithm,
            time_limit=float(time_limit) if time_limit is not None else None,
            memory_budget=parse_bytes(memory_budget) if memory_budget is not None else None,
            on_limit=on_limit,
            top_k=top_k,
            join_path=join_path,
            on_dangling=str(on_dangling) if on_dangling is not None else None,
            extra=tuple(sorted(data.items())),
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly dict; ``from_dict`` of it rebuilds this config."""
        payload: Dict[str, object] = {"algorithm": self.algorithm, "on_limit": self.on_limit}
        for name in ("time_limit", "memory_budget", "top_k"):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        if self.join_path is not None:
            payload["join_path"] = list(self.join_path)
        if self.on_dangling is not None:
            payload["on_dangling"] = self.on_dangling
        payload.update(dict(self.extra))
        return payload

    def without_top_k(self) -> "JobConfig":
        """The matching full-cover config (identity when already full)."""
        if self.top_k is None:
            return self
        return replace(self, top_k=None)

    def key(self) -> str:
        """Canonical string identity (the config part of cache keys)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def algorithm_kwargs(self) -> Dict[str, object]:
        """Constructor kwargs for :func:`~repro.algorithms.make_algorithm`.

        A ``memory_budget`` becomes a per-job
        :class:`~repro.resilience.RunBudget`; ``on_limit`` is only
        forwarded when non-default so baseline algorithms that predate
        partial results keep working.
        """
        kwargs: Dict[str, object] = dict(self.extra)
        if self.time_limit is not None:
            kwargs["time_limit"] = self.time_limit
        if self.memory_budget is not None:
            kwargs["budget"] = RunBudget(
                time_limit=self.time_limit,
                memory_limit_bytes=self.memory_budget,
            )
        if self.on_limit != "raise":
            kwargs["on_limit"] = self.on_limit
        return kwargs
