"""Discovery results and run statistics shared by all algorithms."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..covers.canonical import canonical_cover
from ..relational.fd import FD, FDSet
from ..relational.fd_io import cover_from_payload, cover_payload
from ..relational.relation import Relation
from ..relational.schema import RelationSchema

#: Version tag for the :meth:`DiscoveryResult.to_json` document.
RESULT_FORMAT_VERSION = 1


@dataclass
class DiscoveryStats:
    """Work counters a discovery run may fill in (zero when untracked)."""

    validations: int = 0
    comparisons: int = 0
    sampled_non_fds: int = 0
    induction_calls: int = 0
    induction_nodes_visited: int = 0
    induction_fds_inserted: int = 0
    levels_processed: int = 0
    partition_refreshes: int = 0
    partition_memory_peak_bytes: int = 0
    partition_cache_hits: int = 0
    partition_cache_misses: int = 0
    partition_cache_evictions: int = 0
    partition_singleton_lookups: int = 0
    strategy_switches: int = 0
    #: Validation levels this run skipped by resuming from a journal
    #: checkpoint instead of starting cold (zero for cold runs — see
    #: ``docs/durability.md``).
    resumed_levels: int = 0
    level_log: List[Dict[str, float]] = field(default_factory=list)

    def record_cache(self, cache) -> None:
        """Copy hit/miss/eviction counts off a partition store.

        Accepts anything with ``hits``/``misses`` attributes — a
        :class:`~repro.partitions.cache.PartitionCache` (which never
        evicts) or the DHyFD :class:`~repro.core.ddm.DynamicDataManager`
        (whose by-design ``singleton_lookups`` are kept apart from
        misses).
        """
        self.partition_cache_hits = cache.hits
        self.partition_cache_misses = cache.misses
        self.partition_cache_evictions = getattr(cache, "evictions", 0)
        self.partition_singleton_lookups = getattr(
            cache, "singleton_lookups", 0
        )


@dataclass
class DiscoveryResult:
    """The left-reduced cover found for a relation, plus provenance.

    ``fds`` holds singleton-RHS FDs (the output form of the surveyed
    algorithms); use :mod:`repro.covers` to derive canonical covers.

    When a run was cut short by a limit under ``on_limit="partial"``,
    ``completed`` is False, ``fds`` holds only the *sound* subset (FDs
    fully validated against the relation before the limit tripped),
    ``unverified`` the candidates the run never got to confirm, and
    ``limit_reason`` names the tripped resource (``"time"`` or
    ``"memory"``).

    ``top_k`` is None for full covers.  When set (the result came from
    :meth:`~repro.core.base.DiscoveryAlgorithm.discover_top_k`), ``fds``
    holds only the k FDs of highest null-inclusive redundancy — byte
    identical to the first k of the full ranked cover — and the result
    must never be treated as (or cached as) a full cover.
    """

    algorithm: str
    schema: RelationSchema
    fds: FDSet
    elapsed_seconds: float = 0.0
    peak_memory_bytes: int = 0
    stats: DiscoveryStats = field(default_factory=DiscoveryStats)
    completed: bool = True
    unverified: FDSet = field(default_factory=FDSet)
    limit_reason: Optional[str] = None
    top_k: Optional[int] = None
    _canonical: Optional[FDSet] = field(
        default=None, init=False, repr=False, compare=False
    )

    def canonical_cover(self) -> FDSet:
        """The canonical cover of ``fds``, computed on first use.

        Nothing mutates a result after construction, so the service
        ranks a stored cover version again without recomputing it.  Two
        threads asking at once may both compute it; the answers agree.
        """
        if self._canonical is None:
            self._canonical = canonical_cover(self.fds)
        return self._canonical

    @property
    def fd_count(self) -> int:
        """Number of FDs in the left-reduced cover (|L-r| in Table III)."""
        return len(self.fds)

    @property
    def attribute_occurrences(self) -> int:
        """Total attribute occurrences (||L-r|| in Table III)."""
        return self.fds.attribute_occurrences

    def format_fds(self) -> List[str]:
        """Human-readable FD list using the schema's column names."""
        return self.fds.format(self.schema)

    # ------------------------------------------------------------------
    # JSON round-trip (result store, HTTP responses, offline analysis)
    # ------------------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """The result as a JSON-friendly dict (see :meth:`to_json`)."""
        return {
            "format": "repro-fd-result",
            "version": RESULT_FORMAT_VERSION,
            "algorithm": self.algorithm,
            "columns": self.schema.names,
            "cover": cover_payload(self.fds, self.schema),
            "unverified": cover_payload(self.unverified, self.schema),
            "elapsed_seconds": self.elapsed_seconds,
            "peak_memory_bytes": self.peak_memory_bytes,
            "completed": self.completed,
            "limit_reason": self.limit_reason,
            "top_k": self.top_k,
            "stats": dataclasses.asdict(self.stats),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize the result — cover, stats and limit provenance.

        The cover is embedded via
        :func:`~repro.relational.fd_io.cover_payload`, so the ``cover``
        sub-document is itself a valid ``repro-fd-cover`` file.
        """
        return json.dumps(self.to_payload(), indent=indent, sort_keys=True)

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "DiscoveryResult":
        """Rebuild a result from :meth:`to_payload` output."""
        if payload.get("format") != "repro-fd-result":
            raise ValueError("not a repro FD result document")
        if payload.get("version") != RESULT_FORMAT_VERSION:
            raise ValueError(
                f"unsupported result format version {payload.get('version')}"
            )
        schema = RelationSchema(payload["columns"])
        known = {f.name for f in dataclasses.fields(DiscoveryStats)}
        stats_data = {
            k: v for k, v in (payload.get("stats") or {}).items() if k in known
        }
        return cls(
            algorithm=payload["algorithm"],
            schema=schema,
            fds=cover_from_payload(payload["cover"], schema),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            peak_memory_bytes=int(payload.get("peak_memory_bytes", 0)),
            stats=DiscoveryStats(**stats_data),
            completed=bool(payload.get("completed", True)),
            unverified=cover_from_payload(payload["unverified"], schema),
            limit_reason=payload.get("limit_reason"),
            top_k=payload.get("top_k"),
        )

    @classmethod
    def from_json(cls, text: str) -> "DiscoveryResult":
        """Parse a result serialized with :meth:`to_json`."""
        return cls.from_payload(json.loads(text))

    def __repr__(self) -> str:
        suffix = "" if self.completed else (
            f", partial/{self.limit_reason}: {len(self.unverified)} unverified"
        )
        kind = "" if self.top_k is None else f"top-{self.top_k} "
        return (
            f"DiscoveryResult({self.algorithm}: {kind}{self.fd_count} FDs in "
            f"{self.elapsed_seconds:.3f}s{suffix})"
        )
