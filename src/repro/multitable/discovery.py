"""FD discovery over virtual joins: lift, search, rank, tag.

:func:`discover_join_fds` is the multi-table entry point: it computes
the join's row provenance (:func:`~repro.multitable.provenance.build_provenance`),
lifts the base tables' columns/partitions onto the join rows, runs one
of the existing single-relation lattice searches (DHyFD, TANE, ...)
over the lifted codes, ranks the cover by redundancy, and tags every
FD with the base tables its attributes come from — separating FDs the
base tables already imply (``intra``) from the genuinely inter-table
dependencies the join surfaces (``inter``).

Because the lifted relation is code- and fingerprint-identical to the
materialized join (see :mod:`repro.multitable.provenance`), the cover,
the ranked order, and any ``top_k`` cut are byte-identical to running
the same algorithm on ``materialize_join``'s output — without ever
building a joined row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..algorithms.registry import make_algorithm
from ..core.result import DiscoveryResult
from ..ranking.ranker import RankedFD, RankingResult, rank_cover
from ..relational import attrset
from ..relational.fd import FD
from ..relational.relation import Relation
from ..telemetry import current_tracer
from .provenance import (
    JoinProvenance,
    attribute_tables,
    build_provenance,
    lift_relation,
)
from .schema import SchemaGraph


def fd_tables(fd: FD, owners: Sequence[str]) -> Tuple[str, ...]:
    """The distinct base tables an FD's attributes come from, in path order."""
    seen: List[str] = []
    for attr in attrset.iter_attrs(fd.lhs | fd.rhs):
        table = owners[attr]
        if table not in seen:
            seen.append(table)
    return tuple(seen)


def fd_scope(fd: FD, owners: Sequence[str]) -> str:
    """``"intra"`` if the FD lives inside one base table, else ``"inter"``."""
    return "intra" if len(fd_tables(fd, owners)) == 1 else "inter"


@dataclass(frozen=True)
class JoinFD:
    """One ranked join FD with its origin tables."""

    ranked: RankedFD
    #: "intra" (one base table) or "inter" (spans tables).
    scope: str
    #: Distinct base tables of the FD's attributes, in path order.
    tables: Tuple[str, ...]

    @property
    def fd(self) -> FD:
        return self.ranked.fd


@dataclass
class JoinFDResult:
    """Everything :func:`discover_join_fds` learned about one join path."""

    graph_fingerprint: str
    path: Tuple[str, ...]
    policy: str
    algorithm: str
    relation: Relation
    provenance: JoinProvenance
    discovery: DiscoveryResult
    ranking: RankingResult
    #: Owning base table of each lifted attribute, in schema order.
    attribute_owners: List[str]
    top_k: Optional[int] = None

    @property
    def fds(self) -> List[JoinFD]:
        """The ranked cover, tagged with per-FD scope and origin tables."""
        return [
            JoinFD(
                ranked=entry,
                scope=fd_scope(entry.fd, self.attribute_owners),
                tables=fd_tables(entry.fd, self.attribute_owners),
            )
            for entry in self.ranking.ranked
        ]

    @property
    def intra_count(self) -> int:
        return sum(1 for fd in self.fds if fd.scope == "intra")

    @property
    def inter_count(self) -> int:
        return sum(1 for fd in self.fds if fd.scope == "inter")

    def format_fds(self) -> List[str]:
        """Human-readable ranked cover with scope tags."""
        schema = self.relation.schema
        lines = []
        for entry in self.fds:
            lines.append(
                f"[{entry.scope}] {entry.fd.format(schema)} "
                f"(redundancy={entry.ranked.redundancy})"
            )
        return lines

    def payload(self) -> Dict[str, object]:
        """JSON-friendly summary (service responses, CLI ``--json``)."""
        schema = self.relation.schema
        return {
            "schema": self.graph_fingerprint,
            "path": list(self.path),
            "on_dangling": self.policy,
            "algorithm": self.algorithm,
            "n_join_rows": self.provenance.n_rows,
            "dropped_rows": self.provenance.dropped_rows,
            "padded_cells": self.provenance.padded_cells,
            "columns": schema.names,
            "top_k": self.top_k,
            "intra_count": self.intra_count,
            "inter_count": self.inter_count,
            "fds": [
                {
                    "lhs": [schema.names[a] for a in attrset.iter_attrs(e.fd.lhs)],
                    "rhs": [schema.names[a] for a in attrset.iter_attrs(e.fd.rhs)],
                    "redundancy": e.ranked.redundancy,
                    "redundancy_excluding_null": e.ranked.redundancy_excluding_null,
                    "scope": e.scope,
                    "tables": list(e.tables),
                }
                for e in self.fds
            ],
        }


def discover_join_fds(
    graph: SchemaGraph,
    path: Sequence[str],
    algorithm: str = "dhyfd",
    on_dangling: str = "raise",
    top_k: Optional[int] = None,
    jobs: Optional[int] = None,
    time_limit: Optional[float] = None,
    **kwargs,
) -> JoinFDResult:
    """Discover and rank the FDs of a virtual join.

    The full left-reduced cover is discovered over the lifted relation,
    then ranked by descending redundancy with the paper's
    ``(-redundancy, lhs, rhs)`` order; ``top_k`` bounds the *ranking*
    to its first k entries (the discovery itself stays exact, so
    results are byte-identical to ranking the materialized join and
    cutting at k).  Extra keyword arguments reach the algorithm
    constructor (e.g. ``ratio_threshold`` for DHyFD).
    """
    provenance = build_provenance(graph, path, on_dangling=on_dangling)
    lifted = lift_relation(graph, provenance)
    tracer = current_tracer()
    with tracer.span(
        "multitable.discover",
        path="/".join(provenance.tables),
        algorithm=algorithm,
        n_rows=lifted.n_rows,
    ):
        algo_kwargs = dict(kwargs)
        if jobs is not None:
            algo_kwargs["jobs"] = jobs
        algo = make_algorithm(algorithm, time_limit=time_limit, **algo_kwargs)
        discovery = algo.discover(lifted)
        ranking = rank_cover(lifted, discovery.fds, top_k=top_k, jobs=jobs)
    return JoinFDResult(
        graph_fingerprint=graph.fingerprint(),
        path=provenance.tables,
        policy=provenance.policy,
        algorithm=discovery.algorithm,
        relation=lifted,
        provenance=provenance,
        discovery=discovery,
        ranking=ranking,
        attribute_owners=attribute_tables(graph, provenance.tables),
        top_k=top_k,
    )
