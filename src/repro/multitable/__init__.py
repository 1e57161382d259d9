"""Multi-table FD discovery across key/foreign-key joins.

The subsystem has three layers (see ``docs/multitable.md``):

* :mod:`repro.multitable.schema` — :class:`SchemaGraph`: named base
  relations plus declared/inferred keys and foreign-key edges.
* :mod:`repro.multitable.provenance` — virtual joins as per-table
  provenance index arrays, and the π lift that carries base columns
  onto the join's rows without materializing it.
* :mod:`repro.multitable.discovery` — :func:`discover_join_fds`: run
  the existing lattice searches and redundancy ranking over the lifted
  relation, tagging each FD intra- vs inter-table.
"""

from .discovery import JoinFD, JoinFDResult, discover_join_fds, fd_scope, fd_tables
from .provenance import (
    PAD,
    POLICIES,
    DanglingRowError,
    JoinProvenance,
    build_provenance,
    lift_column,
    lift_relation,
    materialize_join,
    resolve_policy,
)
from .schema import (
    ForeignKey,
    InclusionReport,
    JoinStep,
    MultitableError,
    SchemaGraph,
    inclusion_coverage,
)

__all__ = [
    "PAD",
    "POLICIES",
    "DanglingRowError",
    "ForeignKey",
    "InclusionReport",
    "JoinFD",
    "JoinFDResult",
    "JoinProvenance",
    "JoinStep",
    "MultitableError",
    "SchemaGraph",
    "build_provenance",
    "discover_join_fds",
    "fd_scope",
    "fd_tables",
    "inclusion_coverage",
    "lift_column",
    "lift_relation",
    "materialize_join",
    "resolve_policy",
]
