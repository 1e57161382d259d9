"""repro.cluster — sharded service replicas behind an async front-end.

Horizontal scale-out for :mod:`repro.service` (ROADMAP item 3): the
dataset space is partitioned by content fingerprint across N replica
processes — each a full single-process discovery service owning one
shard of the registry — and an HTTP router, one asyncio event loop on
one thread, places every request on the replica that owns its dataset.
``/metrics`` and ``/health`` fan out to all replicas and merge, with
per-replica metric prefixes plus ``cluster.*`` totals.

The pieces compose but also stand alone:

* :func:`shard_for` / :class:`RoutingTable` — deterministic placement
  (restart-stable hashing plus persisted pins for names and appended
  versions);
* :class:`ReplicaManager` — spawn/health-check/restart the replica
  processes, persisting a ``replicas.json`` table;
* :class:`Router` — the asyncio proxy (point it at any list of
  service URLs, managed or not); upload fingerprinting runs off its
  loop, so one large upload never stalls other requests;
* :class:`Cluster` — manager + router as one unit (``repro-fd
  cluster``).

Covers served through a cluster are byte-identical to single-process
``discover()`` — routing only decides *where* the same deterministic
pipeline runs.  See ``docs/cluster.md``.
"""

from .controller import Cluster
from .manager import ReplicaHandle, ReplicaManager, ReplicaStartupError
from .router import Router, RouterError, merge_health, merge_metrics, upload_fingerprint
from .topology import RoutingTable, shard_for

__all__ = [
    "Cluster",
    "ReplicaHandle",
    "ReplicaManager",
    "ReplicaStartupError",
    "Router",
    "RouterError",
    "RoutingTable",
    "merge_health",
    "merge_metrics",
    "shard_for",
    "upload_fingerprint",
]
