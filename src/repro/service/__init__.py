"""repro.service — a concurrent FD-discovery service.

The serving layer over the whole stack: datasets are loaded once into
a content-fingerprint-keyed :class:`DatasetRegistry`, finished covers
are cached in a :class:`ResultStore` (migrated across appends by
synergized induction), multi-table schemas live in a
:class:`SchemaIndex`, and discovery runs are sequenced by a
priority-aware, bounded :class:`JobScheduler`.  The registry, store and
schema index are thin views over one keyed, JSON-persisted map
(:mod:`repro.service.keyed`).  :class:`FDService` composes them;
:mod:`repro.service.server` exposes them over a stdlib-only HTTP API
and :class:`ServiceClient` consumes it.

In process::

    from repro.service import FDService

    with FDService(max_workers=2) as service:
        entry = service.register_relation(relation, name="orders")
        job = service.discover(entry.fingerprint, config={"time_limit": 60})
        print(job.result.format_fds())

Over HTTP (see ``repro-fd serve`` / ``repro-fd submit``)::

    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:8765")
    info = client.upload_csv(open("orders.csv").read(), name="orders")
    status = client.discover(info["fingerprint"])
    result = ServiceClient.result_from_status(status)

Covers served either way are byte-identical to a direct
``make_algorithm(...).discover(relation)`` call — see
``docs/service.md`` for the cache and budget semantics.
"""

from .app import FDService
from .client import ServiceClient, ServiceError
from .config import ConfigError, JobConfig
from .registry import DatasetEntry, DatasetRegistry, UnknownDatasetError
from .scheduler import Job, JobCancelled, JobScheduler, SchedulerDraining, UnknownJobError
from .schemas import SchemaEntry, SchemaIndex, UnknownSchemaError
from .server import ServiceHTTPServer, make_server, start_in_thread
from .store import ResultStore

__all__ = [
    "ConfigError",
    "DatasetEntry",
    "DatasetRegistry",
    "FDService",
    "Job",
    "JobCancelled",
    "JobConfig",
    "JobScheduler",
    "ResultStore",
    "SchedulerDraining",
    "SchemaEntry",
    "SchemaIndex",
    "ServiceClient",
    "ServiceError",
    "ServiceHTTPServer",
    "UnknownDatasetError",
    "UnknownJobError",
    "UnknownSchemaError",
    "make_server",
    "start_in_thread",
]
