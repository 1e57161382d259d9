"""repro.resilience — guardrails, anytime results, fault injection.

Three pillars (see ``docs/resilience.md``):

* **Guardrails** — :class:`RunBudget` (wall clock + partition-memory
  bytes + optional process-RSS ceiling) enforced by a
  :class:`MemorySentinel` that escalates through a degradation ladder
  before aborting with :class:`BudgetExceeded`;
* **Anytime partial results** — algorithms constructed with
  ``on_limit="partial"`` return a
  :class:`~repro.core.result.DiscoveryResult` with ``completed=False``,
  the sound subset of the cover, and the ``unverified`` remainder
  instead of raising;
* **Fault injection** — :mod:`repro.resilience.faults`, a registry of
  named failure points chaos tests and the CI chaos leg arm.
"""

from .budget import (
    BudgetExceeded,
    DegradationStage,
    ENV_MEMORY_BUDGET,
    ENV_RSS_LIMIT,
    MemorySentinel,
    RunBudget,
    parse_bytes,
    process_rss_bytes,
)
from . import faults

__all__ = [
    "BudgetExceeded",
    "DegradationStage",
    "ENV_MEMORY_BUDGET",
    "ENV_RSS_LIMIT",
    "MemorySentinel",
    "RunBudget",
    "faults",
    "parse_bytes",
    "process_rss_bytes",
]
