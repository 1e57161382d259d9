"""repro.resilience — guardrails, anytime results, fault injection.

Three pillars (see ``docs/resilience.md``):

* **Guardrails** — :class:`RunBudget` (wall clock + partition-memory
  bytes), whose memory ceiling
  :meth:`~repro.core.base.RunContext.watch_memory` enforces by calling
  the algorithm's relief callback before aborting with
  :class:`BudgetExceeded`;
* **Anytime partial results** — algorithms constructed with
  ``on_limit="partial"`` return a
  :class:`~repro.core.result.DiscoveryResult` with ``completed=False``,
  the sound subset of the cover, and the ``unverified`` remainder
  instead of raising;
* **Fault injection** — :mod:`repro.resilience.faults`, a registry of
  named failure points chaos tests and the CI chaos leg arm.
"""

from .budget import BudgetExceeded, RunBudget, parse_bytes
from . import faults

__all__ = ["BudgetExceeded", "RunBudget", "faults", "parse_bytes"]
