"""repro.resilience — guardrails, anytime results, fault injection.

Three pillars (see ``docs/resilience.md``):

* **Guardrails** — :class:`RunBudget` (wall clock + partition-memory
  bytes).  Algorithms check the memory budget where they allocate,
  with :meth:`~repro.core.base.RunContext.fits`: DHyFD refuses a
  partition refresh that would not fit, and TANE raises
  :class:`BudgetExceeded` once its partitions exceed both the budget
  and its floor;
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
