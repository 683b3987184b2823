"""Correctness validation: the paper's §6.1.4 machinery.

- :mod:`repro.correctness.equivalence` — dataflow and control-flow
  equivalence of a fresh process and ClosureX after pollution, both
  verdicts from one set of observations made by the differential
  oracle (:mod:`repro.execution.differential`), plus the
  restore-returns-to-post-boot invariant.
- :mod:`repro.correctness.memcheck` — the Valgrind stand-in: memory
  lifecycle violations and residual heap over an input queue.
"""

from repro.correctness.equivalence import (
    ControlFlowReport,
    DataflowReport,
    check_equivalence,
    check_restoration_resets_state,
    equivalence_verdicts,
)
from repro.correctness.memcheck import (
    LIFECYCLE_KINDS,
    MemcheckReport,
    run_memcheck,
)

__all__ = [
    "ControlFlowReport", "DataflowReport",
    "check_equivalence", "check_restoration_resets_state",
    "equivalence_verdicts",
    "LIFECYCLE_KINDS", "MemcheckReport", "run_memcheck",
]
