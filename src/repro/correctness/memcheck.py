"""Memcheck: the Valgrind stand-in used by the paper's §6.1.4.

The MiniVM already detects memory-lifecycle violations (double free,
invalid free, use-after-free) as traps, and its heap tracks every live
chunk.  This module packages those capabilities the way the paper uses
Valgrind: run a queue of inputs under ClosureX-with-restoration and
verify that

- the *harness's own sweeps* never introduce a lifecycle violation
  (no double frees of chunks the target already released, etc.), and
- after each restoration, the target's heap is exactly its post-boot
  state (no residual or lost chunks) — the "memory usage identical to
  a fresh process" claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.execution.differential import PersistentProcess
from repro.ir.module import Module
from repro.runtime.harness import HarnessConfig
from repro.vm.errors import TrapKind, VMTrap

#: Trap kinds that indicate a memory-lifecycle violation.
LIFECYCLE_KINDS = frozenset(
    {TrapKind.DOUBLE_FREE, TrapKind.INVALID_FREE, TrapKind.USE_AFTER_FREE}
)


@dataclass
class MemcheckReport:
    """Valgrind-style findings over one input queue."""

    inputs_checked: int = 0
    lifecycle_violations: list[tuple[int, VMTrap]] = field(default_factory=list)
    residual_chunk_failures: list[int] = field(default_factory=list)
    total_swept_chunks: int = 0
    total_swept_fds: int = 0

    @property
    def clean(self) -> bool:
        return not self.lifecycle_violations and not self.residual_chunk_failures

    def describe(self) -> str:
        if self.clean:
            return (
                f"clean: {self.inputs_checked} inputs, "
                f"{self.total_swept_chunks} leaked chunks swept, "
                f"{self.total_swept_fds} handles closed"
            )
        return (
            f"{len(self.lifecycle_violations)} lifecycle violations, "
            f"{len(self.residual_chunk_failures)} residual-heap failures"
        )


def run_memcheck(
    module: Module,
    inputs: list[bytes],
    config: HarnessConfig | None = None,
) -> MemcheckReport:
    """Execute *inputs* under ClosureX and audit memory behaviour."""
    process = PersistentProcess(module, config)
    baseline_chunks = dict(process.harness.vm.heap.snapshot_live_set())
    report = MemcheckReport()

    for index, data in enumerate(inputs):
        result = process.run(data)
        report.inputs_checked += 1
        if result.restore is not None:
            report.total_swept_chunks += result.restore.leaked_chunks
            report.total_swept_fds += result.restore.closed_fds
        if (
            result.trap is not None
            and result.trap.kind in LIFECYCLE_KINDS
        ):
            report.lifecycle_violations.append((index, result.trap))
        if not result.status.survivable:
            # The crash/hang killed the process; the restarted one has
            # its own post-boot heap.
            baseline_chunks = dict(process.harness.vm.heap.snapshot_live_set())
            continue
        if process.harness.vm.heap.snapshot_live_set() != baseline_chunks:
            report.residual_chunk_failures.append(index)
    return report
