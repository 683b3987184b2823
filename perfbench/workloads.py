"""The benchmark's named workloads: one seeded campaign configuration each.

A workload fixes everything about a campaign except its seed, which the
benchmark takes as an argument.  Why each one is in the benchmark is in
``BENCHMARK.json`` and ``README.md``.  Budgets are virtual time, so the
simulated statistics of a workload are a pure function of (code, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

MS = 1_000_000  # virtual ns per virtual ms


@dataclass(frozen=True)
class Workload:
    name: str
    target: str
    mechanism: str
    budget_ms: int
    i2s: bool = False
    checkpoint_ms: int | None = None   # checkpoint cadence, virtual ms


WORKLOADS = {w.name: w for w in (
    Workload("giftext-closurex", "giftext", "closurex", 60),
    Workload("giftext-closurex-ckpt", "giftext", "closurex", 60,
             checkpoint_ms=4),
    Workload("libpcap-i2s", "libpcap", "closurex", 40, i2s=True),
    Workload("giftext-forkserver", "giftext", "forkserver", 160),
)}
