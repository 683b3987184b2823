"""Hot-spot profiling over MiniVM opcode / libc-call histograms.

When ``TelemetryConfig.profile_vm`` is on, every VM an executor creates
shares the executor's opcode and libc count dictionaries, so the counts
survive process respawns and accumulate across an entire campaign.
:class:`ProfileReport` folds them against the interpreter's per-opcode
and per-native cost tables into a sorted table of estimated virtual-ns
hot spots — the baseline any future MiniVM dispatch-loop optimisation
should be measured against.
"""

from __future__ import annotations

from dataclasses import dataclass


def _cost_tables() -> tuple[dict[str, int], dict[str, int]]:
    # Deferred import: profile is loaded by repro.telemetry.__init__,
    # which the interpreter's collaborators import in turn.
    from repro.vm.engine import INST_COST
    from repro.vm.libc import NATIVE_BASE_COST

    opcode_ns = {cls.__name__: ns for cls, ns in INST_COST.items()}
    return opcode_ns, dict(NATIVE_BASE_COST)


@dataclass
class HotSpot:
    """One row of the profile: an opcode or native routine."""

    name: str
    kind: str            # "opcode" | "libc"
    count: int
    est_ns: int          # count * per-unit cost from the VM cost tables
    share: float = 0.0   # fraction of the profile's total est_ns


class ProfileReport:
    """Sorted hot-spot aggregation of opcode and libc-call counts."""

    DEFAULT_OPCODE_NS = 2
    DEFAULT_NATIVE_NS = 20

    def __init__(self, opcode_counts: dict[str, int],
                 libc_counts: dict[str, int]):
        self.opcode_counts = dict(opcode_counts)
        self.libc_counts = dict(libc_counts)

    @classmethod
    def from_executor(cls, executor) -> "ProfileReport":
        return cls(executor.opcode_counts, executor.libc_counts)

    @property
    def total_instructions(self) -> int:
        return sum(self.opcode_counts.values())

    @property
    def total_libc_calls(self) -> int:
        return sum(self.libc_counts.values())

    def hotspots(self, top: int | None = None) -> list[HotSpot]:
        opcode_ns, native_ns = _cost_tables()
        rows = [
            HotSpot(name, "opcode", count,
                    count * opcode_ns.get(name, self.DEFAULT_OPCODE_NS))
            for name, count in self.opcode_counts.items()
        ]
        rows.extend(
            HotSpot(name, "libc", count,
                    count * native_ns.get(name, self.DEFAULT_NATIVE_NS))
            for name, count in self.libc_counts.items()
        )
        total = sum(r.est_ns for r in rows) or 1
        for row in rows:
            row.share = row.est_ns / total
        rows.sort(key=lambda r: (-r.est_ns, r.name))
        return rows[:top] if top is not None else rows

    def render(self, top: int = 10) -> str:
        rows = self.hotspots(top)
        if not rows:
            return "profile: no samples (enable TelemetryConfig.profile_vm)"
        headers = ["hot spot", "kind", "count", "est virtual ns", "share"]
        body = [
            [r.name, r.kind, f"{r.count:,}", f"{r.est_ns:,}",
             f"{100 * r.share:.1f}%"]
            for r in rows
        ]
        widths = [len(h) for h in headers]
        for line in body:
            for i, cell in enumerate(line):
                widths[i] = max(widths[i], len(cell))

        def fmt(cells: list[str]) -> str:
            return "  ".join(c.ljust(widths[i]) for i, c in enumerate(cells))

        lines = [
            f"VM profile: {self.total_instructions:,} instructions, "
            f"{self.total_libc_calls:,} libc calls",
            fmt(headers),
            fmt(["-" * w for w in widths]),
        ]
        lines.extend(fmt(line) for line in body)
        return "\n".join(lines)
