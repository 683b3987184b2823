"""Dataflow- and control-flow-equivalence checking (paper §6.1.4).

Validates ClosureX's central correctness claim: executing a test case
in the persistent loop — after the state has been "polluted" by many
other test cases and restored — behaves *exactly* like a fresh
process.

Methodology, mirroring the paper:

1. Run the input in N independent fresh processes, each observed with
   its post-execution state snapshot and its path-sensitive edge trace
   (:func:`repro.execution.differential.observe`).
2. Run the input under ClosureX after the pollution inputs have
   executed (and been restored) in the same process.
3. Dataflow: diff exit status, return code and the snapshots
   (writable globals, live heap chunk set, open handles) bytewise.
   Bytes that differ across the fresh runs are *naturally
   non-deterministic* (PRNG seeds, time) and are masked out
   (:class:`NondetMask`).
4. Control flow: diff the edge traces.  Inputs whose traces differ
   across the fresh runs are naturally non-deterministic and are
   excluded, exactly as the paper handles freetype's PRNG-dependent
   paths.

Both sides execute the *same* ClosureX-instrumented module — the fresh
ground truth is simply a harness that runs one test case and stops,
i.e. a fresh process of the instrumented binary.  One polluted run
feeds both verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.execution.differential import (
    Observation,
    PersistentProcess,
    diff,
    first_divergence,
    observe,
)
from repro.ir.module import Module
from repro.runtime.harness import HarnessConfig, IterationStatus
from repro.vm.snapshot import (
    NondetMask,
    SnapshotDelta,
    build_nondet_mask,
    diff_snapshots,
    take_snapshot,
)

#: What the dataflow verdict compares: exit disposition and state.
DATAFLOW_FIELDS = ("status", "return_code", "snapshot")


@dataclass
class DataflowReport:
    """Outcome of one dataflow-equivalence check."""

    equivalent: bool
    divergence: str | None       # diff() text of the first diverging field
    masked_bytes: int
    fresh_status: IterationStatus
    polluted_status: IterationStatus

    def describe(self) -> str:
        state = "EQUIVALENT" if self.equivalent else "DIVERGED"
        return (
            f"{state} (masked {self.masked_bytes} non-deterministic bytes): "
            f"{self.divergence or 'equivalent'}"
        )


@dataclass
class ControlFlowReport:
    """Outcome of one control-flow-equivalence check."""

    equivalent: bool
    nondeterministic: bool       # excluded: fresh runs disagree with each other
    fresh_edges: int
    polluted_edges: int
    first_divergence: int | None = None

    def describe(self) -> str:
        if self.nondeterministic:
            return "EXCLUDED (naturally non-deterministic control flow)"
        if self.equivalent:
            return f"EQUIVALENT ({self.fresh_edges} edges)"
        return (
            f"DIVERGED at edge {self.first_divergence} "
            f"({self.fresh_edges} vs {self.polluted_edges} edges)"
        )


def equivalence_verdicts(
    fresh: list[Observation],
    polluted: Observation,
    mask_granularity: str = "variable",
) -> tuple[DataflowReport, ControlFlowReport]:
    """Both §6.1.4 verdicts for one input, from observations that carry
    snapshots and edge traces: *fresh* runs (the first is the
    reference) and one *polluted* run.

    Variable-granularity masking is the default: when fresh runs show a
    global varies at all, the whole variable is treated as
    non-deterministic, which converges with few fresh runs (the paper's
    byte mask required "multiple" runs to stabilise).
    """
    reference = fresh[0]
    mask = build_nondet_mask([f.snapshot for f in fresh],
                             granularity=mask_granularity)
    # The §6.1.4 comparison covers *target-visible* state.  libc's
    # internal PRNG seed is not target state (ClosureX deliberately does
    # not restore libc internals); its *effects* on target globals are
    # still compared, via the masked section diff.
    mask.ignore_rand = True
    divergence = diff(reference, polluted, DATAFLOW_FIELDS, mask)
    dataflow = DataflowReport(
        equivalent=divergence is None,
        divergence=divergence,
        masked_bytes=mask.masked_byte_count,
        fresh_status=reference.status,
        polluted_status=polluted.status,
    )
    edges, observed = reference.edges, polluted.edges
    nondeterministic = any(f.edges != edges for f in fresh[1:])
    equivalent = not nondeterministic and observed == edges
    controlflow = ControlFlowReport(
        equivalent=equivalent,
        nondeterministic=nondeterministic,
        fresh_edges=len(edges),
        polluted_edges=len(observed),
        first_divergence=(None if equivalent or nondeterministic
                          else first_divergence(edges, observed)),
    )
    return dataflow, controlflow


def check_equivalence(
    module: Module,
    data: bytes,
    pollution: list[bytes],
    nondet_runs: int = 3,
    config: HarnessConfig | None = None,
    mask_granularity: str = "variable",
) -> tuple[DataflowReport, ControlFlowReport]:
    """Full §6.1.4 dataflow and control-flow check for one input."""

    def fresh_runs(count: int) -> list[Observation]:
        return [observe(module, data, config=config, snapshot=True, edges=True)
                for _ in range(count)]

    fresh = fresh_runs(nondet_runs)
    polluted = observe(module, data, config=config, pollution=pollution,
                       snapshot=True, edges=True)
    dataflow, controlflow = equivalence_verdicts(fresh, polluted,
                                                 mask_granularity)
    if not dataflow.equivalent or not (controlflow.equivalent
                                       or controlflow.nondeterministic):
        # Adaptive refinement (the paper's "running fresh process
        # executions multiple times"): a small fresh sample can miss
        # rarely-varying non-deterministic bytes or paths (e.g. a
        # PRNG-placed cache slot that only sometimes collides).  More
        # fresh runs widen the mask and expose non-deterministic edge
        # traces; a genuine divergence survives any number.
        fresh += fresh_runs(2 * nondet_runs + 4)
        dataflow, controlflow = equivalence_verdicts(fresh, polluted,
                                                     mask_granularity)
    return dataflow, controlflow


def check_restoration_resets_state(
    module: Module, inputs: list[bytes], config: HarnessConfig | None = None
) -> SnapshotDelta:
    """Complementary invariant: after running *inputs* with restoration,
    the process state equals its post-boot state.

    The libc PRNG is deliberately excluded: ClosureX restores the
    *target's* state (globals, heap, handles); libc-internal state such
    as the ``rand`` seed is not covered by the GlobalPass, exactly as
    in the paper — its effects are what the non-determinism masking in
    the equivalence checks accounts for.
    """
    process = PersistentProcess(module, config)
    baseline = take_snapshot(process.harness.vm)
    for data in inputs:
        process.run(data)
    after = take_snapshot(process.harness.vm)
    mask = NondetMask()
    mask.ignore_rand = True
    return diff_snapshots(baseline, after, mask)
