"""The differential oracle: observe an input in a throwaway process,
then diff two observations field by field.

ClosureX's claim is that a persistent run is observably the same as a
fresh process (paper §6.1.4).  Every check of that claim, and of the
system's own fast paths against the same standard, goes through this
one module:

- the integrity sentinel (:mod:`repro.integrity.sentinel`) replays a
  persistent exec in a fresh VM and diffs outcome and coverage;
- the optimizer's translation validation (:mod:`repro.analysis.opt`)
  diffs every behavioural field of the optimized module against the
  unoptimized one;
- the §6.1.4 equivalence check (:mod:`repro.correctness`) diffs fresh
  runs against a run after pollution, on masked state snapshots and
  edge traces.

Each caller chooses the fields it compares; what a field holds and how
it is compared is decided here only.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.execution.common import call_target
from repro.ir.module import Module
from repro.passes.rename_main import TARGET_MAIN
from repro.runtime.harness import (
    ClosureXHarness,
    HarnessConfig,
    IterationResult,
    IterationStatus,
)
from repro.vm.errors import VMTrap
from repro.vm.filesystem import VirtualFS
from repro.vm.interpreter import VM
from repro.vm.snapshot import (
    NondetMask,
    ProgramSnapshot,
    diff_snapshots,
    take_snapshot,
)

#: Pinned ``vm.boot_time`` for replays whose two sides must see the
#: same clock: ``time()`` is the VM's one source of cross-process
#: non-determinism (each VM normally observes a fresh boot-sequence
#: number).
REPLAY_BOOT_TIME = 1_700_000_000

#: What a run shows the outside world.  The instruction count and the
#: cost are left out: lowering them is the optimizer's entire point.
BEHAVIOUR_FIELDS = ("status", "return_code", "crash", "coverage", "output",
                    "files")

#: Every field :func:`diff` compares.
ALL_FIELDS = BEHAVIOUR_FIELDS + ("instructions", "cost_ns", "snapshot",
                                 "edges")

EdgeTrace = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Observation:
    """Everything observable about one run of one input.

    ``snapshot`` and ``edges`` are filled only when :func:`observe` is
    asked for them.  A caller that sees only part of a run (the
    sentinel, looking at a persistent exec) leaves the rest at their
    defaults and diffs only what it filled.
    """

    status: IterationStatus
    return_code: int | None
    trap: VMTrap | None
    coverage: bytes
    output: tuple[str, ...] = ()
    files: tuple[tuple[str, bytes], ...] = ()
    instructions: int = 0
    cost_ns: int = 0               # virtual ns of the whole run, load included
    snapshot: ProgramSnapshot | None = None
    edges: EdgeTrace | None = None

    @property
    def crash(self) -> tuple[str, str, str] | None:
        """Crash identity: trap kind, function and block."""
        if self.trap is None:
            return None
        kind, function, block = self.trap.identity()
        return (kind.name, function, block)


class PersistentProcess:
    """A ClosureX process driven the way the fuzzer drives it.

    Every input runs with restore.  A non-survivable outcome kills the
    process, as it would in reality, and the fuzzer restarts it: the
    next input runs in a freshly booted harness.
    """

    def __init__(self, module: Module, config: HarnessConfig | None = None):
        self.module = module
        self.config = config
        self.harness = self._boot()

    def _boot(self) -> ClosureXHarness:
        harness = ClosureXHarness(self.module, config=self.config)
        harness.boot()
        return harness

    def run(self, data: bytes) -> IterationResult:
        """Run *data* with restore; reboot if it killed the process."""
        result = self.harness.run_test_case(data, restore=True)
        if not result.status.survivable:
            self.harness = self._boot()
        return result


def observe(
    module: Module,
    data: bytes,
    *,
    config: HarnessConfig | None = None,
    pollution: Sequence[bytes] = (),
    boot_time: int | None = None,
    snapshot: bool = False,
    edges: bool = False,
) -> Observation:
    """Run *data* once in a throwaway process and observe it.

    A ClosureX module (``target_main`` present) runs one harness
    iteration without restore; any other module runs ``main`` directly,
    file-input style.  The inputs in *pollution* run first, in the same
    ClosureX process (see :class:`PersistentProcess`).  *boot_time*
    pins ``vm.boot_time`` for the observed run; left None, every VM
    sees its own boot-sequence number, as separate processes would.
    The filesystem starts empty and the load is charged, so ``cost_ns``
    is the full price of the run.
    """
    config = config if config is not None else HarnessConfig()
    if module.has_function(TARGET_MAIN):
        process = PersistentProcess(module, config)
        for other in pollution:
            process.run(other)
        harness = process.harness
        vm, fs = harness.vm, harness.fs
        _arm(vm, boot_time, edges)
        result = harness.run_test_case(data, restore=False)
        status, return_code, trap = (result.status, result.return_code,
                                     result.trap)
        instructions = result.instructions
    else:
        if pollution:
            raise ValueError("pollution needs a ClosureX module")
        fs = VirtualFS()
        fs.write_file(config.input_path, data)
        vm = VM(module, fs=fs)
        vm.load()
        vm.charge(vm.load_cost)
        argc, argv = vm.setup_argv([module.name, config.input_path])
        _arm(vm, boot_time, edges)
        vm.instruction_limit = vm.instructions_executed + config.instruction_limit
        status, return_code, trap = call_target(
            vm, module.get_function("main"), [argc, argv]
        )
        instructions = vm.instructions_executed
    return Observation(
        status=status,
        return_code=return_code,
        trap=trap,
        coverage=bytes(vm.coverage_map),
        output=tuple(vm.output),
        files=tuple(sorted(fs.files.items())),
        instructions=instructions,
        cost_ns=vm.cost,
        snapshot=take_snapshot(vm) if snapshot else None,
        edges=tuple(vm.edge_trace) if edges else None,
    )


def _arm(vm: VM, boot_time: int | None, edges: bool) -> None:
    if boot_time is not None:
        vm.boot_time = boot_time
    vm.trace_edges = edges


def first_divergence(expected: EdgeTrace, got: EdgeTrace) -> int:
    """Index of the first edge where two traces part ways."""
    return next(
        (i for i, (a, b) in enumerate(zip(expected, got)) if a != b),
        min(len(expected), len(got)),
    )


def diff(
    expected: Observation,
    got: Observation,
    fields: Iterable[str],
    mask: NondetMask | None = None,
) -> str | None:
    """The first of *fields* on which *got* departs from *expected*, as
    text that starts with the field's name; None when they agree.

    ``snapshot`` is compared with :func:`diff_snapshots`, ignoring what
    *mask* covers (both sides need ``snapshot=True``); ``crash``
    compares crash identities; every other field compares by equality.
    """
    for name in fields:
        want, have = getattr(expected, name), getattr(got, name)
        if name == "snapshot":
            delta = diff_snapshots(want, have, mask)
            if not delta.equivalent:
                return f"snapshot: {delta.describe()}"
        elif want != have:
            return f"{name}: {_describe(name, want, have)}"
    return None


def _describe(name: str, want, have) -> str:
    if name == "edges":
        return (f"first divergence at edge {first_divergence(want, have)} "
                f"({len(want)} vs {len(have)} edges)")
    if name in ("coverage", "output", "files"):
        return "contents differ"
    if name == "status":
        want, have = want.name, have.name
    return f"expected {want}, got {have}"
