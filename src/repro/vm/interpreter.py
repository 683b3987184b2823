"""The MiniVM interpreter: executes MiniIR modules.

One :class:`VM` instance models one OS process executing one loaded
binary.  Loading lays global variables out into per-section memory
regions (``.rodata`` / ``.data`` / ``.bss`` / ``closure_global_section``),
exactly the contract ClosureX's GlobalPass and harness rely on.

Execution runs on the compiled engine (:mod:`repro.vm.engine`): each
function is lowered once into pre-bound closures over a flat slot
frame, its blocks split into segments that end at a ``call`` (coverage
guards excepted: they run inline) or at the terminator.  A segment's
virtual cost and instruction count are charged before it runs and
refunded for the instructions after a mid-segment trap, and a segment
that would cross the instruction limit runs instruction by
instruction, so every counter matches per-instruction charging
exactly.  Loads and stores call the address space's per-width
accessor directly, or, through a dominating ``alloca`` of their own
frame, look nothing up at all.  A frame's
``alloca`` regions are appended to the stack tail of the address
space and unmapped as one slice when :meth:`VM.invoke` returns.  All
values are Python ints in unsigned representation (semantics in
:mod:`repro.vm.semantics`); pointers are addresses in the VM's
address space.  The virtual nanoseconds every instruction charges to
the VM clock are what the simulated-OS cost model and the throughput
experiments (Table 5) are built on.
"""

from __future__ import annotations

import itertools

from repro.ir.module import Function, Module
from repro.ir.values import GlobalVariable
from repro.vm.engine import COVERAGE_MAP_SIZE, CompiledFunction, compiled, execute
from repro.vm.errors import TrapKind, VMTrap
from repro.vm.filesystem import FDTable, VirtualFS
from repro.vm.heap import Heap
from repro.vm.libc import NATIVE_BASE_COST, NATIVES, NativeFn
from repro.vm.memory import AddressSpace, MemoryRegion


class CoverageMap(bytearray):
    """One execution's AFL-style hitcount map and its hit list.

    ``hits`` holds the index of every non-zero cell exactly once (in the
    order the cells first left 0; ascending when derived by
    :meth:`from_dense`, order never matters to readers).  Hitcounts saturate at 0xFF, so a cell
    never returns to 0 and the list stays exact without ever being
    rescanned; the fuzzer's novelty, signature and edge-count paths
    (:mod:`repro.fuzzing.coverage`) walk it instead of the whole map.
    """

    __slots__ = ("hits",)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.hits: list[int] = []

    @classmethod
    def from_dense(cls, cells) -> "CoverageMap":
        """A map holding *cells*, with ``hits`` derived from them — the
        constructor for producers other than the VM's guards."""
        coverage = cls(cells)
        coverage.hits = [index for index, value in enumerate(coverage) if value]
        return coverage

    def __reduce_ex__(self, protocol):
        # bytearray's own reduce carries slot state only from Python 3.11
        # on; rebuilding through from_dense keeps ``hits`` on every
        # version, for pickles (checkpoints, fleet snapshots) and copies.
        return (CoverageMap.from_dense, (bytes(self),))


# Per-process "boot time" sequence: each VM (process) observes a
# different time(), reproducing the natural cross-process
# non-determinism real programs get from time-seeded PRNGs.
_BOOT_SEQUENCE = itertools.count(1_700_000_000)


class _MutableSite:
    """Allocation-free current-location holder (frozen on trap)."""

    __slots__ = ("function", "block")

    def __init__(self) -> None:
        self.function = "<start>"
        self.block = "<start>"


class VM:
    """One simulated process: loaded module + memory + libc state."""

    MAX_CALL_DEPTH = 192

    def __init__(
        self,
        module: Module,
        fs: VirtualFS | None = None,
        heap_budget: int = 64 << 20,
        max_open_files: int | None = None,
        extra_natives: dict[str, NativeFn] | None = None,
        opcode_counts: dict[str, int] | None = None,
        libc_counts: dict[str, int] | None = None,
        faults=None,
        cmp_observer=None,
    ):
        self.module = module
        # Optional chaos hook (``faults.poll(site)`` -> exception | None)
        # consulted by the malloc/fopen/fread natives; None keeps those
        # paths at one attribute check.
        self.faults = faults
        self.memory = AddressSpace()
        self.heap = Heap(self.memory, heap_budget)
        self.fs = fs if fs is not None else VirtualFS()
        self.fd_table = FDTable(self.fs, max_open_files)
        self.natives: dict[str, NativeFn] = dict(NATIVES)
        if extra_natives:
            self.natives.update(extra_natives)

        # Optional telemetry: caller-owned per-opcode / per-libc-call
        # count dicts (shared across VMs so profiles survive respawns).
        # None keeps the dispatch loop on its uninstrumented path.
        self.opcode_counts = opcode_counts
        self.libc_counts = libc_counts
        # Optional input-to-state tap (``repro.fuzzing.i2s.CmpObserver``):
        # icmp/switch dispatch reports concrete operand pairs when the
        # observer is attached *and* armed.  None (or a disarmed
        # observer) keeps compares on the uninstrumented path — the
        # same null-object contract as the telemetry count dicts.
        self.cmp_observer = cmp_observer

        self.cost = 0                       # virtual ns consumed
        self.instructions_executed = 0
        self.instruction_limit = 10_000_000
        self.rand_state = 1
        self.boot_time = next(_BOOT_SEQUENCE)
        self.output: list[str] = []
        self.site = _MutableSite()
        self._call_depth = 0
        # Compiled function -> its frame template with this process's
        # global addresses filled in (see invoke()).
        self._frame_templates: dict[CompiledFunction, list] = {}

        # Coverage state (AFL-style shared map semantics).
        self.coverage_map = CoverageMap(COVERAGE_MAP_SIZE)
        self.prev_loc = 0
        self.trace_edges = False
        self.edge_trace: list[tuple[str, int]] = []

        # Global layout: symbol -> region, and section -> ordered regions.
        self.global_regions: dict[str, MemoryRegion] = {}
        self.sections: dict[str, list[MemoryRegion]] = {}
        self._loaded = False
        self.load_cost = 0

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    def load(self) -> None:
        """Lay out global variables into section-grouped memory regions."""
        if self._loaded:
            raise RuntimeError("module already loaded into this VM")
        by_section: dict[str, list[GlobalVariable]] = {}
        for var in self.module.globals.values():
            by_section.setdefault(var.section, []).append(var)
        for section in sorted(by_section):
            regions: list[MemoryRegion] = []
            for var in by_section[section]:
                size = var.value_type.size()
                region = self.memory.map_region(
                    self.memory.global_segment, size,
                    writable=not var.is_constant, kind="global", tag=var.name,
                )
                region.data[:] = var.initial_bytes()
                self.global_regions[var.name] = region
                regions.append(region)
                # Loading/initialising pages costs time — this is part of
                # what fresh-process execution pays on every test case.
                self.load_cost += 20 + size // 16
            self.sections[section] = regions
        self._loaded = True

    def global_addr(self, name: str) -> int:
        return self.global_regions[name].base

    def section_size(self, section: str) -> int:
        return sum(r.size for r in self.sections.get(section, []))

    def section_bytes(self, section: str) -> bytes:
        """Concatenated contents of a section (snapshot source)."""
        return b"".join(bytes(r.data) for r in self.sections.get(section, []))

    def restore_section(self, section: str, snapshot: bytes) -> int:
        """Write *snapshot* back over a section; returns bytes copied."""
        offset = 0
        for region in self.sections.get(section, []):
            region.data[:] = snapshot[offset:offset + region.size]
            offset += region.size
        return offset

    # ------------------------------------------------------------------
    # argv setup
    # ------------------------------------------------------------------

    def setup_argv(self, argv: list[str]) -> tuple[int, int]:
        """Materialise C-style ``argc``/``argv`` in memory.

        Returns ``(argc, argv_address)`` where ``argv_address`` points
        at an array of ``char*``.
        """
        pointers: list[int] = []
        for i, arg in enumerate(argv):
            data = arg.encode("latin-1") + b"\x00"
            region = self.memory.map_region(
                self.memory.global_segment, len(data), True, "global", f"argv[{i}]"
            )
            region.data[:] = data
            pointers.append(region.base)
        table = self.memory.map_region(
            self.memory.global_segment, 8 * (len(pointers) + 1), True, "global", "argv"
        )
        for i, ptr in enumerate(pointers):
            table.data[i * 8:(i + 1) * 8] = ptr.to_bytes(8, "little")
        return len(argv), table.base

    def set_argv_input(self, argv_address: int, index: int, path: str) -> None:
        """Repoint ``argv[index]`` at a new input path.

        This is the harness-side "replace the appropriate argv with the
        test case supplied by the fuzzer" step from the paper §4.2.1.
        """
        data = path.encode("latin-1") + b"\x00"
        region = self.memory.map_region(
            self.memory.global_segment, len(data), True, "global", f"argv[{index}]"
        )
        region.data[:] = data
        self.memory.write_int(argv_address + index * 8, region.base, 8, self.site)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def charge(self, ns: int) -> None:
        self.cost += ns

    def record_output(self, text: str) -> None:
        if len(self.output) < 4096:
            self.output.append(text)

    def reset_coverage(self) -> None:
        # A fresh map rather than a clear: earlier ExecResults hold the
        # old one as their coverage.
        self.coverage_map = CoverageMap(COVERAGE_MAP_SIZE)
        self.prev_loc = 0

    def cov_guard(self, cur_loc: int) -> None:
        """AFL-style edge coverage update: the ``__cov_guard`` native.
        Constant-id guards in compiled code do the same update inline
        (``engine._cov_guard``)."""
        index = (cur_loc ^ self.prev_loc) & (COVERAGE_MAP_SIZE - 1)
        coverage = self.coverage_map
        value = coverage[index]
        if value == 0:
            coverage.hits.append(index)
            coverage[index] = 1
        elif value != 0xFF:
            coverage[index] = value + 1
        self.prev_loc = (cur_loc >> 1) & (COVERAGE_MAP_SIZE - 1)
        if self.trace_edges:
            self.edge_trace.append((self.site.function, index))

    def run_function(self, function: Function, args: list[int]) -> int | None:
        """Execute *function* with concrete integer arguments."""
        if function.is_declaration:
            return self._call_native(function.name, args)
        return self.invoke(function, args)

    def invoke(self, function: Function, args: list[int]) -> int | None:
        """Run a defined function on the compiled engine (also the path
        compiled ``call`` instructions take)."""
        if self._call_depth >= self.MAX_CALL_DEPTH:
            raise VMTrap(TrapKind.STACK_OVERFLOW,
                         f"call depth exceeded {self.MAX_CALL_DEPTH}", self.site)
        code = function._compiled
        if (code is None or code.epoch != function.code_epoch
                or len(args) < code.arg_count):
            code = compiled(function, len(args))
        template = self._frame_templates.get(code)
        if template is None:
            template = self._frame_template(code)
        frame = template.copy()
        count = code.arg_count
        if len(args) == count:
            frame[:count] = args
        else:  # extra arguments are ignored, missing ones stay undefined
            count = min(count, len(args))
            frame[:count] = args[:count]
        allocas = code.allocas_slot
        if allocas >= 0:
            frame[allocas] = []
        self._call_depth += 1
        self.site.function = function.name
        try:
            return execute(self, code, frame)
        finally:
            self._call_depth -= 1
            if allocas >= 0:
                self.memory.pop_frame(frame[allocas])

    def _frame_template(self, code: CompiledFunction) -> list:
        """*code*'s frame template with this process's global addresses."""
        template = list(code.template)
        for slot, name in code.globals:
            template[slot] = self.global_regions[name].base
        self._frame_templates[code] = template
        return template

    def _call_native(self, name: str, args: list[int]) -> int | None:
        native = self.natives.get(name)
        if native is None:
            raise VMTrap(
                TrapKind.ABORT,
                f"unresolved external function @{name} (link error)",
                self.site,
            )
        if self.libc_counts is not None:
            self.libc_counts[name] = self.libc_counts.get(name, 0) + 1
        self.cost += NATIVE_BASE_COST.get(name, 20)
        return native(self, args, self.site)

    # ------------------------------------------------------------------
    # inspection / address recycling
    # ------------------------------------------------------------------

    def stack_region_count(self) -> int:
        return self.memory.stack_region_count()

    def reset_stack_addresses(self) -> None:
        """Rewind the stack segment's bump cursor.

        Real processes reuse the same stack addresses on every
        iteration of a loop (the stack pointer returns to its saved
        position); rewinding the cursor once all frames are gone keeps
        the simulated address assignment equally deterministic, which
        the correctness experiments rely on for bytewise snapshot
        comparison.
        """
        if self.memory.stack_region_count():
            raise RuntimeError("cannot rewind stack with live frames")
        self.memory.stack_segment.reset()
        self.memory.forget_dead_regions()

    def reset_heap_addresses(self, mark: int | None = None) -> None:
        """Rewind the heap segment's bump cursor to *mark* (or the base).

        Models a real allocator handing out the same addresses again
        after everything was freed.  Called by the ClosureX harness
        after its leak sweep; *mark* preserves initialisation-phase
        chunks.  Never valid for the naive persistent mode, whose
        leaked chunks keep the heap occupied — that address drift is
        part of the pollution ClosureX eliminates.
        """
        target = mark if mark is not None else self.memory.heap_segment.base
        for region in self.heap.live.values():
            if region.base >= target:
                raise RuntimeError(
                    f"cannot rewind heap past live chunk at 0x{region.base:x}"
                )
        self.memory.heap_segment.cursor = target
        self.memory.forget_dead_regions()
