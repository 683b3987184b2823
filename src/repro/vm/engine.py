"""The MiniVM execution engine: MiniIR lowered to pre-bound closures.

When a :class:`~repro.ir.module.Function` first runs, :func:`compiled`
lowers it once into a :class:`CompiledFunction` and caches it on the
function, keyed on ``Function.code_epoch`` (bumped by every operand,
instruction, block and terminator mutation).  The cache is shared by
every VM running the module — the forkserver builds a VM per exec —
so lowering is paid once per function per process.

Lowering resolves everything the IR can tell ahead of time:

- every operand becomes a slot index into a flat list frame.  SSA
  values and arguments fill their slots as they execute; constants
  sit in the frame template; global addresses are per process, so
  each VM fills them into its own copy of the template;
- widths, masks, sign thresholds, GEP offsets and access sizes are
  precomputed, and the integer operations themselves come from
  :mod:`repro.vm.semantics`, the definition the optimizer folds with.

Each block is split into **segments**: runs of instructions that end
at a ``call`` or at the terminator.  A segment's virtual cost,
instruction count and opcode counts are charged once, before it runs,
so a callee (and any native it reaches) always sees exact counters.
The exception is the coverage guard, ``call @__cov_guard(iN K)`` with
a constant id: it lowers to a closure that does the AFL edge update
itself, charges and counts what the native call would, and does not
end its segment (it reads neither counter and cannot trap).
Three rules keep the counters identical to per-instruction charging:

- an instruction that traps mid-segment refunds the cost, count and
  opcode counts of the instructions after it;
- a segment that would cross ``instruction_limit`` runs on the
  per-instruction path, so :class:`ExecutionLimitExceeded` fires at
  exactly the instruction it always did;
- phi nodes are charged on block entry after they are evaluated, and
  are not limit-checked, as before.

Loads and stores call the address space's per-width accessor
(:func:`~repro.vm.memory.int_reader` / ``int_writer``: one bisection,
one bounds test, a ``struct`` unpack/pack) directly, with no method
lookup.  When the pointer is an ``alloca`` of the same function that
dominates the access, and the access fits the allocation at offset 0,
the alloca's region sits in a frame slot and the access reads or
writes its bytes with no lookup at all.  The region lives in the
frame, never in the closure, because compiled code is shared by every
VM.

A use whose definition does not dominate it (or that names a value
this frame can never define) is compiled with a run-time check that
raises the ``use of undefined value`` trap; dominated uses read their
slot directly.  The compare observer (input-to-state tap), the
``opcode_counts`` / ``libc_counts`` profile and ``VM.site`` tracking
behave exactly as in a per-instruction interpreter.
"""

from __future__ import annotations

from repro.ir import cfg
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    CondBr,
    GetElementPtr,
    ICmp,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Switch,
    Unreachable,
)
from repro.ir.module import Function
from repro.ir.types import ArrayType, IntType, StructType
from repro.ir.values import (
    Argument,
    ConstantData,
    ConstantInt,
    ConstantNull,
    GlobalVariable,
    UndefValue,
)
from repro.vm import semantics
from repro.vm.errors import ExecutionLimitExceeded, TrapKind, VMTrap
from repro.vm.libc import COV_GUARD, NATIVE_BASE_COST
from repro.vm.memory import int_codec, int_reader, int_writer

# Per-opcode virtual-ns costs.  One MiniIR instruction stands for the
# short native sequence clang -O0 emits for it (address computation,
# load/op/store, occasional cache miss), hence several ns each; the
# ratios follow real hardware (ALU < memory < call).
INST_COST = {
    BinOp: 6, ICmp: 6, Cast: 4, Select: 7, Phi: 5,
    Br: 4, CondBr: 7, Switch: 10, Ret: 6,
    Load: 12, Store: 12, GetElementPtr: 6, Alloca: 10,
    Call: 22, Unreachable: 0,
}
PHI_COST = INST_COST[Phi]

_U64_MASK = (1 << 64) - 1

COVERAGE_MAP_SIZE = 1 << 16
_MAP_MASK = COVERAGE_MAP_SIZE - 1
_GUARD_COST = NATIVE_BASE_COST[COV_GUARD]


class Segment:
    """Straight-line run of instructions charged as one unit, ending at
    a call (other than a constant-id coverage guard) or the terminator.

    ``ops`` are the closures of its non-terminator instructions;
    ``costs``/``names`` cover every instruction it charges, the block's
    terminator included when the segment is the block's last.
    """

    __slots__ = ("ops", "count", "cost", "costs", "names", "opcodes")

    def __init__(self, ops: list, costs: list[int], names: list[str]):
        self.ops = tuple(ops)
        self.costs = tuple(costs)
        self.names = tuple(names)
        self.count = len(costs)
        self.cost = sum(costs)
        totals: dict[str, int] = {}
        for name in names:
            totals[name] = totals.get(name, 0) + 1
        self.opcodes = tuple(totals.items())


class Block:
    """A lowered basic block: phi moves, segments, terminator."""

    __slots__ = ("name", "phis", "phi_count", "segments", "term")

    def __init__(self, name: str):
        self.name = name
        # pred Block -> tuple of per-phi moves (see _phi_moves), or None.
        self.phis: dict | None = None
        self.phi_count = 0
        self.segments: tuple[Segment, ...] = ()
        self.term = None   # (vm, frame) -> next Block | None (returned)


class CompiledFunction:
    """One function lowered for the VM, shared by every VM that runs it."""

    __slots__ = ("epoch", "entry", "template", "globals",
                 "arg_count", "ret_slot", "allocas_slot", "short_args")

    def __init__(self, epoch: int):
        self.epoch = epoch
        self.entry: Block | None = None
        self.template: list = []
        self.globals: list[tuple[int, str]] = []
        self.arg_count = 0
        self.ret_slot = 0
        self.allocas_slot = -1          # the frame's alloca bases; -1: no alloca
        # Variants for calls passing fewer arguments than declared.
        self.short_args: dict[int, "CompiledFunction"] = {}


def compiled(function: Function, supplied: int | None = None) -> CompiledFunction:
    """The cached lowering of *function* (re-lowered after any mutation).

    *supplied* below the parameter count selects a variant whose
    unsupplied arguments trap as undefined when used.
    """
    code = function._compiled
    if code is None or code.epoch != function.code_epoch:
        code = _Lowering(function, len(function.args)).result
        function._compiled = code
    if supplied is not None and supplied < code.arg_count:
        variant = code.short_args.get(supplied)
        if variant is None:
            variant = _Lowering(function, supplied).result
            code.short_args[supplied] = variant
        return variant
    return code


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def execute(vm, code: CompiledFunction, frame: list) -> int | None:
    """Run a lowered function body in *frame* until it returns."""
    site = vm.site
    limit = vm.instruction_limit
    counts = vm.opcode_counts
    block = code.entry
    prev = None
    while True:
        site.block = block.name
        phis = block.phis
        if phis is not None:
            _enter_phis(vm, frame, block, prev, counts)
        for seg in block.segments:
            executed = vm.instructions_executed + seg.count
            if executed > limit:
                _run_checked(vm, frame, seg, limit, counts)
                continue
            vm.instructions_executed = executed
            vm.cost += seg.cost
            if counts is not None:
                for name, n in seg.opcodes:
                    counts[name] = counts.get(name, 0) + n
            try:
                for op in seg.ops:
                    op(vm, frame)
            except BaseException:
                _refund(vm, seg, seg.ops.index(op) + 1, counts)
                raise
        prev = block
        block = block.term(vm, frame)
        if block is None:
            return frame[code.ret_slot]


def _enter_phis(vm, frame: list, block: Block, prev, counts) -> None:
    """Evaluate the block's phis simultaneously for the edge from *prev*."""
    moves = block.phis.get(prev)
    if moves is None:
        name = prev.name if prev is not None else "<entry>"
        raise KeyError(f"phi has no incoming value for block {name}")
    values = []
    for _dst, src, check in moves:
        if check is not None:
            check(vm, frame)
        values.append(frame[src])
    for (dst, _src, _check), value in zip(moves, values):
        frame[dst] = value
    n = block.phi_count
    vm.instructions_executed += n
    vm.cost += PHI_COST * n
    if counts is not None:
        counts["Phi"] = counts.get("Phi", 0) + n


def _run_checked(vm, frame: list, seg: Segment, limit: int, counts) -> None:
    """Per-instruction path for a segment that crosses the limit."""
    ops = seg.ops
    for index, (cost, name) in enumerate(zip(seg.costs, seg.names)):
        vm.instructions_executed += 1
        if vm.instructions_executed > limit:
            raise ExecutionLimitExceeded(limit)
        vm.cost += cost
        if counts is not None:
            counts[name] = counts.get(name, 0) + 1
        if index < len(ops):
            ops[index](vm, frame)


def _refund(vm, seg: Segment, start: int, counts) -> None:
    """Give back what a segment charged for instructions from *start* on
    (they never ran: an earlier one raised)."""
    vm.instructions_executed -= seg.count - start
    vm.cost -= sum(seg.costs[start:])
    if counts is not None:
        for name in seg.names[start:]:
            left = counts[name] - 1
            if left:
                counts[name] = left
            else:
                del counts[name]


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------


def _trap_op(kind: TrapKind, message: str):
    def op(vm, r):
        raise VMTrap(kind, message, vm.site)
    return op


def _with_checks(op, checks: list):
    """Run *checks* (undefined-use traps, in evaluation order) first."""
    if not checks:
        return op

    def checked(vm, r):
        for check in checks:
            check(vm, r)
        op(vm, r)
    return checked


class _Lowering:
    """Builds one :class:`CompiledFunction` from a function's blocks."""

    def __init__(self, function: Function, supplied: int):
        self.function = function
        code = CompiledFunction(function.code_epoch)
        self.code = code
        self.template: list = []
        self.slots: dict = {}            # SSA value / global -> slot
        self.constants: dict = {}        # constant int -> slot
        self.poison: dict = {}           # never-defined value -> (slot, check)
        self.region_slots: dict = {}     # alloca -> slot of its current region
        self.defined_at: dict = {}       # instruction -> (BasicBlock, index)
        self.at: tuple = (None, 0)       # position of the instruction being lowered
        self._domtree = None

        code.arg_count = len(function.args)
        self.supplied = min(supplied, code.arg_count)
        for arg in function.args:
            self.slots[arg] = self._new_slot()
        # Blocks in layout order, then any detached block a terminator
        # still targets (it runs as the IR says, just never dominates).
        order = list(function.blocks)
        blocks = {bb: Block(bb.name) for bb in order}
        self.blocks = blocks
        bodies = {}
        for bb in order:
            body, term = [], None
            for index, inst in enumerate(bb.instructions):
                if inst.is_terminator:
                    term = inst
                    break
                body.append(inst)
                if not inst.type.is_void:
                    self.slots[inst] = self._new_slot()
                    self.defined_at[inst] = (bb, index)
            bodies[bb] = (body, term)
            for succ in term.successors() if term is not None else ():
                if succ not in blocks:
                    blocks[succ] = Block(succ.name)
                    order.append(succ)
        code.ret_slot = self._new_slot()
        for bb in order:
            self._lower_block(bb, blocks[bb], *bodies[bb])
        code.entry = blocks[function.blocks[0]] if function.blocks else None
        code.template = self.template
        self.result = code

    # -- operands -------------------------------------------------------

    def _new_slot(self, value=None) -> int:
        self.template.append(value)
        return len(self.template) - 1

    def _constant(self, value: int) -> int:
        slot = self.constants.get(value)
        if slot is None:
            slot = self.constants[value] = self._new_slot(value)
        return slot

    def _never_defined(self, value) -> tuple[int, object]:
        entry = self.poison.get(id(value))
        if entry is None:
            if type(value) is ConstantData:
                message = "constant data used as scalar"
            else:
                message = f"use of undefined value {value.ref()}"
            slot = self._new_slot()
            entry = self.poison[id(value)] = (slot, self._undefined_check(slot, message))
        return entry

    @staticmethod
    def _undefined_check(slot: int, message: str):
        def check(vm, r):
            if r[slot] is None:
                raise VMTrap(TrapKind.ABORT, message, vm.site)
        return check

    def operand(self, value, block, index: int) -> tuple[int, object]:
        """``(slot, check)`` for a use at (*block*, *index*); *check* is
        ``None`` when the value is certainly defined there.  *index*
        ``None`` means the end of *block* (a phi arm)."""
        cls = type(value)
        if cls is ConstantInt:
            return self._constant(value.value), None
        if cls is ConstantNull or cls is UndefValue:
            return self._constant(0), None
        if cls is GlobalVariable:
            slot = self.slots.get(value)
            if slot is None:
                slot = self.slots[value] = self._new_slot()
                self.code.globals.append((slot, value.name))
            return slot, None
        slot = self.slots.get(value)
        if slot is None:
            return self._never_defined(value)
        if cls is Argument:
            if value.index < self.supplied:
                return slot, None
        elif self._dominates(self.defined_at[value], block, index):
            return slot, None
        return slot, self._undefined_check(slot, f"use of undefined value {value.ref()}")

    def _dominates(self, definition, block, index) -> bool:
        def_block, def_index = definition
        if def_block is block:
            return index is None or def_index < index
        if self._domtree is None:
            self._domtree = cfg.dominator_tree(self.function)
        return self._domtree.dominates(def_block, block)

    # -- blocks ---------------------------------------------------------

    def _lower_block(self, bb, block: Block, body: list, term) -> None:
        phis = []
        position = 0
        while position < len(body) and type(body[position]) is Phi:
            phis.append(body[position])
            position += 1
        if phis:
            block.phis = self._phi_moves(phis)
            block.phi_count = len(phis)
        segments = []
        ops, costs, names = [], [], []
        for index in range(position, len(body)):
            inst = body[index]
            cls = type(inst)
            ops.append(self._lower(inst, bb, index))
            costs.append(INST_COST.get(cls, 2))
            names.append(cls.__name__)
            if cls is Call and not _is_cov_guard(inst):
                segments.append(Segment(ops, costs, names))
                ops, costs, names = [], [], []
        if term is not None:
            costs.append(INST_COST.get(type(term), 2))
            names.append(type(term).__name__)
        if ops or costs:
            segments.append(Segment(ops, costs, names))
        block.segments = tuple(segments)
        block.term = self._lower_terminator(term, bb, len(body))

    def _phi_moves(self, phis: list[Phi]) -> dict:
        """pred Block -> per-phi ``(dst, src, check)`` moves, in phi order.

        An edge some phi has no arm for maps to moves ending in a
        ``KeyError`` raiser at that phi, as a missing arm reports.
        """
        preds = []
        for phi in phis:
            for pred in phi.incoming_blocks:
                if pred not in preds:
                    preds.append(pred)
        table = {}
        for pred in preds:
            moves = []
            for phi in phis:
                arm = next((value for value, block in zip(phi.operands, phi.incoming_blocks)
                            if block is pred), None)
                if arm is None:
                    moves.append((0, 0, _missing_arm(pred.name)))
                    break
                src, check = self.operand(arm, pred, None)
                moves.append((self.slots[phi], src, check))
            if pred in self.blocks:
                table[self.blocks[pred]] = tuple(moves)
        return table

    def _lower_terminator(self, term, bb, index: int):
        if term is None:
            return _trap_op(TrapKind.UNREACHABLE,
                            f"block %{bb.name} fell through without a terminator")
        cls = type(term)
        blocks = self.blocks
        if cls is Br:
            target = blocks.get(term.target)

            def br(vm, r):
                return target
            return br
        if cls is Unreachable:
            return _trap_op(TrapKind.UNREACHABLE, "unreachable executed")
        if cls is Ret:
            if term.value is None:
                return _return_void
            ret_slot = self.code.ret_slot
            src, check = self.operand(term.value, bb, index)

            def ret(vm, r):
                if check is not None:
                    check(vm, r)
                r[ret_slot] = r[src]
            return ret
        if cls is CondBr:
            cond, check = self.operand(term.cond, bb, index)
            if_true, if_false = blocks.get(term.if_true), blocks.get(term.if_false)

            def condbr(vm, r):
                if check is not None:
                    check(vm, r)
                return if_true if r[cond] else if_false
            return condbr
        if cls is Switch:
            src, check = self.operand(term.value, bb, index)
            default = blocks.get(term.default)
            table: dict[int, Block] = {}
            for case_value, case_block in term.cases:
                table.setdefault(case_value, blocks.get(case_block))
            inst = term

            def switch(vm, r):
                if check is not None:
                    check(vm, r)
                value = r[src]
                observer = vm.cmp_observer
                if observer is not None and observer.active:
                    observer.observe_switch(vm.site, inst, value)
                return table.get(value, default)
            return switch
        return _trap_op(TrapKind.ABORT, f"unknown instruction {term}")  # pragma: no cover

    # -- instructions ---------------------------------------------------

    def _lower(self, inst, bb, index: int):
        lower = _LOWER.get(type(inst))
        if lower is None:
            return _trap_op(TrapKind.ABORT, f"unknown instruction {inst}")
        self.at = (bb, index)
        checks: list = []

        def use(value) -> int:
            slot, check = self.operand(value, bb, index)
            if check is not None:
                checks.append(check)
            return slot

        return _with_checks(lower(self, inst, use), checks)

    def _binop(self, inst: BinOp, use):
        a, b, d = use(inst.lhs), use(inst.rhs), self.slots[inst]
        fn = semantics.binop(inst.op, inst.type.bits)
        if inst.op in semantics.DIVISIONS:
            message = f"{inst.op} by zero"

            def divide(vm, r):
                rhs = r[b]
                if rhs == 0:
                    raise VMTrap(TrapKind.DIV_BY_ZERO, message, vm.site)
                r[d] = fn(r[a], rhs)
            return divide

        def binop(vm, r):
            r[d] = fn(r[a], r[b])
        return binop

    def _icmp(self, inst: ICmp, use):
        a, b, d = use(inst.lhs), use(inst.rhs), self.slots[inst]
        lhs_type = inst.lhs.type
        fn = semantics.icmp(inst.predicate,
                            lhs_type.bits if isinstance(lhs_type, IntType) else None)

        def icmp(vm, r):
            lhs, rhs = r[a], r[b]
            observer = vm.cmp_observer
            if observer is not None and observer.active:
                observer.observe_icmp(vm.site, inst, lhs, rhs)
            r[d] = fn(lhs, rhs)
        return icmp

    def _region_slot(self, alloca: Alloca) -> int:
        slot = self.region_slots.get(alloca)
        if slot is None:
            slot = self.region_slots[alloca] = self._new_slot()
        return slot

    def _frame_region(self, ptr, size: int) -> int | None:
        """Slot holding *ptr*'s region when *ptr* is an alloca of this
        function that dominates the access and *size* bytes fit it at
        offset 0; ``None`` when the access must look its address up."""
        if type(ptr) is not Alloca or ptr not in self.defined_at:
            return None
        if not 0 < size <= ptr.allocation_size():
            return None
        if not self._dominates(self.defined_at[ptr], *self.at):
            return None
        return self._region_slot(ptr)

    def _load(self, inst: Load, use):
        p, d, size = use(inst.ptr), self.slots[inst], inst.type.size()
        frame_region = self._frame_region(inst.ptr, size)
        if frame_region is not None:
            unpack = int_codec(size)[0]

            def load_frame(vm, r):
                r[d] = unpack(r[frame_region].data)[0]
            return load_frame
        read = int_reader(size)

        def load(vm, r):
            r[d] = read(vm.memory, r[p], vm.site)
        return load

    def _store(self, inst: Store, use):
        p = use(inst.ptr)
        v = use(inst.value)
        size = inst.value.type.size()
        frame_region = self._frame_region(inst.ptr, size)
        if frame_region is not None:
            pack, mask = int_codec(size)[1], (1 << (size << 3)) - 1

            def store_frame(vm, r):
                pack(r[frame_region].data, 0, r[v] & mask)
                vm.memory.bytes_written += size
            return store_frame
        write = int_writer(size)

        def store(vm, r):
            write(vm.memory, r[p], r[v], vm.site)
        return store

    def _gep(self, inst: GetElementPtr, use):
        base, d = use(inst.base), self.slots[inst]
        offset = 0
        scaled: list[tuple[int, object, int]] = []   # (slot, to_signed, scale)
        current = inst.base.type.pointee
        for position, index_value in enumerate(inst.indices):
            if position == 0:
                scale = current.size()
            elif isinstance(current, ArrayType):
                current = current.element
                scale = current.size()
            elif isinstance(current, StructType):
                assert isinstance(index_value, ConstantInt)
                offset += current.field_offset(index_value.value)
                current = current.field_type(index_value.value)
                continue
            else:  # pragma: no cover - rejected at construction
                return _trap_op(TrapKind.ABORT, "malformed GEP")
            signed = semantics.to_signed(index_value.type.bits)  # indices are ints
            if type(index_value) is ConstantInt:
                offset += signed(index_value.value) * scale
            elif type(index_value) is not UndefValue:   # undef reads as 0
                scaled.append((use(index_value), signed, scale))
        if not scaled:
            def gep_const(vm, r):
                r[d] = (r[base] + offset) & _U64_MASK
            return gep_const
        if len(scaled) == 1:
            (i, signed, scale), = scaled

            def gep_index(vm, r):
                r[d] = (r[base] + offset + signed(r[i]) * scale) & _U64_MASK
            return gep_index

        def gep(vm, r):
            address = r[base] + offset
            for i, signed, scale in scaled:
                address += signed(r[i]) * scale
            r[d] = address & _U64_MASK
        return gep

    def _cast(self, inst: Cast, use):
        s, d = use(inst.value), self.slots[inst]
        fn = semantics.cast(inst.op, getattr(inst.value.type, "bits", None),
                            getattr(inst.type, "bits", None))
        if fn is None:
            def move(vm, r):
                r[d] = r[s]
            return move

        def cast(vm, r):
            r[d] = fn(r[s])
        return cast

    def _select(self, inst: Select, use):
        c, d = use(inst.cond), self.slots[inst]
        # Only the chosen arm is evaluated, so each arm checks on its own.
        t, t_check = self.operand(inst.if_true, *self.at)
        f, f_check = self.operand(inst.if_false, *self.at)
        if t_check is None and f_check is None:
            def select(vm, r):
                r[d] = r[t] if r[c] else r[f]
            return select

        def select_checked(vm, r):
            if r[c]:
                if t_check is not None:
                    t_check(vm, r)
                r[d] = r[t]
            else:
                if f_check is not None:
                    f_check(vm, r)
                r[d] = r[f]
        return select_checked

    def _alloca(self, inst: Alloca, use):
        d, size = self.slots[inst], inst.allocation_size()
        tag = f"{self.function.name}.{inst.name}"
        code = self.code
        if code.allocas_slot < 0:
            code.allocas_slot = self._new_slot()
        allocas, slot = code.allocas_slot, self._region_slot(inst)

        def alloca(vm, r):
            memory = vm.memory
            region = memory.map_region(memory.stack_segment, size, True, "stack", tag)
            r[slot] = region
            r[d] = base = region.base
            r[allocas].append(base)
        return alloca

    def _call(self, inst: Call, use):
        callee = inst.callee
        if not isinstance(callee, Function):
            return _trap_op(TrapKind.ABORT, f"indirect call through {callee.ref()}")
        if _is_cov_guard(inst):
            return _cov_guard(inst.args[0].value)
        slots = [use(arg) for arg in inst.args]
        d = -1 if inst.type.is_void else self.slots[inst]
        function_name, block_name = self.function.name, inst.parent.name

        def call(vm, r):
            args = [r[s] for s in slots]
            if callee.blocks:
                result = vm.invoke(callee, args)
            else:
                result = vm._call_native(callee.name, args)
            site = vm.site
            site.function = function_name
            site.block = block_name
            if d >= 0:
                r[d] = result if result is not None else 0
        return call

    def _misplaced_phi(self, inst: Phi, use):
        return _trap_op(TrapKind.ABORT, f"unknown instruction {inst}")


def _is_cov_guard(inst: Call) -> bool:
    """A ``call void @__cov_guard(iN K)`` of the declared guard with a
    constant id: lowered inline, and it does not end its segment."""
    callee = inst.callee
    return (isinstance(callee, Function) and callee.name == COV_GUARD
            and callee.is_declaration and inst.type.is_void
            and len(inst.args) == 1 and type(inst.args[0]) is ConstantInt)


def _cov_guard(cur_loc: int):
    """The guard native and ``VM.cov_guard`` in one closure: the AFL
    edge update for block id *cur_loc*, priced and counted as the call
    to the native would be."""
    loc = cur_loc & _MAP_MASK
    next_loc = (cur_loc >> 1) & _MAP_MASK

    def cov_guard(vm, r):
        counts = vm.libc_counts
        if counts is not None:
            counts[COV_GUARD] = counts.get(COV_GUARD, 0) + 1
        vm.cost += _GUARD_COST
        index = loc ^ vm.prev_loc
        coverage = vm.coverage_map
        value = coverage[index]
        if value == 0:
            coverage.hits.append(index)
            coverage[index] = 1
        elif value != 0xFF:
            coverage[index] = value + 1
        vm.prev_loc = next_loc
        if vm.trace_edges:
            vm.edge_trace.append((vm.site.function, index))
    return cov_guard


def _return_void(vm, r):
    return None


def _missing_arm(name: str):
    def missing(vm, r):
        raise KeyError(f"phi has no incoming value for block {name}")
    return missing


_LOWER = {
    BinOp: _Lowering._binop,
    ICmp: _Lowering._icmp,
    Load: _Lowering._load,
    Store: _Lowering._store,
    GetElementPtr: _Lowering._gep,
    Cast: _Lowering._cast,
    Select: _Lowering._select,
    Alloca: _Lowering._alloca,
    Call: _Lowering._call,
    Phi: _Lowering._misplaced_phi,
}

__all__ = ["COVERAGE_MAP_SIZE", "INST_COST", "CompiledFunction", "compiled", "execute"]
