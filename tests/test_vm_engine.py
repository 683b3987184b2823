"""The engine's hot paths against the out-of-line code they replace:
inline constant-id coverage guards, whole-frame stack pops, and
compiled loads/stores (per-width accessors and alloca frame slots)
against the checked byte reads and writes."""

import pytest

from repro.ir import FunctionType, I32, I64, IRBuilder, Module, int_type
from repro.ir.instructions import BinOp, Call, Ret
from repro.ir.types import ArrayType, I8, VOID, pointer_type
from repro.minic import compile_c
from repro.passes import CoveragePass
from repro.vm import ExecutionLimitExceeded, TrapKind, VM, VMTrap
from repro.vm.engine import INST_COST
from repro.vm.libc import COV_GUARD, NATIVE_BASE_COST
from repro.vm.memory import AddressSpace, RED_ZONE

GUARD_COST = INST_COST[Call] + NATIVE_BASE_COST[COV_GUARD]


def loaded(module: Module, **kwargs) -> VM:
    vm = VM(module, **kwargs)
    vm.load()
    return vm


def guarded_function(constant_id: bool) -> tuple[Module, object]:
    """``f(x, id) = (x + 1) + 2`` with a coverage guard between the adds;
    the guard's id is the constant 7, or the argument ``id`` (which
    takes the native call path)."""
    module = Module("m")
    guard = module.declare_function(COV_GUARD, FunctionType(VOID, [I32]))
    func = module.add_function("f", FunctionType(I32, [I32, I32]))
    func.ensure_args(["x", "id"])
    b = IRBuilder(func.append_block("entry"))
    first = b.add(func.args[0], b.i32(1))
    b.call(guard, [b.i32(7) if constant_id else func.args[1]])
    b.ret(b.add(first, b.i32(2)))
    return module, func


def state(vm: VM) -> tuple:
    """Everything a guard may touch."""
    return (bytes(vm.coverage_map), list(vm.coverage_map.hits), vm.prev_loc,
            list(vm.edge_trace), vm.cost, vm.instructions_executed,
            dict(vm.opcode_counts or {}), dict(vm.libc_counts or {}))


class TestCoverageGuard:
    @pytest.mark.parametrize("limit, ran_guard", [
        (0, False), (1, False), (2, True), (3, True)])
    def test_limit_on_and_after_guard(self, limit, ran_guard):
        """The limit fires at exactly the instruction it names, with the
        guard charged (and its edge hit) only if it ran first."""
        module, func = guarded_function(constant_id=True)
        vm = loaded(module, opcode_counts={}, libc_counts={})
        vm.instruction_limit = limit
        with pytest.raises(ExecutionLimitExceeded):
            vm.run_function(func, [5, 7])
        costs = [INST_COST[BinOp], GUARD_COST, INST_COST[BinOp]][:limit]
        assert vm.instructions_executed == limit + 1
        assert vm.cost == sum(costs)
        assert bool(vm.coverage_map.hits) is ran_guard
        assert vm.libc_counts.get(COV_GUARD, 0) == int(ran_guard)
        assert vm.opcode_counts.get("Call", 0) == int(ran_guard)

    def test_limit_just_covers_the_function(self):
        module, func = guarded_function(constant_id=True)
        vm = loaded(module)
        vm.instruction_limit = 4
        assert vm.run_function(func, [5, 7]) == 8
        assert vm.cost == 2 * INST_COST[BinOp] + GUARD_COST + INST_COST[Ret]

    def test_trap_after_guard_in_same_segment(self):
        """A trap after the guard refunds only what follows it."""
        module = Module("m")
        guard = module.declare_function(COV_GUARD, FunctionType(VOID, [I32]))
        func = module.add_function("f", FunctionType(I32, [I32]))
        func.ensure_args(["x"])
        b = IRBuilder(func.append_block("entry"))
        b.call(guard, [b.i32(7)])
        quotient = b.sdiv(b.i32(1), func.args[0])
        b.ret(b.add(quotient, b.i32(1)))
        vm = loaded(module, opcode_counts={})
        with pytest.raises(VMTrap) as info:
            vm.run_function(func, [0])
        assert info.value.kind is TrapKind.DIV_BY_ZERO
        assert vm.instructions_executed == 2
        assert vm.cost == GUARD_COST + INST_COST[BinOp]
        assert vm.opcode_counts == {"Call": 1, "BinOp": 1}
        assert vm.coverage_map.hits == [7]

    @pytest.mark.parametrize("trace", [False, True])
    def test_inline_guard_matches_native_path(self, trace):
        """A constant-id guard leaves the VM exactly as the native call
        (``VM.cov_guard``) does: map, hit list, prev_loc, edge trace,
        cost, counters and the ``__cov_guard`` libc count."""
        results = []
        for constant_id in (True, False):
            module, func = guarded_function(constant_id)
            vm = loaded(module, opcode_counts={}, libc_counts={})
            vm.trace_edges = trace
            vm.prev_loc = 0x1234
            for x in range(3):
                assert vm.run_function(func, [x, 7]) == x + 3
            results.append(state(vm))
        inline, native = results
        assert inline == native
        assert inline[-1] == {COV_GUARD: 3}
        assert bool(inline[3]) is trace

    def test_instrumented_target_traces_edges(self):
        """On a CoveragePass build, every guard lands in edge_trace, and
        the count and map agree with the trace."""
        module = compile_c(
            "int main(int argc, char **argv) {"
            " int s = 0; for (int i = 0; i < argc; i++) { s += i; } return s; }",
            "t")
        CoveragePass(seed=3).run(module)
        vm = loaded(module, libc_counts={})
        vm.trace_edges = True
        argc, argv = vm.setup_argv(["t", "a", "b"])
        assert vm.run_function(module.get_function("main"), [argc, argv]) == 3
        guards = vm.libc_counts[COV_GUARD]
        assert guards == len(vm.edge_trace) > 3
        assert {name for name, _ in vm.edge_trace} == {"main"}
        assert sorted(set(index for _, index in vm.edge_trace)) == sorted(vm.coverage_map.hits)
        assert sum(vm.coverage_map) == guards


class TestStackFrames:
    def test_use_after_return_traps_with_alloca_tag(self):
        module = compile_c(
            "int *leak() { int x = 5; return &x; }"
            "int main(int argc, char **argv) { int *p = leak(); return *p; }",
            "t")
        vm = loaded(module)
        with pytest.raises(VMTrap) as info:
            vm.run_function(module.get_function("main"), [1, 0])
        assert info.value.kind is TrapKind.USE_AFTER_FREE
        tag = next(r.tag for r in vm.memory._dead.values() if r.tag.startswith("leak."))
        assert f"inside freed stack region {tag!r}" in info.value.message

    @pytest.mark.parametrize("index_expr", ["i", "4"])
    def test_gep_overrun_traps_in_red_zone(self, index_expr):
        module = compile_c(
            f"int over(int i) {{ int a[4]; a[{index_expr}] = 1; return a[0]; }}", "t")
        vm = loaded(module)
        with pytest.raises(VMTrap) as info:
            vm.run_function(module.get_function("over"), [4])
        region = next(r for r in vm.memory._dead.values() if r.tag.startswith("over.a"))
        assert info.value.kind is TrapKind.INVALID_WRITE
        assert info.value.message == (
            f"write of 4 bytes at 0x{region.base + 16:x} overruns stack region "
            f"{region.tag!r} (0x{region.base:x}+16)")

    def test_zero_count_alloca_access_is_checked(self):
        """An access that does not fit its alloca takes the checked path."""
        module = Module("m")
        func = module.add_function("f", FunctionType(I32, []))
        b = IRBuilder(func.append_block("entry"))
        slot = b.alloca(I32, 0, "empty")
        b.ret(b.load(slot))
        vm = loaded(module)
        with pytest.raises(VMTrap) as info:
            vm.run_function(func, [])
        assert info.value.kind is TrapKind.INVALID_READ
        assert info.value.message == (
            f"read of 4 bytes at 0x{vm.memory.stack_segment.base:x} overruns stack "
            f"region 'f.{slot.name}' (0x{vm.memory.stack_segment.base:x}+0)")

    def test_frames_pop_and_stack_rewinds(self):
        module = compile_c(
            "int leaf(int v) { int a[3]; a[1] = v; return a[1]; }"
            "int mid(int v) { int b = leaf(v); int c[2]; c[0] = b; return c[0] + leaf(b); }"
            "int main(int argc, char **argv) { return mid(argc); }", "t")
        vm = loaded(module)
        assert vm.run_function(module.get_function("main"), [3, 0]) == 6
        assert vm.stack_region_count() == 0
        assert vm.memory.live_regions("stack") == []
        vm.reset_stack_addresses()
        assert vm.memory.stack_segment.cursor == vm.memory.stack_segment.base


def twin_spaces(count: int, dead_before: int = 0) -> tuple[AddressSpace, AddressSpace, list, list]:
    """Two identical address spaces with *count* stack regions mapped,
    after *dead_before* freed heap regions."""
    spaces, frames = [], []
    for _ in range(2):
        space = AddressSpace()
        space.map_region(space.global_segment, 8, True, "global", "g")
        for i in range(dead_before):
            space.unmap(space.map_region(space.heap_segment, 8, True, "heap", f"h{i}"))
        frames.append([space.map_region(space.stack_segment, 4 + i % 3, True, "stack", f"f.s{i}")
                       for i in range(count)])
        spaces.append(space)
    return spaces[0], spaces[1], frames[0], frames[1]


def space_state(space: AddressSpace) -> tuple:
    return (list(space._bases), sorted(space._regions),
            [(base, r.tag, r.alive) for base, r in space._dead.items()])


class TestFramePop:
    @pytest.mark.parametrize("count, dead_before", [
        (1, 0), (5, 0), (5, 254), (300, 0), (40, 250)])
    def test_matches_sequential_unmap(self, count, dead_before):
        fast, reference, frame, ref_frame = twin_spaces(count, dead_before)
        fast.pop_frame([region.base for region in frame])
        for region in ref_frame:
            reference.unmap(region)
        assert space_state(fast) == space_state(reference)
        assert not any(region.alive for region in frame)

    def test_outer_frame_survives(self):
        fast, reference, frame, ref_frame = twin_spaces(6)
        fast.pop_frame([region.base for region in frame[3:]])
        for region in ref_frame[3:]:
            reference.unmap(region)
        assert space_state(fast) == space_state(reference)
        assert fast.stack_region_count() == 3

    def test_not_the_tail_falls_back(self):
        fast, reference, frame, ref_frame = twin_spaces(4)
        for space in (fast, reference):
            space.map_region(space.stack_segment, 8, True, "stack", "above")
        fast.unmap(frame[1])
        reference.unmap(ref_frame[1])
        fast.pop_frame([region.base for region in frame])
        for region in ref_frame:
            if region.alive:
                reference.unmap(region)
        assert space_state(fast) == space_state(reference)
        assert fast.stack_region_count() == 1

    def test_map_region_below_a_higher_region_stays_sorted(self):
        space = AddressSpace()
        stack = space.stack_segment
        stack.cursor = stack.base + 0x1000
        high = space.map_region(stack, 8, True, "stack", "high")
        stack.cursor = stack.base
        low = space.map_region(stack, 8, True, "stack", "low")
        assert space._bases == [low.base, high.base]
        assert space.find_region(low.base) is low

    def test_stack_region_count(self):
        space = AddressSpace()
        space.map_region(space.heap_segment, 8, True, "heap", "h")
        stack = space.stack_segment
        regions = [space.map_region(stack, 8, True, "stack", f"s{i}") for i in range(3)]
        assert space.stack_region_count() == 3 == len(space.live_regions("stack"))
        space.pop_frame([region.base for region in regions[1:]])
        assert space.stack_region_count() == 1 == len(space.live_regions("stack"))


# -- compiled loads/stores vs AddressSpace.check + read / write -------------

WIDTH_TYPES = [int_type(8), int_type(16), I32, I64, ArrayType(I8, 3)]


def access_module() -> Module:
    """``ld_K(addr)`` loads and ``st_K(addr, v)`` stores one value of
    type K through an integer address (one pair per width).  ``v`` is
    stored as the caller passed it, so a negative one reaches the store
    unmasked."""
    module = Module("m")
    for index, value_type in enumerate(WIDTH_TYPES):
        load = module.add_function(f"ld_{index}", FunctionType(value_type, [I64]))
        load.ensure_args(["addr"])
        b = IRBuilder(load.append_block("entry"))
        b.ret(b.load(b.inttoptr(load.args[0], pointer_type(value_type))))
        store = module.add_function(f"st_{index}", FunctionType(VOID, [I64, value_type]))
        store.ensure_args(["addr", "v"])
        b = IRBuilder(store.append_block("entry"))
        b.store(store.args[1], b.inttoptr(store.args[0], pointer_type(value_type)))
        b.ret()
    return module


def mapped_vm(module: Module) -> VM:
    vm = loaded(module)
    memory = vm.memory
    memory.map_region(memory.heap_segment, 10, True, "heap", "h10")
    memory.unmap(memory.map_region(memory.heap_segment, 12, True, "heap", "dead"))
    memory.map_region(memory.heap_segment, 0, True, "heap", "empty")
    memory.map_region(memory.heap_segment, 8, True, "heap", "h8")
    memory.map_region(memory.global_segment, 9, False, "global", "ro")
    for region in memory._regions.values():
        region.data[:] = bytes(range(17, 17 + region.size))
    return vm


def probe_addresses(vm: VM, width: int) -> list[int]:
    regions = list(vm.memory._regions.values()) + list(vm.memory._dead.values())
    addresses = {0, 1, 4095}
    for region in regions:
        for edge in (region.base, region.base + region.size,
                     region.base + region.size + RED_ZONE):
            for delta in range(-width - 1, width + 2):
                addresses.add(edge + delta)
    return sorted(a for a in addresses if a >= 0)


def outcome(call):
    try:
        return ("ok", call())
    except VMTrap as trap:
        return ("trap", trap.kind, trap.message)


def memory_image(vm: VM) -> tuple:
    return (vm.memory.bytes_written,
            [(r.base, bytes(r.data)) for r in vm.memory._regions.values()])


class TestCompiledAccess:
    @pytest.mark.parametrize("index", range(len(WIDTH_TYPES)))
    def test_load_matches_checked_read(self, index):
        module = access_module()
        vm, reference = mapped_vm(module), mapped_vm(module)
        size = WIDTH_TYPES[index].size()
        load = module.get_function(f"ld_{index}")
        for address in probe_addresses(vm, size):
            got = outcome(lambda: vm.run_function(load, [address]))
            want = outcome(lambda: int.from_bytes(
                reference.memory.read(address, size, reference.site), "little"))
            assert got == want, hex(address)
            assert outcome(lambda: reference.memory.read_int(
                address, size, reference.site)) == want, hex(address)

    @pytest.mark.parametrize("index", range(len(WIDTH_TYPES)))
    @pytest.mark.parametrize("value", [0x1122334455667788, -2, (1 << 64) - 3])
    def test_store_matches_checked_write(self, index, value):
        module = access_module()
        vm, reference = mapped_vm(module), mapped_vm(module)
        size = WIDTH_TYPES[index].size()
        mask = (1 << (size * 8)) - 1
        store = module.get_function(f"st_{index}")
        for address in probe_addresses(vm, size):
            got = outcome(lambda: vm.run_function(store, [address, value]))
            want = outcome(lambda: reference.memory.write(
                address, (value & mask).to_bytes(size, "little"), reference.site))
            assert got == want, hex(address)
            assert memory_image(vm) == memory_image(reference), hex(address)

    def test_negative_value_store_through_alloca(self):
        """The frame-slot store masks like the checked store does."""
        module = Module("m")
        func = module.add_function("f", FunctionType(I32, [int_type(16)]))
        func.ensure_args(["x"])
        b = IRBuilder(func.append_block("entry"))
        slot = b.alloca(int_type(16), 2, "pair")
        b.store(func.args[0], slot)
        b.ret(b.zext(b.load(slot), I32))
        vm = loaded(module)
        written = vm.memory.bytes_written
        assert vm.run_function(func, [-2]) == 0xFFFE
        assert vm.memory.bytes_written == written + 2
