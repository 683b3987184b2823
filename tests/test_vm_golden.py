"""Golden VM observations: the execution engine must reproduce them exactly.

Every observable the rest of the system builds on — exit disposition,
return code, trap identity and message, virtual cost, instruction
count, coverage map, output, per-opcode / per-libc-call profile, and
the input-to-state compare records — is pinned for every target's
seeds, its crafted crash inputs and a few fixed mutants, under both
ClosureX and the forkserver.  Hand-written cases pin the counter
exactness rules of the compiled engine: a trap in the middle of a
straight-line segment refunds the instructions after it, an
instruction limit crossed mid-segment stops exactly where the
per-instruction check would, and a non-dominated SSA use still traps
as an undefined value.

The fixture lives in ``tests/golden/vm_observations.json``.  Regenerate
it (only for an intended semantic change) with::

    PYTHONPATH=src python -m tests.test_vm_golden --record
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import sys

import pytest

from repro.execution import ClosureXExecutor, ForkServerExecutor
from repro.fuzzing.i2s import CmpObserver
from repro.ir import FunctionType, I32, IRBuilder, Module
from repro.minic import compile_c
from repro.sim_os import Kernel
from repro.targets import get_target, target_names
from repro.telemetry.config import TelemetryConfig, build_telemetry
from repro.vm import VM, ExecutionLimitExceeded, VMTrap
from repro.vm import interpreter
from tests.helpers import all_crash_inputs

FIXTURE = os.path.join(os.path.dirname(__file__), "golden", "vm_observations.json")
MECHANISMS = ("closurex", "forkserver")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _trap(trap: VMTrap | None):
    if trap is None:
        return None
    return [trap.kind.name, trap.site.function, trap.site.block, trap.message]


def _delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {k: v - before.get(k, 0) for k, v in sorted(after.items())
            if v != before.get(k, 0)}


def target_inputs(name: str) -> list[bytes]:
    """Seeds, crafted crash inputs, then four fixed byte-flip mutants."""
    spec = get_target(name)
    inputs = list(spec.seeds) + list(all_crash_inputs().get(name, {}).values())
    rng = random.Random(f"vm-golden-{name}")
    for _ in range(4):
        base = bytearray(rng.choice(spec.seeds))
        for _ in range(rng.randrange(1, 6)):
            if base:
                base[rng.randrange(len(base))] = rng.randrange(256)
        inputs.append(bytes(base))
    return inputs


def observe_target(name: str, mechanism: str) -> list[dict]:
    """Run every input of *name* under *mechanism*; one record per exec."""
    # Boot times come from a process-wide sequence; restart it so the
    # records do not depend on which tests ran earlier.
    saved = interpreter._BOOT_SEQUENCE
    interpreter._BOOT_SEQUENCE = itertools.count(1_700_000_000)
    try:
        return _observe_target(name, mechanism)
    finally:
        interpreter._BOOT_SEQUENCE = saved


def _observe_target(name: str, mechanism: str) -> list[dict]:
    spec = get_target(name)
    kernel = Kernel()
    if mechanism == "closurex":
        executor = ClosureXExecutor(spec.build_closurex(), spec.image_bytes, kernel)
    else:
        executor = ForkServerExecutor(spec.build_baseline(), spec.image_bytes, kernel)
    executor.attach_telemetry(build_telemetry(
        TelemetryConfig(enabled=True, profile_vm=True), executor.clock))
    observer = CmpObserver() if mechanism == "closurex" else None
    if observer is not None:
        executor.attach_cmp_observer(observer)
    executor.boot()
    records = []
    for data in target_inputs(name):
        opcodes, libc = dict(executor.opcode_counts), dict(executor.libc_counts)
        vm = executor.harness.vm if mechanism == "closurex" else None
        if observer is not None:
            observer.begin()
        result = executor.run(data)
        compares = observer.take() if observer is not None else []
        if vm is None:
            vm = executor.last_vm
        records.append({
            "input": _sha(data)[:16],
            "status": result.status.name,
            "return_code": result.return_code,
            "trap": _trap(result.trap),
            "ns": result.ns,
            "instructions": result.instructions,
            "vm_cost": vm.cost,
            "vm_instructions": vm.instructions_executed,
            "coverage": _sha(bytes(result.coverage)),
            "output": _sha("\x00".join(vm.output).encode("latin-1", "replace")),
            "compares": _sha(repr(compares).encode()),
            "opcode_counts": _delta(executor.opcode_counts, opcodes),
            "libc_counts": _delta(executor.libc_counts, libc),
        })
    executor.shutdown()
    return records


# ---------------------------------------------------------------------------
# hand-written counter-exactness cases
# ---------------------------------------------------------------------------

MID_SEGMENT_TRAP = """
int main(int argc, char **argv) {
    int *p = 0;
    int a = argc + 1;
    int b = a * 3;
    int c = *p;
    int d = b - c;
    return a + d;
}
"""

SPIN = "int main(int argc, char **argv) { int s = 0; while (1) { s = s + argc * 3; argc++; } return s; }"


def _vm_state(vm: VM, opcodes: dict, libc: dict) -> dict:
    return {
        "cost": vm.cost,
        "instructions": vm.instructions_executed,
        "site": [vm.site.function, vm.site.block],
        "opcode_counts": dict(sorted(opcodes.items())),
        "libc_counts": dict(sorted(libc.items())),
    }


def _run_main(source: str, limit: int | None = None) -> dict:
    module = compile_c(source, "golden")
    opcodes: dict[str, int] = {}
    libc: dict[str, int] = {}
    vm = VM(module, opcode_counts=opcodes, libc_counts=libc)
    vm.load()
    if limit is not None:
        vm.instruction_limit = limit
    argc, argv = vm.setup_argv(["golden"])
    outcome: object
    try:
        outcome = ["return", vm.run_function(module.get_function("main"), [argc, argv])]
    except VMTrap as trap:
        outcome = ["trap"] + _trap(trap)
    except ExecutionLimitExceeded as exc:
        outcome = ["limit", exc.limit]
    return {"outcome": outcome, **_vm_state(vm, opcodes, libc)}


def _undefined_use_module() -> tuple[Module, object]:
    """A value defined on one arm only, then used after the merge —
    a non-dominated use, which must trap as an undefined value."""
    module = Module("undef")
    func = module.add_function("f", FunctionType(I32, [I32]))
    func.ensure_args(["x"])
    entry, left, right, merge = (func.append_block(n)
                                 for n in ("entry", "left", "right", "merge"))
    b = IRBuilder(entry)
    b.cond_br(b.icmp("ne", func.args[0], b.i32(0)), left, right)
    lb = IRBuilder(left)
    defined = lb.add(func.args[0], lb.i32(1))
    lb.br(merge)
    IRBuilder(right).br(merge)
    mb = IRBuilder(merge)
    mb.ret(mb.add(defined, mb.i32(1)))
    return module, func


def _run_undefined(arg: int) -> dict:
    module, func = _undefined_use_module()
    opcodes: dict[str, int] = {}
    vm = VM(module, opcode_counts=opcodes)
    vm.load()
    try:
        outcome = ["return", vm.run_function(func, [arg])]
    except VMTrap as trap:
        outcome = ["trap"] + _trap(trap)
    return {"outcome": outcome, **_vm_state(vm, opcodes, {})}


def observe_cases() -> dict[str, dict]:
    cases = {"mid_segment_trap": _run_main(MID_SEGMENT_TRAP)}
    for limit in range(5000, 5008):
        cases[f"limit_{limit}"] = _run_main(SPIN, limit)
    cases["undefined_use_taken"] = _run_undefined(1)
    cases["undefined_use_trap"] = _run_undefined(0)
    return cases


def record() -> dict:
    return {
        "targets": {f"{name}/{mech}": observe_target(name, mech)
                    for name in sorted(target_names()) for mech in MECHANISMS},
        "cases": observe_cases(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("name", sorted(target_names()))
def test_target_observations_match_golden(golden, name, mechanism):
    expected = golden["targets"][f"{name}/{mechanism}"]
    actual = observe_target(name, mechanism)
    assert len(actual) == len(expected)
    for index, (want, got) in enumerate(zip(expected, actual)):
        assert got == want, f"{name}/{mechanism} input #{index}"


def test_counter_exactness_cases_match_golden(golden):
    actual = observe_cases()
    assert actual.keys() == golden["cases"].keys()
    for key, want in golden["cases"].items():
        assert actual[key] == want, key


def test_fixture_exercises_mid_segment_stops(golden):
    """The hand-written cases really stop inside straight-line code."""
    cases = golden["cases"]
    assert cases["mid_segment_trap"]["outcome"][1] == "NULL_DEREF"
    assert {c["outcome"][0] for k, c in cases.items() if k.startswith("limit_")} == {"limit"}
    assert cases["undefined_use_trap"]["outcome"][4].startswith("use of undefined value")
    statuses = {r["status"] for records in golden["targets"].values() for r in records}
    assert {"OK", "CRASH"} <= statuses


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_vm_golden --record")
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE}")
