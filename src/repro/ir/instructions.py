"""Instruction set of MiniIR.

The instruction set is deliberately close to the subset of LLVM IR that
clang emits at ``-O0`` for C programs: arithmetic/bitwise binary ops,
integer comparisons, stack allocation, typed loads/stores,
``getelementptr`` address computation, calls, casts, and structured
control flow (``br``, conditional ``br``, ``switch``, ``ret``).  Phi
nodes exist for completeness but front-ends may use alloca/load/store
form instead, exactly as unoptimised clang output does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.ir.types import (
    ArrayType,
    IntType,
    PointerType,
    StructType,
    Type,
    VoidType,
    int_type,
    pointer_type,
)
from repro.ir.values import ConstantInt, User, Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.module import BasicBlock, Function


BINARY_OPS = frozenset(
    {
        "add",
        "sub",
        "mul",
        "sdiv",
        "udiv",
        "srem",
        "urem",
        "and",
        "or",
        "xor",
        "shl",
        "lshr",
        "ashr",
    }
)

ICMP_PREDICATES = frozenset(
    {"eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"}
)

CAST_OPS = frozenset({"trunc", "zext", "sext", "bitcast", "ptrtoint", "inttoptr"})


class Instruction(User):
    """Base class for all instructions.

    ``parent`` is the containing basic block, set on insertion.  The
    subset of instructions that end a block report ``is_terminator``.
    """

    opcode = "<abstract>"
    is_terminator = False

    def __init__(self, type_: Type, name: str = ""):
        super().__init__(type_, name)
        self.parent: "BasicBlock | None" = None

    @property
    def function(self) -> "Function | None":
        return self.parent.parent if self.parent is not None else None

    def _touch_code(self) -> None:
        block = self.parent
        if block is not None and block.parent is not None:
            block.parent.invalidate_code()

    def set_name(self, name: str) -> None:
        super().set_name(name)
        self._touch_code()

    def erase_from_parent(self) -> None:
        """Remove this instruction from its block and drop its operands."""
        if self.parent is None:
            raise ValueError("instruction has no parent block")
        self.parent.remove_instruction(self)
        self.drop_all_operands()

    def operand_refs(self) -> str:
        return ", ".join(op.ref() for op in self.operands)

    def __str__(self) -> str:
        if isinstance(self.type, VoidType):
            return f"{self.opcode} {self.operand_refs()}"
        return f"{self.ref()} = {self.opcode} {self.type} {self.operand_refs()}"


class BinOp(Instruction):
    """Two-operand arithmetic or bitwise instruction."""

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = ""):
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {op!r}")
        if lhs.type != rhs.type or not isinstance(lhs.type, IntType):
            raise TypeError(f"binop operands must share an integer type: {lhs.type} vs {rhs.type}")
        super().__init__(lhs.type, name)
        self.op = op
        self.add_operand(lhs)
        self.add_operand(rhs)

    opcode = "binop"

    @property
    def lhs(self) -> Value:
        return self.get_operand(0)

    @property
    def rhs(self) -> Value:
        return self.get_operand(1)

    def __str__(self) -> str:
        return f"{self.ref()} = {self.op} {self.type} {self.lhs.ref()}, {self.rhs.ref()}"


class ICmp(Instruction):
    """Integer / pointer comparison producing an ``i1``."""

    opcode = "icmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate {predicate!r}")
        if lhs.type != rhs.type:
            raise TypeError(f"icmp operands must share a type: {lhs.type} vs {rhs.type}")
        super().__init__(int_type(1), name)
        self.predicate = predicate
        self.add_operand(lhs)
        self.add_operand(rhs)

    @property
    def lhs(self) -> Value:
        return self.get_operand(0)

    @property
    def rhs(self) -> Value:
        return self.get_operand(1)

    def __str__(self) -> str:
        return (
            f"{self.ref()} = icmp {self.predicate} {self.lhs.type} "
            f"{self.lhs.ref()}, {self.rhs.ref()}"
        )


class Alloca(Instruction):
    """Reserve stack storage in the current frame; yields a pointer."""

    opcode = "alloca"

    def __init__(self, allocated_type: Type, count: int = 1, name: str = ""):
        super().__init__(pointer_type(allocated_type), name)
        self.allocated_type = allocated_type
        self.count = count

    def allocation_size(self) -> int:
        return self.allocated_type.size() * self.count

    def __str__(self) -> str:
        suffix = f", {self.count}" if self.count != 1 else ""
        return f"{self.ref()} = alloca {self.allocated_type}{suffix}"


class Load(Instruction):
    """Load a value of the pointee type from a pointer."""

    opcode = "load"

    def __init__(self, ptr: Value, name: str = ""):
        if not isinstance(ptr.type, PointerType):
            raise TypeError(f"load requires a pointer operand, got {ptr.type}")
        super().__init__(ptr.type.pointee, name)
        self.add_operand(ptr)

    @property
    def ptr(self) -> Value:
        return self.get_operand(0)

    def __str__(self) -> str:
        return f"{self.ref()} = load {self.type}, {self.ptr.type} {self.ptr.ref()}"


class Store(Instruction):
    """Store a value through a pointer.  Produces no result."""

    opcode = "store"

    def __init__(self, value: Value, ptr: Value):
        if not isinstance(ptr.type, PointerType):
            raise TypeError(f"store requires a pointer destination, got {ptr.type}")
        if ptr.type.pointee != value.type:
            raise TypeError(f"store type mismatch: {value.type} into {ptr.type}")
        super().__init__(VoidType())
        self.add_operand(value)
        self.add_operand(ptr)

    @property
    def value(self) -> Value:
        return self.get_operand(0)

    @property
    def ptr(self) -> Value:
        return self.get_operand(1)

    def __str__(self) -> str:
        return f"store {self.value.type} {self.value.ref()}, {self.ptr.type} {self.ptr.ref()}"


class GetElementPtr(Instruction):
    """Address arithmetic over typed memory, following LLVM GEP rules.

    The first index scales by the size of the pointee; each subsequent
    index steps into an aggregate (array element or struct field).  The
    result type is a pointer to the final navigated type.  Struct
    indices must be integer constants, as in LLVM.
    """

    opcode = "getelementptr"

    def __init__(self, base: Value, indices: Sequence[Value], name: str = ""):
        if not isinstance(base.type, PointerType):
            raise TypeError(f"GEP base must be a pointer, got {base.type}")
        if not indices:
            raise ValueError("GEP requires at least one index")
        result_pointee = self._navigate(base.type.pointee, indices)
        super().__init__(pointer_type(result_pointee), name)
        self.add_operand(base)
        for index in indices:
            if not isinstance(index.type, IntType):
                raise TypeError(f"GEP index must be an integer, got {index.type}")
            self.add_operand(index)

    @staticmethod
    def _navigate(pointee: Type, indices: Sequence[Value]) -> Type:
        current = pointee
        for index in indices[1:]:
            if isinstance(current, ArrayType):
                current = current.element
            elif isinstance(current, StructType):
                if not isinstance(index, ConstantInt):
                    raise TypeError("struct GEP index must be a constant int")
                current = current.field_type(index.value)
            else:
                raise TypeError(f"cannot index into non-aggregate type {current}")
        return current

    @property
    def base(self) -> Value:
        return self.get_operand(0)

    @property
    def indices(self) -> tuple[Value, ...]:
        return self.operands[1:]

    def __str__(self) -> str:
        idx = ", ".join(f"{i.type} {i.ref()}" for i in self.indices)
        base_ty = self.base.type
        assert isinstance(base_ty, PointerType)
        return (
            f"{self.ref()} = getelementptr {base_ty.pointee}, "
            f"{base_ty} {self.base.ref()}, {idx}"
        )


class Call(Instruction):
    """Call a function (direct symbol reference) with argument values.

    The callee is an operand, so passes can retarget calls with
    ``replace_all_uses_with`` on the callee symbol — the mechanism
    ClosureX's Heap/File/Exit passes rely on.
    """

    opcode = "call"

    def __init__(self, callee: Value, args: Sequence[Value], name: str = ""):
        from repro.ir.module import Function  # local import to avoid cycle

        if not isinstance(callee, Function):
            raise TypeError("call currently supports direct callees only")
        ftype = callee.function_type
        if not ftype.vararg and len(args) != len(ftype.params):
            raise TypeError(
                f"call to @{callee.name} expects {len(ftype.params)} args, got {len(args)}"
            )
        for i, (arg, pty) in enumerate(zip(args, ftype.params)):
            if arg.type != pty:
                raise TypeError(
                    f"call to @{callee.name}: arg {i} has type {arg.type}, expected {pty}"
                )
        super().__init__(ftype.return_type, name)
        self.add_operand(callee)
        for arg in args:
            self.add_operand(arg)

    @property
    def callee(self) -> Value:
        return self.get_operand(0)

    @property
    def args(self) -> tuple[Value, ...]:
        return self.operands[1:]

    def __str__(self) -> str:
        arglist = ", ".join(f"{a.type} {a.ref()}" for a in self.args)
        if isinstance(self.type, VoidType):
            return f"call void {self.callee.ref()}({arglist})"
        return f"{self.ref()} = call {self.type} {self.callee.ref()}({arglist})"


class Cast(Instruction):
    """Width and representation changes between integer/pointer types."""

    opcode = "cast"

    def __init__(self, op: str, value: Value, to_type: Type, name: str = ""):
        if op not in CAST_OPS:
            raise ValueError(f"unknown cast op {op!r}")
        self._check(op, value.type, to_type)
        super().__init__(to_type, name)
        self.op = op
        self.add_operand(value)

    @staticmethod
    def _check(op: str, from_type: Type, to_type: Type) -> None:
        if op in ("trunc", "zext", "sext"):
            if not isinstance(from_type, IntType) or not isinstance(to_type, IntType):
                raise TypeError(f"{op} requires integer types")
            if op == "trunc" and from_type.bits <= to_type.bits:
                raise TypeError("trunc must narrow")
            if op in ("zext", "sext") and from_type.bits >= to_type.bits:
                raise TypeError(f"{op} must widen")
        elif op == "bitcast":
            if not isinstance(from_type, PointerType) or not isinstance(to_type, PointerType):
                raise TypeError("bitcast supports pointer-to-pointer only")
        elif op == "ptrtoint":
            if not isinstance(from_type, PointerType) or not isinstance(to_type, IntType):
                raise TypeError("ptrtoint requires pointer -> integer")
        elif op == "inttoptr":
            if not isinstance(from_type, IntType) or not isinstance(to_type, PointerType):
                raise TypeError("inttoptr requires integer -> pointer")

    @property
    def value(self) -> Value:
        return self.get_operand(0)

    def __str__(self) -> str:
        return (
            f"{self.ref()} = {self.op} {self.value.type} {self.value.ref()} to {self.type}"
        )


class Select(Instruction):
    """``select i1 %c, T %a, T %b`` — branchless conditional value."""

    opcode = "select"

    def __init__(self, cond: Value, if_true: Value, if_false: Value, name: str = ""):
        if cond.type != int_type(1):
            raise TypeError("select condition must be i1")
        if if_true.type != if_false.type:
            raise TypeError("select arms must share a type")
        super().__init__(if_true.type, name)
        self.add_operand(cond)
        self.add_operand(if_true)
        self.add_operand(if_false)

    @property
    def cond(self) -> Value:
        return self.get_operand(0)

    @property
    def if_true(self) -> Value:
        return self.get_operand(1)

    @property
    def if_false(self) -> Value:
        return self.get_operand(2)

    def __str__(self) -> str:
        return (
            f"{self.ref()} = select i1 {self.cond.ref()}, {self.type} "
            f"{self.if_true.ref()}, {self.type} {self.if_false.ref()}"
        )


class Phi(Instruction):
    """SSA phi node.  Incoming blocks are recorded alongside operands."""

    opcode = "phi"

    def __init__(self, type_: Type, name: str = ""):
        super().__init__(type_, name)
        self.incoming_blocks: list["BasicBlock"] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type != self.type:
            raise TypeError(f"phi incoming type {value.type} != {self.type}")
        self.add_operand(value)
        self.incoming_blocks.append(block)

    def remove_incoming(self, block: "BasicBlock") -> int:
        """Drop every incoming arm for *block*; returns arms removed.

        Used by CFG-mutating transforms after deleting an edge or an
        entire predecessor block, so the verifier's phi/predecessor
        agreement check keeps holding.
        """
        removed = 0
        for i in range(len(self.incoming_blocks) - 1, -1, -1):
            if self.incoming_blocks[i] is block:
                self.remove_operand(i)
                self.incoming_blocks.pop(i)
                removed += 1
        return removed

    def incoming(self) -> list[tuple[Value, "BasicBlock"]]:
        return list(zip(self.operands, self.incoming_blocks))

    def value_for_block(self, block: "BasicBlock") -> Value:
        for value, pred in self.incoming():
            if pred is block:
                return value
        raise KeyError(f"phi has no incoming value for block {block.name}")

    def __str__(self) -> str:
        arms = ", ".join(f"[ {v.ref()}, %{b.name} ]" for v, b in self.incoming())
        return f"{self.ref()} = phi {self.type} {arms}"


class Br(Instruction):
    """Unconditional branch.

    ``target`` is a property whose setter bumps the parent function's
    ``cfg_epoch``: retargeting a branch in place is a CFG mutation the
    block-level hooks cannot see, and a stale dominator tree after such
    an edit would silently miscompile the optimizer's next query.
    """

    opcode = "br"
    is_terminator = True

    def __init__(self, target: "BasicBlock"):
        super().__init__(VoidType())
        self._target = target

    @property
    def target(self) -> "BasicBlock":
        return self._target

    @target.setter
    def target(self, block: "BasicBlock") -> None:
        self._target = block
        if self.parent is not None:
            self.parent._touch_cfg()

    def successors(self) -> list["BasicBlock"]:
        return [self._target]

    def __str__(self) -> str:
        return f"br label %{self.target.name}"


class CondBr(Instruction):
    """Two-way conditional branch on an ``i1``.

    Like :class:`Br`, the target attributes are epoch-bumping
    properties so in-place retargeting invalidates cached CFG facts.
    """

    opcode = "condbr"
    is_terminator = True

    def __init__(self, cond: Value, if_true: "BasicBlock", if_false: "BasicBlock"):
        if cond.type != int_type(1):
            raise TypeError("conditional branch requires an i1 condition")
        super().__init__(VoidType())
        self.add_operand(cond)
        self._if_true = if_true
        self._if_false = if_false

    @property
    def cond(self) -> Value:
        return self.get_operand(0)

    @property
    def if_true(self) -> "BasicBlock":
        return self._if_true

    @if_true.setter
    def if_true(self, block: "BasicBlock") -> None:
        self._if_true = block
        if self.parent is not None:
            self.parent._touch_cfg()

    @property
    def if_false(self) -> "BasicBlock":
        return self._if_false

    @if_false.setter
    def if_false(self, block: "BasicBlock") -> None:
        self._if_false = block
        if self.parent is not None:
            self.parent._touch_cfg()

    def successors(self) -> list["BasicBlock"]:
        return [self._if_true, self._if_false]

    def __str__(self) -> str:
        return (
            f"br i1 {self.cond.ref()}, label %{self.if_true.name}, "
            f"label %{self.if_false.name}"
        )


class Switch(Instruction):
    """Multi-way branch on an integer value."""

    opcode = "switch"
    is_terminator = True

    def __init__(self, value: Value, default: "BasicBlock"):
        if not isinstance(value.type, IntType):
            raise TypeError("switch requires an integer operand")
        super().__init__(VoidType())
        self.add_operand(value)
        self._default = default
        self.cases: list[tuple[int, "BasicBlock"]] = []

    @property
    def value(self) -> Value:
        return self.get_operand(0)

    @property
    def default(self) -> "BasicBlock":
        return self._default

    @default.setter
    def default(self, block: "BasicBlock") -> None:
        self._default = block
        if self.parent is not None:
            self.parent._touch_cfg()

    def add_case(self, const: int, block: "BasicBlock") -> None:
        assert isinstance(self.value.type, IntType)
        self.cases.append((self.value.type.wrap(const), block))
        self._touch_code()

    def retarget_successor(self, old: "BasicBlock", new: "BasicBlock") -> int:
        """Rewrite every edge to *old* (default or case) to point at
        *new*; returns edges rewritten.  Bumps the CFG epoch."""
        rewritten = 0
        if self._default is old:
            self._default = new
            rewritten += 1
        for i, (const, block) in enumerate(self.cases):
            if block is old:
                self.cases[i] = (const, new)
                rewritten += 1
        if rewritten and self.parent is not None:
            self.parent._touch_cfg()
        return rewritten

    def successors(self) -> list["BasicBlock"]:
        return [self._default] + [b for _, b in self.cases]

    def __str__(self) -> str:
        body = " ".join(
            f"{self.value.type} {c}, label %{b.name}" for c, b in self.cases
        )
        return (
            f"switch {self.value.type} {self.value.ref()}, "
            f"label %{self.default.name} [ {body} ]"
        )


class Ret(Instruction):
    """Return from the current function, optionally with a value."""

    opcode = "ret"
    is_terminator = True

    def __init__(self, value: Value | None = None):
        super().__init__(VoidType())
        if value is not None:
            self.add_operand(value)

    @property
    def value(self) -> Value | None:
        return self.get_operand(0) if self.num_operands else None

    def successors(self) -> list["BasicBlock"]:
        return []

    def __str__(self) -> str:
        if self.value is None:
            return "ret void"
        return f"ret {self.value.type} {self.value.ref()}"


class Unreachable(Instruction):
    """Marks a point control flow must never reach (traps in the VM)."""

    opcode = "unreachable"
    is_terminator = True

    def __init__(self) -> None:
        super().__init__(VoidType())

    def successors(self) -> list["BasicBlock"]:
        return []

    def __str__(self) -> str:
        return "unreachable"
