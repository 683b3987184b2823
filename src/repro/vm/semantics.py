"""Integer semantics of MiniIR: the one definition the VM and SCCP share.

Values are Python ints in unsigned representation; signed meaning is
applied per operation, as in LLVM.  Each factory returns a plain
function of ints specialised for one opcode and bit width, with masks
and sign thresholds precomputed.  The VM's compiled engine binds these
functions into its per-instruction closures, and the optimizer's
constant folder (:func:`fold_binop`, :func:`fold_icmp`,
:func:`fold_cast`) calls the same functions, so an optimized module
cannot compute a value the VM would not.

Division and remainder by zero are a trap in the VM, never a value:
:func:`binop` functions for those opcodes expect a non-zero divisor
(:data:`DIVISIONS` names them), and :func:`fold_binop` refuses to fold
a zero divisor so the trap still fires at run time.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

#: Opcodes whose divisor must be checked for zero before evaluation.
DIVISIONS = frozenset({"sdiv", "udiv", "srem", "urem"})
#: Predicates that compare integer operands as signed values.
SIGNED_PREDICATES = frozenset({"slt", "sle", "sgt", "sge"})

IntFn = Callable[[int], int]
BinFn = Callable[[int, int], int]


@lru_cache(maxsize=None)
def to_signed(bits: int) -> IntFn:
    """Reinterpret an unsigned *bits*-wide value as signed (i1 stays 0/1)."""
    mask = (1 << bits) - 1
    if bits == 1:
        return lambda value: value & mask
    half = 1 << (bits - 1)
    full = 1 << bits

    def signed(value: int) -> int:
        value &= mask
        return value - full if value >= half else value
    return signed


@lru_cache(maxsize=None)
def binop(op: str, bits: int) -> BinFn:
    """``op`` on two *bits*-wide operands (divisor non-zero for DIVISIONS)."""
    mask = (1 << bits) - 1
    if op == "add":
        return lambda a, b: (a + b) & mask
    if op == "sub":
        return lambda a, b: (a - b) & mask
    if op == "mul":
        return lambda a, b: (a * b) & mask
    if op == "and":
        return lambda a, b: a & b
    if op == "or":
        return lambda a, b: a | b
    if op == "xor":
        return lambda a, b: a ^ b
    if op == "shl":
        return lambda a, b: ((a << b) & mask) if b < bits else 0
    if op == "lshr":
        return lambda a, b: (a >> b) if b < bits else 0
    if op == "udiv":
        return lambda a, b: a // b
    if op == "urem":
        return lambda a, b: a % b
    signed = to_signed(bits)
    if op == "ashr":
        top = bits - 1
        return lambda a, b: (signed(a) >> min(b, top)) & mask
    if op == "sdiv":
        def sdiv(a: int, b: int) -> int:
            a, b = signed(a), signed(b)
            quotient = abs(a) // abs(b)
            return (quotient if (a < 0) == (b < 0) else -quotient) & mask
        return sdiv
    if op == "srem":
        def srem(a: int, b: int) -> int:
            a, b = signed(a), signed(b)
            remainder = abs(a) % abs(b)
            return (remainder if a >= 0 else -remainder) & mask
        return srem
    raise ValueError(f"unknown binary op {op!r}")


@lru_cache(maxsize=None)
def icmp(predicate: str, bits: int | None) -> BinFn:
    """``icmp predicate`` as 0/1; *bits* is ``None`` for pointer operands,
    which always compare unsigned."""
    if predicate == "eq":
        return lambda a, b: 1 if a == b else 0
    if predicate == "ne":
        return lambda a, b: 1 if a != b else 0
    if predicate in SIGNED_PREDICATES and bits is not None:
        s = to_signed(bits)
        if predicate == "slt":
            return lambda a, b: 1 if s(a) < s(b) else 0
        if predicate == "sle":
            return lambda a, b: 1 if s(a) <= s(b) else 0
        if predicate == "sgt":
            return lambda a, b: 1 if s(a) > s(b) else 0
        return lambda a, b: 1 if s(a) >= s(b) else 0
    if predicate in ("slt", "ult"):
        return lambda a, b: 1 if a < b else 0
    if predicate in ("sle", "ule"):
        return lambda a, b: 1 if a <= b else 0
    if predicate in ("sgt", "ugt"):
        return lambda a, b: 1 if a > b else 0
    if predicate in ("sge", "uge"):
        return lambda a, b: 1 if a >= b else 0
    raise ValueError(f"unknown icmp predicate {predicate!r}")


@lru_cache(maxsize=None)
def cast(op: str, from_bits: int | None, to_bits: int | None) -> IntFn | None:
    """``op`` from a *from_bits*-wide value to a *to_bits*-wide one
    (``None`` widths are pointers).  ``None`` for the pointer-result
    casts, which pass the value through unchanged."""
    if op in ("bitcast", "inttoptr"):
        return None
    assert to_bits is not None, f"{op} needs an integer result"
    mask = (1 << to_bits) - 1
    if op in ("trunc", "zext", "ptrtoint"):
        return lambda value: value & mask
    if op == "sext":
        assert from_bits is not None
        signed = to_signed(from_bits)
        return lambda value: signed(value) & mask
    raise ValueError(f"unknown cast op {op!r}")


# ---------------------------------------------------------------------------
# constant folding entry points (the optimizer's view)
# ---------------------------------------------------------------------------


def _bits(type_) -> int | None:
    return getattr(type_, "bits", None)


def fold_binop(op: str, type_, lhs: int, rhs: int) -> int | None:
    """Fold a binary op exactly as the VM evaluates it.

    Returns ``None`` when the VM would trap (division/remainder by
    zero): the instruction must then stay in place so the trap — part
    of the observable crash identity — still fires at runtime.
    """
    if rhs == 0 and op in DIVISIONS:
        return None  # the VM traps; never fold a trap away
    return binop(op, type_.bits)(lhs, rhs)


def fold_icmp(predicate: str, type_, lhs: int, rhs: int) -> int:
    """Fold an integer comparison exactly as the VM evaluates it
    (*type_* is the operand type; ``None`` or a pointer compares
    unsigned)."""
    return icmp(predicate, _bits(type_))(lhs, rhs)


def fold_cast(op: str, from_type, to_type, value: int) -> int | None:
    """Fold the integer-valued casts; ``None`` for the pointer-typed
    results we cannot represent as a constant."""
    fn = cast(op, _bits(from_type), _bits(to_type))
    return None if fn is None else fn(value)
