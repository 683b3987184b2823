"""Byte-addressable memory model for the MiniVM.

The address space is divided into fixed segments (globals, heap, stack,
FILE handles).  Every allocation is a :class:`MemoryRegion` with its own
bounds; loads and stores are checked against region bounds and
permissions, which is what turns the targets' planted bugs into traps
(null dereference, unaddressable access, out-of-bounds read/write,
use-after-free).

Address lookup uses bisection over the sorted region bases.  Freed
regions are remembered in a bounded FIFO so the memcheck layer can
distinguish *use-after-free* from plain *unaddressable* accesses —
the same distinction Valgrind draws in the paper's §6.1.4 validation.

The stack segment sits above the global and heap segments, and its
bump cursor only grows until every frame is gone and it is rewound.
So the live stack regions are always the tail of the sorted bases, in
allocation order: :meth:`AddressSpace.map_region` appends a frame's
``alloca`` without a bisection, :meth:`AddressSpace.pop_frame` unmaps a
returning frame as one tail slice, and counting the live stack regions
is one bisection.

Integer loads and stores go through :func:`int_reader` /
:func:`int_writer`: one function per access width, built once, that
does the bisection, the bounds test and a ``struct`` unpack/pack on the
region's bytes.  The compiled engine calls them directly;
:meth:`AddressSpace.read_int` / :meth:`~AddressSpace.write_int` are
the same functions looked up by width.
"""

from __future__ import annotations

import bisect
import functools
from collections import OrderedDict
from struct import Struct

from repro.vm.errors import CrashSite, TrapKind, VMTrap


class Segment:
    """A contiguous slice of the address space with bump allocation."""

    def __init__(self, name: str, base: int, size: int):
        self.name = name
        self.base = base
        self.size = size
        self.cursor = base

    @property
    def limit(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.limit

    def reserve(self, size: int, align: int = 16) -> int:
        """Reserve *size* bytes; returns the base address."""
        start = (self.cursor + align - 1) // align * align
        if start + size > self.base + self.size:
            raise MemoryError(f"segment {self.name} exhausted")
        self.cursor = start + size
        return start

    def reset(self) -> None:
        self.cursor = self.base


GLOBAL_BASE = 0x0000_1000_0000
HEAP_BASE = 0x0000_2000_0000
STACK_BASE = 0x0000_7000_0000
HANDLE_BASE = 0x0000_F000_0000

GLOBAL_SIZE = 0x1000_0000
HEAP_SIZE = 0x4000_0000
STACK_SIZE = 0x0800_0000
# Gap of unmapped space between consecutive regions, so off-by-N
# pointer arithmetic lands in unaddressable memory instead of a
# neighbouring allocation (a software red zone).
RED_ZONE = 16


class MemoryRegion:
    """One live or dead allocation."""

    __slots__ = ("base", "size", "data", "writable", "kind", "tag", "alive")

    def __init__(self, base: int, size: int, writable: bool, kind: str, tag: str = ""):
        self.base = base
        self.size = size
        self.data = bytearray(size)
        self.writable = writable
        self.kind = kind          # "global" | "heap" | "stack"
        self.tag = tag            # symbol name / allocation site
        self.alive = True

    @property
    def limit(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.limit

    def __repr__(self) -> str:
        state = "live" if self.alive else "dead"
        return f"<Region {self.kind} {self.tag!r} @0x{self.base:x}+{self.size} {state}>"


class AddressSpace:
    """All mapped memory of one simulated process."""

    DEAD_REGION_MEMORY = 256  # how many freed regions we remember

    def __init__(self) -> None:
        self.global_segment = Segment("global", GLOBAL_BASE, GLOBAL_SIZE)
        self.heap_segment = Segment("heap", HEAP_BASE, HEAP_SIZE)
        self.stack_segment = Segment("stack", STACK_BASE, STACK_SIZE)
        self._bases: list[int] = []
        self._regions: dict[int, MemoryRegion] = {}
        self._dead: OrderedDict[int, MemoryRegion] = OrderedDict()
        self.bytes_written = 0  # drives copy-on-write cost accounting

    # -- mapping ------------------------------------------------------

    def map_region(self, segment: Segment, size: int, writable: bool,
                   kind: str, tag: str = "") -> MemoryRegion:
        base = segment.reserve(max(size, 1) + RED_ZONE)
        region = MemoryRegion(base, size, writable, kind, tag)
        bases = self._bases
        # A region above every other one (each stack alloca, and every
        # region of a segment above all live ones) is appended.
        if not bases or bases[-1] < base:
            bases.append(base)
        else:
            bisect.insort(bases, base)
        self._regions[base] = region
        return region

    def unmap(self, region: MemoryRegion) -> None:
        if not region.alive:
            raise ValueError("double unmap")
        region.alive = False
        index = bisect.bisect_left(self._bases, region.base)
        del self._bases[index]
        del self._regions[region.base]
        self._dead[region.base] = region
        while len(self._dead) > self.DEAD_REGION_MEMORY:
            self._dead.popitem(last=False)

    def pop_frame(self, frame: list[int]) -> None:
        """Unmap a returning frame's stack regions, given by base in
        allocation order, leaving the same state as unmapping them one
        by one.

        They are normally the tail of the bases and go as one slice;
        otherwise each one still live is unmapped on its own.
        """
        bases, live = self._bases, self._regions
        start = len(bases) - len(frame)
        if start < 0 or bases[start:] != frame:
            for base in frame:
                region = live.get(base)
                if region is not None:
                    self.unmap(region)
            return
        del bases[start:]
        dead = self._dead
        for base in frame:
            region = live.pop(base)
            region.alive = False
            dead[base] = region
        while len(dead) > self.DEAD_REGION_MEMORY:
            dead.popitem(last=False)

    def forget_dead_regions(self) -> None:
        """Drop the freed-region memory (called when cursors rewind,
        since recycled addresses would otherwise shadow-match old
        regions)."""
        self._dead.clear()

    # -- lookup -------------------------------------------------------

    def find_region(self, address: int) -> MemoryRegion | None:
        """Live region containing *address*, or ``None``."""
        index = bisect.bisect_right(self._bases, address) - 1
        if index < 0:
            return None
        region = self._regions[self._bases[index]]
        return region if region.contains(address) else None

    def find_dead_region(self, address: int) -> MemoryRegion | None:
        """Freed region that used to contain *address*, or ``None``."""
        for region in reversed(self._dead.values()):
            if region.contains(address):
                return region
        return None

    def stack_region_count(self) -> int:
        """Live stack regions: the bases from the stack segment's up."""
        bases = self._bases
        return len(bases) - bisect.bisect_left(bases, self.stack_segment.base)

    def live_regions(self, kind: str | None = None) -> list[MemoryRegion]:
        regions = list(self._regions.values())
        if kind is not None:
            regions = [r for r in regions if r.kind == kind]
        return regions

    # -- checked access -----------------------------------------------

    def _fault(self, address: int, size: int, write: bool, site: CrashSite) -> VMTrap:
        mode = "write" if write else "read"
        if address == 0 or 0 < address < 4096:
            return VMTrap(TrapKind.NULL_DEREF,
                          f"{mode} of {size} bytes at null page address 0x{address:x}", site)
        dead = self.find_dead_region(address)
        if dead is not None:
            return VMTrap(TrapKind.USE_AFTER_FREE,
                          f"{mode} at 0x{address:x} inside freed {dead.kind} "
                          f"region {dead.tag!r}", site)
        live = self.find_region(address)
        if live is None:
            # An access just past a region's end (inside its red zone)
            # is an overrun of that region, Valgrind-style ("N bytes
            # after a block of ..."); anything further out is a wild
            # unaddressable access.
            index = bisect.bisect_right(self._bases, address) - 1
            if index >= 0:
                candidate = self._regions[self._bases[index]]
                if address < candidate.limit + RED_ZONE:
                    live = candidate
        if live is not None:
            if live.kind == "global":
                kind = TrapKind.ARRAY_OOB
            elif write:
                kind = TrapKind.INVALID_WRITE
            else:
                kind = TrapKind.INVALID_READ
            return VMTrap(kind,
                          f"{mode} of {size} bytes at 0x{address:x} overruns "
                          f"{live.kind} region {live.tag!r} "
                          f"(0x{live.base:x}+{live.size})", site)
        return VMTrap(TrapKind.UNADDRESSABLE,
                      f"{mode} of {size} bytes at unmapped address 0x{address:x}", site)

    # Every access below is one bisection and one bounds test on the
    # region found; anything outside a live region takes _fault.

    def check(self, address: int, size: int, write: bool, site: CrashSite) -> MemoryRegion:
        bases = self._bases
        index = bisect.bisect_right(bases, address) - 1
        if index >= 0:
            region = self._regions[bases[index]]
            offset = address - region.base
            if offset < region.size and offset + size <= region.size:
                if write and not region.writable:
                    raise self._read_only(region, address, site)
                return region
        raise self._fault(address, size, write, site)

    @staticmethod
    def _read_only(region: MemoryRegion, address: int, site: CrashSite) -> VMTrap:
        return VMTrap(
            TrapKind.INVALID_WRITE,
            f"write to read-only {region.kind} region {region.tag!r} at 0x{address:x}",
            site,
        )

    def read(self, address: int, size: int, site: CrashSite) -> bytes:
        region = self.check(address, size, False, site)
        offset = address - region.base
        return bytes(region.data[offset:offset + size])

    def write(self, address: int, data: bytes, site: CrashSite) -> None:
        region = self.check(address, len(data), True, site)
        offset = address - region.base
        region.data[offset:offset + len(data)] = data
        self.bytes_written += len(data)

    def read_int(self, address: int, size: int, site: CrashSite) -> int:
        return int_reader(size)(self, address, site)

    def write_int(self, address: int, value: int, size: int, site: CrashSite) -> None:
        int_writer(size)(self, address, value, site)

    def read_cstring(self, address: int, site: CrashSite, limit: int = 1 << 16) -> bytes:
        """Read a NUL-terminated string (without the terminator).

        One bounds check per region, then a scan for the NUL.  A string
        that runs off its region continues at the region's limit, where
        the check faults on exactly the byte a byte-at-a-time read would
        have faulted on; *limit* bytes without a NUL trap as
        unterminated.
        """
        out = b""
        current = address
        end = address + limit
        while current < end:
            region = self.check(current, 1, False, site)
            offset = current - region.base
            stop = min(region.size, end - region.base)
            nul = region.data.find(0, offset, stop)
            if nul >= 0:
                return out + region.data[offset:nul]
            out += region.data[offset:stop]
            current = region.base + stop
        raise VMTrap(TrapKind.INVALID_READ, f"unterminated string at 0x{address:x}", site)

    # -- accounting ---------------------------------------------------

    def footprint_bytes(self) -> int:
        """Total live mapped bytes (drives fork/CoW cost modelling)."""
        return sum(r.size for r in self._regions.values())

    def region_count(self) -> int:
        return len(self._regions)


# Little-endian unsigned codecs for the power-of-two access widths;
# any other width slices the bytes.
_STRUCTS = {1: Struct("<B"), 2: Struct("<H"), 4: Struct("<I"), 8: Struct("<Q")}


def int_codec(size: int):
    """``(unpack, pack)`` for a *size*-byte little-endian unsigned int:
    ``unpack(data, offset=0)`` returns a 1-tuple, ``pack(data, offset,
    value)`` stores a value already masked to the width."""
    codec = _STRUCTS.get(size)
    if codec is not None:
        return codec.unpack_from, codec.pack_into

    def unpack(data, offset=0):
        return (int.from_bytes(data[offset:offset + size], "little"),)

    def pack(data, offset, value):
        data[offset:offset + size] = value.to_bytes(size, "little")
    return unpack, pack


# Both accessors are one bisection and one bounds test on the region
# found; anything outside a live region takes _fault.  A zero-width
# access still needs its address inside the region.

@functools.cache
def int_reader(size: int):
    """``read(space, address, site)``: the checked *size*-byte load."""
    unpack = int_codec(size)[0]
    need = max(size, 1)

    def read_int(space: AddressSpace, address: int, site: CrashSite) -> int:
        bases = space._bases
        index = bisect.bisect_right(bases, address) - 1
        if index >= 0:
            region = space._regions[bases[index]]
            offset = address - region.base
            if offset + need <= region.size:
                return unpack(region.data, offset)[0]
        raise space._fault(address, size, False, site)
    return read_int


@functools.cache
def int_writer(size: int):
    """``write(space, address, value, site)``: the checked *size*-byte
    store of *value* truncated to the width."""
    pack = int_codec(size)[1]
    need, mask = max(size, 1), (1 << (size << 3)) - 1

    def write_int(space: AddressSpace, address: int, value: int, site: CrashSite) -> None:
        bases = space._bases
        index = bisect.bisect_right(bases, address) - 1
        if index >= 0:
            region = space._regions[bases[index]]
            offset = address - region.base
            if offset + need <= region.size:
                if not region.writable:
                    raise space._read_only(region, address, site)
                pack(region.data, offset, value & mask)
                space.bytes_written += size
                return
        raise space._fault(address, size, True, site)
    return write_int
