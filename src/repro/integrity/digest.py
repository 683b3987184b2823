"""StateDigest: cheap deterministic digests of the ClosureX dimensions.

A digest is *structural*, not semantic: it fingerprints exactly the
state a correct ClosureX restore guarantees — the live heap-chunk set
and allocator cursor, every writable global section's bytes, the open
FILE table (init-handle positions normalised to the rewound state),
and the harness's setjmp/argv context.  After a correct restore the
digest is bit-identical to the post-boot baseline; any difference names
the leaking dimension(s).

What a digest deliberately does **not** cover: heap chunk *contents*
(init-phase chunks are process-invariant in identity but their bytes
are legitimately target-writable) and the libc PRNG state (not part of
ClosureX's restore contract).  Pollution through those channels shows
up as behavioural divergence instead, which the sentinel's shadow
replays (:func:`repro.execution.differential.observe`) catch.

Digests are plain frozen dataclasses of CRC32 values, so they are
deterministic across processes and pickle round-trips — the property
test in ``tests/test_integrity.py`` pins this, and it is what lets a
resumed campaign compare digests captured before the checkpoint.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.vm.snapshot import READONLY_SECTIONS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.runtime.harness import ClosureXHarness
    from repro.sim_os.costs import CostModel

#: Digest fields in ClosureX dimension order (matches
#: ``repro.analysis.pollution.DIMENSIONS``: the exit dimension maps to
#: the harness's setjmp/argv/cursor context).
DIGEST_DIMENSIONS = ("heap", "file", "global", "exit")

_PACK_2Q = struct.Struct("<QQ").pack
_PACK_3Q = struct.Struct("<QQQ").pack


@dataclass(frozen=True)
class StateDigest:
    """CRC32 fingerprint of each ClosureX state dimension."""

    heap: int
    file: int
    global_: int
    exit: int
    #: Sizing facts recorded at capture time (drive the cost model and
    #: the diagnostic bundle; excluded from equality on purpose — two
    #: digests are compared field-by-dimension, and the cost of *this*
    #: capture is not state).
    heap_chunks: int = 0
    open_handles: int = 0
    section_bytes: int = 0

    def value(self, dimension: str) -> int:
        if dimension == "global":
            return self.global_
        return getattr(self, dimension)

    def diff(self, other: "StateDigest") -> tuple[str, ...]:
        """Dimensions whose fingerprints differ, in canonical order."""
        return tuple(
            d for d in DIGEST_DIMENSIONS if self.value(d) != other.value(d)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateDigest):
            return NotImplemented
        return all(self.value(d) == other.value(d) for d in DIGEST_DIMENSIONS)

    def __hash__(self) -> int:
        return hash(tuple(self.value(d) for d in DIGEST_DIMENSIONS))

    def describe(self) -> str:
        return " ".join(
            f"{d}={self.value(d):08x}" for d in DIGEST_DIMENSIONS
        )


def compute_digest(harness: "ClosureXHarness") -> StateDigest:
    """Digest the current state of a booted harness's VM."""
    vm = harness.vm
    if vm is None:
        raise RuntimeError("harness not booted")

    # Heap dimension: the live chunk set (identity + size), the chunk
    # map's idea of what is still leaked, and the allocator cursor.
    heap_crc = 0
    chunk_count = 0
    for base in sorted(vm.heap.live):
        region = vm.heap.live[base]
        heap_crc = zlib.crc32(_PACK_2Q(region.base, region.size), heap_crc)
        chunk_count += 1
    for chunk in sorted(harness.chunk_map.leaked(), key=lambda c: c.address):
        heap_crc = zlib.crc32(_PACK_2Q(chunk.address, chunk.size), heap_crc)
    heap_crc = zlib.crc32(
        _PACK_2Q(vm.memory.heap_segment.cursor, len(vm.heap.live)), heap_crc
    )

    # File dimension: every open handle's (handle, path, position),
    # with init-phase handles' positions normalised to the rewound
    # state so legitimate drift under rewind_init_handles=False never
    # reads as a leak.
    file_crc = 0
    handle_count = 0
    for handle in sorted(vm.fd_table.open_files):
        file = vm.fd_table.open_files[handle]
        record = harness.fd_tracker.get(handle)
        init = record.init if record is not None else False
        position = 0 if init else file.position
        file_crc = zlib.crc32(
            _PACK_3Q(handle, position, 1 if init else 0), file_crc
        )
        file_crc = zlib.crc32(file.path.encode("utf-8"), file_crc)
        handle_count += 1

    # Global dimension: every writable section's bytes — the relocated
    # closure_global_section plus any residual writable data, so a
    # store that escapes the GlobalPass's relocation (an analysis or
    # pass bug) is still caught.
    global_crc = 0
    section_bytes = 0
    for name in sorted(vm.sections):
        if name in READONLY_SECTIONS:
            continue
        data = vm.section_bytes(name)
        global_crc = zlib.crc32(name.encode("utf-8"), global_crc)
        global_crc = zlib.crc32(data, global_crc)
        section_bytes += len(data)

    # Exit dimension: the setjmp/longjmp return context — stack cursor
    # and frame count (a skipped rewind drifts these), plus the argv
    # block the harness longjmps back to.
    exit_crc = zlib.crc32(
        _PACK_3Q(
            vm.memory.stack_segment.cursor,
            vm.stack_region_count(),
            harness._argv,
        )
    )
    exit_crc = zlib.crc32(_PACK_2Q(harness._argc, 0), exit_crc)

    return StateDigest(
        heap=heap_crc,
        file=file_crc,
        global_=global_crc,
        exit=exit_crc,
        heap_chunks=chunk_count,
        open_handles=handle_count,
        section_bytes=section_bytes,
    )


def digest_cost(digest: StateDigest, costs: "CostModel") -> int:
    """Virtual-ns price of having computed *digest*."""
    return costs.state_digest_cost(
        digest.heap_chunks, digest.open_handles, digest.section_bytes
    )
