"""Shared test helpers: run inputs under executors, craft crash inputs."""

from __future__ import annotations

import struct

import numpy as np

from repro.execution import FreshProcessExecutor
from repro.execution.common import ExecResult
from repro.fuzzing.coverage import VirginMap
from repro.sim_os import Kernel
from repro.targets.framework import TargetSpec
from repro.vm.interpreter import COVERAGE_MAP_SIZE


def run_fresh(spec: TargetSpec, data: bytes) -> ExecResult:
    """Execute *data* against *spec* in a fresh process."""
    module = spec.build_baseline()
    executor = FreshProcessExecutor(module, spec.image_bytes, Kernel())
    return executor.run(data)


def run_fresh_module(module, image_bytes: int, data: bytes) -> ExecResult:
    executor = FreshProcessExecutor(module, image_bytes, Kernel())
    return executor.run(data)


# ---------------------------------------------------------------------------
# dense coverage reference: the full-map numpy LUT implementation the
# sparse hit-list path in repro.fuzzing.coverage replaced
# ---------------------------------------------------------------------------

_DENSE_LOOKUP = np.zeros(256, dtype=np.uint8)
_DENSE_LOOKUP[1] = 1
_DENSE_LOOKUP[2] = 2
_DENSE_LOOKUP[3] = 4
_DENSE_LOOKUP[4:8] = 8
_DENSE_LOOKUP[8:16] = 16
_DENSE_LOOKUP[16:32] = 32
_DENSE_LOOKUP[32:128] = 64
_DENSE_LOOKUP[128:256] = 128


def dense_classify(raw_map) -> np.ndarray:
    """Classify every cell of a dense hitcount buffer."""
    return _DENSE_LOOKUP[np.frombuffer(bytes(raw_map), dtype=np.uint8)]


class DenseVirgin:
    """Full-map novelty: the verdicts ``VirginMap`` must reproduce."""

    def __init__(self) -> None:
        self.virgin = np.full(COVERAGE_MAP_SIZE, 0xFF, dtype=np.uint8)

    def _verdict(self, classified: np.ndarray, fold: bool) -> int:
        new_bits = classified & self.virgin
        if not new_bits.any():
            return VirginMap.NO_NEW
        new_edges = bool((new_bits[self.virgin == 0xFF]).any())
        if fold:
            self.virgin &= ~classified
        return VirginMap.NEW_EDGES if new_edges else VirginMap.NEW_COUNTS

    def observe(self, raw_map) -> int:
        return self._verdict(dense_classify(raw_map), fold=True)

    def would_be_new(self, raw_map) -> int:
        return self._verdict(dense_classify(raw_map), fold=False)

    def observe_classified(self, signature: bytes) -> int:
        return self._verdict(np.frombuffer(signature, dtype=np.uint8), True)


# ---------------------------------------------------------------------------
# crafted crash inputs, one per planted bug
# ---------------------------------------------------------------------------


def gpmf_crash_inputs() -> dict[str, bytes]:
    from repro.targets.gpmf_parser import klv, _stream

    scal_zero = klv(b"SCAL", b"l", 4, 1, struct.pack(">I", 0))
    tick = klv(b"TICK", b"L", 4, 1, struct.pack(">I", 1000))
    tock_equal = klv(b"TOCK", b"L", 4, 1, struct.pack(">I", 1000))
    gps5_wild = klv(b"GPS5", b"l", 4, 2, struct.pack(">HH", 900, 0) + bytes(4))
    dvid_back = klv(b"DVID", b"L", 4, 1, struct.pack(">HH", 30, 0))
    accl_narrow = klv(b"ACCL", b"s", 2, 3, bytes(6))
    mtrx_short = klv(b"MTRX", b"f", 4, 2, bytes(8))
    return {
        "gpmf-1": _stream(scal_zero),
        "gpmf-2": _stream(tick, tock_equal),
        "gpmf-3": _stream(gps5_wild),
        "gpmf-4": _stream(dvid_back),
        "gpmf-5": _stream(accl_narrow),
        "gpmf-6": _stream(mtrx_short),
    }


def libbpf_crash_inputs() -> dict[str, bytes]:
    from repro.targets.libbpf import _elf, SHT_PROGBITS, SHT_REL, SHT_SYMTAB, SHT_STRTAB

    prog = bytes(16)
    rel = struct.pack("<II", 0, (1 << 8) | 1)
    symtab = bytes(32)
    # bug 1: REL section present, no SYMTAB anywhere (the PROGBITS
    # section uses entsize 0 so symbol resolution is not attempted first).
    rel_no_symtab = _elf([(SHT_PROGBITS, 1, prog, 0, 0),
                          (SHT_REL, 20, rel, 1, 8)])
    # bug 2: PROGBITS(entsize 8) + SYMTAB, but no STRTAB.
    no_strtab = _elf([(SHT_PROGBITS, 1, prog, 0, 8),
                      (SHT_SYMTAB, 6, symtab, 2, 16)])
    # bug 3: maps section whose payload sits at the end of the file so
    # the off-by-one def read walks past input_len.
    maps_payload = struct.pack("<IIII", 2, 4, 8, 16)
    maps_at_end = _elf([(6, 26, maps_payload, 0, 16)])
    # move the maps section's offset to point at the file tail
    maps_at_end = bytearray(maps_at_end)
    sh_off = len(maps_at_end) - 40
    file_len = len(maps_at_end)
    maps_at_end[sh_off + 16:sh_off + 20] = struct.pack("<I", file_len - 20)
    return {
        "libbpf-1": rel_no_symtab,
        "libbpf-2": no_strtab,
        "libbpf-3": bytes(maps_at_end),
    }


def blosc2_crash_inputs() -> dict[str, bytes]:
    from repro.targets.c_blosc2 import make_frame

    zero_offset = bytearray(make_frame([b"payload0123456"]))
    zero_offset[32:36] = struct.pack("<I", 0)           # chunk offset -> 0
    bad_codec = make_frame([b"0123456789abcdef"], codec=9)
    bad_filter = make_frame([b"0123456789abcdef"], codec=1, filters=0x07)
    bad_trailer = bytearray(make_frame([b"0123456789abcdef"], flags=0x10))
    bad_trailer[8:12] = struct.pack("<I", 8)            # frame_len < 32
    return {
        "blosc2-1": bytes(zero_offset),
        "blosc2-2": bad_codec,
        "blosc2-3": bad_filter,
        "blosc2-4": bytes(bad_trailer),
    }


def md4c_crash_inputs() -> dict[str, bytes]:
    return {
        "md4c-1": b"###\n",
        "md4c-2": b"para [33] text\n",
    }


def all_crash_inputs() -> dict[str, dict[str, bytes]]:
    """target name -> {bug id -> crashing input}."""
    return {
        "gpmf-parser": gpmf_crash_inputs(),
        "libbpf": libbpf_crash_inputs(),
        "c-blosc2": blosc2_crash_inputs(),
        "md4c": md4c_crash_inputs(),
    }
