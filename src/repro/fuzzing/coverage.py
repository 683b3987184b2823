"""AFL-style coverage-map processing.

The VM's instrumented guards fill one 64 KiB hitcount map per
execution, a :class:`~repro.vm.interpreter.CoverageMap` that also
carries its *hit list*: the index of every non-zero cell, recorded once
when the cell first leaves 0.  This module implements the fuzzer-side
half: hitcount *classification* into AFL's power-of-two buckets, and
the *virgin map* that decides whether an execution produced new
behaviour (new edge, or a new hitcount bucket for a known edge).

Everything done once per execution — novelty (:meth:`VirginMap.observe`,
:meth:`VirginMap.would_be_new`), :func:`coverage_signature` and
:func:`edge_count` — walks only the hit list, as AFL++ does for small
maps.  A giftext exec touches a few dozen cells, so these take a few
microseconds where a full-map numpy pass took ~225 µs.  numpy stays
where the input really is a dense buffer: :func:`classify`, shard
signatures (:meth:`VirginMap.observe_classified`), :meth:`VirginMap.merge`,
:meth:`VirginMap.edges_found` and the checkpoint form.
"""

from __future__ import annotations

import numpy as np

from repro.vm.interpreter import COVERAGE_MAP_SIZE, CoverageMap

#: AFL's count_class_lookup: bucket raw hitcounts into 8 classes.
_CLASS_LOOKUP = np.zeros(256, dtype=np.uint8)
_CLASS_LOOKUP[1] = 1
_CLASS_LOOKUP[2] = 2
_CLASS_LOOKUP[3] = 4
_CLASS_LOOKUP[4:8] = 8
_CLASS_LOOKUP[8:16] = 16
_CLASS_LOOKUP[16:32] = 32
_CLASS_LOOKUP[32:128] = 64
_CLASS_LOOKUP[128:256] = 128
#: The same table as bytes, for per-cell lookups on the hit list.
_CLASS_BYTES = _CLASS_LOOKUP.tobytes()


def classify(raw_map: bytearray | bytes) -> np.ndarray:
    """Bucket a dense raw hitcount buffer into AFL's 8 classes."""
    arr = np.frombuffer(bytes(raw_map), dtype=np.uint8)
    return _CLASS_LOOKUP[arr]


class VirginMap:
    """Accumulated union of all behaviour seen so far.

    ``virgin`` starts all-ones (0xFF = fully unseen); observing an
    execution clears the bits of every (edge, bucket) it exhibited —
    AFL++'s exact bookkeeping.
    """

    NO_NEW = 0
    NEW_COUNTS = 1
    NEW_EDGES = 2

    def __init__(self, size: int = COVERAGE_MAP_SIZE):
        self.size = size
        self.virgin = np.full(size, 0xFF, dtype=np.uint8)

    def observe(self, coverage: CoverageMap) -> int:
        """Fold one execution in; returns NO_NEW / NEW_COUNTS / NEW_EDGES."""
        return self._novelty(coverage, fold=True)

    def would_be_new(self, coverage: CoverageMap) -> int:
        """Like :meth:`observe` but without folding the map in."""
        return self._novelty(coverage, fold=False)

    def _novelty(self, coverage: CoverageMap, fold: bool) -> int:
        # Only hit cells can carry new bits: every other cell classifies
        # to 0.  A brand-new edge is one whose virgin byte was still 0xFF.
        virgin = memoryview(self.virgin)
        verdict = self.NO_NEW
        for index in coverage.hits:
            bits = _CLASS_BYTES[coverage[index]]
            unseen = virgin[index]
            if bits & unseen:
                if unseen == 0xFF:
                    verdict = self.NEW_EDGES
                elif verdict == self.NO_NEW:
                    verdict = self.NEW_COUNTS
                if fold:
                    virgin[index] = unseen & ~bits
        return verdict

    def observe_classified(self, signature: bytes) -> int:
        """Fold in an *already classified* map (a corpus entry's
        coverage signature, as exchanged between campaign shards);
        returns the same NO_NEW / NEW_COUNTS / NEW_EDGES verdict as
        :meth:`observe`."""
        classified = np.frombuffer(signature, dtype=np.uint8)
        new_bits = classified & self.virgin
        if not new_bits.any():
            return self.NO_NEW
        new_edges = bool((new_bits[self.virgin == 0xFF]).any())
        self.virgin &= ~classified
        return self.NEW_EDGES if new_edges else self.NEW_COUNTS

    def merge(self, other: "VirginMap") -> None:
        """Union another map's observed behaviour into this one (the
        multi-worker merged-coverage operation: virgin bits survive
        only where *both* maps never saw the (edge, bucket))."""
        if other.size != self.size:
            raise ValueError("cannot merge virgin maps of different sizes")
        self.virgin &= other.virgin

    def edges_found(self) -> int:
        """Number of map cells with at least one observed bucket."""
        return int((self.virgin != 0xFF).sum())

    def to_bytes(self) -> bytes:
        """The virgin map's exact contents (checkpoint / digest form)."""
        return self.virgin.tobytes()

    @classmethod
    def from_bytes(cls, payload: bytes) -> "VirginMap":
        """Rebuild a map serialised with :meth:`to_bytes`."""
        virgin = cls(size=len(payload))
        virgin.virgin = np.frombuffer(payload, dtype=np.uint8).copy()
        return virgin


def edge_count(coverage: CoverageMap) -> int:
    """Distinct map cells hit by one execution."""
    return len(coverage.hits)


def coverage_signature(coverage: CoverageMap) -> bytes:
    """Classified map as bytes — the per-entry signature the corpus
    scheduler uses for favored-entry selection."""
    signature = bytearray(len(coverage))
    for index in coverage.hits:
        signature[index] = _CLASS_BYTES[coverage[index]]
    return bytes(signature)
