"""Ideal (unbiased, independent) entropy source."""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.trng.source import SeededSource

__all__ = ["IdealSource"]

_TOP_BIT = np.uint32(1 << 31)

#: The engine's packed word type (``repro.engine.packed.WORD_DTYPE``), held
#: here so that the per-call path imports nothing and the source layer stays
#: importable without the engine package.
_WORD_DTYPE = np.dtype("<u8")

#: Stream 2's spare bits when there are none (never written to).
_NO_BITS = np.zeros(0, dtype=np.uint8)
_NO_BITS.flags.writeable = False


class IdealSource(SeededSource):
    """An ideal TRNG model: independent, unbiased bits.

    Used as the null-hypothesis workload in every experiment — the platform
    must accept its output with probability ≈ 1 − α per test.

    Both streams read PCG64's raw 64-bit words straight from the bit
    generator; they differ in how many bits each word gives.

    **Stream 2** (every new source) uses all 64 bits: stream bit ``j`` is
    bit ``j % 64`` of raw word ``j // 64``.  That is the engine's packed
    layout (:mod:`repro.engine.packed`: little bit order, ``<u8`` words), so
    a word-aligned stretch of the stream *is* its packed row and
    :meth:`generate_words` returns the raw words as they come.  A block that
    ends mid-word keeps the word's remaining bits for the next call.

    **Stream 1** is ``Generator.integers(0, 2)`` bit for bit.  For range 2,
    bit ``i`` of that stream is the top bit of the ``i``-th 32-bit draw
    (Lemire's bounded draw keeps the high bit of ``draw * 2`` and its
    rejection threshold is 0), and PCG64 serves 32-bit draws as the low then
    the high half of each raw word, buffering the high half in its
    ``has_uint32`` / ``uinteger`` state.  A block of odd length therefore
    leaves that half pending, exactly as ``integers`` would, and the next
    block starts with it.  It spends a raw word per 2 bits and stays for
    restored states and its pinned results.

    The constructor always starts stream 2.  ``stream_version`` is a class
    attribute defaulting to 1, so a pickle made before stream versions
    existed carries none and restores onto stream 1.
    """

    #: Class default for instances restored from pickles that predate stream
    #: versions; the constructor always sets it on the instance.
    stream_version = 1

    #: Stream 1: True while the generator holds a buffered high half-word,
    #: i.e. the stream so far has consumed an odd number of 32-bit draws.
    _half_pending = False

    #: Stream 2: the unread bits of the last raw word drawn, in stream order.
    _spare: np.ndarray = _NO_BITS

    def __init__(self, seed: Optional[int] = None):
        super().__init__(seed)
        self.stream_version = 2

    def _generate_block(self, n: int) -> np.ndarray:
        if self.stream_version == 1:
            return self._integers_block(n)
        spare = self._spare
        if n <= spare.size:
            self._spare = spare[n:]
            return spare[:n]
        # Imported here, as in generate_matrix: the source layer stays
        # importable without the engine package.
        from repro.engine.packed import PackedMatrix

        count = n - spare.size
        num_words = -(-count // 64)
        raw = self._rng.bit_generator.random_raw(num_words)
        bits = PackedMatrix(raw[np.newaxis], 64 * num_words).row(0)
        self._spare = bits[count:].copy()
        if spare.size:
            return np.concatenate([spare, bits[:count]])
        return bits[:count]

    def generate_words(self, n: int) -> np.ndarray:
        if (
            self.stream_version == 2
            and n >= 0
            and n % 64 == 0
            and not self._spare.size
        ):
            return np.asarray(self._rng.bit_generator.random_raw(n // 64), dtype=_WORD_DTYPE)
        return super().generate_words(n)

    def _integers_block(self, n: int) -> np.ndarray:
        """Stream 1: the next ``n`` bits of ``Generator.integers(0, 2)``."""
        bits = np.empty(n, dtype=np.uint8)
        if n == 0:
            return bits
        bitgen = self._rng.bit_generator
        start = 0
        if self._half_pending:
            bits[0] = bitgen.state["uinteger"] >> 31
            start = 1
        count = n - start
        words = bitgen.random_raw((count + 1) // 2)
        halves = np.asarray(words, dtype="<u8").view("<u4")
        # The top bit of each half, compared straight into the uint8 output
        # through its bool view (a shift writes it through a casting loop).
        np.greater_equal(halves[:count], _TOP_BIT, out=bits[start:].view(np.bool_))
        odd = bool(count % 2)
        if self._half_pending or odd:
            state: Dict[str, Any] = bitgen.state
            state["has_uint32"] = int(odd)
            if odd:
                state["uinteger"] = int(halves[-1])
            bitgen.state = state
            self._half_pending = odd
        return bits

    def reset(self) -> None:
        super().reset()
        self._half_pending = False
        self._spare = _NO_BITS

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # Pickles made before the flag existed carry only the generator's
        # own record of a pending half-word; take it from there.
        self.__dict__.update(state)
        self._half_pending = bool(self._rng.bit_generator.state["has_uint32"])
