"""Ideal (unbiased, independent) entropy source."""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.trng.source import SeededSource

__all__ = ["IdealSource"]

_TOP_BIT = np.uint32(1 << 31)


class IdealSource(SeededSource):
    """An ideal TRNG model: independent, unbiased bits.

    Used as the null-hypothesis workload in every experiment — the platform
    must accept its output with probability ≈ 1 − α per test.

    The stream is ``Generator.integers(0, 2)`` bit for bit, read straight
    from PCG64's raw 64-bit words.  For range 2, bit ``i`` of that stream is
    the top bit of the ``i``-th 32-bit draw (Lemire's bounded draw keeps the
    high bit of ``draw * 2`` and its rejection threshold is 0), and PCG64
    serves 32-bit draws as the low then the high half of each raw word,
    buffering the high half in its ``has_uint32`` / ``uinteger`` state.  A
    block of odd length therefore leaves that half pending, exactly as
    ``integers`` would, and the next block starts with it.
    """

    block_bits = 1024

    #: True while the generator holds a buffered high half-word, i.e. the
    #: stream so far has consumed an odd number of 32-bit draws.
    _half_pending = False

    def _generate_block(self, n: int) -> np.ndarray:
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

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # Pickles made before the flag existed carry only the generator's
        # own record of a pending half-word; take it from there.
        self.__dict__.update(state)
        self._half_pending = bool(self._rng.bit_generator.state["has_uint32"])
