"""Replay and capture adapters for real TRNG data.

A deployed platform monitors a physical generator; during bring-up and
certification, engineers also need to replay *captured* bit streams (from a
logic analyser dump, a raw byte file, or a previous run) through exactly the
same testing pipeline.  These adapters bridge stored data and the
:class:`repro.trng.source.EntropySource` interface used everywhere else.

Both adapters are block-native: :class:`ReplaySource` serves whole slices of
its stored array and :class:`CaptureSource` records whole blocks as they
pass through its ``_generate_block``, so neither reintroduces a per-bit
Python loop on the hot path.  No source reads ahead of its consumer, so a
capture holds exactly the bits the consumer has seen, whether it read them
a bit or a block at a time.
"""

from __future__ import annotations

import pathlib
from typing import List, Optional, Union

import numpy as np

from repro.nist.common import BitsLike, BitSequence, pack_bits, to_bits
from repro.trng.source import EntropySource

__all__ = ["ReplaySource", "CaptureSource"]


class ReplaySource(EntropySource):
    """Replay a stored bit sequence as an entropy source.

    Parameters
    ----------
    bits:
        Anything :func:`repro.nist.common.to_bits` accepts (bit string, list,
        numpy array, raw bytes — unpacked MSB first).
    loop:
        When True the stream restarts from the beginning once exhausted;
        when False, requesting more bits than stored raises ``RuntimeError``
        (usually the right behaviour for certification replays, where
        silently recycling data would invalidate the statistics).
    """

    def __init__(self, bits: BitsLike, loop: bool = False, bit_length: Optional[int] = None):
        self._bits = to_bits(bits)
        if bit_length is not None:
            if not 0 < bit_length <= self._bits.size:
                raise ValueError(
                    f"bit_length must lie in 1..{self._bits.size}, got {bit_length}"
                )
            self._bits = self._bits[:bit_length]
        if self._bits.size == 0:
            raise ValueError("cannot replay an empty capture")
        self.loop = loop
        self._position = 0

    @classmethod
    def from_file(
        cls,
        path: Union[str, pathlib.Path],
        loop: bool = False,
        bit_length: Optional[int] = None,
    ) -> "ReplaySource":
        """Replay a raw byte file (every byte contributes 8 bits, MSB first).

        Byte files cannot represent a bit count that is not a multiple of 8:
        :meth:`CaptureSource.save` zero-pads the last byte.  Pass the exact
        ``bit_length`` (as returned by ``save``) to drop that padding so a
        capture round-trips bit-identically regardless of its length.
        """
        data = pathlib.Path(path).read_bytes()
        if not data:
            raise ValueError(f"capture file {path} is empty")
        return cls(data, loop=loop, bit_length=bit_length)

    @property
    def total_bits(self) -> int:
        """Number of stored bits."""
        return int(self._bits.size)

    @property
    def remaining_bits(self) -> Optional[int]:
        """Bits left before exhaustion (None when looping)."""
        if self.loop:
            return None
        return self.total_bits - self._position

    def _exhausted_error(self) -> RuntimeError:
        return RuntimeError(
            f"replay exhausted after {self.total_bits} bits; "
            "construct with loop=True to recycle the capture"
        )

    def _generate_block(self, n: int) -> np.ndarray:
        if n == 0:
            return np.zeros(0, dtype=np.uint8)
        if not self.loop:
            if self._position + n > self._bits.size:
                raise self._exhausted_error()
            out = self._bits[self._position : self._position + n].copy()
            self._position += n
            return out
        indices = (self._position + np.arange(n, dtype=np.int64)) % self._bits.size
        self._position = int((self._position + n) % self._bits.size)
        return self._bits[indices]

    def reset(self) -> None:
        super().reset()
        self._position = 0

    @property
    def name(self) -> str:
        return f"ReplaySource(total_bits={self.total_bits}, loop={self.loop})"


class CaptureSource(EntropySource):
    """Wrap a source and record every bit it emits.

    Useful for post-mortem analysis: when the on-the-fly monitor flags a
    sequence, the captured bits can be re-examined with the full reference
    NIST suite (including the six tests the hardware cannot run).

    Every bit this source hands out, through any entry, is pulled from the
    wrapped source by :meth:`_generate_block` and recorded there, so the
    capture is exactly the consumer-visible stream.
    """

    def __init__(self, source: EntropySource, max_bits: Optional[int] = None):
        if max_bits is not None and max_bits <= 0:
            raise ValueError("max_bits must be positive when given")
        self.source = source
        self.max_bits = max_bits
        # Recorded blocks in consumer order.
        self._chunks: List[np.ndarray] = []
        self._captured_bits = 0

    def _room(self) -> Optional[int]:
        if self.max_bits is None:
            return None
        return self.max_bits - self._captured_bits

    def _generate_block(self, n: int) -> np.ndarray:
        block = self.source.generate_block(n)
        recorded = block
        room = self._room()
        if room is not None:
            recorded = block[:room]
        if recorded.size:
            self._chunks.append(recorded.copy())
            self._captured_bits += int(recorded.size)
        return block

    @property
    def captured_bits(self) -> int:
        """Number of bits recorded so far."""
        return self._captured_bits

    def captured(self) -> BitSequence:
        """The recorded bits as a :class:`BitSequence`."""
        if not self._chunks:
            return BitSequence(np.zeros(0, dtype=np.uint8))
        return BitSequence(np.concatenate(self._chunks))

    def save(self, path: Union[str, pathlib.Path]) -> int:
        """Write the capture as packed bytes (MSB first); returns the exact
        number of bits captured.

        Trailing bits that do not fill a whole byte are zero-padded in the
        file (the shared :func:`~repro.nist.common.pack_bits` convention).
        The returned bit count is what makes the round-trip lossless: pass
        it as ``bit_length`` to :meth:`ReplaySource.from_file` so the
        replay stops at the real data instead of treating the pad bits as
        captured output.
        """
        bits = self.captured().bits
        pathlib.Path(path).write_bytes(pack_bits(bits).tobytes())
        return int(bits.size)

    def clear(self) -> None:
        """Drop the recorded bits (the wrapped source is untouched)."""
        self._chunks = []
        self._captured_bits = 0

    def reset(self) -> None:
        super().reset()
        self.source.reset()
        self.clear()

    @property
    def name(self) -> str:
        return f"CaptureSource({self.source.name})"
