"""Base classes for entropy sources.

An entropy source is anything that produces a stream of bits.  The hardware
testing block (:mod:`repro.hwtests`) observes that stream one bit per clock
cycle, exactly as the paper's RTL reads the TRNG output; the source itself
has one stream hook, :meth:`EntropySource._generate_block`, a vectorised
generator of the next ``n`` stream bits.  Every other entry is built on it:

* :meth:`EntropySource.generate_block` checks ``n`` and returns the hook's
  bits as a contiguous uint8 array;
* :meth:`EntropySource.next_bit` is a one-bit block.  Nothing is buffered,
  so no source reads ahead of its consumer, and observables that track the
  stream position (an aging source's ``age_bits``, an attack's ``active``
  flag, a replay's ``remaining_bits``) always match the bits handed out;
* :meth:`EntropySource.generate_words` serves the same stream as 64-bit
  words in the engine's layout; by default it packs
  :meth:`EntropySource.generate_block`, and a source whose generator already
  yields words in that layout returns them without the pack.

Every implementation in this package is **split invariant**: a source's
stream depends only on its seed and state, never on how the stream is
chopped into blocks, so ``generate_block(a + b)`` equals
``generate_block(a)`` followed by ``generate_block(b)`` bit for bit, and
``n`` calls of ``next_bit()`` equal ``generate_block(n)`` (asserted source
by source in ``tests/test_trng_block_parity.py``).

A subclass that defines ``next_bit`` is rejected with a ``TypeError`` when
the class is created: the stream is whatever ``_generate_block`` emits, so
such an override would be bypassed by every bulk consumer.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.nist.common import BitSequence

__all__ = ["EntropySource", "SeededSource"]


class EntropySource(abc.ABC):
    """Abstract block-native entropy source.

    Concrete sources implement :meth:`_generate_block`; single-bit access,
    bulk generation and packed words are provided on top of it.  Sources are
    stateful: consecutive calls continue the same underlying stream.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "next_bit" in vars(cls):
            raise TypeError(
                f"{cls.__name__} defines next_bit(); an entropy source's stream "
                "comes from _generate_block(n), so implement that instead"
            )

    # ------------------------------------------------------------- block API
    @abc.abstractmethod
    def _generate_block(self, n: int) -> np.ndarray:
        """Produce the next ``n`` stream bits as a uint8 array (subclass hook).

        Implementations must be split-invariant: the emitted stream may not
        depend on how it is partitioned into blocks.
        """

    def generate_block(self, n: int) -> np.ndarray:
        """Produce the next ``n`` bits of the stream as a uint8 numpy array."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return np.ascontiguousarray(self._generate_block(n), dtype=np.uint8)

    def generate_words(self, n: int) -> np.ndarray:
        """The next ``n`` stream bits packed into ``ceil(n / 64)`` ``<u8``
        words, in the engine's layout (:mod:`repro.engine.packed`): stream
        bit ``j`` is bit ``j % 64`` of word ``j // 64``, and the pad bits of
        the last word are zero.

        The packed entry the fleet round fills its word array from.  It
        emits the same stream as :meth:`generate_block`; this base version
        packs that block (validating that it holds only 0 and 1), and a
        source whose generator already yields words in this layout
        overrides it to skip the pack.
        """
        # Imported here: the source layer stays importable without pulling
        # in the engine package.
        from repro.engine.packed import pack_matrix

        return pack_matrix(self.generate_block(n)[np.newaxis]).words[0]

    def generate_matrix(self, num_sequences: int, n: int, packed: bool = False):
        """The next ``num_sequences * n`` stream bits as a ``(num_sequences,
        n)`` uint8 matrix (row ``i`` is the ``i``-th consecutive sequence).

        This is the shape the engine's batch path and the campaign runner
        consume directly, without intermediate :class:`BitSequence` copies.

        With ``packed=True`` the matrix is returned as a
        :class:`~repro.engine.packed.PackedMatrix` (64 bits per word)
        ready for the engine's packed kernels (built from
        :meth:`generate_words` when ``n`` is a multiple of 64) — the
        emitted *stream* is identical either way, only the container
        changes, so seeded runs stay reproducible across containers.
        """
        if num_sequences < 0:
            raise ValueError("num_sequences must be non-negative")
        if not packed:
            return self.generate_block(num_sequences * n).reshape(num_sequences, n)
        # Imported here: the source layer stays importable without pulling
        # in the engine package for plain matrix generation.
        from repro.engine.packed import PackedMatrix, pack_matrix

        if n % 64:
            return pack_matrix(self.generate_block(num_sequences * n).reshape(num_sequences, n))
        # Word-aligned rows: the packed stream is the packed matrix.
        words = self.generate_words(num_sequences * n)
        return PackedMatrix(words.reshape(num_sequences, n // 64), n)

    def next_bit(self) -> int:
        """Produce the next output bit (0 or 1): a one-bit block."""
        return int(self.generate_block(1)[0])

    def generate(self, n: int) -> BitSequence:
        """Produce ``n`` bits as a :class:`~repro.nist.common.BitSequence`.

        Use :meth:`generate_block` directly when a raw numpy array is enough.
        """
        return BitSequence(self.generate_block(n))

    def reset(self) -> None:
        """Reset any internal state.  Subclass overrides must call super()."""

    @property
    def name(self) -> str:
        """Human-readable source name (defaults to the class name)."""
        return type(self).__name__


class SeededSource(EntropySource):
    """Entropy source backed by a seeded pseudo-random generator.

    This is the common base of all behavioural models in this package: the
    underlying physical randomness (thermal noise, jitter) is emulated with a
    numpy ``Generator`` so that experiments are reproducible.
    """

    def __init__(self, seed: Optional[int] = None):
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    @property
    def seed(self) -> Optional[int]:
        """The seed this source was constructed with (None = OS entropy)."""
        return self._seed

    def reset(self) -> None:
        """Restart the underlying pseudo-random stream from the seed."""
        super().reset()
        self._rng = np.random.default_rng(self._seed)

    def _uniform(self) -> float:
        """One uniform draw in [0, 1) from the backing generator."""
        return float(self._rng.random())
