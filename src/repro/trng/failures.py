"""Total-failure models of the entropy source.

Section II-B of the paper motivates *quick* on-the-fly tests by total
failures: a cut signal wire, a dead source, a source stuck at a constant
value or oscillating deterministically.  These models produce exactly those
streams.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.trng.source import EntropySource, SeededSource

__all__ = ["StuckAtSource", "DeadSource", "AlternatingSource", "BurstFailureSource"]


class StuckAtSource(EntropySource):
    """Source stuck at a constant value (0 or 1).

    Models a cut signal wire (reads as constant 0) or a latched sampling
    flip-flop.
    """

    def __init__(self, value: int = 0):
        if value not in (0, 1):
            raise ValueError("value must be 0 or 1")
        self.value = int(value)

    def _generate_block(self, n: int) -> np.ndarray:
        return np.full(n, self.value, dtype=np.uint8)

    @property
    def name(self) -> str:
        return f"StuckAtSource(value={self.value})"


class DeadSource(StuckAtSource):
    """A completely disabled source — the wire-cut attack of Section II-B.

    Equivalent to :class:`StuckAtSource` with value 0; kept as a separate
    class so attack scenarios read naturally.
    """

    def __init__(self):
        super().__init__(value=0)

    @property
    def name(self) -> str:
        return "DeadSource"


class AlternatingSource(EntropySource):
    """Deterministic periodic source (e.g. ``010101...`` or a longer pattern).

    Models an oscillator locked exactly to a sub-multiple of the sampling
    clock: perfectly balanced ones/zeros (so the plain frequency test passes)
    but zero entropy.  The runs, serial and approximate-entropy tests are the
    ones that must catch it.

    Parameters
    ----------
    pattern:
        The repeating bit pattern (default ``(0, 1)``).
    """

    def __init__(self, pattern=(0, 1)):
        pattern = tuple(int(b) for b in pattern)
        if not pattern:
            raise ValueError("pattern must not be empty")
        if set(pattern) - {0, 1}:
            raise ValueError("pattern may only contain bits")
        self.pattern = pattern
        self._pattern_array = np.asarray(pattern, dtype=np.uint8)
        self._index = 0

    def _generate_block(self, n: int) -> np.ndarray:
        indices = (np.arange(n, dtype=np.int64) + self._index) % self._pattern_array.size
        self._index = int((self._index + n) % self._pattern_array.size)
        return self._pattern_array[indices]

    def reset(self) -> None:
        super().reset()
        self._index = 0

    @property
    def name(self) -> str:
        return f"AlternatingSource(pattern={''.join(map(str, self.pattern))})"


class BurstFailureSource(SeededSource):
    """A source that behaves ideally except for intermittent stuck intervals.

    Models aging-related intermittent failures or a marginal source that
    occasionally collapses for a stretch of ``burst_length`` bits.  The
    probability that any given bit starts a burst is ``burst_rate``.

    Two independent child streams are derived from the seed: a *trigger*
    stream consuming exactly one uniform per output bit (burst or not), and
    a *data* stream consuming one draw per healthy bit.  Decoupling them
    keeps the emitted stream split-invariant — the burst pattern depends
    only on absolute bit positions, never on block boundaries — which is
    what lets :meth:`_generate_block` vectorise the healthy stretches.

    Parameters
    ----------
    burst_rate:
        Per-bit probability of entering a stuck burst.
    burst_length:
        Length of each stuck burst, in bits.
    stuck_value:
        The constant value emitted during a burst.
    seed:
        Seed of the backing pseudo-random generator.
    """

    def __init__(
        self,
        burst_rate: float = 1e-4,
        burst_length: int = 256,
        stuck_value: int = 0,
        seed: Optional[int] = None,
    ):
        super().__init__(seed)
        if not 0.0 <= burst_rate <= 1.0:
            raise ValueError("burst_rate must lie in [0, 1]")
        if burst_length <= 0:
            raise ValueError("burst_length must be positive")
        if stuck_value not in (0, 1):
            raise ValueError("stuck_value must be 0 or 1")
        self.burst_rate = float(burst_rate)
        self.burst_length = int(burst_length)
        self.stuck_value = int(stuck_value)
        self._remaining_burst = 0
        self._spawn_rngs()

    def _spawn_rngs(self) -> None:
        data_seq, trigger_seq = np.random.SeedSequence(self._seed).spawn(2)
        self._rng = np.random.default_rng(data_seq)
        self._trigger_rng = np.random.default_rng(trigger_seq)

    def burst_mask(self, n: int) -> np.ndarray:
        """Advance the burst process by ``n`` bits: True where a bit falls
        inside a stuck burst.

        Draws only the trigger stream, so a wrapper can impose this source's
        bursts on another source's bits.
        """
        triggers = self._trigger_rng.random(n) < self.burst_rate
        burst = np.zeros(n, dtype=bool)
        end = self._remaining_burst  # burst carried in from the last block
        burst[: min(end, n)] = True
        # Bursts are sparse, so resolving overlaps iterates only the few
        # trigger positions (triggers inside an active burst are ignored,
        # matching the bit-serial semantics).
        for idx in np.flatnonzero(triggers):
            if idx < end:
                continue
            stop = min(idx + self.burst_length, n)
            burst[idx:stop] = True
            end = idx + self.burst_length
        self._remaining_burst = max(0, end - n)
        return burst

    def _generate_block(self, n: int) -> np.ndarray:
        burst = self.burst_mask(n)
        out = np.full(n, self.stuck_value, dtype=np.uint8)
        healthy = ~burst
        count = int(np.count_nonzero(healthy))
        if count:
            out[healthy] = self._rng.integers(0, 2, size=count).astype(np.uint8)
        return out

    def reset(self) -> None:
        super().reset()
        self._spawn_rngs()
        self._remaining_burst = 0

    @property
    def name(self) -> str:
        return (
            f"BurstFailureSource(rate={self.burst_rate}, length={self.burst_length}, "
            f"value={self.stuck_value})"
        )
