"""Correlated entropy sources (serial dependence between successive bits)."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.trng.source import SeededSource

__all__ = ["CorrelatedSource", "OscillatingBiasSource"]


class CorrelatedSource(SeededSource):
    """First-order Markov source: each bit repeats the previous one with
    probability ``p_repeat``.

    With ``p_repeat = 0.5`` this degenerates to an ideal source.  Larger
    values model under-sampled oscillator TRNGs whose consecutive samples are
    correlated; the runs, serial and approximate-entropy tests are the ones
    designed to catch this weakness, while the plain frequency test does not
    (the marginal bit probability stays 1/2).

    Parameters
    ----------
    p_repeat:
        Probability that a bit equals the previous bit, in [0, 1].
    seed:
        Seed of the backing pseudo-random generator.
    """

    def __init__(self, p_repeat: float, seed: Optional[int] = None):
        super().__init__(seed)
        if not 0.0 <= p_repeat <= 1.0:
            raise ValueError("p_repeat must lie in [0, 1]")
        self.p_repeat = float(p_repeat)
        self._previous: Optional[int] = None

    def _generate_block(self, n: int) -> np.ndarray:
        if n == 0:
            return np.zeros(0, dtype=np.uint8)
        if self._previous is None:
            # The very first bit of the stream is one bounded integer draw;
            # every later bit is one uniform draw deciding repeat vs flip.
            first = int(self._rng.integers(0, 2))
            flips = (self._rng.random(n - 1) >= self.p_repeat).astype(np.int64)
        else:
            first = None
            flips = (self._rng.random(n) >= self.p_repeat).astype(np.int64)
        # bit_k = anchor XOR parity(flips up to k): the Markov chain reduced
        # to a cumulative XOR, one vectorised pass instead of n branches.
        parity = (np.cumsum(flips) & 1).astype(np.uint8)
        bits = np.empty(n, dtype=np.uint8)
        if first is None:
            bits[:] = self._previous ^ parity
        else:
            bits[0] = first
            bits[1:] = first ^ parity
        self._previous = int(bits[-1])
        return bits

    def reset(self) -> None:
        super().reset()
        self._previous = None

    @property
    def name(self) -> str:
        return f"CorrelatedSource(p_repeat={self.p_repeat})"


class OscillatingBiasSource(SeededSource):
    """Source whose bias drifts sinusoidally over time.

    Models slow environmental modulation (temperature cycling, supply ripple)
    of the entropy source.  The long-sequence block-frequency test is the one
    expected to catch it: individual short blocks see an almost constant but
    wrong bias, while the global ones count can still average out to n/2.

    Parameters
    ----------
    amplitude:
        Peak deviation of P(1) from 1/2 (0 <= amplitude <= 0.5).
    period:
        Modulation period in bits.
    seed:
        Seed of the backing pseudo-random generator.
    """

    def __init__(self, amplitude: float, period: int, seed: Optional[int] = None):
        super().__init__(seed)
        if not 0.0 <= amplitude <= 0.5:
            raise ValueError("amplitude must lie in [0, 0.5]")
        if period <= 0:
            raise ValueError("period must be positive")
        self.amplitude = float(amplitude)
        self.period = int(period)
        self._t = 0

    def current_bias(self) -> float:
        """Instantaneous P(1) at the current position in the stream."""
        return 0.5 + self.amplitude * math.sin(2.0 * math.pi * self._t / self.period)

    def _generate_block(self, n: int) -> np.ndarray:
        u = self._rng.random(n)
        t = np.arange(self._t, self._t + n, dtype=np.int64)
        bias = 0.5 + self.amplitude * np.sin(2.0 * math.pi * t / self.period)
        self._t += n
        return (u < bias).astype(np.uint8)

    def reset(self) -> None:
        super().reset()
        self._t = 0

    @property
    def name(self) -> str:
        return f"OscillatingBiasSource(amplitude={self.amplitude}, period={self.period})"
