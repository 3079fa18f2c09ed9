"""Biased entropy source (independent bits, P(1) != 1/2)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.trng.source import SeededSource

__all__ = ["BiasedSource"]


class BiasedSource(SeededSource):
    """Independent bits with a fixed probability of producing a one.

    Models a statistically weakened entropy source, e.g. an unbalanced
    sampling latch or a TRNG operated outside its specified supply-voltage
    range.  The frequency, block-frequency and cumulative-sums tests are the
    ones expected to catch this weakness first.

    Parameters
    ----------
    p_one:
        Probability of emitting a one, in [0, 1].
    seed:
        Seed of the backing pseudo-random generator.
    """

    def __init__(self, p_one: float, seed: Optional[int] = None):
        super().__init__(seed)
        if not 0.0 <= p_one <= 1.0:
            raise ValueError("p_one must lie in [0, 1]")
        self.p_one = float(p_one)

    def _generate_block(self, n: int) -> np.ndarray:
        # One uniform draw per bit, exactly like the bit-serial path.
        bits = np.empty(n, dtype=np.uint8)
        np.less(self._rng.random(n), self.p_one, out=bits.view(np.bool_))
        return bits

    @property
    def name(self) -> str:
        return f"BiasedSource(p_one={self.p_one})"
