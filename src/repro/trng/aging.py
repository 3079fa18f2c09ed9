"""Aging-degradation model of an entropy source.

Section II-B notes that, besides active attacks, a designer must worry about
failures due to aging.  Aging (NBTI/HCI-type drift) typically manifests as a
slow drift of the sampling threshold — i.e. a slowly growing bias — possibly
accompanied by growing correlation as the noise margin shrinks.  The
long-sequence ("slow") tests of the platform exist to catch exactly this.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.trng.source import SeededSource

__all__ = ["AgingSource"]


class AgingSource(SeededSource):
    """A source whose bias drifts linearly with the number of emitted bits.

    Parameters
    ----------
    drift_per_bit:
        Increase of P(1) per emitted bit (can be negative).  Typical
        interesting values are tiny (e.g. ``1e-7``): the drift is invisible
        to short "quick" tests but accumulates over the 2^20-bit sequences of
        the paper's long-term design point.
    initial_bias:
        Starting P(1) (default 0.5 — a healthy source).
    max_bias, min_bias:
        Saturation limits of the drifting bias.
    seed:
        Seed of the backing pseudo-random generator.
    """

    def __init__(
        self,
        drift_per_bit: float = 1e-7,
        initial_bias: float = 0.5,
        max_bias: float = 1.0,
        min_bias: float = 0.0,
        seed: Optional[int] = None,
    ):
        super().__init__(seed)
        if not 0.0 <= initial_bias <= 1.0:
            raise ValueError("initial_bias must lie in [0, 1]")
        if not 0.0 <= min_bias <= max_bias <= 1.0:
            raise ValueError("need 0 <= min_bias <= max_bias <= 1")
        self.drift_per_bit = float(drift_per_bit)
        self.initial_bias = float(initial_bias)
        self.max_bias = float(max_bias)
        self.min_bias = float(min_bias)
        self._emitted = 0

    def current_bias(self) -> float:
        """P(1) for the next bit, after the drift accumulated so far."""
        bias = self.initial_bias + self.drift_per_bit * self._emitted
        return min(max(bias, self.min_bias), self.max_bias)

    def _generate_block(self, n: int) -> np.ndarray:
        u = self._rng.random(n)
        ages = np.arange(self._emitted, self._emitted + n, dtype=np.int64)
        bias = self.initial_bias + self.drift_per_bit * ages
        np.clip(bias, self.min_bias, self.max_bias, out=bias)
        self._emitted += n
        return (u < bias).astype(np.uint8)

    def reset(self) -> None:
        super().reset()
        self._emitted = 0

    @property
    def age_bits(self) -> int:
        """Number of bits emitted so far (the model's notion of age)."""
        return self._emitted

    @property
    def name(self) -> str:
        return f"AgingSource(drift={self.drift_per_bit}, start={self.initial_bias})"
