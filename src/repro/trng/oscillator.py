"""Behavioural model of a ring-oscillator-based TRNG.

The classic elementary ring-oscillator TRNG samples a fast, free-running
oscillator with a slower sampling clock; entropy comes from the accumulated
phase jitter between samples.  This model reproduces that mechanism at the
phase level so that the physical attacks of the paper's Section II-B
(frequency injection locking the oscillator, electromagnetic injection) have
a faithful software counterpart: when the oscillator locks to the injected
frequency, the jitter-to-period ratio collapses and the output becomes
deterministic/periodic, which is exactly the failure the on-the-fly tests
must detect.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.trng.source import SeededSource

__all__ = ["RingOscillatorTRNG"]

#: Absolute sample indices at which the accumulated phase is reduced mod 1.
#: Reduction points are fixed in the stream (not at block boundaries) so the
#: emitted bits stay split-invariant while the accumulator never grows far
#: enough for float64 to lose the sub-period phase resolution.
_RENORM_INTERVAL = 1 << 16


class RingOscillatorTRNG(SeededSource):
    """Jitter-sampling ring-oscillator TRNG model.

    Parameters
    ----------
    ratio:
        Ratio between the sampling period and the ring-oscillator period
        (i.e. how many RO periods elapse between two samples).  Non-integer
        fractional parts create a deterministic phase drift on top of which
        jitter accumulates.
    jitter:
        RMS period jitter of the ring oscillator, expressed as a fraction of
        the RO period.  The per-sample accumulated jitter grows with
        ``sqrt(ratio)``; the default (0.05 with a ratio of ~200) gives an
        accumulated per-sample jitter of ~0.7 RO periods, i.e. a healthy
        source whose samples are essentially independent.
    locked:
        When True the oscillator is locked to an external signal (the effect
        of a frequency-injection attack): jitter accumulation is suppressed
        by ``lock_strength``.
    lock_strength:
        Fraction (0..1) by which locking suppresses jitter; 1.0 means fully
        deterministic output.
    seed:
        Seed of the backing pseudo-random generator.
    """

    def __init__(
        self,
        ratio: float = 200.25,
        jitter: float = 0.05,
        locked: bool = False,
        lock_strength: float = 1.0,
        seed: Optional[int] = None,
    ):
        super().__init__(seed)
        if ratio <= 0:
            raise ValueError("ratio must be positive")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        if not 0.0 <= lock_strength <= 1.0:
            raise ValueError("lock_strength must lie in [0, 1]")
        self.ratio = float(ratio)
        self.jitter = float(jitter)
        self.locked = bool(locked)
        self.lock_strength = float(lock_strength)
        # Phase of the RO at the next sample, in periods.  Accumulated
        # *unreduced* between the fixed renormalisation points above, so the
        # stream does not depend on how it is chopped into blocks.
        self._phase = self._uniform()
        self._sample_index = 0

    # -- attack hooks ------------------------------------------------------
    def lock(self, strength: float = 1.0) -> None:
        """Lock the oscillator to an injected frequency (attack effect)."""
        if not 0.0 <= strength <= 1.0:
            raise ValueError("strength must lie in [0, 1]")
        self.locked = True
        self.lock_strength = float(strength)

    def unlock(self) -> None:
        """Remove the injection lock."""
        self.locked = False

    # -- entropy source protocol -------------------------------------------
    def effective_jitter(self) -> float:
        """Accumulated phase jitter (in RO periods) between two samples."""
        sigma = self.jitter * math.sqrt(self.ratio)
        if self.locked:
            sigma *= 1.0 - self.lock_strength
        return sigma

    def _generate_block(self, n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.uint8)
        pos = 0
        while pos < n:
            to_renorm = _RENORM_INTERVAL - (self._sample_index % _RENORM_INTERVAL)
            k = min(n - pos, to_renorm)
            sigma = self.effective_jitter()
            steps = np.full(k, self.ratio)
            if sigma > 0:
                steps += self._rng.normal(0.0, sigma, size=k)
            # Seeding the cumulative sum with the carried phase keeps the
            # left-to-right accumulation identical across any block split.
            phases = np.cumsum(np.concatenate(([self._phase], steps)))[1:]
            # Sample the RO output: high for the first half of its period.
            # ``x - floor(x)`` is exactly numpy's ``x % 1.0`` for every
            # float64: ``%`` is an exact fmod plus at most one ``+ 1.0``, and
            # both round to the same value, agreeing on ±0, integers
            # >= 2**52, ±inf and nan (``tests/test_trng_stream_pins.py``).
            # It skips the modulo's division loop, ~12x cheaper per sample.
            fraction = np.floor(phases)
            np.subtract(phases, fraction, out=fraction)
            np.less(fraction, 0.5, out=out[pos : pos + k].view(np.bool_))
            self._phase = float(phases[-1])
            self._sample_index += k
            if self._sample_index % _RENORM_INTERVAL == 0:
                self._phase %= 1.0
            pos += k
        return out

    def reset(self) -> None:
        super().reset()
        self._phase = self._uniform()
        self._sample_index = 0

    @property
    def name(self) -> str:
        state = "locked" if self.locked else "free-running"
        return f"RingOscillatorTRNG(ratio={self.ratio}, jitter={self.jitter}, {state})"
