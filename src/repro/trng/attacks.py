"""Active-attack models against the TRNG and against the test logic itself.

Section II-B of the paper lists the threats that motivate on-the-fly
testing: frequency injection through the power supply [15], contactless
electromagnetic injection [16], wire cutting, and — against the *test
hardware* — probing/grounding of the alarm signal (the motivation for the
paper's value-based reporting).  Each threat is modelled here either as a
wrapper that degrades an underlying entropy source or, for the probing
attack, as a tampering model applied to the reporting channel.

The wrappers are block-native like every other source: they transform whole
blocks pulled from their target (splitting a block at the staged attack
onset where needed) instead of falling back to bit loops, so an attacked
source streams at the same vectorised rate as a healthy one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.trng.oscillator import RingOscillatorTRNG
from repro.trng.source import EntropySource, SeededSource

__all__ = [
    "FrequencyInjectionAttack",
    "EMInjectionAttack",
    "ProbingAttack",
    "AttackScenario",
]


class FrequencyInjectionAttack(EntropySource):
    """Frequency-injection (power-supply) attack on a ring-oscillator TRNG.

    Following Markettos & Moore (CHES 2009), injecting a signal close to the
    ring-oscillator frequency through the supply locks the oscillator and
    collapses its jitter.  The attack wraps a :class:`RingOscillatorTRNG`
    and, once activated, locks it with the requested strength.

    Parameters
    ----------
    target:
        The ring-oscillator TRNG under attack.
    lock_strength:
        Jitter suppression when the attack is active (1.0 = complete lock).
    start_bit:
        Bit index at which the injection begins (the attack can be staged
        mid-stream, which is the interesting case for on-the-fly detection).
    """

    def __init__(
        self,
        target: RingOscillatorTRNG,
        lock_strength: float = 1.0,
        start_bit: int = 0,
    ):
        if start_bit < 0:
            raise ValueError("start_bit must be non-negative")
        self.target = target
        self.lock_strength = float(lock_strength)
        self.start_bit = int(start_bit)
        self._emitted = 0

    def _generate_block(self, n: int) -> np.ndarray:
        pieces = []
        remaining = n
        if self._emitted < self.start_bit and remaining:
            # Pre-injection stretch: pass the free-running target through.
            pre = min(remaining, self.start_bit - self._emitted)
            pieces.append(self.target.generate_block(pre))
            self._emitted += pre
            remaining -= pre
        if remaining:
            if self._emitted == self.start_bit:
                self.target.lock(self.lock_strength)
            pieces.append(self.target.generate_block(remaining))
            self._emitted += remaining
        if not pieces:
            return np.zeros(0, dtype=np.uint8)
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    def reset(self) -> None:
        super().reset()
        self.target.unlock()
        self.target.reset()
        self._emitted = 0

    @property
    def active(self) -> bool:
        """True once the injection has started."""
        return self._emitted > self.start_bit

    @property
    def name(self) -> str:
        return f"FrequencyInjectionAttack(strength={self.lock_strength}, start={self.start_bit})"


class EMInjectionAttack(SeededSource):
    """Electromagnetic-injection attack model.

    Following Bayon et al. (COSADE 2012), a near-field EM probe injects a
    periodic disturbance that partially synchronises the sampled bits with
    the injected carrier.  Modelled as a forced periodic pattern that each
    output bit follows with probability ``coupling`` (otherwise the
    underlying source's bit is passed through).

    Parameters
    ----------
    target:
        The entropy source under attack.
    coupling:
        Probability that a bit is overridden by the injected carrier.
    carrier_period:
        Period, in bits, of the injected carrier pattern.
    start_bit:
        Bit index at which the injection begins.
    seed:
        Seed for the coupling randomness.
    """

    def __init__(
        self,
        target: EntropySource,
        coupling: float = 0.8,
        carrier_period: int = 2,
        start_bit: int = 0,
        seed: Optional[int] = None,
    ):
        super().__init__(seed)
        if not 0.0 <= coupling <= 1.0:
            raise ValueError("coupling must lie in [0, 1]")
        if carrier_period <= 0:
            raise ValueError("carrier_period must be positive")
        if start_bit < 0:
            raise ValueError("start_bit must be non-negative")
        self.target = target
        self.coupling = float(coupling)
        self.carrier_period = int(carrier_period)
        self.start_bit = int(start_bit)
        self._emitted = 0

    def _generate_block(self, n: int) -> np.ndarray:
        source_bits = np.ascontiguousarray(self.target.generate_block(n), dtype=np.uint8)
        positions = np.arange(self._emitted, self._emitted + n, dtype=np.int64)
        self._emitted += n
        past_onset = positions >= self.start_bit
        count = int(np.count_nonzero(past_onset))
        if count == 0:
            return source_bits
        # One coupling uniform per post-onset bit (the coupling stream and
        # the target stream are independent generators, so pulling each in
        # bulk preserves both streams' draw order).
        overridden = np.zeros(n, dtype=bool)
        overridden[past_onset] = self._rng.random(count) < self.coupling
        # The carrier imposes its own waveform: high for the first half of
        # each carrier period.
        carrier = (positions % self.carrier_period) < self.carrier_period / 2
        return np.where(overridden, carrier.astype(np.uint8), source_bits)

    def reset(self) -> None:
        super().reset()
        self.target.reset()
        self._emitted = 0

    @property
    def name(self) -> str:
        return (
            f"EMInjectionAttack(coupling={self.coupling}, period={self.carrier_period}, "
            f"start={self.start_bit})"
        )


class ProbingAttack:
    """Probing/grounding attack on the test hardware's reporting channel.

    The paper's key architectural argument: if failures are reported through
    a single alarm wire, grounding that wire with a probe hides every
    failure.  If instead the hardware exports a *set of numerical counter
    values*, grounding the readout forces all values to zero — which is
    itself a blatantly non-random outcome that the software immediately
    flags.  This class models both channels so the difference can be
    demonstrated (see ``examples/attack_detection.py`` and the
    ``tests/test_core_reporting.py`` suite).

    Parameters
    ----------
    mode:
        ``"ground"`` forces the probed signal(s) to 0; ``"vdd"`` forces them
        to all-ones (the other classic fault-injection level).
    """

    def __init__(self, mode: str = "ground"):
        if mode not in ("ground", "vdd"):
            raise ValueError("mode must be 'ground' or 'vdd'")
        self.mode = mode

    def tamper_alarm(self, alarm: bool) -> bool:
        """Effect of probing a single-wire alarm signal."""
        return False if self.mode == "ground" else True

    def tamper_value(self, value: int, width: int) -> int:
        """Effect of probing a ``width``-bit numerical readout value."""
        if self.mode == "ground":
            return 0
        return (1 << width) - 1

    @property
    def name(self) -> str:
        return f"ProbingAttack(mode={self.mode})"


@dataclass
class AttackScenario:
    """A named attack scenario bundling a source with a description.

    Used by the detection benchmarks to iterate over the threat catalogue of
    Section II-B.
    """

    label: str
    source: EntropySource
    description: str = ""
    expected_detectable: bool = True
