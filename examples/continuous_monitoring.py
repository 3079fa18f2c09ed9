#!/usr/bin/env python3
"""Continuous monitoring of an aging TRNG (the "slow tests" use case).

Section II-B distinguishes quick tests (catching total failures within a few
hundred bits) from slow tests (catching long-term statistical weaknesses).
This example runs both at once, the way an integrator would deploy the
platform:

* a 128-bit light design acts as the fast health check,
* a 65536-bit high design watches for slowly developing weaknesses,
* the monitored TRNG suffers from aging drift — its bias grows by ~0.5 % per
  10^5 generated bits — plus occasional burst failures.

Run with:  python examples/continuous_monitoring.py
"""

import numpy as np

from repro import AgingSource, OnTheFlyPlatform
from repro.core.monitor import HealthState, OnTheFlyMonitor
from repro.trng import BurstFailureSource


class AgingWithBursts(AgingSource):
    """An aging source that additionally collapses for short bursts.

    During a burst the output is stuck at zero regardless of the aged
    source; outside bursts it is the aged bit, so the aging signature
    survives.
    """

    def __init__(self, drift_per_bit: float, burst_rate: float, seed: int):
        super().__init__(drift_per_bit=drift_per_bit, seed=seed)
        self._bursts = BurstFailureSource(
            burst_rate=burst_rate, burst_length=96, stuck_value=0, seed=seed + 1
        )

    def _generate_block(self, n: int) -> np.ndarray:
        bits = super()._generate_block(n)
        bits[self._bursts.burst_mask(n)] = 0
        return bits

    def reset(self) -> None:
        super().reset()
        self._bursts.reset()


def run_monitor(label: str, design_name: str, source, sequences: int) -> None:
    platform = OnTheFlyPlatform(design_name, alpha=0.01)
    monitor = OnTheFlyMonitor(platform, suspect_after=1, fail_after=2)
    print(f"\n{label}: design {design_name} (n = {platform.n}), "
          f"{sequences} consecutive sequences")
    print(f"  {'seq':>4s} {'bits seen':>12s} {'verdict':<28s} {'health':<8s}")
    events = monitor.monitor(source, num_sequences=sequences)
    for event in events:
        verdict = "pass" if event.report.passed else f"fail {event.report.failing_tests}"
        print(
            f"  {event.sequence_index:>4d} {(event.sequence_index + 1) * platform.n:>12d} "
            f"{verdict:<28s} {event.state.value:<8s}"
        )
    print(f"  failure rate: {monitor.failure_rate():.2f}   final state: {monitor.state.value}")
    if monitor.detection_latency_bits() is not None:
        print(f"  degradation flagged after {monitor.detection_latency_bits()} bits")


def main() -> None:
    print("Continuous on-the-fly monitoring of an aging TRNG")
    print("==================================================")

    # Fast health check: 128-bit sequences, quick tests only.  The aging is
    # far too slow for it, but it catches the burst failures the moment one
    # lands inside a monitored window.
    fast_source = AgingWithBursts(drift_per_bit=2e-7, burst_rate=2e-3, seed=42)
    run_monitor("Quick tests", "n128_light", fast_source, sequences=24)

    # Slow tests: 65536-bit sequences, all nine tests.  The drift accumulates
    # across sequences until the bias is large enough to reject.
    slow_source = AgingSource(drift_per_bit=2e-7, seed=43)
    run_monitor("Slow tests", "n65536_high", slow_source, sequences=12)

    print("\nInterpretation: the quick 128-bit design reacts within a couple of")
    print("hundred bits to total failures, while the long design accumulates")
    print("enough evidence to flag the slow aging drift — the two-tier setup the")
    print("paper recommends in Section II-B.")


if __name__ == "__main__":
    main()
