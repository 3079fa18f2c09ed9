"""Tests of the continuous on-the-fly monitor and its health policy."""

import pytest

from repro.core.monitor import HealthState, OnTheFlyMonitor
from repro.core.platform import OnTheFlyPlatform
from repro.trng import (
    AgingSource,
    BiasedSource,
    BurstFailureSource,
    IdealSource,
    StuckAtSource,
)


@pytest.fixture()
def monitor():
    return OnTheFlyMonitor(OnTheFlyPlatform("n128_light"), suspect_after=1, fail_after=2)


class TestHealthPolicy:
    def test_policy_validation(self):
        platform = OnTheFlyPlatform("n128_light")
        with pytest.raises(ValueError):
            OnTheFlyMonitor(platform, suspect_after=0)
        with pytest.raises(ValueError):
            OnTheFlyMonitor(platform, suspect_after=3, fail_after=2)

    def test_healthy_source_stays_healthy(self, monitor):
        events = monitor.monitor(IdealSource(seed=60), num_sequences=5)
        assert len(events) == 5
        assert monitor.state is HealthState.HEALTHY
        assert monitor.failure_rate() <= 0.2

    def test_dead_source_fails_quickly(self, monitor):
        events = monitor.monitor(StuckAtSource(0), num_sequences=3)
        assert events[0].state is HealthState.SUSPECT
        assert events[1].state is HealthState.FAILED
        assert monitor.state is HealthState.FAILED
        assert monitor.failure_rate() == 1.0

    def test_detection_latency(self, monitor):
        monitor.monitor(StuckAtSource(0), num_sequences=3)
        assert monitor.detection_latency_bits() == 2 * 128

    def test_detection_latency_none_when_healthy(self, monitor):
        monitor.monitor(IdealSource(seed=61), num_sequences=3)
        assert monitor.detection_latency_bits() is None

    def test_recovery_resets_consecutive_count(self, monitor):
        monitor.monitor(StuckAtSource(0), num_sequences=1)
        assert monitor.state is HealthState.SUSPECT
        monitor.monitor(IdealSource(seed=62), num_sequences=1)
        assert monitor.state is HealthState.HEALTHY

    def test_monitor_until_failure_stops_early(self, monitor):
        events = list(monitor.monitor_until_failure(StuckAtSource(1), max_sequences=50))
        assert events[-1].state is HealthState.FAILED
        assert len(events) == 2

    def test_monitor_until_failure_respects_budget(self, monitor):
        events = list(monitor.monitor_until_failure(IdealSource(seed=63), max_sequences=4))
        assert len(events) == 4

    def test_reset_clears_history(self, monitor):
        monitor.monitor(StuckAtSource(0), num_sequences=2)
        monitor.reset()
        assert monitor.state is HealthState.HEALTHY
        assert monitor.sequences_monitored == 0
        assert monitor.failure_rate() == 0.0

    def test_event_callback_invoked(self):
        seen = []
        monitor = OnTheFlyMonitor(
            OnTheFlyPlatform("n128_light"), on_event=seen.append
        )
        monitor.monitor(IdealSource(seed=64), num_sequences=3)
        assert len(seen) == 3
        assert seen[0].sequence_index == 0

    def test_num_sequences_validation(self, monitor):
        with pytest.raises(ValueError):
            monitor.monitor(IdealSource(seed=65), num_sequences=0)


class TestLatencyAndAttributionHooks:
    def test_first_indices_and_latency_sequences(self, monitor):
        monitor.monitor(StuckAtSource(0), num_sequences=4)
        assert monitor.first_suspect_index == 0  # suspect_after=1
        assert monitor.first_failed_index == 1  # fail_after=2
        assert monitor.detection_latency_sequences() == 2
        assert monitor.detection_latency_bits() == 2 * 128

    def test_hooks_none_while_healthy(self, monitor):
        monitor.monitor(IdealSource(seed=70), num_sequences=3)
        assert monitor.first_failed_index is None
        assert monitor.detection_latency_sequences() is None
        if monitor.failure_rate() == 0:
            assert monitor.first_suspect_index is None
            assert monitor.first_failing_tests is None
            assert monitor.failing_test_counts() == {}

    def test_first_failing_tests_and_counts(self, monitor):
        monitor.monitor(StuckAtSource(1), num_sequences=3)
        # a constant-1 source fails every test of the n128_light design
        assert monitor.first_failing_tests == (1, 2, 3, 4, 13)
        assert monitor.failing_test_counts() == {t: 3 for t in (1, 2, 3, 4, 13)}

    def test_counts_survive_history_eviction(self):
        monitor = OnTheFlyMonitor(
            OnTheFlyPlatform("n128_light"), fail_after=2, max_history=1
        )
        monitor.monitor(StuckAtSource(0), num_sequences=5)
        assert monitor.failing_test_counts()[1] == 5
        assert monitor.first_failed_index == 1

    def test_reset_clears_hooks(self, monitor):
        monitor.monitor(StuckAtSource(0), num_sequences=3)
        monitor.reset()
        assert monitor.first_failed_index is None
        assert monitor.first_suspect_index is None
        assert monitor.first_failing_tests is None
        assert monitor.failing_test_counts() == {}

    def test_failing_test_counts_returns_a_copy(self, monitor):
        monitor.monitor(StuckAtSource(0), num_sequences=2)
        counts = monitor.failing_test_counts()
        counts[1] = 999
        assert monitor.failing_test_counts()[1] != 999


class TestBatchedSequentialParity:
    def test_failing_source_trajectory_parity(self):
        """Batched and per-sequence monitoring must agree event for event on
        a source that fails some (but not all) sequences."""
        per_seq = OnTheFlyMonitor(
            OnTheFlyPlatform("n128_light"), suspect_after=1, fail_after=2
        )
        batched = OnTheFlyMonitor(
            OnTheFlyPlatform("n128_light"), suspect_after=1, fail_after=2
        )
        per_seq.monitor(BiasedSource(0.62, seed=88), num_sequences=8)
        batched.monitor(BiasedSource(0.62, seed=88), num_sequences=8, batch_size=3)
        assert per_seq.failure_rate() > 0.0  # the scenario actually fails
        assert [e.state for e in per_seq.history] == [e.state for e in batched.history]
        assert [e.report.failing_tests for e in per_seq.history] == [
            e.report.failing_tests for e in batched.history
        ]
        assert per_seq.failure_rate() == batched.failure_rate()
        assert per_seq.first_failed_index == batched.first_failed_index
        assert per_seq.first_suspect_index == batched.first_suspect_index
        assert per_seq.first_failing_tests == batched.first_failing_tests
        assert per_seq.failing_test_counts() == batched.failing_test_counts()
        assert (
            per_seq.detection_latency_sequences()
            == batched.detection_latency_sequences()
        )


class TestMonitorScenarios:
    def test_intermittent_bursts_raise_suspicion(self):
        """A bursty source fails some sequences and is flagged SUSPECT."""
        monitor = OnTheFlyMonitor(
            OnTheFlyPlatform("n128_light"), suspect_after=1, fail_after=3
        )
        source = BurstFailureSource(burst_rate=0.02, burst_length=96, seed=66)
        monitor.monitor(source, num_sequences=20)
        assert monitor.failure_rate() > 0.0

    def test_aging_detected_eventually(self):
        """Slow aging drift passes at first and is caught once it accumulates."""
        monitor = OnTheFlyMonitor(
            OnTheFlyPlatform("n128_light"), suspect_after=1, fail_after=2
        )
        source = AgingSource(drift_per_bit=2e-4, seed=67)
        events = monitor.monitor(source, num_sequences=12)
        assert events[0].report.passed  # young source looks fine
        assert monitor.state is HealthState.FAILED  # old source caught
