"""Tests of the batch executor, the test registry and batched monitoring."""

import sys
import threading

import numpy as np
import pytest

from repro.core.monitor import HealthState, OnTheFlyMonitor
from repro.core.platform import OnTheFlyPlatform
from repro.engine import (
    DEFAULT_REGISTRY,
    RegisteredTest,
    TestRegistry,
    run_batch,
)
from repro.nist.frequency import frequency_test
from repro.nist.suite import NistSuite
from repro.trng import BiasedSource, CorrelatedSource, IdealSource, StuckAtSource


@pytest.fixture(scope="module")
def batch_sequences():
    return [IdealSource(seed=100 + i).generate(2048).bits for i in range(4)]


class TestRegistryLookup:
    def test_all_layers_registered(self):
        ids = DEFAULT_REGISTRY.ids()
        assert sum(1 for test_id in ids if test_id.startswith("nist.")) == 15
        assert sum(1 for test_id in ids if test_id.startswith("fips.")) == 4
        assert "hw.platform" in ids

    def test_aliases_resolve_to_same_test(self):
        by_number = DEFAULT_REGISTRY.resolve(1)
        assert DEFAULT_REGISTRY.resolve("1") is by_number
        assert DEFAULT_REGISTRY.resolve("nist.1") is by_number
        assert DEFAULT_REGISTRY.resolve("nist.frequency") is by_number
        assert DEFAULT_REGISTRY.resolve(by_number) is by_number

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_REGISTRY.resolve("nist.nonexistent")

    def test_contains(self):
        assert "fips.poker" in DEFAULT_REGISTRY
        assert 11 in DEFAULT_REGISTRY
        assert "bogus" not in DEFAULT_REGISTRY

    def test_duplicate_registration_rejected(self):
        registry = TestRegistry()
        test = RegisteredTest(id="x", name="x", batch_runner=lambda batch: [])
        registry.register(test)
        with pytest.raises(ValueError):
            registry.register(RegisteredTest(id="x", name="y", batch_runner=lambda batch: []))
        registry.register(RegisteredTest(id="x", name="y", batch_runner=lambda batch: []),
                          replace=True)

    def test_custom_registry_usable_by_run_batch(self, batch_sequences):
        registry = TestRegistry()
        registry.register(
            RegisteredTest(
                id="custom.frequency",
                name="Custom",
                batch_runner=lambda batch: [
                    frequency_test(batch.row_bits(row))
                    for row in range(batch.num_sequences)
                ],
            )
        )
        reports = run_batch(batch_sequences[:2], tests=["custom.frequency"],
                            registry=registry)
        assert reports[0].results["custom.frequency"].p_value == frequency_test(
            batch_sequences[0]
        ).p_value


class TestRunBatch:
    def test_empty_batch(self):
        assert run_batch([]) == []

    def test_one_report_per_sequence_in_order(self, batch_sequences):
        reports = run_batch(batch_sequences, tests=[1, 3])
        assert len(reports) == len(batch_sequences)
        for bits, report in zip(batch_sequences, reports):
            assert report.n == bits.size
            assert set(report.results) == {"nist.frequency", "nist.runs"}

    def test_parameters_forwarded(self, batch_sequences):
        reports = run_batch(
            batch_sequences, tests=[2], parameters={2: {"block_length": 64}}
        )
        assert reports[0].results["nist.block_frequency"].details["block_length"] == 64

    def test_errors_collected(self):
        reports = run_batch([[0, 1] * 32], tests=[9])
        assert "nist.universal" in reports[0].errors
        assert not reports[0].results

    def test_errors_raised_when_requested(self):
        with pytest.raises(ValueError):
            run_batch([[0, 1] * 32], tests=[9], skip_errors=False)

    def test_duplicate_specs_run_once(self, batch_sequences):
        """Regression: the same test given by number and id alias used to run
        twice, silently overwriting its own result."""
        calls = []
        registry = TestRegistry()
        registry.register(
            RegisteredTest(
                id="count.frequency",
                name="Counting",
                batch_runner=lambda batch: calls.append(1) or [
                    frequency_test(batch.row_bits(row))
                    for row in range(batch.num_sequences)
                ],
                aliases=("cf",),
            )
        )
        reports = run_batch(
            batch_sequences[:1], tests=["count.frequency", "cf", "count.frequency"],
            registry=registry,
        )
        assert len(calls) == 1
        assert set(reports[0].results) == {"count.frequency"}

    def test_duplicate_nist_aliases_dedupe_preserving_order(self, batch_sequences):
        reports = run_batch(batch_sequences[:1], tests=[3, 1, "nist.runs", "1", 3])
        assert list(reports[0].results) == ["nist.runs", "nist.frequency"]

    @pytest.mark.parametrize("number", [1, 5, 7])
    def test_non_valueerror_recorded_not_raised(self, batch_sequences, number):
        """Regression: a non-ValueError from a test (here a TypeError from a
        bogus parameter) used to crash the whole batch despite skip_errors.
        Tests 1, 5 and 7 cover a P-value column, a kernel and a template
        entry."""
        reports = run_batch(
            batch_sequences[:2], tests=[number, 3],
            parameters={number: {"bogus_kwarg": 1}},
        )
        test_id = DEFAULT_REGISTRY.resolve(number).id
        for report in reports:
            assert test_id in report.errors
            assert report.errors[test_id].startswith("TypeError: ")
            assert "nist.runs" in report.results  # the rest of the batch ran

    @pytest.mark.parametrize("number", [1, 5, 7])
    def test_non_valueerror_raised_without_skip_errors(self, batch_sequences, number):
        """skip_errors=False surfaces the original exception type from
        every kind of batch entry."""
        with pytest.raises(TypeError):
            run_batch(batch_sequences[:2], tests=[number],
                      parameters={number: {"bogus_kwarg": 1}}, skip_errors=False)

    def test_conflicting_parameter_aliases_rejected(self, batch_sequences):
        """The same test keyed under two aliases with different kwargs must be
        an error, not a silent overwrite."""
        with pytest.raises(ValueError, match="conflicting parameters"):
            run_batch(
                batch_sequences[:1], tests=[2],
                parameters={2: {"block_length": 16},
                            "nist.block_frequency": {"block_length": 32}},
            )
        # identical kwargs under two aliases are harmless
        reports = run_batch(
            batch_sequences[:1], tests=[2],
            parameters={2: {"block_length": 64},
                        "nist.block_frequency": {"block_length": 64}},
        )
        assert reports[0].results["nist.block_frequency"].details["block_length"] == 64

    def test_report_helpers(self, batch_sequences):
        report = run_batch([np.ones(256, dtype=np.uint8)], tests=[1, 3])[0]
        assert not report.passed()
        assert "nist.frequency" in report.failing_tests()
        assert set(report.p_values()) == {"nist.frequency", "nist.runs"}

    def test_hw_platform_through_registry(self):
        sequences = [IdealSource(seed=55).generate(128).bits for _ in range(3)]
        reports = run_batch(
            sequences, tests=["hw.platform"],
            parameters={"hw.platform": {"design": "n128_light"}},
        )
        platform = OnTheFlyPlatform("n128_light")
        for bits, report in zip(sequences, reports):
            expected = platform.evaluate_sequence(bits, accelerated=True)
            result = report.results["hw.platform"]
            assert result.passed() == expected.passed
            assert result.details["failing_tests"] == expected.failing_tests

    def test_hw_platform_batches_in_concurrent_threads(self):
        """Regression: one cached platform model per design was shared by
        every caller, and evaluating a batch rewrites its hardware state, so
        two threads' batches corrupted each other's verdicts."""
        params = {"hw.platform": {"design": "n128_light"}}
        matrices = [
            IdealSource(seed=61).generate_matrix(400, 128),
            BiasedSource(0.8, seed=62).generate_matrix(400, 128),
        ]
        serial = [
            run_batch(matrix, tests=["hw.platform"], parameters=params).failing()
            for matrix in matrices
        ]
        masks = [None] * len(matrices)

        def evaluate(index):
            result = run_batch(matrices[index], tests=["hw.platform"], parameters=params)
            masks[index] = result.failing()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=evaluate, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        for mask, expected in zip(masks, serial):
            assert np.array_equal(mask, expected)

    def test_hw_platform_wrong_length_is_error(self):
        report = run_batch(
            [np.zeros(64, dtype=np.uint8)], tests=["hw.platform"],
            parameters={"hw.platform": {"design": "n128_light"}},
        )[0]
        assert "hw.platform" in report.errors

    def test_overlapping_windows_are_a_window_matrix(self):
        # Sliding windows (stride < n) need no streaming machinery: their
        # matrix runs through run_batch, bit-identical to each window alone.
        bits = IdealSource(seed=57).generate(1024).bits
        windows = np.lib.stride_tricks.sliding_window_view(bits, 512)[::96]
        result = run_batch(windows, tests=[1, 2, 3, 4, 13])
        assert len(result) == 6
        for row, start in enumerate(range(0, 513, 96)):
            alone = run_batch([bits[start : start + 512]], tests=[1, 2, 3, 4, 13])
            assert np.array_equal(result.p_values[row], alone.p_values[0])
            assert result[row] == alone[0]


class TestPlatformBatch:
    def test_evaluate_batch_matches_evaluate_sequence(self):
        platform = OnTheFlyPlatform("n128_light")
        sequences = [IdealSource(seed=66 + i).generate(128).bits for i in range(3)]
        batch_reports = platform.evaluate_batch(sequences)
        for bits, report in zip(sequences, batch_reports):
            solo = platform.evaluate_sequence(bits, accelerated=True)
            assert report.passed == solo.passed
            assert report.hardware_values == solo.hardware_values

    def test_evaluate_batch_rows_match_evaluate_sequence_on_every_unit(self):
        # The full design loads every unit kind (template counters and the
        # shared shift register's tail included) from its own row.
        platform = OnTheFlyPlatform("n65536_high")
        sequences = [
            IdealSource(seed=67).generate(65536).bits,
            BiasedSource(0.55, seed=68).generate(65536).bits,
            CorrelatedSource(0.75, seed=69).generate(65536).bits,
        ]
        batch_reports = platform.evaluate_batch(sequences)
        for bits, report in zip(sequences, batch_reports):
            assert repr(report) == repr(platform.evaluate_sequence(bits, accelerated=True))

    def test_evaluate_batch_validates_length(self):
        platform = OnTheFlyPlatform("n128_light")
        with pytest.raises(ValueError):
            platform.evaluate_batch([np.zeros(64, dtype=np.uint8)])


class TestBatchedMonitoring:
    def test_batched_trajectory_matches_per_sequence(self):
        per_seq = OnTheFlyMonitor(OnTheFlyPlatform("n128_light"), fail_after=2)
        batched = OnTheFlyMonitor(OnTheFlyPlatform("n128_light"), fail_after=2)
        per_seq.monitor(IdealSource(seed=321), num_sequences=6)
        batched.monitor(IdealSource(seed=321), num_sequences=6, batch_size=3)
        assert [e.state for e in per_seq.history] == [e.state for e in batched.history]
        assert per_seq.failure_rate() == batched.failure_rate()

    def test_batched_monitoring_detects_failure(self):
        monitor = OnTheFlyMonitor(OnTheFlyPlatform("n128_light"), fail_after=2)
        monitor.monitor(StuckAtSource(0), num_sequences=4, batch_size=4)
        assert monitor.state is HealthState.FAILED
        assert monitor.detection_latency_bits() == 2 * 128

    def test_invalid_batch_size(self):
        monitor = OnTheFlyMonitor(OnTheFlyPlatform("n128_light"))
        with pytest.raises(ValueError):
            monitor.monitor(IdealSource(seed=1), num_sequences=2, batch_size=0)


class TestBoundedHistory:
    def test_max_history_bounds_memory_but_keeps_exact_counters(self):
        monitor = OnTheFlyMonitor(
            OnTheFlyPlatform("n128_light"), fail_after=3, max_history=4
        )
        monitor.monitor(IdealSource(seed=11), num_sequences=10)
        assert len(monitor.history) == 4
        assert monitor.sequences_monitored == 10
        assert monitor.history[-1].sequence_index == 9

    def test_failure_rate_exact_after_eviction(self):
        observed = []
        monitor = OnTheFlyMonitor(
            OnTheFlyPlatform("n128_light"), fail_after=100, max_history=2,
            on_event=lambda event: observed.append(event.report.passed),
        )
        monitor.monitor(StuckAtSource(0), num_sequences=5)
        monitor.monitor(IdealSource(seed=12), num_sequences=5)
        assert len(monitor.history) == 2
        # Exact despite eviction: matches the rate over ALL observed events.
        expected = observed.count(False) / len(observed)
        assert expected >= 0.5  # the five stuck sequences all failed
        assert monitor.failure_rate() == pytest.approx(expected)

    def test_detection_latency_survives_eviction(self):
        monitor = OnTheFlyMonitor(
            OnTheFlyPlatform("n128_light"), fail_after=2, max_history=1
        )
        monitor.monitor(StuckAtSource(1), num_sequences=6)
        assert monitor.detection_latency_bits() == 2 * 128

    def test_reset_restores_bound_and_counters(self):
        monitor = OnTheFlyMonitor(
            OnTheFlyPlatform("n128_light"), fail_after=2, max_history=3
        )
        monitor.monitor(StuckAtSource(0), num_sequences=4)
        monitor.reset()
        assert monitor.sequences_monitored == 0
        assert monitor.failure_rate() == 0.0
        assert monitor.detection_latency_bits() is None
        assert monitor.history.maxlen == 3

    def test_invalid_max_history(self):
        with pytest.raises(ValueError):
            OnTheFlyMonitor(OnTheFlyPlatform("n128_light"), max_history=0)


class TestSuiteBatchApi:
    def test_suite_run_batch_reports_keyed_by_number(self, batch_sequences):
        suite = NistSuite(tests=[1, 11, 13])
        reports = suite.run_batch(batch_sequences)
        assert len(reports) == len(batch_sequences)
        assert sorted(reports[0].results) == [1, 11, 13]

    def test_suite_run_batch_collects_errors(self):
        suite = NistSuite(tests=[9])
        reports = suite.run_batch([[0, 1] * 32])
        assert 9 in reports[0].errors
