"""Fleet health columns against the scalar health machine.

:class:`~repro.fleet.health.FleetHealth` folds a round (one sequence per
device) or an ingest chunk (k sequences of one device) in one numpy pass;
every read must equal a per-device
:class:`~repro.core.monitor.OnTheFlyMonitor` fed the same verdicts, over
random failing masks, error rows, health policies and interleavings.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.core.monitor import OnTheFlyMonitor
from repro.core.platform import OnTheFlyPlatform
from repro.fleet import DeviceRegistry, FleetClient, FleetScheduler, serve
from repro.fleet.health import STATES, DeviceHealth, FleetHealth, FleetVerdict
from repro.trng import IdealSource

TESTS = (1, 2, 3, 4, 13)
PLATFORM = OnTheFlyPlatform("n128_light")


def verdict(failing_row, errors):
    failing_tests = tuple(number for number, flag in zip(TESTS, failing_row) if flag)
    return FleetVerdict(not failing_tests and not errors, failing_tests, errors)


def assert_reads_equal(view, monitor):
    assert view.state is monitor.state
    assert view.sequences_monitored == monitor.sequences_monitored
    assert view.failures_total == monitor.failures_total
    assert view.first_suspect_index == monitor.first_suspect_index
    assert view.first_failed_index == monitor.first_failed_index
    assert view.first_failing_tests == monitor.first_failing_tests
    assert view.failure_rate() == monitor.failure_rate()
    assert view.detection_latency_sequences() == monitor.detection_latency_sequences()
    assert view.history == list(monitor.history)
    assert view.state_dict() == monitor.state_dict()


@st.composite
def fold_plans(draw):
    suspect_after = draw(st.integers(1, 3))
    fail_after = draw(st.integers(suspect_after, 4))
    devices = draw(st.integers(1, 5))
    folds = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):  # a round: distinct devices, any order
            rows = draw(st.permutations(range(devices)))
            rows = rows[: draw(st.integers(1, devices))]
        else:  # an ingest chunk: k sequences of one device
            rows = [draw(st.integers(0, devices - 1))] * draw(st.integers(1, 8))
        failing = draw(
            st.lists(
                st.lists(
                    st.integers(0, 3).map(lambda value: value == 0),
                    min_size=len(TESTS),
                    max_size=len(TESTS),
                ),
                min_size=len(rows), max_size=len(rows),
            )
        )
        errors = {}
        for at in range(len(rows)):
            if draw(st.integers(0, 9)) == 0:
                messages = draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=2))
                errors[at] = tuple(sorted(messages))
        folds.append((np.array(rows, dtype=np.intp), np.array(failing, dtype=bool), errors))
    return suspect_after, fail_after, devices, folds


class TestFoldMatchesMonitors:
    @settings(max_examples=150, deadline=None)
    @given(plan=fold_plans())
    def test_fold_equals_per_device_monitors(self, plan):
        suspect_after, fail_after, devices, folds = plan
        health = FleetHealth(TESTS, suspect_after, fail_after)
        views = [DeviceHealth(health, health.add()) for _ in range(devices)]
        monitors = [
            OnTheFlyMonitor(PLATFORM, suspect_after, fail_after, max_history=1)
            for _ in range(devices)
        ]
        for rows, failing, errors in folds:
            # Column-major like a round's mask, or row-major like an ingest's.
            mask = np.asfortranarray(failing) if rows.size > 1 and rows[0] != rows[-1] else failing
            before = [monitors[row].state for row in rows]
            folded = health.fold(rows, mask, errors)
            events = health.events(folded, failing, errors)
            expected = []
            for at, row in enumerate(rows):
                before[at] = monitors[row].state
                expected.append(monitors[row].observe(verdict(failing[at], errors.get(at, ()))))
            assert events == expected
            assert [STATES[code] for code in folded.before] == before
            assert [STATES[code] for code in folded.state] == [event.state for event in expected]
        for view, monitor in zip(views, monitors):
            assert_reads_equal(view, monitor)
        assert health.counts() == {
            state.value: sum(monitor.state is state for monitor in monitors)
            for state in STATES
        }
        # The state round trip: a restored row reads the same, has no
        # history yet, and folds on exactly like the monitor.
        restored = FleetHealth(TESTS, suspect_after, fail_after)
        for view, monitor in zip(views, monitors):
            copy = DeviceHealth(restored, restored.add())
            copy.load_state(view.state_dict())
            assert copy.history == []
            assert copy.state_dict() == monitor.state_dict()
            step = FleetVerdict(False, (1,), ())
            assert copy.observe(step) == monitor.observe(step)
            assert_reads_equal(copy, monitor)

    def test_observe_takes_platform_reports(self):
        health = FleetHealth(TESTS)
        view = DeviceHealth(health, health.add())
        monitor = OnTheFlyMonitor(PLATFORM, max_history=1)
        for bits in (np.zeros(128, np.uint8), IdealSource(seed=4).generate_block(128)):
            report = PLATFORM.evaluate_sequence(bits)
            event = view.observe(report)
            assert event.state is monitor.observe(report).state
            assert event.report.passed == report.passed
            assert event.report.failing_tests == tuple(report.failing_tests)
        assert view.state_dict() == monitor.state_dict()

    def test_columns_grow_and_reset(self):
        health = FleetHealth(TESTS)
        rows = np.array([health.add() for _ in range(40)], dtype=np.intp)
        failing = np.zeros((40, len(TESTS)), dtype=bool)
        failing[::3, 0] = True
        health.fold(rows, failing, {})
        assert len(health) == 40
        assert health.counts() == {"healthy": 26, "suspect": 14, "failed": 0}
        view = DeviceHealth(health, 3)
        assert view.first_failing_tests == (1,)
        view.reset()
        assert view.sequences_monitored == 0 and view.history == []
        health.reset()
        assert health.counts() == {"healthy": 40, "suspect": 0, "failed": 0}

    def test_load_rejects_tests_outside_the_fleet(self):
        health = FleetHealth(TESTS)
        view = DeviceHealth(health, health.add())
        state = view.state_dict()
        state["failing_test_counts"] = {"7": 1}
        with pytest.raises(ValueError, match="test 7"):
            view.load_state(state)


def _sequence(passing):
    """A 128-bit sequence the fleet passes (seeded ideal) or fails (zeros)."""
    if not passing:
        return np.zeros(128, dtype=np.uint8)
    scheduler = FleetScheduler(DeviceRegistry("n128_light"))
    source = IdealSource(seed=11)
    while True:
        bits = source.generate_block(128)
        if scheduler.evaluate_matrix(bits[np.newaxis])[0].passed:
            return bits


def test_ingest_chunk_folds_like_a_monitor():
    """One /ingest chunk of 8 sequences: pass, fail, fail, pass, fail, fail,
    fail, pass under suspect_after=1, fail_after=2."""
    pattern = [True, False, False, True, False, False, False, True]
    chunk = np.concatenate([_sequence(passing) for passing in pattern])
    registry = DeviceRegistry("n128_light", suspect_after=1, fail_after=2)
    registry.register("edge")
    scheduler = FleetScheduler(registry)
    monitor = OnTheFlyMonitor(PLATFORM, suspect_after=1, fail_after=2, max_history=1)
    verdicts = scheduler.evaluate_matrix(chunk.reshape(8, 128))
    assert [row_verdict.passed for row_verdict in verdicts] == pattern
    expected_pairs = {}
    for row_verdict in verdicts:
        before = monitor.state.value
        after = monitor.observe(row_verdict).state.value
        expected_pairs[(before, after)] = expected_pairs.get((before, after), 0) + 1
    transitions = obs.registry().get("repro_fleet_health_transitions_total")
    pairs = [(a.value, b.value) for a in STATES for b in STATES]
    counted = {pair: transitions.value(from_state=pair[0], to_state=pair[1]) for pair in pairs}

    server = serve(scheduler, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with FleetClient(f"http://127.0.0.1:{server.server_address[1]}", retries=0) as client:
            reply = client.ingest("edge", "".join(map(str, chunk.tolist())))
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    assert [row["state"] for row in reply["verdicts"]] == [
        "healthy", "suspect", "failed", "healthy", "suspect", "failed", "failed", "healthy",
    ]
    assert [row["passed"] for row in reply["verdicts"]] == pattern
    device = registry.get("edge").monitor
    assert device.first_suspect_index == monitor.first_suspect_index == 1
    assert device.first_failed_index == monitor.first_failed_index == 2
    assert device.state_dict() == monitor.state_dict()
    moved = {
        pair: transitions.value(from_state=pair[0], to_state=pair[1]) - counted[pair]
        for pair in pairs
    }
    assert {pair: count for pair, count in moved.items() if count} == expected_pairs
