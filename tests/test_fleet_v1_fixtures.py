"""The one scheduler mode against fixtures recorded by the former modes.

The fixtures under ``tests/fixtures/`` were recorded by
``tests/fixtures/record_v1_streaming.py`` on the last build with a fleet
streaming mode (see its docstring).  Matrix rounds plus per-device ingest
tails must give the same events, and must restore those builds' version-1
spools to the same fleet.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.fleet import DeviceRegistry, FleetScheduler, recover_fleet

FIXTURES = Path(__file__).parent / "fixtures"


def load(name):
    return json.loads((FIXTURES / name).read_text())


def bits_of(text):
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")


def event_dicts(events):
    return [
        {
            "sequence_index": event.sequence_index,
            "passed": event.report.passed,
            "failing_tests": list(event.report.failing_tests),
            "state": event.state.value,
        }
        for event in events
    ]


def round_key(fleet_round):
    data = fleet_round.to_dict()
    data.pop("elapsed_s")
    return data


def health_map(scheduler):
    return {device.device_id: device.snapshot() for device in scheduler.registry}


def recover_copy(tmp_path, spool):
    target = tmp_path / spool
    shutil.copytree(FIXTURES / spool, target)
    return recover_fleet(target)


def test_partial_chunk_ingest_gives_the_streaming_events():
    fixture = load("v1_streaming_partial_ingest.json")
    registry = DeviceRegistry(fixture["design"])
    for device_id in fixture["bits"]:
        registry.register(device_id)
    scheduler = FleetScheduler(registry)
    bits = {device_id: bits_of(text) for device_id, text in fixture["bits"].items()}
    for call in fixture["calls"]:
        chunk = bits[call["device"]][call["offset"] : call["offset"] + call["size"]]
        events = scheduler.ingest(call["device"], chunk)
        assert event_dicts(events) == call["events"], call
        assert scheduler.pending_bits(call["device"]) == call["pending_bits"], call
    assert health_map(scheduler) == fixture["health"]
    assert any(not event["passed"] for call in fixture["calls"] for event in call["events"])


class TestV1StreamingSpool:
    """A version-1 streaming snapshot plus journal, killed mid-run."""

    @pytest.fixture
    def expected(self):
        return load("v1_streaming_spool.json")

    def test_snapshot_is_a_v1_streaming_capture(self):
        payload = json.loads((FIXTURES / "v1_streaming_spool/snapshot.json").read_text())
        state = payload["scheduler"]
        assert state["version"] == 1 and state["streaming"] is True
        assert state["round_stream"] is not None
        assert any(spec["pending"] for spec in state["ingest_streams"].values())

    def test_recovers_to_the_recorded_fleet(self, tmp_path, expected):
        recovered, stats = recover_copy(tmp_path, "v1_streaming_spool")
        want = expected["recovered"]
        assert stats.to_dict() == want["replay"]
        assert recovered.registry.health_counts() == want["health_counts"]
        assert [round_key(r) for r in recovered.rounds] == want["rounds"]
        assert health_map(recovered) == want["health"]
        ids = recovered.registry.device_ids()
        assert {d: recovered.pending_bits(d) for d in ids} == want["pending_bits"]
        assert {d: recovered.last_ingest_seq(d) for d in ids} == want["last_seq"]

    def test_next_round_and_ingests_are_bit_identical(self, tmp_path, expected):
        recovered, _ = recover_copy(tmp_path, "v1_streaming_spool")
        assert round_key(recovered.run_round()) == expected["next_round"]
        assert health_map(recovered) == expected["health_after_round"]
        for call in expected["next_ingests"]:
            events = recovered.ingest(call["device"], bits_of(call["bits"]), seq=call["seq"])
            assert event_dicts(events) == call["events"], call
            assert recovered.pending_bits(call["device"]) == call["pending_bits"], call
        assert health_map(recovered) == expected["health_after_ingests"]

    def test_recovered_fleet_snapshots_as_version_2(self, tmp_path):
        recovered, _ = recover_copy(tmp_path, "v1_streaming_spool")
        state = recovered.state_dict()
        assert state["version"] == 2
        assert "streaming" not in state and "round_stream" not in state
        assert {d: spec["tail"].size for d, spec in state["ingest_streams"].items()} == {
            d: recovered.pending_bits(d) for d in state["ingest_streams"]
        }


def test_v1_matrix_spool_skips_the_chunks_it_rejected(tmp_path):
    """That build journaled a 7-bit and a 0-bit chunk before rejecting them;
    replay must not apply them, or the resent chunks would be duplicates."""
    expected = load("v1_matrix_spool.json")
    recovered, stats = recover_copy(tmp_path, "v1_matrix_spool")
    assert stats.to_dict() == expected["replay"]
    assert [round_key(r) for r in recovered.rounds] == expected["rounds"]
    assert health_map(recovered) == expected["health"]
    ids = recovered.registry.device_ids()
    assert {d: recovered.last_ingest_seq(d) for d in ids} == expected["last_seq"]
    assert all(recovered.pending_bits(d) == 0 for d in ids)
    assert round_key(recovered.run_round()) == expected["next_round"]
    assert health_map(recovered) == expected["health_after_round"]


@pytest.mark.parametrize("spool", ["v1_matrix_spool", "v1_streaming_spool"])
def test_v1_backend_field_is_ignored_on_recovery(tmp_path, spool):
    """A snapshot written when the scheduler still had a compute-backend
    option (here the byte-per-bit one) restores and replays exactly."""
    expected = load(f"{spool}.json")
    target = tmp_path / spool
    shutil.copytree(FIXTURES / spool, target)
    snapshot = target / "snapshot.json"
    payload = json.loads(snapshot.read_text())
    state = payload["scheduler"]
    state["backend"] = "uint8"
    streams = [state["round_stream"]] + [
        spec["context"] for spec in state["ingest_streams"].values()
    ]
    for stream in streams:
        if stream is not None:
            stream["backend"] = "uint8"
    snapshot.write_text(json.dumps(payload))

    recovered, _ = recover_fleet(target)
    assert round_key(recovered.run_round()) == expected["next_round"]
    assert health_map(recovered) == expected["health_after_round"]
    assert "backend" not in recovered.state_dict()
