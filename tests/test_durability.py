"""Durability layer: snapshots, journal, replay, and state round-trips.

The load-bearing invariant throughout: ``load_state(state_dict())`` puts a
fresh object into a state *bit-identical* to the original — pinned not by
comparing internals but by running both sides forward and demanding
identical observable behaviour (health verdicts, round reports, ingest
tails).
"""

import json
import threading

import numpy as np
import pytest

from repro.core.monitor import OnTheFlyMonitor
from repro.core.platform import OnTheFlyPlatform
from repro.fleet import (
    DeviceRegistry,
    DuplicateIngestError,
    DurableFleet,
    FleetMix,
    FleetScheduler,
    IngestSequenceGapError,
    recover_fleet,
)
from repro.fleet.durability import (
    IngestJournal,
    atomic_write_bytes,
    atomic_write_json,
    decode_state,
    encode_state,
    read_journal,
    read_snapshot,
    replay_records,
    write_snapshot,
)


def make_fleet(devices=8, seed=5):
    registry = DeviceRegistry("n128_light")
    mix = FleetMix.parse("healthy-ideal:0.7,biased-0.60:0.3")
    registry.populate(devices, mix, seed=seed)
    return FleetScheduler(registry)


def round_key(fleet_round):
    data = fleet_round.to_dict()
    data.pop("elapsed_s")
    return data


def health_map(scheduler):
    return {d.device_id: d.snapshot() for d in scheduler.registry}


# ---------------------------------------------------------------- atomic IO
class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "state.bin"
        atomic_write_bytes(target, b"one")
        assert target.read_bytes() == b"one"
        atomic_write_bytes(target, b"two")
        assert target.read_bytes() == b"two"
        # No tmp droppings left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["state.bin"]

    def test_json_helper_reports_size(self, tmp_path):
        target = tmp_path / "state.json"
        size = atomic_write_json(target, {"a": 1})
        assert target.stat().st_size == size
        assert json.loads(target.read_text()) == {"a": 1}


# ---------------------------------------------------------------- codec
class TestStateCodec:
    def test_arrays_round_trip_dtype_exact(self):
        state = {
            "words": np.arange(6, dtype=np.uint64).reshape(2, 3) << np.uint64(60),
            "sums": np.array([[-3, 7]], dtype=np.int16),
            "walk": np.array([2**40, -(2**40)], dtype=np.int64),
            "blob": b"\x00\xff pickled",
            "nested": {"list": [1, "x", None], "scalar": np.int64(9)},
        }
        decoded = decode_state(json.loads(json.dumps(encode_state(state))))
        for key in ("words", "sums", "walk"):
            assert decoded[key].dtype == state[key].dtype
            np.testing.assert_array_equal(decoded[key], state[key])
        assert decoded["blob"] == state["blob"]
        assert decoded["nested"]["list"] == [1, "x", None]
        assert decoded["nested"]["scalar"] == 9


# ---------------------------------------------------------------- journal
class TestIngestJournal:
    def test_append_and_read(self, tmp_path):
        path = tmp_path / "wal.00000000.jsonl"
        with IngestJournal(path) as journal:
            journal.append_device("dev-a", scenario=None, seed=None)
            journal.append_ingest("dev-a", np.ones(12, dtype=np.uint8), seq=0)
            journal.append_round(3)
        records, torn = read_journal(path)
        assert not torn
        assert [r["t"] for r in records] == ["device", "ingest", "round"]
        assert records[1]["seq"] == 0 and records[1]["nbits"] == 12
        assert records[2]["index"] == 3

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "wal.00000000.jsonl"
        with IngestJournal(path) as journal:
            journal.append_round(0)
            journal.append_round(1)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])  # kill -9 mid-append
        records, torn = read_journal(path)
        assert torn
        assert [r["index"] for r in records] == [0]

    def test_corrupt_crc_stops_the_read(self, tmp_path):
        path = tmp_path / "wal.00000000.jsonl"
        with IngestJournal(path) as journal:
            journal.append_round(0)
        line = path.read_text()
        path.write_text("deadbeef" + line[8:])
        records, torn = read_journal(path)
        assert torn and records == []

    def test_append_after_close_reopens(self, tmp_path):
        path = tmp_path / "wal.00000000.jsonl"
        journal = IngestJournal(path)
        journal.append_round(0)
        journal.close()
        journal.append_round(1)  # request racing a checkpoint rotation
        journal.close()
        records, torn = read_journal(path)
        assert not torn and [r["index"] for r in records] == [0, 1]


# ------------------------------------------------------- monitor round-trip
class TestMonitorRoundTrip:
    def test_counters_and_state_survive(self):
        platform = OnTheFlyPlatform("n128_light", alpha=0.01)
        monitor = OnTheFlyMonitor(platform, suspect_after=1, fail_after=2)
        rng = np.random.default_rng(3)
        for _ in range(4):
            bits = (rng.random(128) < 0.95).astype(np.uint8)
            monitor.observe(platform.evaluate_sequence(bits))
        clone = OnTheFlyMonitor(platform, suspect_after=1, fail_after=2)
        clone.load_state(monitor.state_dict())
        assert clone.state == monitor.state
        assert clone.sequences_monitored == monitor.sequences_monitored
        assert clone.failures_total == monitor.failures_total
        assert clone.first_failed_index == monitor.first_failed_index
        assert clone.first_failing_tests == monitor.first_failing_tests
        # Both sides must keep folding identically.
        tail = platform.evaluate_sequence((rng.random(128) < 0.95).astype(np.uint8))
        assert monitor.observe(tail).state == clone.observe(tail).state
        assert clone.state == monitor.state
        assert clone.state_dict() == monitor.state_dict()

    def test_policy_mismatch_is_rejected(self):
        platform = OnTheFlyPlatform("n128_light", alpha=0.01)
        state = OnTheFlyMonitor(platform, suspect_after=1, fail_after=2).state_dict()
        other = OnTheFlyMonitor(platform, suspect_after=2, fail_after=3)
        with pytest.raises(ValueError):
            other.load_state(state)


# ------------------------------------------------------- scheduler round-trip
class TestSchedulerStateRoundTrip:
    def test_continued_rounds_are_bit_identical(self):
        scheduler = make_fleet()
        scheduler.run(3)
        state = scheduler.state_dict()

        registry = DeviceRegistry.from_state(state["registry"])
        clone = FleetScheduler(registry)
        clone.load_state(state)
        assert health_map(clone) == health_map(scheduler)
        assert len(clone.rounds) == len(scheduler.rounds)
        # The restored sources carry their RNG state: the next rounds match
        # the uninterrupted fleet bit for bit.
        for _ in range(2):
            assert round_key(clone.run_round()) == round_key(scheduler.run_round())
        clone.close()
        scheduler.close()

    def test_sequenced_ingest_state_survives(self):
        scheduler = make_fleet()
        device = scheduler.registry.device_ids()[0]
        rng = np.random.default_rng(1)
        for seq in range(3):
            scheduler.ingest(device, rng.integers(0, 2, 128, dtype=np.uint8), seq=seq)
        state = scheduler.state_dict()
        clone = FleetScheduler(DeviceRegistry.from_state(state["registry"]))
        clone.load_state(state)
        assert clone.last_ingest_seq(device) == 2
        with pytest.raises(DuplicateIngestError):
            clone.ingest(device, "0" * 128, seq=2)
        with pytest.raises(IngestSequenceGapError):
            clone.ingest(device, "0" * 128, seq=4)
        clone.close()
        scheduler.close()

    def test_tails_survive(self):
        scheduler = make_fleet()
        device = scheduler.registry.device_ids()[0]
        rng = np.random.default_rng(2)
        scheduler.ingest(device, rng.integers(0, 2, 300, dtype=np.uint8), seq=0)
        state = scheduler.state_dict()
        assert state["version"] == 2
        assert state["ingest_streams"][device]["tail"].size == 44
        clone = FleetScheduler(DeviceRegistry.from_state(state["registry"]))
        clone.load_state(decode_state(json.loads(json.dumps(encode_state(state)))))
        assert clone.pending_bits(device) == 44
        chunk = rng.integers(0, 2, 100, dtype=np.uint8)
        ours = clone.ingest(device, chunk, seq=1)
        theirs = scheduler.ingest(device, chunk, seq=1)
        assert [e.report for e in ours] == [e.report for e in theirs] and len(ours) == 1
        assert health_map(clone) == health_map(scheduler)
        assert clone.pending_bits(device) == scheduler.pending_bits(device) == 16
        clone.close()
        scheduler.close()

    def test_unknown_state_version_is_rejected(self):
        scheduler = make_fleet(devices=2)
        state = scheduler.state_dict()
        state["version"] = 3
        with pytest.raises(ValueError, match="unsupported fleet state version"):
            FleetScheduler(DeviceRegistry.from_state(state["registry"])).load_state(state)
        scheduler.close()


class TestSequencedIngestContract:
    def test_duplicate_and_gap_do_not_mutate(self):
        scheduler = make_fleet()
        device = scheduler.registry.device_ids()[0]
        scheduler.ingest(device, "01" * 64, seq=0)
        before = health_map(scheduler)
        with pytest.raises(DuplicateIngestError) as dup:
            scheduler.ingest(device, "10" * 64, seq=0)
        assert dup.value.last_seq == 0 and dup.value.device_id == device
        with pytest.raises(IngestSequenceGapError):
            scheduler.ingest(device, "10" * 64, seq=2)
        assert health_map(scheduler) == before
        assert scheduler.last_ingest_seq(device) == 0
        scheduler.close()

    def test_failed_ingest_does_not_commit_the_seq(self):
        scheduler = make_fleet()
        device = scheduler.registry.device_ids()[0]
        scheduler.ingest(device, "01" * 64, seq=0)
        with pytest.raises(ValueError):
            scheduler.ingest(device, "", seq=1)  # an empty chunk
        # The failed chunk stays resendable under the same seq.
        assert scheduler.last_ingest_seq(device) == 0
        scheduler.ingest(device, "01" * 64, seq=1)
        assert scheduler.last_ingest_seq(device) == 1
        scheduler.close()

    def test_empty_sequenced_ingest_is_not_journaled(self, tmp_path):
        scheduler = make_fleet(devices=4)
        durable = DurableFleet(scheduler, tmp_path, snapshot_interval_s=None)
        durable.start()
        device = scheduler.registry.device_ids()[0]
        scheduler.ingest(device, "01" * 40, seq=0)
        for empty in ("", " ", np.zeros(0, dtype=np.uint8)):
            with pytest.raises(ValueError):
                scheduler.ingest(device, empty, seq=1)
        records, _ = read_journal(durable.journal.path)
        assert [(r["t"], r["seq"], r["nbits"]) for r in records] == [("ingest", 0, 80)]
        assert scheduler.last_ingest_seq(device) == 0
        assert scheduler.pending_bits(device) == 80
        durable.close()
        scheduler.close()

    def test_unsequenced_ingest_still_works(self):
        scheduler = make_fleet()
        device = scheduler.registry.device_ids()[0]
        events = scheduler.ingest(device, "01" * 64)
        assert len(events) == 1
        assert scheduler.last_ingest_seq(device) is None
        scheduler.close()


# ------------------------------------------------------- durable fleet + recovery
class TestDurableFleetRecovery:
    @pytest.mark.parametrize("width", [128, 200])
    def test_kill_dash_nine_recovery_is_bit_identical(self, tmp_path, width):
        scheduler = make_fleet()
        scheduler.run_round()
        durable = DurableFleet(scheduler, tmp_path, snapshot_interval_s=None)
        durable.start()
        rng = np.random.default_rng(9)
        device = scheduler.registry.device_ids()[0]
        for seq in range(4):
            scheduler.ingest(device, rng.integers(0, 2, width, dtype=np.uint8), seq=seq)
        scheduler.run_round()
        expected = health_map(scheduler)
        # No close(): this is the kill -9. Recovery = snapshot + journal.
        recovered, stats = recover_fleet(tmp_path)
        assert health_map(recovered) == expected
        assert stats.applied == 4 and stats.rounds_applied == 1
        assert recovered.last_ingest_seq(device) == 3
        assert recovered.pending_bits(device) == scheduler.pending_bits(device)
        assert round_key(recovered.run_round()) == round_key(scheduler.run_round())
        recovered.close()
        durable.close()
        scheduler.close()

    def test_checkpoint_rotates_and_prunes_segments(self, tmp_path):
        scheduler = make_fleet(devices=4)
        durable = DurableFleet(scheduler, tmp_path, snapshot_interval_s=None)
        durable.start()  # snapshot at generation 0, appends now to 1
        scheduler.ingest(scheduler.registry.device_ids()[0], "01" * 64, seq=0)
        durable.checkpoint()  # snapshot at 1, appends to 2, prunes < 1
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["snapshot.json", "wal.00000001.jsonl", "wal.00000002.jsonl"]
        _, generation = read_snapshot(tmp_path / "snapshot.json")
        assert generation == 1
        # Records already inside the snapshot replay as duplicates, not
        # double-applies.
        recovered, stats = recover_fleet(tmp_path)
        assert stats.duplicates == 1 and stats.applied == 0
        assert health_map(recovered) == health_map(scheduler)
        recovered.close()
        durable.close()
        scheduler.close()

    def test_round_markers_replay_idempotently(self, tmp_path):
        scheduler = make_fleet(devices=4)
        durable = DurableFleet(scheduler, tmp_path, snapshot_interval_s=None)
        durable.start()
        scheduler.run_round()  # marker in journal, round NOT in snapshot
        durable.checkpoint()  # round now in snapshot; marker retained in old segment
        scheduler.run_round()  # marker only in the live journal
        expected = [round_key(r) for r in scheduler.rounds]
        recovered, stats = recover_fleet(tmp_path)
        assert [round_key(r) for r in recovered.rounds] == expected
        assert stats.rounds_skipped == 1 and stats.rounds_applied == 1
        recovered.close()
        durable.close()
        scheduler.close()

    def test_interval_snapshots_run_in_background(self, tmp_path):
        scheduler = make_fleet(devices=4)
        durable = DurableFleet(scheduler, tmp_path, snapshot_interval_s=0.05)
        durable.start()
        generation = durable.generation
        deadline = threading.Event()
        for _ in range(100):
            if durable.generation > generation:
                break
            deadline.wait(0.05)
        assert durable.generation > generation, "interval snapshot never fired"
        durable.close()
        scheduler.close()

    def test_registration_after_snapshot_survives_via_journal(self, tmp_path):
        scheduler = make_fleet(devices=4)
        durable = DurableFleet(scheduler, tmp_path, snapshot_interval_s=None)
        durable.start()
        # The service journals registrations; emulate its write-ahead order.
        scheduler.journal.append_device("late-device", scenario=None, seed=None)
        scheduler.registry.register("late-device")
        scheduler.ingest("late-device", "01" * 64, seq=0)
        expected = health_map(scheduler)
        recovered, stats = recover_fleet(tmp_path)
        assert stats.devices_registered == 1
        assert health_map(recovered) == expected
        recovered.close()
        durable.close()
        scheduler.close()

    def test_snapshot_file_is_versioned_json(self, tmp_path):
        scheduler = make_fleet(devices=4)
        write_snapshot(tmp_path / "snap.json", scheduler, wal_generation=7)
        payload = json.loads((tmp_path / "snap.json").read_text())
        assert payload["format"] == "repro-fleet-snapshot"
        assert payload["version"] == 1 and payload["wal_generation"] == 7
        state, generation = read_snapshot(tmp_path / "snap.json")
        assert generation == 7 and "backend" not in state
        scheduler.close()

    def test_unknown_snapshot_version_is_rejected(self, tmp_path):
        scheduler = make_fleet(devices=4)
        write_snapshot(tmp_path / "snap.json", scheduler, wal_generation=0)
        payload = json.loads((tmp_path / "snap.json").read_text())
        payload["version"] = 99
        (tmp_path / "snap.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            read_snapshot(tmp_path / "snap.json")
        scheduler.close()

    def test_replay_absorbs_malformed_records(self):
        scheduler = make_fleet(devices=4)
        stats = replay_records(
            scheduler,
            [
                {"t": "ingest", "device": "ghost", "seq": 0, "nbits": 4, "bits": "8A=="},
                {"t": "mystery"},
            ],
        )
        assert stats.errors == 2
        scheduler.close()
