"""The chaos harness's crash-recovery invariant, run end to end.

Each test boots the real ``fleet serve`` process with snapshotting, feeds
it deterministic chunks with injected faults, kills it with SIGKILL at a
seeded point, restarts it with ``--restore``, and asserts the recovered
fleet's per-device health verdicts are bit-identical to an uninterrupted
in-process control run.  This is the PR's acceptance invariant; the CI
chaos-smoke job runs the same harness through the CLI.
"""

import pytest

from repro.fleet.chaos import ChaosConfig, ChaosResult, run_chaos


def test_kill9_recovery_matches_uninterrupted_run():
    # Chunk sizes vary between n/2 and ~3n/2, so partial sequences wait in
    # the device tails when the service is killed.
    config = ChaosConfig(
        devices=2,
        chunks_per_device=3,
        seed=13,
        snapshot_interval_s=0.1,
    )
    result = run_chaos(config)
    assert result.mismatches == [], result.mismatches
    assert result.matched
    assert result.killed  # the harness must actually have crashed the service
    assert result.clean_shutdown  # ...and the final shutdown must drain cleanly
    assert result.total_acks == config.devices * config.chunks_per_device
    assert 0 < result.acks_before_kill <= result.total_acks
    # The WAL generation overlap retained across checkpoints means replay
    # may see duplicates; the seq contract absorbs them silently.
    assert result.replay_applied + result.replay_duplicates >= 1


def test_result_report_is_json_ready():
    result = ChaosResult(
        matched=True,
        killed=True,
        clean_shutdown=True,
        acks_before_kill=2,
        total_acks=6,
        faults_injected=3,
        fault_counts={"drop": 1, "duplicate": 2},
        replay_applied=4,
        replay_duplicates=1,
        mismatches=[],
        summary={"design": "n128_light"},
    )
    report = result.to_dict()
    assert report["matched"] and report["fault_counts"]["duplicate"] == 2
    import json

    json.dumps(report)  # must serialise without custom encoders


class TestConfigValidation:
    def test_rejects_nonpositive_devices(self):
        with pytest.raises(ValueError):
            ChaosConfig(devices=0)

    def test_rejects_nonpositive_chunks(self):
        with pytest.raises(ValueError):
            ChaosConfig(chunks_per_device=0)

    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError):
            ChaosConfig(drop_rate=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(corrupt_rate=-0.1)

    def test_rejects_nonpositive_snapshot_interval(self):
        with pytest.raises(ValueError):
            ChaosConfig(snapshot_interval_s=0.0)
