"""Record the v1 streaming-mode fixtures under ``tests/fixtures/``.

Fleet streaming mode (``FleetScheduler(streaming=True)``, removed after
commit c8eca7f) kept one packed ring per device and evaluated a window
every n ingested bits.  These fixtures pin what it produced, so the one
remaining scheduler mode — matrix rounds plus a per-device tail of fewer
than n bits — can be checked against it:

* ``v1_streaming_partial_ingest.json`` — per-call events and pending bits
  for a partial-chunk ingest sequence (sizes 63/64/65/1/n/2n, twice, on
  four external devices, interleaved);
* ``v1_streaming_spool/`` — a version-1 streaming snapshot plus write-ahead
  journal on ``n128_light``, taken mid-run (non-zero pending tails, rounds
  on both sides of the snapshot, no final checkpoint: a ``kill -9``);
* ``v1_streaming_spool.json`` — what ``recover_fleet`` gave on that spool,
  and the round and ingests that followed it;
* ``v1_matrix_spool/`` and ``v1_matrix_spool.json`` — the same for a
  matrix-mode spool whose journal holds two chunks that fleet rejected
  after journaling them (7 bits and 0 bits), each resent under its seq.

The script only runs against a checkout that still has streaming mode::

    git archive c8eca7f | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src python tests/fixtures/record_v1_streaming.py tests/fixtures
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

from repro.fleet import DeviceRegistry, DurableFleet, FleetMix, FleetScheduler, recover_fleet

DESIGN = "n128_light"
CHUNK_SIZES = (63, 64, 65, 1, 128, 256)
#: External devices of the partial-ingest fixture and their P(1).
INGEST_DEVICES = {"ext-0": 0.5, "ext-1": 0.5, "ext-2": 0.7, "ext-3": 0.95}
SPOOL_MIX = "healthy-ideal:0.5,biased-0.60:0.25,wire-cut:0.25"


def bit_string(bits: np.ndarray) -> str:
    return "".join("1" if bit else "0" for bit in bits.tolist())


def draw(rng: np.random.Generator, size: int, p_one: float) -> np.ndarray:
    return (rng.random(size) < p_one).astype(np.uint8)


def event_dicts(events) -> list:
    return [
        {
            "sequence_index": event.sequence_index,
            "passed": event.report.passed,
            "failing_tests": list(event.report.failing_tests),
            "state": event.state.value,
        }
        for event in events
    ]


def round_key(fleet_round) -> dict:
    data = fleet_round.to_dict()
    data.pop("elapsed_s")
    return data


def health_map(scheduler) -> dict:
    return {device.device_id: device.snapshot() for device in scheduler.registry}


def record_partial_ingest(out: Path) -> None:
    registry = DeviceRegistry(DESIGN)
    for device_id in INGEST_DEVICES:
        registry.register(device_id)
    scheduler = FleetScheduler(registry, streaming=True)
    sizes = CHUNK_SIZES * 2
    bits = {
        device_id: draw(np.random.default_rng([21, index]), sum(sizes), p_one)
        for index, (device_id, p_one) in enumerate(INGEST_DEVICES.items())
    }
    calls = []
    offset = 0
    for size in sizes:
        for device_id in INGEST_DEVICES:
            events = scheduler.ingest(device_id, bits[device_id][offset : offset + size])
            calls.append(
                {
                    "device": device_id,
                    "offset": offset,
                    "size": size,
                    "events": event_dicts(events),
                    "pending_bits": scheduler.pending_bits(device_id),
                }
            )
        offset += size
    payload = {
        "design": DESIGN,
        "bits": {device_id: bit_string(value) for device_id, value in bits.items()},
        "calls": calls,
        "health": health_map(scheduler),
    }
    (out / "v1_streaming_partial_ingest.json").write_text(json.dumps(payload, indent=1) + "\n")


def record_spool(out: Path) -> None:
    work = out / "_spool_work"
    shutil.rmtree(work, ignore_errors=True)
    registry = DeviceRegistry(DESIGN)
    registry.populate(8, FleetMix.parse(SPOOL_MIX), seed=5)
    sim = registry.device_ids()
    scheduler = FleetScheduler(registry, streaming=True)
    durable = DurableFleet(scheduler, work, snapshot_interval_s=None)
    durable.start()
    rng = np.random.default_rng(33)
    p_one = {"ext-a": 0.5, "ext-b": 0.9, "ext-c": 0.5, sim[0]: 0.5, sim[1]: 0.8}
    seqs = {}

    def register(device_id: str) -> None:
        scheduler.journal.append_device(device_id, scenario=None, seed=None)
        registry.register(device_id)

    def ingest(device_id: str, size: int) -> None:
        seq = seqs.get(device_id, -1) + 1
        scheduler.ingest(device_id, draw(rng, size, p_one[device_id]), seq=seq)
        seqs[device_id] = seq

    register("ext-a")
    register("ext-b")
    scheduler.run_round()
    ingest("ext-a", 100)
    ingest("ext-b", 200)
    ingest(sim[0], 37)
    scheduler.run_round()
    ingest("ext-a", 200)
    ingest("ext-b", 300)
    durable.checkpoint()  # the v1 snapshot: two rounds, pending rings
    ingest("ext-a", 50)
    ingest("ext-b", 300)
    ingest(sim[0], 150)
    scheduler.run_round()
    register("ext-c")
    ingest("ext-c", 77)
    ingest(sim[1], 129)
    # No close(): the spool is left as a kill -9 leaves it.
    spool = out / "v1_streaming_spool"
    shutil.rmtree(spool, ignore_errors=True)
    shutil.copytree(work, spool)
    durable.close(final_snapshot=False)
    shutil.rmtree(work)

    recovered, stats = recover_fleet(spool)
    recovered_state = {
        "replay": stats.to_dict(),
        "health_counts": recovered.registry.health_counts(),
        "rounds": [round_key(fleet_round) for fleet_round in recovered.rounds],
        "health": health_map(recovered),
        "pending_bits": {d: recovered.pending_bits(d) for d in recovered.registry.device_ids()},
        "last_seq": {d: recovered.last_ingest_seq(d) for d in recovered.registry.device_ids()},
    }
    next_round = round_key(recovered.run_round())
    after_round = health_map(recovered)
    follow = np.random.default_rng(34)
    next_ingests = []
    for device_id, size in (
        ("ext-a", 100),
        ("ext-b", 60),
        ("ext-c", 51 + 128),
        (sim[0], 250),
        (sim[1], 127),
        (sim[2], 300),
    ):
        bits = draw(follow, size, p_one.get(device_id, 0.5))
        last = recovered.last_ingest_seq(device_id)
        seq = 0 if last is None else last + 1
        events = recovered.ingest(device_id, bits, seq=seq)
        next_ingests.append(
            {
                "device": device_id,
                "seq": seq,
                "bits": bit_string(bits),
                "events": event_dicts(events),
                "pending_bits": recovered.pending_bits(device_id),
            }
        )
    payload = {
        "design": DESIGN,
        "recovered": recovered_state,
        "next_round": next_round,
        "health_after_round": after_round,
        "next_ingests": next_ingests,
        "health_after_ingests": health_map(recovered),
    }
    (out / "v1_streaming_spool.json").write_text(json.dumps(payload, indent=1) + "\n")


def record_matrix_spool(out: Path) -> None:
    work = out / "_spool_work"
    shutil.rmtree(work, ignore_errors=True)
    registry = DeviceRegistry(DESIGN)
    registry.populate(4, FleetMix.parse(SPOOL_MIX), seed=6)
    first, second = registry.device_ids()[:2]
    scheduler = FleetScheduler(registry)
    durable = DurableFleet(scheduler, work, snapshot_interval_s=None)
    durable.start()
    rng = np.random.default_rng(35)
    scheduler.run_round()
    scheduler.ingest(first, rng.integers(0, 2, 128, dtype=np.uint8), seq=0)
    durable.checkpoint()  # the v1 snapshot
    for device_id, bad in ((first, "0" * 7), (second, " ")):
        seq = 0 if scheduler.last_ingest_seq(device_id) is None else 1
        try:
            scheduler.ingest(device_id, bad, seq=seq)
        except ValueError:
            pass
        else:  # pragma: no cover - the recording relies on the rejection
            raise AssertionError("matrix mode accepted a partial chunk")
        scheduler.ingest(device_id, (rng.random(256) < 0.9).astype(np.uint8), seq=seq)
    scheduler.run_round()
    spool = out / "v1_matrix_spool"
    shutil.rmtree(spool, ignore_errors=True)
    shutil.copytree(work, spool)
    durable.close(final_snapshot=False)
    shutil.rmtree(work)

    recovered, stats = recover_fleet(spool)
    payload = {
        "design": DESIGN,
        "replay": stats.to_dict(),
        "rounds": [round_key(fleet_round) for fleet_round in recovered.rounds],
        "health": health_map(recovered),
        "last_seq": {d: recovered.last_ingest_seq(d) for d in recovered.registry.device_ids()},
        "next_round": round_key(recovered.run_round()),
        "health_after_round": health_map(recovered),
    }
    (out / "v1_matrix_spool.json").write_text(json.dumps(payload, indent=1) + "\n")


def main() -> None:
    out = Path(sys.argv[1])
    record_partial_ingest(out)
    record_spool(out)
    record_matrix_spool(out)


if __name__ == "__main__":
    main()
