"""Durability overhead benchmark: WAL + interval snapshots vs plain ingest.

The durability layer journals every sequenced ingest write-ahead and
snapshots the whole fleet on an interval; both sit on the ingest path's
sustained cost, so they must stay nearly free.  This benchmark drives the
same deterministic workload through two live schedulers — one plain, one
with the WAL attached — timing each ingest *paired* (the two paths
alternate within every microsecond-scale window, the pair order flips
every iteration, and the relative throughput is the median of the
per-pair ratios, so machine noise lands on both sides and spikes cancel).
The
interval-snapshot cost is measured directly — one full-fleet checkpoint —
and amortised at the configured interval on top of the journalled path.
Pinned floors:

- ``durable_ingest_vs_plain`` >= 0.9x: WAL appends plus amortised interval
  snapshots may cost at most 10% of sustained ingest throughput, and
- ``restore_under_2s`` >= 1.0x: recovering the full fleet from its
  snapshot + journal (``recover_fleet``) finishes in under 2 seconds.

Recovery must also be *correct* before it is fast: the restored fleet's
per-device health verdicts are asserted bit-identical to the live one.
Machine-readable results land in ``benchmarks/results/BENCH_durability.json``.
"""

import os
import statistics
import tempfile
import time

import numpy as np

from bench_harness import assert_floors, write_bench_json
from repro.fleet import DeviceRegistry, DurableFleet, FleetScheduler, recover_fleet

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: The fleet the acceptance bar is stated at: 1024 externally-fed devices.
NUM_DEVICES = 128 if SMOKE else 1024
CHUNKS_PER_DEVICE = 2 if SMOKE else 4
#: Sequences per ingest chunk: sustained feeds batch a few sequences per
#: request (the service accepts chunks of any size), so the
#: per-record WAL framing amortises over a realistic payload.
SEQS_PER_CHUNK = 8
DESIGN = "n128_light"
N = 128
SEED = 20150309
#: The interval the snapshot cost is amortised at (the production cadence;
#: the CLI's ``--snapshot-interval`` is operator-chosen, this is a sensible
#: sustained-operation setting).
SNAPSHOT_INTERVAL_S = 5.0
#: Durable ingest must sustain >= 90% of plain throughput (<= 10% overhead).
MIN_RELATIVE_THROUGHPUT = 0.9
#: Restoring the whole fleet from snapshot + WAL must finish in under 2 s.
MAX_RESTORE_S = 2.0


def _chunk_bits(device_index: int, chunk_index: int) -> np.ndarray:
    """Stateless per-(device, chunk) bits, identical across both runs."""
    rng = np.random.default_rng([SEED, device_index, chunk_index])
    size = N * SEQS_PER_CHUNK
    if device_index % 8 == 7:  # a sprinkle of blatantly-biased devices
        return (rng.random(size) < 0.85).astype(np.uint8)
    return rng.integers(0, 2, size, dtype=np.uint8)


def _build_scheduler() -> FleetScheduler:
    registry = DeviceRegistry(DESIGN, alpha=0.01)
    for index in range(NUM_DEVICES):
        registry.register(f"bench-{index:04d}")
    return FleetScheduler(registry)


def _paired_ingest(plain: FleetScheduler, durable: FleetScheduler):
    """Per-ingest paired wall times; returns (plain_times, durable_times)."""
    plain_times = []
    durable_times = []
    flip = False
    for chunk_index in range(CHUNKS_PER_DEVICE):
        for device_index in range(NUM_DEVICES):
            device_id = f"bench-{device_index:04d}"
            bits = _chunk_bits(device_index, chunk_index)
            first, second = (durable, plain) if flip else (plain, durable)
            start = time.perf_counter()
            first.ingest(device_id, bits, seq=chunk_index)
            middle = time.perf_counter()
            second.ingest(device_id, bits, seq=chunk_index)
            end = time.perf_counter()
            if flip:
                durable_times.append(middle - start)
                plain_times.append(end - middle)
            else:
                plain_times.append(middle - start)
                durable_times.append(end - middle)
            flip = not flip
    return plain_times, durable_times


def _health_map(scheduler: FleetScheduler):
    return {
        device.device_id: device.snapshot() for device in scheduler.registry
    }


def test_durability_overhead_and_restore(benchmark, save_table):
    # Warm-up: engine imports, allocator, caches.
    warm = _build_scheduler()
    for device_index in range(min(NUM_DEVICES, 32)):
        warm.ingest(f"bench-{device_index:04d}", _chunk_bits(device_index, 0), seq=0)
    warm.close()

    plain = _build_scheduler()
    durable_scheduler = _build_scheduler()
    with tempfile.TemporaryDirectory(prefix="bench-durability-") as spool:
        # Journal attached from the start; the interval thread stays off so
        # its firing instants can't leak into the *paired* ingest numbers —
        # the snapshot cost is measured explicitly below and amortised.
        durable = DurableFleet(durable_scheduler, spool, snapshot_interval_s=None)
        durable.start()

        plain_times, durable_times = benchmark.pedantic(
            _paired_ingest, args=(plain, durable_scheduler), rounds=1, iterations=1
        )
        plain_s = sum(plain_times)
        journalled_s = sum(durable_times)
        # Median of the per-pair ratios: a scheduler hiccup or GC spike hits
        # one pair, not the estimate — sums would charge it to whichever
        # side it randomly landed on.
        journalled_ratio = statistics.median(
            p / d for p, d in zip(plain_times, durable_times)
        )

        snap_start = time.perf_counter()
        durable.checkpoint()
        snapshot_s = time.perf_counter() - snap_start
        durable.close(final_snapshot=True)

        # Sustained durable cost = journalled ingest + one full-fleet
        # snapshot every SNAPSHOT_INTERVAL_S of it.
        amortisation = 1.0 + snapshot_s / SNAPSHOT_INTERVAL_S
        durable_s = journalled_s * amortisation

        restore_start = time.perf_counter()
        recovered, replay = recover_fleet(spool)
        restore_s = time.perf_counter() - restore_start

        # Correctness before speed: the restored fleet must be bit-identical.
        assert _health_map(recovered) == _health_map(durable_scheduler)
        assert recovered.last_ingest_seq("bench-0000") == CHUNKS_PER_DEVICE - 1
        recovered.close()
    durable_scheduler.close()
    plain.close()

    total_ingests = NUM_DEVICES * CHUNKS_PER_DEVICE
    plain_rate = total_ingests / plain_s
    durable_rate = total_ingests / durable_s
    relative = journalled_ratio / amortisation
    restore_headroom = MAX_RESTORE_S / restore_s

    rows = [
        {
            "path": "plain scheduler ingest",
            "devices": NUM_DEVICES,
            "ingests_per_s": f"{plain_rate:,.0f}",
            "relative": "1.00x",
        },
        {
            "path": "durable ingest (WAL + amortised snapshots)",
            "devices": NUM_DEVICES,
            "ingests_per_s": f"{durable_rate:,.0f}",
            "relative": f"{relative:.2f}x",
        },
        {
            "path": "snapshot + WAL restore (recover_fleet)",
            "devices": NUM_DEVICES,
            "ingests_per_s": "-",
            "relative": f"{restore_s * 1e3:,.0f} ms",
        },
    ]
    save_table(
        "durability_overhead",
        f"Durability overhead on {DESIGN}: sustained ingest with the WAL and "
        f"amortised interval snapshots vs plain ({NUM_DEVICES} devices, "
        f"{CHUNKS_PER_DEVICE} chunks/device"
        f"{', smoke scale' if SMOKE else ''})",
        rows,
        ["path", "devices", "ingests_per_s", "relative"],
    )
    write_bench_json(
        "durability",
        smoke=SMOKE,
        workload={
            "design": DESIGN,
            "num_devices": NUM_DEVICES,
            "chunks_per_device": CHUNKS_PER_DEVICE,
            "seqs_per_chunk": SEQS_PER_CHUNK,
            "snapshot_interval_s": SNAPSHOT_INTERVAL_S,
        },
        timings_s={
            "plain_ingest": plain_s,
            "journalled_ingest": journalled_s,
            "snapshot": snapshot_s,
            "durable_ingest_amortised": durable_s,
            "restore": restore_s,
        },
        speedups={
            "durable_ingest_vs_plain": relative,
            "restore_under_2s": restore_headroom,
        },
        floors={
            "durable_ingest_vs_plain": MIN_RELATIVE_THROUGHPUT,
            "restore_under_2s": 1.0,
        },
        extra={
            "plain_ingests_per_s": plain_rate,
            "durable_ingests_per_s": durable_rate,
            "journalled_ratio_median": journalled_ratio,
            "snapshot_amortisation": amortisation,
            "restore_s": restore_s,
            "replay": replay.to_dict(),
        },
    )
    assert_floors(
        {
            "durable_ingest_vs_plain": relative,
            "restore_under_2s": restore_headroom,
        },
        {
            "durable_ingest_vs_plain": MIN_RELATIVE_THROUGHPUT,
            "restore_under_2s": 1.0,
        },
    )
