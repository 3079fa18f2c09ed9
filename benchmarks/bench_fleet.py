"""Fleet-scheduler benchmark: multiplexed rounds vs the naive per-device loop.

The obvious way to monitor a 512-device fleet is 512 independent
:class:`~repro.core.monitor.OnTheFlyMonitor` loops — one
``platform.evaluate_source`` per device per round, no shared work anywhere.
The :class:`~repro.fleet.scheduler.FleetScheduler` multiplexes instead: one
``(512, n)`` matrix per round through the engine's batch path, shared
vectorised statistics across the whole fleet.

Asserts the multiplexed round sustains >= 5x the naive round's throughput at
a 512-device fleet (the PR's acceptance bar), and that both paths agree on
what matters — the devices each path drives to FAILED.  Machine-readable
results land in ``benchmarks/results/BENCH_fleet.json`` alongside the other
throughput artefacts, with the median ``fold`` span of the multiplexed
rounds (the serial tail the calling thread runs after the device slices
join), read off each round's root span.
"""

import os
import statistics
import time

from bench_harness import assert_floors, write_bench_json
from repro import obs
from repro.fleet import DeviceRegistry, FleetMix, FleetScheduler

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: The fleet the acceptance bar is stated at: 512 devices, mostly healthy.
NUM_DEVICES = 512
DESIGN = "n128_medium"
MIX = FleetMix.healthy_with_threats(
    0.95, threats=("wire-cut", "biased-0.60", "freq-injection", "aging-drift")
)
SEED = 20150309
#: Rounds timed per path (median-of-rounds absorbs scheduler jitter).
ROUNDS = 2 if SMOKE else 4
MIN_SPEEDUP = 5.0


def _build_fleet():
    registry = DeviceRegistry(DESIGN, alpha=0.01)
    registry.populate(NUM_DEVICES, MIX, seed=SEED)
    return registry


def _run_naive(registry, rounds):
    """The retired shape: one platform evaluation per device per round."""
    platform = registry.platform
    devices = registry.simulated_devices()
    durations = []
    for _ in range(rounds):
        start = time.perf_counter()
        for device in devices:
            report = platform.evaluate_source(device.source)
            device.monitor.observe(report)
        durations.append(time.perf_counter() - start)
    return durations


def _run_multiplexed(scheduler, rounds):
    """Round durations and the ``fold`` spans of the rounds' root spans."""
    durations, folds = [], []
    for _ in range(rounds):
        fleet_round = scheduler.run_round()
        durations.append(fleet_round.elapsed_s)
        root = obs.TRACER.traces()[-1]
        assert root.name == "fleet.run_round"
        folds.extend(span.duration_s for span in root.children if span.name == "fold")
    return durations, folds


def test_fleet_multiplexed_vs_naive(benchmark, save_table):
    naive_registry = _build_fleet()
    naive_durations = _run_naive(naive_registry, ROUNDS)
    naive_round = statistics.median(naive_durations)
    naive_rate = NUM_DEVICES / naive_round

    fleet_registry = _build_fleet()
    scheduler = FleetScheduler(fleet_registry)
    scheduler.run_round()  # warm-up: engine imports, allocator, caches
    multiplexed_durations, fold_durations = benchmark.pedantic(
        _run_multiplexed, args=(scheduler, ROUNDS), rounds=1, iterations=1
    )
    multiplexed_round = statistics.median(multiplexed_durations)
    multiplexed_rate = NUM_DEVICES / multiplexed_round
    speedup = naive_rate and multiplexed_rate / naive_rate

    # Both paths must catch the same blatant threats before speed counts.
    # (Verdict sources differ — hardware counters vs reference p-values — so
    # the comparison is on the unambiguous populations, not healthy blips.)
    for naive_device, fleet_device in zip(naive_registry, fleet_registry):
        assert naive_device.scenario == fleet_device.scenario
        if naive_device.scenario in ("wire-cut",):
            assert naive_device.monitor.first_failed_index is not None
            assert fleet_device.monitor.first_failed_index is not None

    rows = [
        {
            "path": "naive per-device monitor loop",
            "devices": NUM_DEVICES,
            "round_ms": f"{naive_round * 1e3:,.1f}",
            "devices_per_s": f"{naive_rate:,.0f}",
            "speedup": "1.0x",
        },
        {
            "path": "multiplexed fleet round (engine batch)",
            "devices": NUM_DEVICES,
            "round_ms": f"{multiplexed_round * 1e3:,.1f}",
            "devices_per_s": f"{multiplexed_rate:,.0f}",
            "speedup": f"{speedup:.1f}x",
        },
    ]
    save_table(
        "fleet_throughput",
        f"Fleet monitoring on {DESIGN}: one multiplexed engine round vs the "
        f"naive per-device loop ({NUM_DEVICES} devices"
        f"{', smoke rounds' if SMOKE else ''})",
        rows,
        ["path", "devices", "round_ms", "devices_per_s", "speedup"],
    )
    write_bench_json(
        "fleet",
        smoke=SMOKE,
        workload={"design": DESIGN, "num_devices": NUM_DEVICES, "rounds": ROUNDS},
        timings_s={
            "naive_round": naive_round,
            "multiplexed_round": multiplexed_round,
            "multiplexed_fold": statistics.median(fold_durations),
        },
        speedups={"multiplexed_vs_naive": speedup},
        floors={"multiplexed_vs_naive": MIN_SPEEDUP},
        extra={
            "naive_devices_per_s": naive_rate,
            "multiplexed_devices_per_s": multiplexed_rate,
        },
    )
    assert_floors(
        {"multiplexed_vs_naive": speedup}, {"multiplexed_vs_naive": MIN_SPEEDUP}
    )
