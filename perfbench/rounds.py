"""Fleet-round workloads: 1024 simulated devices, ``run_round()`` back to back.

One client drives a closed loop: the next round starts when the previous one
has returned.  The fleet is also served over HTTP from this process, as
``fleet serve`` does, and after each round the client reads the health of
a few seeded devices with ``GET /devices/<id>/health``.  A seeded sample of
the round's rows is checked against the scalar NIST references (outside
the timed region).
"""

from __future__ import annotations

import copy
import resource
import statistics
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.fleet.client import FleetClient
from repro.fleet.registry import DeviceRegistry, FleetMix
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.service import serve

from common import (
    FAST_PERCENTILE,
    VERDICT_LEAVES,
    IngestPathProbe,
    Spans,
    bits_text,
    layer_table,
    percentile,
    probe_engine,
    property_counts,
    reference_check,
    window_rates,
)

DEVICES = 1024
SETUP_REPEATS = 3
#: Rows per round re-derived and checked against the scalar references.
CHECKED_ROWS = 4
#: Health reads issued between two rounds.
READS_PER_ROUND = 8


def _setup(design: str, seed: int) -> FleetScheduler:
    registry = DeviceRegistry(design)
    registry.populate(DEVICES, FleetMix.healthy_with_threats(0.95), seed=seed)
    scheduler = FleetScheduler(registry)
    scheduler.run_round()  # warm-up
    return scheduler


def run(design: str, seed: int, seconds: float, trace: bool, scratch: Path) -> Dict[str, object]:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        scheduler = None  # drop the previous fleet before timing the next
        start = time.perf_counter()
        scheduler = _setup(design, seed)
        setup_times.append(time.perf_counter() - start)
    server = serve(scheduler, port=0)
    server_thread = threading.Thread(target=server.serve_forever, daemon=True)
    server_thread.start()
    try:
        client = FleetClient(f"http://127.0.0.1:{server.server_address[1]}", retries=0)
        result = _measure(scheduler, client, seed, seconds / 2 if trace else seconds)
    finally:
        server.shutdown()
        server.server_close()
        server_thread.join()
    result["metrics"]["setup_s"] = statistics.median(setup_times)
    if trace:
        result["layers"], result["spans"] = _traced(
            scheduler, seconds / 2, scratch, statistics.median(result["op_s"])
        )
    return result


def _measure(
    scheduler: FleetScheduler, client: FleetClient, seed: int, seconds: float
) -> Dict[str, object]:
    registry = scheduler.registry
    devices = registry.simulated_devices()
    tests = registry.tests
    n = registry.n
    rng = np.random.default_rng(seed)
    round_s: List[float] = []
    read_s: List[float] = []
    ops: List[Tuple[float, int]] = []
    attempted = failed = 0
    problems: List[str] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        checked = rng.choice(len(devices), CHECKED_ROWS, replace=False)
        sources = [copy.deepcopy(devices[row].source) for row in checked]
        attempted += 1
        start = time.perf_counter()
        try:
            scheduler.run_round()
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            failed += 1
            problems.append(f"run_round raised {exc!r}")
            continue
        round_s.append(time.perf_counter() - start)
        ops.append((round_s[-1], DEVICES))
        for row in rng.integers(len(devices), size=READS_PER_ROUND):
            device = devices[row]
            attempted += 1
            start = time.perf_counter()
            try:
                health = client.device_health(device.device_id)
            except Exception as exc:  # noqa: BLE001
                failed += 1
                problems.append(f"GET health {device.device_id}: {exc!r}")
                continue
            read_s.append(time.perf_counter() - start)
            ops.append((read_s[-1], 0))
            if health != device.snapshot():
                problems.append(f"{device.device_id}: served health {health} is stale")
        rows = np.stack([source.generate_block(n) for source in sources])
        mismatches, expected_verdicts = reference_check(rows, tests, registry.alpha)
        problems += mismatches
        for row, expected in zip(checked, expected_verdicts):
            event = devices[row].monitor.history[-1]
            if (event.report.passed, tuple(event.report.failing_tests)) != expected:
                problems.append(f"{devices[row].device_id}: verdict {event.report} != {expected}")
    for device in devices:
        if device.scenario == "wire-cut" and device.state.value != "failed":
            problems.append(f"wire-cut device {device.device_id} is {device.state.value}")

    rates = window_rates(ops, 1 + READS_PER_ROUND)
    verdicts_per_s = percentile(rates, 100 - FAST_PERCENTILE)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": {"op": len(round_s), "read": len(read_s)},
        "op_s": round_s,
        "metrics": {
            "verdicts_per_s": verdicts_per_s,
            "mbit_per_s": verdicts_per_s * n / 1e6,
            "op_ms_p10": percentile(round_s, FAST_PERCENTILE) * 1e3,
            "read_ms_p10": percentile(read_s, FAST_PERCENTILE) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }


def _traced(
    scheduler: FleetScheduler, seconds: float, scratch: Path, untraced_op: float
) -> Tuple[Dict[str, float], Spans]:
    """Step through rounds layer by layer under spans; time each layer.

    The round is replayed from outside with the same public calls
    ``run_round`` makes (generate, ``evaluate_matrix``, health fold); the
    engine's sub-layers are then timed on the round's matrix.  The ingest
    path's layers lie off this workload's path: they are priced on one
    device's round sequence sent through an in-process ingest path.
    """
    registry = scheduler.registry
    devices = registry.simulated_devices()
    tests = registry.tests
    n = registry.n
    spans = Spans()
    counts: List[Dict[str, int]] = []
    failing_share: List[float] = []
    sizes: List[Dict[str, int]] = []
    probe = IngestPathProbe(registry.design_name, ["probe"], scratch / "probe")
    try:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            with spans.span("op"):
                with spans.span("trng.generate_s"):
                    matrix = np.empty((len(devices), n), dtype=np.uint8)
                    for row, device in enumerate(devices):
                        matrix[row] = device.source.generate_block(n)
                with spans.span("fleet.evaluate_matrix"):
                    verdicts = scheduler.evaluate_matrix(matrix)
                with spans.span("monitor.fold_s"):
                    for device, verdict in zip(devices, verdicts):
                        device.monitor.observe(verdict)
            counts.append(property_counts(probe_engine(spans, matrix, tests)))
            failing_share.append(sum(not v.passed for v in verdicts) / len(verdicts))
            sizes.append(
                probe.run(spans, "probe", bits_text(matrix[0]), len(sizes), price_json=True)
            )
    finally:
        probe.close()
    measured = {"untraced_op_s": untraced_op}
    for key in ("request", "response", "wal"):
        measured[f"bytes.{key}_per_ingest"] = statistics.mean(size[key] for size in sizes)
    layers = layer_table(
        spans, counts, failing_share, measured, ("trng.generate_s", *VERDICT_LEAVES)
    )
    return layers, spans
