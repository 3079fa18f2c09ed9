"""HTTP ingest workload: a real ``fleet serve`` process with the WAL on.

Set-up boots ``python -m repro.cli fleet serve`` on ``n128_light`` with a
``--snapshot-dir`` spool (the write-ahead journal on, no fsync, no interval
snapshots) and registers 1024 externally fed devices over HTTP.  One
``FleetClient(retries=0)`` then drives a closed loop: sequenced 8x128-bit
``/ingest`` chunks round-robin over the devices, and every 10th operation a
``GET /devices/<id>/health`` read.  Chunks come from per-device seeded
generators; about 1 in 64 devices is blatantly biased.

The server's internals cannot be timed from here, so the traced half also
pushes each chunk it sends through in-process copies of the request's
layers (``to_bits``, WAL append, engine, fold, ``FleetScheduler.ingest``,
``FleetService.ingest``); ``http.json_s`` is the client's traced latency
minus the in-process ``service.ingest_s``.  ``trng.generate_s`` prices an
``IdealSource`` producing an equal chunk: simulation is off this path.
"""

from __future__ import annotations

import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.fleet.client import FleetClient
from repro.fleet.scheduler import FleetScheduler
from repro.trng import IdealSource

from common import (
    FAST_PERCENTILE,
    VERDICT_LEAVES,
    IngestPathProbe,
    Spans,
    bits_text,
    external_registry,
    layer_table,
    percentile,
    probe_engine,
    property_counts,
    window_rates,
)

DESIGN = "n128_light"
N = 128
DEVICES = 1024
CHUNK_SEQUENCES = 8
CHUNK_BITS = CHUNK_SEQUENCES * N
SETUP_REPEATS = 3
READ_EVERY = 10
#: Ops per throughput window (nine ingests and one read per ten ops).
RATE_WINDOW = 100
BIASED_EVERY = 64
BIAS = 0.8

_LISTENING = re.compile(r"listening on (http://\S+)")
_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


class _Chunks:
    """Seeded per-device bit streams; every 64th device or so is biased."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.biased = set(rng.choice(DEVICES, DEVICES // BIASED_EVERY, replace=False).tolist())
        self._rngs = [np.random.default_rng([seed, device]) for device in range(DEVICES)]

    def next(self, device: int) -> np.ndarray:
        rng = self._rngs[device]
        if device in self.biased:
            return (rng.random(CHUNK_BITS) < BIAS).astype(np.uint8)
        return rng.integers(0, 2, CHUNK_BITS, dtype=np.uint8)


def _start_server(root: Path, spool: Path) -> Tuple[subprocess.Popen, str]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    command = [
        sys.executable, "-m", "repro.cli", "fleet", "serve",
        "--devices", "0", "--rounds", "0", "--design", DESIGN,
        "--port", "0", "--snapshot-dir", str(spool), "--quiet",
    ]
    process = subprocess.Popen(
        command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    )
    assert process.stdout is not None
    for line in process.stdout:
        match = _LISTENING.search(line)
        if match:
            return process, match.group(1)
    _stop_server(process)
    raise RuntimeError(f"fleet serve exited during start-up (code {process.returncode})")


def _stop_server(process: subprocess.Popen) -> None:
    process.terminate()
    try:
        process.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()


def _scrape(client: FleetClient) -> List[Tuple[str, str, float]]:
    samples = []
    for line in client.metrics_text().splitlines():
        match = _SAMPLE.match(line)
        if match:
            samples.append((match.group(1), match.group(2) or "", float(match.group(3))))
    return samples


def _total(samples: List[Tuple[str, str, float]], name: str, **labels: str) -> float:
    wanted = [f'{key}="{value}"' for key, value in labels.items()]
    return sum(
        value for sample, label, value in samples
        if sample == name and all(item in label for item in wanted)
    )


def _spool_bytes(spool: Path) -> int:
    return sum(path.stat().st_size for path in spool.iterdir() if path.is_file())


def run(seed: int, seconds: float, trace: bool, scratch: Path, root: Path) -> Dict[str, object]:
    ids = [f"dev-{device:04d}" for device in range(DEVICES)]
    setup_times = []
    process = None
    try:
        for repeat in range(SETUP_REPEATS):
            if process is not None:
                _stop_server(process)
                process = None
            spool = scratch / f"spool-{repeat}"
            start = time.perf_counter()
            process, url = _start_server(root, spool)
            client = FleetClient(url, retries=0)
            for device_id in ids:
                client.register_device(device_id)
            setup_times.append(time.perf_counter() - start)
        result = _measure(client, spool, ids, seed, seconds, trace, scratch)
    finally:
        if process is not None:
            _stop_server(process)
    result["metrics"]["setup_s"] = statistics.median(setup_times)
    # The largest child's peak RSS: the servers are this process's only
    # children.  The kernel also counts this process's own peak at spawn
    # time (~60 MiB of imports), below a server's; nothing large is
    # allocated here before the servers start.
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["metrics"]["peak_rss_mb"] = peak_kib / 1024
    return result


def _measure(client, spool, ids, seed, seconds, trace, scratch) -> Dict[str, object]:
    chunks = _Chunks(seed)
    read_rng = np.random.default_rng([seed, DEVICES])
    sent: List[List[np.ndarray]] = [[] for _ in ids]
    latencies: Dict[bool, List[float]] = {False: [], True: []}
    read_s: List[float] = []
    ops: List[Tuple[float, int]] = []  # untraced (seconds, verdicts) per op
    bytes_moved = {"request": 0, "response": 0}
    attempted = failed = ingested = 0
    problems: List[str] = []

    spans = Spans()
    counts: List[Dict[str, int]] = []
    failing_share: List[float] = []
    probe = IngestPathProbe(DESIGN, ids, scratch / "probe") if trace else None
    simulator = IdealSource(seed=seed)

    before = _scrape(client)
    spool_before = _spool_bytes(spool)
    phases = [(False, seconds / 2), (True, seconds / 2)] if trace else [(False, seconds)]
    try:
        for traced, duration in phases:
            deadline = time.perf_counter() + duration
            while time.perf_counter() < deadline:
                attempted += 1
                if attempted % READ_EVERY == 0:
                    device_id = ids[int(read_rng.integers(DEVICES))]
                    start = time.perf_counter()
                    try:
                        client.device_health(device_id)
                    except Exception as exc:  # noqa: BLE001 - a failed op is counted
                        failed += 1
                        problems.append(f"GET health {device_id}: {exc!r}")
                        continue
                    read_s.append(time.perf_counter() - start)
                    if not traced:
                        ops.append((read_s[-1], 0))
                    continue
                device = ingested % DEVICES
                ingested += 1
                bits = chunks.next(device)
                text = bits_text(bits)
                seq = len(sent[device])
                start = time.perf_counter()
                try:
                    with spans.span("op") if traced else nullcontext():
                        response = client.ingest(ids[device], text, seq=seq)
                except Exception as exc:  # noqa: BLE001
                    failed += 1
                    problems.append(f"ingest {ids[device]} seq {seq}: {exc!r}")
                    continue
                latencies[traced].append(time.perf_counter() - start)
                if not traced:
                    ops.append((latencies[False][-1], CHUNK_SEQUENCES))
                sent[device].append(bits)
                if response.get("sequences") != CHUNK_SEQUENCES:
                    problems.append(f"ingest {ids[device]} seq {seq}: reply {response}")
                request = {"device_id": ids[device], "bits": text, "seq": seq}
                bytes_moved["request"] += len(json.dumps(request).encode())
                bytes_moved["response"] += len(json.dumps(response).encode())
                if traced:
                    _probe_chunk(
                        spans, probe, simulator, ids[device], bits, text, seq, counts, failing_share
                    )
    finally:
        if probe is not None:
            probe.close()
    after = _scrape(client)
    wal_bytes = _spool_bytes(spool) - spool_before

    ok = sum(len(chunks_sent) for chunks_sent in sent)
    reads = len(read_s)
    expected = [
        ("repro_service_requests_total", {}, attempted + 1),  # + the first scrape
        ("repro_service_requests_total", {"route": "/ingest", "status": "200"}, ok),
        ("repro_service_requests_total", {"route": "/devices/<id>/health", "status": "200"}, reads),
        ("repro_fleet_ingest_bits_total", {}, ok * CHUNK_BITS),
        ("repro_durability_wal_records_total", {}, ok),
        ("repro_service_ingest_shed_total", {}, 0),
    ]
    for name, labels, want in expected:
        delta = _total(after, name, **labels) - _total(before, name, **labels)
        if delta != want:
            problems.append(f"/metrics {name}{labels} moved by {delta}, client counted {want}")
    problems += _check_health(client, ids, sent)

    untraced = latencies[False]
    verdicts_per_s = percentile(window_rates(ops, RATE_WINDOW), 100 - FAST_PERCENTILE)
    result: Dict[str, object] = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": {"op": len(untraced), "read": reads},
        "op_s": untraced,
        "metrics": {
            "verdicts_per_s": verdicts_per_s,
            "mbit_per_s": verdicts_per_s * N / 1e6,
            "op_ms_p10": percentile(untraced, FAST_PERCENTILE) * 1e3,
            "read_ms_p10": percentile(read_s, FAST_PERCENTILE) * 1e3,
        },
    }
    if trace:
        measured = {
            "untraced_op_s": statistics.median(untraced),
            "http.json_s": spans.median("op") - spans.median("service.ingest_s"),
            "bytes.request_per_ingest": bytes_moved["request"] / ok,
            "bytes.response_per_ingest": bytes_moved["response"] / ok,
            "bytes.wal_per_ingest": wal_bytes / ok,
        }
        leaves = ("nist.to_bits_s", "durability.wal_append_s", *VERDICT_LEAVES, "http.json_s")
        result["layers"] = layer_table(spans, counts, failing_share, measured, leaves)
        result["spans"] = spans
    return result


def _probe_chunk(
    spans, probe, simulator, device_id, bits, text, seq, counts, failing_share
) -> None:
    """Time the request's layers in-process on the chunk just sent."""
    with spans.span("trng.generate_s"):
        simulator.generate_block(CHUNK_BITS)
    probe.run(spans, device_id, text, seq)
    matrix = bits.reshape(CHUNK_SEQUENCES, N)
    with spans.span("fleet.evaluate_matrix"):
        verdicts = probe.fleet.evaluate_matrix(matrix)
    monitor = probe.fleet.registry.get(device_id).monitor
    with spans.span("monitor.fold_s"):
        for verdict in verdicts:
            monitor.observe(verdict)
    failing_share.append(sum(not v.passed for v in verdicts) / len(verdicts))
    counts.append(property_counts(probe_engine(spans, matrix, probe.fleet.registry.tests)))


def _check_health(client: FleetClient, ids: List[str], sent: List[List[np.ndarray]]) -> List[str]:
    """Served health must equal an in-process scheduler fed the same chunks."""
    problems = []
    with FleetScheduler(external_registry(DESIGN, ids)) as control:
        for device_id, chunks_sent in zip(ids, sent):
            if chunks_sent:
                control.ingest(device_id, np.concatenate(chunks_sent))
            served = client.device_health(device_id)
            expected = control.registry.get(device_id).snapshot()
            if served != expected:
                problems.append(f"{device_id}: served health {served} != in-process {expected}")
    return problems
