"""Seeded chaos harness: kill the real service, recover it, prove nothing broke.

Durability claims are cheap; this module makes the repository earn them.
:func:`run_chaos` boots the *actual* ``repro.cli fleet serve`` process with
a durability spool, drives externally-registered devices over real HTTP
through :class:`~repro.fleet.client.FleetClient`, and then misbehaves on a
seeded schedule:

* **drop** — a send is "lost" once before being retried;
* **duplicate** — a chunk is sent twice (the second must come back
  ``{"duplicate": true}``, not double-evaluate);
* **reorder** — the *next* chunk is sent first (must 409 as a sequence
  gap, then the proper order resumes);
* **corrupt** — a malformed payload precedes the real chunk (must 400
  without touching device state);
* **kill** — after a seeded number of acknowledged ingests the service is
  SIGKILLed mid-run, restarted with ``--restore``, and ingestion resumes
  from the client's acknowledged sequence numbers.

At the end the service is shut down gracefully (SIGTERM must exit clean),
and the per-device health snapshots plus fleet summary are compared field
for field against an **uninterrupted control run** — the same chunks
folded, in the same per-device order, into an in-process scheduler that
never crashed.  Bit-identical health after a ``kill -9`` is the invariant
CI pins (the durability layer's write-ahead journal and idempotent seq
contract are exactly what make it hold).

Everything is derived from one seed — device bits, fault schedule, kill
point — so a failing run reproduces exactly.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Tuple

import numpy as np

from repro.fleet.client import FleetClient, FleetServiceError
from repro.fleet.registry import DeviceRegistry
from repro.fleet.scheduler import FleetScheduler

__all__ = ["ChaosConfig", "ChaosResult", "run_chaos"]

#: Startup line printed by ``fleet serve`` (the port is OS-assigned).
_LISTENING_RE = re.compile(r"listening on http://([^:]+):(\d+)")
#: Restore line printed by ``fleet serve --restore`` on a successful replay.
_REPLAY_RE = re.compile(r"journal replay applied (\d+) ingests \((\d+) duplicates")

#: Summary fields compared against the control run.  Throughput and
#: timing fields are excluded by construction (wall-clock differs); the
#: structural and statistical fields must match exactly.
_SUMMARY_KEYS = (
    "design",
    "n",
    "alpha",
    "num_devices",
    "rounds_completed",
    "health",
    "mix",
    "false_alarm_rate",
)


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos experiment, fully determined by its fields."""

    devices: int = 4
    chunks_per_device: int = 6
    seed: int = 0
    design: str = "n128_light"
    kill_after_acks: Optional[int] = None
    drop_rate: float = 0.1
    duplicate_rate: float = 0.1
    reorder_rate: float = 0.1
    corrupt_rate: float = 0.1
    snapshot_interval_s: float = 0.2
    workdir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.devices <= 0:
            raise ValueError("chaos needs at least one device")
        if self.chunks_per_device <= 0:
            raise ValueError("chaos needs at least one chunk per device")
        for name in ("drop_rate", "duplicate_rate", "reorder_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {rate}")
        if self.snapshot_interval_s <= 0:
            raise ValueError("snapshot_interval_s must be positive")


@dataclass
class ChaosResult:
    """Verdict of one chaos run (the recovery report body)."""

    matched: bool
    killed: bool
    clean_shutdown: bool
    acks_before_kill: int
    total_acks: int
    faults_injected: int
    fault_counts: Dict[str, int]
    replay_applied: int
    replay_duplicates: int
    mismatches: List[str] = field(default_factory=list)
    summary: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "matched": self.matched,
            "killed": self.killed,
            "clean_shutdown": self.clean_shutdown,
            "acks_before_kill": self.acks_before_kill,
            "total_acks": self.total_acks,
            "faults_injected": self.faults_injected,
            "fault_counts": dict(self.fault_counts),
            "replay_applied": self.replay_applied,
            "replay_duplicates": self.replay_duplicates,
            "mismatches": list(self.mismatches),
            "summary": dict(self.summary),
        }


def _device_ids(config: ChaosConfig) -> List[str]:
    return [f"chaos-{index:04d}" for index in range(config.devices)]


def _chunk_bits(config: ChaosConfig, device_index: int, chunk_index: int, n: int) -> str:
    """Deterministic bits of one chunk, stateless in (device, chunk).

    Statelessness matters: faults and restarts replay chunks in odd
    orders, and the control run must be able to regenerate any chunk
    without tracking generator positions.  Every fourth device is biased
    (P(1) = 0.9) so the run exercises real health transitions, not just
    healthy devices staying healthy.
    """
    rng = np.random.default_rng(
        [config.seed, 0x5EED, device_index, chunk_index]
    )
    size = _chunk_size(device_index, chunk_index, n)
    if device_index % 4 == 3:
        bits = (rng.random(size) < 0.9).astype(np.uint8)
    else:
        bits = rng.integers(0, 2, size, dtype=np.uint8)
    return "".join("1" if bit else "0" for bit in bits.tolist())


def _chunk_size(device_index: int, chunk_index: int, n: int) -> int:
    """Chunk sizes between n/2 and ~3n/2.

    Sequences straddle chunk boundaries, so partial sequences wait in the
    device tails at kill time.
    """
    return n // 2 + (device_index * 7 + chunk_index * 13) % n


def _service_command(config: ChaosConfig, spool: Path, restore: bool) -> List[str]:
    command = [
        sys.executable,
        "-u",
        "-m",
        "repro.cli",
        "fleet",
        "serve",
        "--devices",
        "0",
        "--rounds",
        "0",
        "--design",
        config.design,
        "--host",
        "127.0.0.1",
        "--port",
        "0",
        "--quiet",
        "--snapshot-dir",
        str(spool),
        "--snapshot-interval",
        str(config.snapshot_interval_s),
    ]
    if restore:
        command.append("--restore")
    return command


def _spawn_service(
    config: ChaosConfig, spool: Path, restore: bool
) -> Tuple["subprocess.Popen[str]", str, Tuple[int, int]]:
    """Start ``fleet serve`` and wait for its listening line.

    Returns the process, the base URL, and the (applied, duplicates)
    replay counts parsed from the restore banner (zeros on a fresh boot).
    """
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root if not existing else src_root + os.pathsep + existing
    process = subprocess.Popen(
        _service_command(config, spool, restore),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    replay = (0, 0)
    stdout = process.stdout
    assert stdout is not None
    while True:
        line = stdout.readline()
        if not line:
            raise RuntimeError(
                f"fleet service exited during startup "
                f"(code {process.wait()}); command: "
                + " ".join(_service_command(config, spool, restore))
            )
        replay_match = _REPLAY_RE.search(line)
        if replay_match:
            replay = (int(replay_match.group(1)), int(replay_match.group(2)))
        listening = _LISTENING_RE.search(line)
        if listening:
            url = f"http://{listening.group(1)}:{listening.group(2)}"
            return process, url, replay


def _note(out: Optional[TextIO], message: str) -> None:
    if out is not None:
        print(message, file=out, flush=True)


def _control_run(config: ChaosConfig, n_chunks: Dict[str, List[str]]) -> Tuple[
    Dict[str, Dict[str, Any]], Dict[str, Any]
]:
    """The uninterrupted reference: same chunks, in-process, no faults."""
    registry = DeviceRegistry(config.design)
    for device_id in n_chunks:
        registry.register(device_id)
    with FleetScheduler(registry) as scheduler:
        for device_id, chunks in n_chunks.items():
            for seq, bits in enumerate(chunks):
                scheduler.ingest(device_id, bits, seq=seq)
        health = {device.device_id: device.snapshot() for device in registry}
        report = scheduler.report()
        summary = {
            "design": report.design,
            "n": report.n,
            "alpha": report.alpha,
            "num_devices": report.num_devices,
            "rounds_completed": report.rounds_completed,
            "health": registry.health_counts(),
            "mix": report.mix,
            "false_alarm_rate": report.false_alarm_rate(),
        }
    return health, summary


def run_chaos(config: ChaosConfig, out: Optional[TextIO] = None) -> ChaosResult:
    """Execute one chaos experiment; see the module docstring for the plot."""
    owns_workdir = config.workdir is None
    workdir = Path(config.workdir or tempfile.mkdtemp(prefix="repro-chaos-"))
    workdir.mkdir(parents=True, exist_ok=True)
    spool = workdir / "spool"
    try:
        result = _run_chaos_in(config, spool, out)
    except BaseException:
        # Keep the spool for post-mortem when the run blew up.
        _note(out, f"chaos run failed; spool kept at {spool}")
        raise
    if owns_workdir and result.matched:
        shutil.rmtree(workdir, ignore_errors=True)
    elif not result.matched:
        _note(out, f"spool kept for post-mortem at {spool}")
    return result


def _run_chaos_in(
    config: ChaosConfig, spool: Path, out: Optional[TextIO]
) -> ChaosResult:
    device_ids = _device_ids(config)
    n = DeviceRegistry(config.design).n
    chunks: Dict[str, List[str]] = {
        device_id: [
            _chunk_bits(config, device_index, chunk_index, n)
            for chunk_index in range(config.chunks_per_device)
        ]
        for device_index, device_id in enumerate(device_ids)
    }
    total_chunks = config.devices * config.chunks_per_device
    schedule_rng = np.random.default_rng([config.seed, 0xFA57])
    if config.kill_after_acks is not None:
        kill_target = config.kill_after_acks
    elif total_chunks > 2:
        # A seeded point in the middle half of the run, so the kill lands
        # after some snapshots exist but while the journal still leads.
        kill_target = int(
            schedule_rng.integers(
                max(1, total_chunks // 4), max(2, (3 * total_chunks) // 4)
            )
        )
    else:
        kill_target = 1

    process, url, _ = _spawn_service(config, spool, restore=False)
    _note(out, f"service up at {url}; killing after {kill_target} acks")
    client = FleetClient(url, jitter_seed=config.seed)
    for device_id in device_ids:
        client.register_device(device_id)

    acked: Dict[str, int] = {}
    acks = 0
    killed = False
    fault_counts = {"drop": 0, "duplicate": 0, "reorder": 0, "corrupt": 0}
    replay_applied = 0
    replay_duplicates = 0

    def send(device_id: str, seq: int) -> Dict[str, Any]:
        return client.ingest(device_id, chunks[device_id][seq], seq=seq)

    for chunk_index in range(config.chunks_per_device):
        for device_index, device_id in enumerate(device_ids):
            if acked.get(device_id, -1) >= chunk_index:
                continue
            if not killed and acks >= kill_target:
                _note(out, f"SIGKILL after {acks} acks; restarting with --restore")
                process.kill()
                process.wait(timeout=30)
                client.close()
                process, url, replay = _spawn_service(config, spool, restore=True)
                replay_applied, replay_duplicates = replay
                client = FleetClient(url, jitter_seed=config.seed + 1)
                killed = True
                _note(
                    out,
                    f"service back at {url}; replay applied {replay_applied} "
                    f"ingests ({replay_duplicates} duplicates)",
                )
            faults = schedule_rng.random(4)
            if faults[0] < config.corrupt_rate:
                fault_counts["corrupt"] += 1
                try:
                    client.ingest(device_id, "012 not bits", seq=chunk_index)
                except FleetServiceError as exc:
                    if exc.status != 400:
                        raise
            # Reorder only once the device has an applied seq: the contract
            # deliberately leaves the *first* seq unconstrained (clients may
            # resume mid-stream), so a premature chunk before any history
            # would be accepted rather than 409ed.
            if (
                faults[1] < config.reorder_rate
                and chunk_index >= 1
                and chunk_index + 1 < config.chunks_per_device
            ):
                fault_counts["reorder"] += 1
                try:
                    send(device_id, chunk_index + 1)
                except FleetServiceError as exc:
                    if exc.status != 409:
                        raise
            if faults[2] < config.drop_rate:
                # The "network" eats one send; the chunk goes out on the
                # retry below, exactly like a client-side timeout.
                fault_counts["drop"] += 1
            reply = send(device_id, chunk_index)
            if not reply.get("duplicate"):
                acks += 1
            acked[device_id] = chunk_index
            if faults[3] < config.duplicate_rate:
                fault_counts["duplicate"] += 1
                echo = send(device_id, chunk_index)
                if not echo.get("duplicate"):
                    raise RuntimeError(
                        f"duplicate seq {chunk_index} for {device_id} was "
                        "re-applied instead of deduplicated"
                    )

    if not killed:
        # The seeded kill point can exceed the ack total when duplicates
        # absorbed part of the run; kill at the end and recover anyway so
        # the invariant is still exercised.
        _note(out, f"SIGKILL after full run ({acks} acks); restarting")
        process.kill()
        process.wait(timeout=30)
        client.close()
        process, url, replay = _spawn_service(config, spool, restore=True)
        replay_applied, replay_duplicates = replay
        client = FleetClient(url, jitter_seed=config.seed + 1)
        killed = True

    with client:
        service_health = {
            device_id: client.device_health(device_id) for device_id in device_ids
        }
        service_summary = client.fleet_summary()
    process.terminate()
    clean = process.wait(timeout=30) == 0
    _note(out, f"SIGTERM shutdown {'clean' if clean else 'DIRTY'}")

    control_health, control_summary = _control_run(config, chunks)
    mismatches: List[str] = []
    for device_id in device_ids:
        theirs = service_health[device_id]
        ours = control_health[device_id]
        for key, expected in ours.items():
            got = theirs.get(key)
            if got != expected:
                mismatches.append(
                    f"{device_id}.{key}: service {got!r} != control {expected!r}"
                )
    for key in _SUMMARY_KEYS:
        if service_summary.get(key) != control_summary.get(key):
            mismatches.append(
                f"summary.{key}: service {service_summary.get(key)!r} "
                f"!= control {control_summary.get(key)!r}"
            )
    if not clean:
        mismatches.append("SIGTERM shutdown exited dirty")
    return ChaosResult(
        matched=not mismatches,
        killed=killed,
        clean_shutdown=clean,
        acks_before_kill=kill_target,
        total_acks=acks,
        faults_injected=sum(fault_counts.values()),
        fault_counts=fault_counts,
        replay_applied=replay_applied,
        replay_duplicates=replay_duplicates,
        mismatches=mismatches,
        summary={k: service_summary.get(k) for k in _SUMMARY_KEYS},
    )
