"""Fleet monitoring: multiplexed many-device health tracking + JSON service.

The paper monitors one TRNG continuously; the ROADMAP's production system
tracks the health of thousands of deployed devices at once.  This subpackage
is that aggregation tier, built on the substrate of PRs 1–3:

* :class:`DeviceRegistry` instantiates N simulated devices from a
  :class:`FleetMix` (e.g. 95% healthy, 5% drawn from the campaign's threat
  catalogue), each a seeded scenario source plus its row of the fleet's
  :class:`FleetHealth` columns (the
  :class:`~repro.core.monitor.OnTheFlyMonitor` health machine, one row per
  device, read through the device's :class:`DeviceHealth` view).
* :class:`FleetScheduler` advances the whole fleet in rounds: one sequence
  per device, packed into one ``(devices, words)`` array, evaluated and
  decided by :func:`~repro.engine.batch.run_batch` (shared vectorised
  statistics across devices, large rounds split over one thread per core),
  and the round's failing mask folded into the health columns in one pass.
* :class:`FleetReport` aggregates the operations view — health mix over
  time, per-scenario detection probability and latency percentiles,
  healthy-device false-alarm rate, devices/second — with JSON/CSV export.
* :mod:`repro.fleet.service` puts a stdlib ``http.server`` JSON front-end on
  top: ``POST /devices``, ``POST /ingest``, ``GET /devices/<id>/health``,
  ``GET /fleet/summary`` — with load-shedding (429 + ``Retry-After``),
  payload caps and per-device quarantine; :mod:`repro.fleet.client` is the
  matching retrying client.
* :mod:`repro.fleet.durability` makes the whole thing crash-safe: atomic
  versioned snapshots of the scheduler (registry, health machines, rounds,
  ingest tails) plus a CRC-framed write-ahead ingest journal, replayed
  bit-identically by :func:`recover_fleet` after a crash.
* :mod:`repro.fleet.chaos` proves it: a seeded harness that boots the real
  service, kills it with SIGKILL mid-ingest, injects drop/duplicate/
  reorder/corrupt faults, restores from the spool, and asserts the
  recovered fleet matches an uninterrupted control run verdict for verdict.

Quickstart::

    from repro.fleet import DeviceRegistry, FleetMix, FleetScheduler

    registry = DeviceRegistry("n128_light", alpha=0.01)
    registry.populate(512, FleetMix.healthy_with_threats(0.95), seed=7)
    report = FleetScheduler(registry).run(num_rounds=8)
    print(report.format_table())
    report.save_json("fleet.json")
"""

from repro.fleet.client import FleetClient, FleetServiceError
from repro.fleet.durability import (
    DurableFleet,
    IngestJournal,
    JournalReplayStats,
    recover_fleet,
)
from repro.fleet.health import DeviceHealth, FleetHealth, FleetVerdict
from repro.fleet.registry import Device, DeviceRegistry, FleetMix
from repro.fleet.report import (
    FleetReport,
    FleetRound,
    FleetScenarioStats,
    SUMMARY_COLUMNS,
    build_report,
)
from repro.fleet.scheduler import (
    DuplicateIngestError,
    FleetScheduler,
    IngestSequenceError,
    IngestSequenceGapError,
)
from repro.fleet.service import FleetService, ServiceError, serve

__all__ = [
    "Device",
    "DeviceHealth",
    "DeviceRegistry",
    "DuplicateIngestError",
    "DurableFleet",
    "FleetClient",
    "FleetHealth",
    "FleetMix",
    "FleetReport",
    "FleetRound",
    "FleetScenarioStats",
    "FleetScheduler",
    "FleetService",
    "FleetServiceError",
    "FleetVerdict",
    "IngestJournal",
    "IngestSequenceError",
    "IngestSequenceGapError",
    "JournalReplayStats",
    "SUMMARY_COLUMNS",
    "ServiceError",
    "build_report",
    "recover_fleet",
    "serve",
]
