"""Fleet-level aggregation: health mix over time, per-scenario detection.

The campaign's :class:`~repro.campaign.report.CampaignReport` aggregates
*trials* of one scenario; a fleet aggregates *devices*.  A
:class:`FleetReport` therefore answers the operations questions: how is the
fleet's health mix evolving round by round, what fraction of each deployed
threat scenario has been caught and how fast (latency percentiles across
devices, not means across trials), how noisy are the healthy devices
(sequence-level false-alarm rate) and how fast does the multiplexed
scheduler chew through the fleet (devices/second).  Export mirrors the
campaign report: ``to_json``/``from_json`` round-trip the full report,
``to_csv`` emits the per-scenario summary table under stable
:data:`SUMMARY_COLUMNS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.export import JsonCsvExportMixin
from repro.eval.attribution import format_rows

if TYPE_CHECKING:  # imported lazily: registry is a consumer of this module
    from repro.fleet.registry import DeviceRegistry

__all__ = [
    "FleetRound",
    "FleetScenarioStats",
    "FleetReport",
    "SUMMARY_COLUMNS",
    "build_report",
]

#: Latency percentiles reported per scenario (across detected devices).
LATENCY_PERCENTILES = (50, 90, 99)


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile (q in [0, 100]); None on empty input.

    Nearest-rank keeps every reported latency an actually-observed value
    (a latency of 1.5 sequences does not exist), which is what an operator
    pages on.
    """
    if not values:
        return None
    if not 0 <= q <= 100:
        raise ValueError("q must lie in [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def _fmt_optional(value: Optional[float], spec: str = ".0f") -> str:
    return "-" if value is None else format(value, spec)


@dataclass
class FleetRound:
    """One scheduler round: the fleet health mix after it, and its cost."""

    index: int
    #: health-state value -> device count (the whole fleet, after the round)
    health: Dict[str, int]
    #: simulated devices evaluated in this round
    devices: int
    failing_sequences: int
    elapsed_s: float

    @property
    def devices_per_s(self) -> float:
        """Round throughput, derived on demand.

        Stored state keeps only the measured quantities (count, wall time),
        so the serialised report never carries a non-finite rate even on a
        platform whose timer resolves the round to zero.
        """
        return self.devices / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "health": dict(self.health),
            "devices": self.devices,
            "failing_sequences": self.failing_sequences,
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FleetRound":
        return cls(
            index=data["index"],
            health={str(k): v for k, v in data["health"].items()},
            devices=data["devices"],
            failing_sequences=data["failing_sequences"],
            elapsed_s=data["elapsed_s"],
        )


@dataclass
class FleetScenarioStats:
    """Detection outcome of one scenario's device population."""

    scenario: str
    category: str
    expected_detectable: bool
    devices: int
    detected_devices: int
    detection_probability: float
    #: percentile (as int key) -> detection latency in sequences
    latency_percentiles: Dict[int, Optional[float]] = field(default_factory=dict)
    sequence_failure_rate: float = 0.0

    @property
    def is_control(self) -> bool:
        return not self.expected_detectable

    @property
    def false_alarm_rate(self) -> Optional[float]:
        """Sequence-level false-alarm rate (controls only, None otherwise)."""
        return self.sequence_failure_rate if self.is_control else None

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "category": self.category,
            "expected_detectable": self.expected_detectable,
            "devices": self.devices,
            "detected_devices": self.detected_devices,
            "detection_probability": self.detection_probability,
            "latency_percentiles": {
                str(q): value for q, value in sorted(self.latency_percentiles.items())
            },
            "sequence_failure_rate": self.sequence_failure_rate,
            "false_alarm_rate": self.false_alarm_rate,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FleetScenarioStats":
        return cls(
            scenario=data["scenario"],
            category=data["category"],
            expected_detectable=data["expected_detectable"],
            devices=data["devices"],
            detected_devices=data["detected_devices"],
            detection_probability=data["detection_probability"],
            latency_percentiles={
                int(q): value for q, value in data["latency_percentiles"].items()
            },
            sequence_failure_rate=data["sequence_failure_rate"],
        )


#: Columns of the per-scenario summary table / CSV (stable export contract).
SUMMARY_COLUMNS = (
    "scenario", "category", "devices", "detected", "detect_prob",
    "latency_p50", "latency_p90", "latency_p99", "seq_fail_rate", "false_alarm",
)


@dataclass
class FleetReport(JsonCsvExportMixin):
    """Everything one fleet run produced.

    Scenario rows are ordered by first appearance in the registry's mix,
    rounds chronologically, so two runs of the same seeded fleet serialise
    identically.
    """

    SUMMARY_COLUMNS = SUMMARY_COLUMNS

    design: str
    n: int
    alpha: float
    num_devices: int
    suspect_after: int
    fail_after: int
    seed: Optional[int]
    #: scenario label -> device count (the resolved mix; "external" for
    #: service-registered devices without a simulated source)
    mix: Dict[str, int]
    rounds: List[FleetRound] = field(default_factory=list)
    scenarios: List[FleetScenarioStats] = field(default_factory=list)

    # ------------------------------------------------------------- selection
    @property
    def rounds_completed(self) -> int:
        return len(self.rounds)

    def control_stats(self) -> List[FleetScenarioStats]:
        return [stats for stats in self.scenarios if stats.is_control]

    def threat_stats(self) -> List[FleetScenarioStats]:
        return [stats for stats in self.scenarios if not stats.is_control]

    def false_alarm_rate(self) -> Optional[float]:
        """Sequence-level false-alarm rate across all healthy-control devices
        (device-weighted mean; None when the fleet has no controls)."""
        controls = self.control_stats()
        total_devices = sum(stats.devices for stats in controls)
        if total_devices == 0:
            return None
        weighted = sum(stats.sequence_failure_rate * stats.devices for stats in controls)
        return weighted / total_devices

    def health_trajectory(self) -> List[Dict[str, int]]:
        """Fleet health mix after every round (the time axis of a dashboard)."""
        return [dict(fleet_round.health) for fleet_round in self.rounds]

    def final_health(self) -> Dict[str, int]:
        """Health mix after the last round (empty when no rounds ran)."""
        return dict(self.rounds[-1].health) if self.rounds else {}

    def devices_per_second(self) -> Optional[float]:
        """Aggregate scheduler throughput over all rounds."""
        total = sum(fleet_round.elapsed_s for fleet_round in self.rounds)
        evaluated = sum(fleet_round.devices for fleet_round in self.rounds)
        if total <= 0:
            return None
        return evaluated / total

    # ------------------------------------------------------------- rendering
    def summary_rows(self) -> List[Dict[str, object]]:
        """One row per scenario population (the CSV / table body)."""
        rows = []
        for stats in self.scenarios:
            percentiles = stats.latency_percentiles
            rows.append(
                {
                    "scenario": stats.scenario,
                    "category": stats.category,
                    "devices": stats.devices,
                    "detected": stats.detected_devices,
                    "detect_prob": f"{stats.detection_probability:.2f}",
                    "latency_p50": _fmt_optional(percentiles.get(50)),
                    "latency_p90": _fmt_optional(percentiles.get(90)),
                    "latency_p99": _fmt_optional(percentiles.get(99)),
                    "seq_fail_rate": f"{stats.sequence_failure_rate:.3f}",
                    "false_alarm": _fmt_optional(stats.false_alarm_rate, ".3f"),
                }
            )
        return rows

    def format_table(self) -> str:
        """Human-readable per-scenario detection table."""
        return format_rows(self.summary_rows(), SUMMARY_COLUMNS)

    # ------------------------------------------------------------- export
    def to_dict(self) -> Dict[str, object]:
        return {
            "config": {
                "design": self.design,
                "n": self.n,
                "alpha": self.alpha,
                "num_devices": self.num_devices,
                "suspect_after": self.suspect_after,
                "fail_after": self.fail_after,
                "seed": self.seed,
                "mix": dict(self.mix),
            },
            "rounds": [fleet_round.to_dict() for fleet_round in self.rounds],
            "scenarios": [stats.to_dict() for stats in self.scenarios],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FleetReport":
        config = data["config"]
        return cls(
            design=config["design"],
            n=config["n"],
            alpha=config["alpha"],
            num_devices=config["num_devices"],
            suspect_after=config["suspect_after"],
            fail_after=config["fail_after"],
            seed=config["seed"],
            mix={str(k): v for k, v in config["mix"].items()},
            rounds=[FleetRound.from_dict(r) for r in data["rounds"]],
            scenarios=[FleetScenarioStats.from_dict(s) for s in data["scenarios"]],
            # A v1 "backend" or "streaming" config field is ignored: every
            # backend and both former scheduler modes gave bit-identical
            # verdicts.  So is a saved "execution_paths" map: every test
            # now runs through its batch entry.
        )

    # to_json / from_json / save_json / to_csv / save_csv come from
    # JsonCsvExportMixin, shared with the campaign report.


def build_report(
    registry: "DeviceRegistry",
    rounds: List[FleetRound],
) -> FleetReport:
    """Aggregate a registry's device health into a :class:`FleetReport`.

    Groups devices by scenario label in registry insertion order (service-
    registered external devices land in an ``"external"`` group), computes
    per-scenario detection probability, latency percentiles across detected
    devices and the sequence-level failure rate.
    """
    by_scenario: Dict[str, List] = {}
    for device in registry:
        key = device.scenario if device.scenario is not None else "external"
        by_scenario.setdefault(key, []).append(device)

    scenarios = []
    for label, devices in by_scenario.items():
        latencies = [
            device.monitor.detection_latency_sequences()
            for device in devices
            if device.monitor.first_failed_index is not None
        ]
        sequences = sum(device.monitor.sequences_monitored for device in devices)
        failures = sum(device.monitor.failures_total for device in devices)
        scenarios.append(
            FleetScenarioStats(
                scenario=label,
                category=devices[0].category,
                expected_detectable=devices[0].expected_detectable,
                devices=len(devices),
                detected_devices=len(latencies),
                detection_probability=len(latencies) / len(devices),
                latency_percentiles={
                    q: percentile(latencies, q) for q in LATENCY_PERCENTILES
                },
                sequence_failure_rate=failures / sequences if sequences else 0.0,
            )
        )

    return FleetReport(
        design=registry.design_name,
        n=registry.n,
        alpha=registry.alpha,
        num_devices=len(registry),
        suspect_after=registry.suspect_after,
        fail_after=registry.fail_after,
        seed=registry.seed,
        mix=registry.scenario_counts(),
        rounds=list(rounds),
        scenarios=scenarios,
    )
