"""Result containers of a detection campaign: cells, report, export.

A campaign evaluates every (scenario x design) cell; each cell aggregates a
number of independent monitoring trials into the three quantities the paper's
argument rests on — was the threat detected (detection probability), how fast
(detection latency in sequences and bits) and by which tests (per-test
attribution) — plus the sequence-level failure rate, which for the healthy
control scenarios *is* the false-alarm rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.export import JsonCsvExportMixin
from repro.eval.attribution import format_rows

__all__ = ["CampaignCell", "CampaignReport", "format_rows"]


def _fmt_optional(value: Optional[float], spec: str = ".1f") -> str:
    return "-" if value is None else format(value, spec)


@dataclass
class CampaignCell:
    """Aggregated outcome of all trials of one (scenario x design) cell."""

    scenario: str
    category: str
    description: str
    expected_detectable: bool
    design: str
    n: int
    tests: Tuple[int, ...]
    trials: int
    sequences_per_trial: int
    alpha: float
    detected_trials: int
    detection_probability: float
    mean_latency_sequences: Optional[float]
    mean_latency_bits: Optional[float]
    sequence_failure_rate: float
    #: test number -> trials in which the test flagged at least one sequence
    attribution: Dict[int, int] = field(default_factory=dict)
    #: test number -> trials in which the test was among the *first* detectors
    first_detectors: Dict[int, int] = field(default_factory=dict)

    @property
    def is_control(self) -> bool:
        """True for healthy-control cells (their alarms are false alarms)."""
        return not self.expected_detectable

    @property
    def false_alarm_rate(self) -> Optional[float]:
        """Sequence-level false-alarm rate (controls only, None otherwise)."""
        return self.sequence_failure_rate if self.is_control else None

    def attribution_string(self) -> str:
        """Compact ``test:count`` attribution, e.g. ``"1:5,3:5,13:4"``."""
        if not self.attribution:
            return "-"
        return ",".join(f"{number}:{count}" for number, count in sorted(self.attribution.items()))

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "category": self.category,
            "description": self.description,
            "expected_detectable": self.expected_detectable,
            "design": self.design,
            "n": self.n,
            "tests": list(self.tests),
            "trials": self.trials,
            "sequences_per_trial": self.sequences_per_trial,
            "alpha": self.alpha,
            "detected_trials": self.detected_trials,
            "detection_probability": self.detection_probability,
            "mean_latency_sequences": self.mean_latency_sequences,
            "mean_latency_bits": self.mean_latency_bits,
            "sequence_failure_rate": self.sequence_failure_rate,
            "false_alarm_rate": self.false_alarm_rate,
            "attribution": {str(k): v for k, v in sorted(self.attribution.items())},
            "first_detectors": {str(k): v for k, v in sorted(self.first_detectors.items())},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignCell":
        return cls(
            scenario=data["scenario"],
            category=data["category"],
            description=data["description"],
            expected_detectable=data["expected_detectable"],
            design=data["design"],
            n=data["n"],
            tests=tuple(data["tests"]),
            trials=data["trials"],
            sequences_per_trial=data["sequences_per_trial"],
            alpha=data["alpha"],
            detected_trials=data["detected_trials"],
            detection_probability=data["detection_probability"],
            mean_latency_sequences=data["mean_latency_sequences"],
            mean_latency_bits=data["mean_latency_bits"],
            sequence_failure_rate=data["sequence_failure_rate"],
            attribution={int(k): v for k, v in data["attribution"].items()},
            first_detectors={int(k): v for k, v in data["first_detectors"].items()},
        )


#: Columns of the human-readable / CSV summary table.
SUMMARY_COLUMNS = (
    "scenario", "category", "design", "n", "detect_prob",
    "latency_seqs", "latency_bits", "seq_fail_rate", "false_alarm",
    "detected_by",
)


@dataclass
class CampaignReport(JsonCsvExportMixin):
    """Everything one detection campaign produced.

    Cells are ordered design-major in the configured design order, scenario
    order within each design, so two runs with the same configuration and
    seed serialise identically (the reproducibility contract of the
    campaign's golden tests).
    """

    SUMMARY_COLUMNS = SUMMARY_COLUMNS

    seed: int
    alpha: float
    trials: int
    sequences_per_trial: int
    suspect_after: int
    fail_after: int
    designs: Tuple[str, ...]
    scenarios: Tuple[str, ...]
    cells: List[CampaignCell] = field(default_factory=list)

    # ------------------------------------------------------------- selection
    def cells_for_design(self, design: str) -> List[CampaignCell]:
        return [cell for cell in self.cells if cell.design == design]

    def control_cells(self) -> List[CampaignCell]:
        return [cell for cell in self.cells if cell.is_control]

    def threat_cells(self) -> List[CampaignCell]:
        return [cell for cell in self.cells if not cell.is_control]

    def control_false_alarm_rate(self, design: str) -> Optional[float]:
        """Mean sequence-level false-alarm rate of ``design``'s control cells."""
        rates = [
            cell.sequence_failure_rate
            for cell in self.control_cells()
            if cell.design == design
        ]
        if not rates:
            return None
        return sum(rates) / len(rates)

    def detected_everywhere(self) -> List[str]:
        """Threat scenarios detected in every trial on every design."""
        by_scenario: Dict[str, bool] = {}
        for cell in self.threat_cells():
            previous = by_scenario.get(cell.scenario, True)
            by_scenario[cell.scenario] = previous and cell.detection_probability == 1.0
        return [label for label, everywhere in by_scenario.items() if everywhere]

    # ------------------------------------------------------------- rendering
    def summary_rows(self) -> List[Dict[str, object]]:
        """One row per cell, with the design's control false-alarm rate."""
        rows = []
        for cell in self.cells:
            control_rate = self.control_false_alarm_rate(cell.design)
            rows.append(
                {
                    "scenario": cell.scenario,
                    "category": cell.category,
                    "design": cell.design,
                    "n": cell.n,
                    "detect_prob": f"{cell.detection_probability:.2f}",
                    "latency_seqs": _fmt_optional(cell.mean_latency_sequences),
                    "latency_bits": _fmt_optional(cell.mean_latency_bits, ".0f"),
                    "seq_fail_rate": f"{cell.sequence_failure_rate:.2f}",
                    "false_alarm": _fmt_optional(control_rate, ".3f"),
                    "detected_by": cell.attribution_string(),
                }
            )
        return rows

    def format_table(self) -> str:
        """The human-readable detection-latency / detection-probability table."""
        return format_rows(self.summary_rows(), SUMMARY_COLUMNS)

    # ------------------------------------------------------------- export
    def to_dict(self) -> Dict[str, object]:
        return {
            "config": {
                "seed": self.seed,
                "alpha": self.alpha,
                "trials": self.trials,
                "sequences_per_trial": self.sequences_per_trial,
                "suspect_after": self.suspect_after,
                "fail_after": self.fail_after,
                "designs": list(self.designs),
                "scenarios": list(self.scenarios),
            },
            "cells": [cell.to_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignReport":
        config = data["config"]
        return cls(
            seed=config["seed"],
            alpha=config["alpha"],
            trials=config["trials"],
            sequences_per_trial=config["sequences_per_trial"],
            suspect_after=config["suspect_after"],
            fail_after=config["fail_after"],
            designs=tuple(config["designs"]),
            scenarios=tuple(config["scenarios"]),
            cells=[CampaignCell.from_dict(cell) for cell in data["cells"]],
            # A v1 "backend" config field is ignored: every backend gave
            # bit-identical P-values.  So is a saved "execution_paths" map:
            # every evaluation runs through one batch path.
        )

    # to_json / from_json / save_json / to_csv / save_csv come from
    # JsonCsvExportMixin, shared with the fleet report.
