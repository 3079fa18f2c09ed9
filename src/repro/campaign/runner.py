"""The detection-campaign runner: scenarios x designs through the batch engine.

For every (scenario x design) cell, :func:`run_campaign` runs ``trials``
independent monitoring trials.  Each trial builds a fresh seeded source from
the scenario's builder, wraps the design's platform in an
:class:`~repro.core.monitor.OnTheFlyMonitor` and drains the source in whole
trial matrices (``batch_size = sequences_per_trial``): the monitor pulls a
``(sequences, n)`` uint8 matrix straight from the source's block-native
stream (:meth:`~repro.trng.source.EntropySource.generate_matrix`) and every
sequence is evaluated through the engine's batch path
(:meth:`~repro.core.platform.OnTheFlyPlatform.evaluate_batch`, vectorised
functional hardware model).  No per-bit Python runs anywhere on the
campaign hot path — neither for generation nor for evaluation.  The
monitor's latency and attribution hooks (first failed index, first failing
tests, per-test failure counts) provide the per-cell metrics.  Cells run one
after another in this process.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import repro.obs as obs
from repro.campaign.report import CampaignCell, CampaignReport
from repro.campaign.scenarios import DEFAULT_CATALOG, ScenarioCatalog, ScenarioSpec
from repro.core.configs import get_design
from repro.core.monitor import OnTheFlyMonitor
from repro.core.platform import OnTheFlyPlatform

__all__ = ["CampaignConfig", "run_campaign", "DEFAULT_CAMPAIGN_DESIGNS"]

#: Three design points spanning the sequence-length / test-subset space:
#: both 128-bit profiles (quick detection) and a 65536-bit design (power).
DEFAULT_CAMPAIGN_DESIGNS: Tuple[str, ...] = ("n128_light", "n128_medium", "n65536_light")

_CELL_SECONDS = obs.histogram(
    "repro_campaign_cell_seconds",
    "Wall time of one (design x scenario) campaign cell, all trials.",
    labels=("design", "scenario"),
)


@dataclass(frozen=True)
class CampaignConfig:
    """Configuration of one detection campaign.

    Attributes
    ----------
    designs:
        Design-point names to sweep (the test-set axis: each design bundles a
        sequence length and a NIST test subset).
    scenarios:
        Catalogue labels to run; empty tuple means the full catalogue.
    trials:
        Independent monitoring trials per cell (each with its own derived
        seed); detection probability is estimated over these.
    sequences_per_trial:
        Sequences monitored per trial — also the engine batch size.
    alpha:
        Level of significance of the software verdicts.
    suspect_after / fail_after:
        The monitor's health policy (consecutive failing sequences).
    seed:
        Base seed; every (design, scenario, trial) derives its own stream
        deterministically, so a campaign is reproducible cell by cell.
    """

    designs: Tuple[str, ...] = DEFAULT_CAMPAIGN_DESIGNS
    scenarios: Tuple[str, ...] = ()
    trials: int = 3
    sequences_per_trial: int = 8
    alpha: float = 0.01
    suspect_after: int = 1
    fail_after: int = 2
    seed: int = 0

    def validate(self) -> None:
        if not self.designs:
            raise ValueError("need at least one design point")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.sequences_per_trial < 1:
            raise ValueError("sequences_per_trial must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        for name in self.designs:
            get_design(name)  # raises KeyError with the available names


def _trial_seed(base: int, design: str, label: str, trial: int) -> int:
    """Deterministic per-trial seed, stable across cell execution order."""
    return zlib.crc32(f"{base}:{design}:{label}:{trial}".encode())


def _evaluate_cell(
    platform: OnTheFlyPlatform,
    design: str,
    spec: ScenarioSpec,
    config: CampaignConfig,
) -> CampaignCell:
    """Run all trials of one (scenario x design) cell and aggregate them."""
    with obs.span("campaign.cell", design=design, scenario=spec.label) as cell_span:
        cell = _evaluate_cell_inner(platform, design, spec, config)
    _CELL_SECONDS.observe(cell_span.duration_s, design=design, scenario=spec.label)
    return cell


def _evaluate_cell_inner(
    platform: OnTheFlyPlatform,
    design: str,
    spec: ScenarioSpec,
    config: CampaignConfig,
) -> CampaignCell:
    detected = 0
    failing_sequences = 0
    latency_sequences = []
    latency_bits = []
    attribution = {}
    first_detectors = {}
    for trial in range(config.trials):
        monitor = OnTheFlyMonitor(
            platform, suspect_after=config.suspect_after, fail_after=config.fail_after
        )
        # One block-native pull per trial: the whole trial matrix streams out
        # of the scenario source and through the engine batch path at once.
        matrix = spec.build_matrix(
            _trial_seed(config.seed, design, spec.label, trial),
            platform.n,
            config.sequences_per_trial,
        )
        for report in platform.evaluate_batch(matrix):
            monitor.observe(report)
        failing_sequences += sum(
            1 for event in monitor.history if not event.report.passed
        )
        if monitor.first_failed_index is not None:
            detected += 1
            latency_sequences.append(monitor.detection_latency_sequences())
            latency_bits.append(monitor.detection_latency_bits())
        for number in monitor.failing_test_counts():
            attribution[number] = attribution.get(number, 0) + 1
        for number in monitor.first_failing_tests or ():
            first_detectors[number] = first_detectors.get(number, 0) + 1
    total_sequences = config.trials * config.sequences_per_trial
    return CampaignCell(
        scenario=spec.label,
        category=spec.category,
        description=spec.description,
        expected_detectable=spec.expected_detectable,
        design=design,
        n=platform.n,
        tests=tuple(platform.tests),
        trials=config.trials,
        sequences_per_trial=config.sequences_per_trial,
        alpha=config.alpha,
        detected_trials=detected,
        detection_probability=detected / config.trials,
        mean_latency_sequences=(
            sum(latency_sequences) / len(latency_sequences) if latency_sequences else None
        ),
        mean_latency_bits=(
            sum(latency_bits) / len(latency_bits) if latency_bits else None
        ),
        sequence_failure_rate=failing_sequences / total_sequences,
        attribution=attribution,
        first_detectors=first_detectors,
    )


def run_campaign(
    config: Optional[CampaignConfig] = None,
    catalog: Optional[ScenarioCatalog] = None,
    on_cell: Optional[Callable[[CampaignCell], None]] = None,
) -> CampaignReport:
    """Sweep the threat catalogue across design points.

    Parameters
    ----------
    config:
        Campaign configuration (defaults to :class:`CampaignConfig`, i.e.
        the full catalogue on three design points, three trials per cell).
    catalog:
        Scenario catalogue to draw from (default:
        :data:`~repro.campaign.scenarios.DEFAULT_CATALOG`).
    on_cell:
        Optional callback invoked with every finished :class:`CampaignCell`
        in report order (progress streaming for long campaigns).

    Returns
    -------
    CampaignReport
        One cell per (design, scenario), design-major, in configured order.
    """
    config = config if config is not None else CampaignConfig()
    config.validate()
    catalog = catalog if catalog is not None else DEFAULT_CATALOG
    specs = catalog.select(list(config.scenarios) or None)
    if not specs:
        raise ValueError("no scenarios selected")
    labels = tuple(spec.label for spec in specs)

    cells = []
    for design in config.designs:
        platform = OnTheFlyPlatform(design, alpha=config.alpha)
        for spec in specs:
            cell = _evaluate_cell(platform, design, spec, config)
            cells.append(cell)
            if on_cell is not None:
                on_cell(cell)

    return CampaignReport(
        seed=config.seed,
        alpha=config.alpha,
        trials=config.trials,
        sequences_per_trial=config.sequences_per_trial,
        suspect_after=config.suspect_after,
        fail_after=config.fail_after,
        designs=tuple(config.designs),
        scenarios=labels,
        cells=cells,
    )
