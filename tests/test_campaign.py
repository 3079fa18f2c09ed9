"""Tests of the detection-campaign subsystem: catalogue, runner, report."""

import csv
import io
import json

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignReport,
    DEFAULT_CATALOG,
    SCENARIO_CATEGORIES,
    ScenarioCatalog,
    ScenarioSpec,
    build_default_catalog,
    run_campaign,
)
from repro.eval.attribution import (
    attribution_rows,
    attribution_tests,
    format_attribution_table,
)
from repro.trng import IdealSource, StuckAtSource


SMALL_CONFIG = CampaignConfig(
    designs=("n128_light", "n128_medium"),
    scenarios=(
        "healthy-ideal", "wire-cut", "stuck-at-1", "alternating",
        "biased-0.70", "freq-injection-staged",
    ),
    trials=2,
    sequences_per_trial=5,
    seed=42,
)


@pytest.fixture(scope="module")
def small_report():
    return run_campaign(SMALL_CONFIG)


class TestScenarioCatalog:
    def test_default_catalogue_covers_the_threat_classes(self):
        assert len(DEFAULT_CATALOG.threats()) >= 8
        assert len(DEFAULT_CATALOG.controls()) >= 2
        categories = {spec.category for spec in DEFAULT_CATALOG}
        assert categories == set(SCENARIO_CATEGORIES)

    def test_expected_labels_present(self):
        for label in (
            "healthy-ideal", "wire-cut", "stuck-at-1", "alternating",
            "burst-failure", "biased-0.60", "correlated-0.75",
            "freq-injection", "freq-injection-staged", "em-injection",
            "aging-drift",
        ):
            assert label in DEFAULT_CATALOG

    def test_builders_produce_fresh_deterministic_sources(self):
        spec = DEFAULT_CATALOG.get("biased-0.60")
        first = spec.build(7, 128).generate(64)
        second = spec.build(7, 128).generate(64)
        assert first == second

    def test_staged_attack_scales_with_design_length(self):
        spec = DEFAULT_CATALOG.get("freq-injection-staged")
        assert spec.build(1, 128).start_bit == 256
        assert spec.build(1, 65536).start_bit == 131072

    def test_scenario_bridge_to_attack_scenario(self):
        scenario = DEFAULT_CATALOG.get("wire-cut").scenario(seed=0, n=128)
        assert scenario.label == "wire-cut"
        assert scenario.expected_detectable
        assert scenario.source.next_bit() == 0

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            DEFAULT_CATALOG.get("nonexistent")

    def test_select_by_category(self):
        failures = DEFAULT_CATALOG.select(categories=["failure"])
        assert {spec.label for spec in failures} >= {"wire-cut", "stuck-at-1"}
        with pytest.raises(ValueError):
            DEFAULT_CATALOG.select(categories=["bogus"])

    def test_duplicate_registration_rejected(self):
        catalog = ScenarioCatalog()
        spec = ScenarioSpec("x", "failure", lambda seed, n: StuckAtSource(0))
        catalog.register(spec)
        with pytest.raises(ValueError):
            catalog.register(spec)
        catalog.register(
            ScenarioSpec("x", "failure", lambda seed, n: StuckAtSource(1)),
            replace=True,
        )
        assert len(catalog) == 1

    def test_invalid_category_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec("x", "bogus", lambda seed, n: StuckAtSource(0))

    def test_build_default_catalog_returns_fresh_instance(self):
        assert build_default_catalog() is not DEFAULT_CATALOG
        assert build_default_catalog().labels() == DEFAULT_CATALOG.labels()


class TestRunCampaign:
    def test_one_cell_per_design_scenario_pair(self, small_report):
        assert len(small_report.cells) == 2 * 6
        keys = [(cell.design, cell.scenario) for cell in small_report.cells]
        assert len(set(keys)) == len(keys)
        # design-major, configured order
        assert keys[0][0] == "n128_light"
        assert keys[6][0] == "n128_medium"

    def test_total_failures_detected_at_policy_latency(self, small_report):
        for cell in small_report.cells:
            if cell.scenario in ("wire-cut", "stuck-at-1", "alternating"):
                assert cell.detection_probability == 1.0, cell.scenario
                # fail_after=2 consecutive failing sequences => 2 * n bits
                assert cell.mean_latency_sequences == 2.0
                assert cell.mean_latency_bits == 2.0 * cell.n

    def test_staged_attack_detected_after_stage(self, small_report):
        for cell in small_report.cells:
            if cell.scenario == "freq-injection-staged":
                assert cell.detection_probability == 1.0
                # injection starts at 2n bits: detection needs >= 4 sequences
                assert cell.mean_latency_sequences >= 4.0

    def test_healthy_control_false_alarm_rate_low(self, small_report):
        for cell in small_report.control_cells():
            assert cell.false_alarm_rate is not None
            assert cell.false_alarm_rate <= 0.3
            assert cell.detection_probability <= 0.5
        for cell in small_report.threat_cells():
            assert cell.false_alarm_rate is None

    def test_attribution_identifies_detectors(self, small_report):
        for cell in small_report.cells:
            if cell.scenario == "alternating":
                # perfectly balanced: frequency test must NOT flag it, the
                # runs test must (the paper's motivating example).
                assert 1 not in cell.attribution
                assert 3 in cell.attribution
                assert set(cell.attribution) <= set(cell.tests)
                assert cell.first_detectors

    def test_reproducible_under_fixed_seed(self, small_report):
        again = run_campaign(SMALL_CONFIG)
        assert again.to_json() == small_report.to_json()

    def test_trial_seeds_deterministic_and_distinct(self):
        from repro.campaign.runner import _trial_seed

        seed = _trial_seed(0, "n128_light", "wire-cut", 0)
        assert seed == _trial_seed(0, "n128_light", "wire-cut", 0)
        assert seed not in {
            _trial_seed(0, "n128_light", "wire-cut", 1),
            _trial_seed(1, "n128_light", "wire-cut", 0),
            _trial_seed(0, "n128_medium", "wire-cut", 0),
            _trial_seed(0, "n128_light", "stuck-at-1", 0),
        }

    def test_custom_catalog(self):
        catalog = ScenarioCatalog()
        catalog.register(ScenarioSpec("dead", "failure", lambda seed, n: StuckAtSource(0)))
        catalog.register(ScenarioSpec(
            "ok", "healthy", lambda seed, n: IdealSource(seed=seed),
            expected_detectable=False,
        ))
        report = run_campaign(
            CampaignConfig(designs=("n128_light",), trials=1, sequences_per_trial=3),
            catalog=catalog,
        )
        assert [cell.scenario for cell in report.cells] == ["dead", "ok"]
        assert report.cells[0].detection_probability == 1.0

    def test_on_cell_callback_streams_cells_in_order(self):
        seen = []
        report = run_campaign(
            CampaignConfig(
                designs=("n128_light",), scenarios=("wire-cut", "healthy-ideal"),
                trials=1, sequences_per_trial=3,
            ),
            on_cell=seen.append,
        )
        assert seen == report.cells

    def test_config_validation(self):
        with pytest.raises(ValueError):
            run_campaign(CampaignConfig(designs=()))
        with pytest.raises(ValueError):
            run_campaign(CampaignConfig(trials=0))
        with pytest.raises(ValueError):
            run_campaign(CampaignConfig(sequences_per_trial=0))
        with pytest.raises(KeyError):
            run_campaign(CampaignConfig(designs=("bogus_design",)))
        with pytest.raises(ValueError):
            run_campaign(CampaignConfig(scenarios=("bogus-scenario",)))


class TestCampaignReport:
    def test_json_round_trip(self, small_report):
        restored = CampaignReport.from_json(small_report.to_json())
        assert restored.to_json() == small_report.to_json()
        assert restored.cells[0].attribution == small_report.cells[0].attribution

    def test_saved_pooled_cell_dispatch_still_loads(self, small_report):
        # Reports saved while campaign cells could run in a process pool
        # carry a "campaign.cells" entry in their execution paths; they must
        # keep loading, the paths read past.
        data = small_report.to_dict()
        assert "execution_paths" not in data
        data["execution_paths"] = {"campaign.cells": "pooled", "hw.platform": "batched"}
        restored = CampaignReport.from_json(json.dumps(data))
        assert restored.to_dict() == small_report.to_dict()

    @pytest.mark.parametrize("backend", ["packed", "uint8"])
    def test_saved_backend_field_still_loads(self, small_report, backend):
        # Reports saved while campaigns took a compute-backend option carry
        # it in their config; it is read past, whatever its value.
        data = small_report.to_dict()
        assert "backend" not in data["config"]
        data["config"]["backend"] = backend
        restored = CampaignReport.from_json(json.dumps(data))
        assert restored.to_json() == small_report.to_json()

    def test_json_is_valid_and_complete(self, small_report):
        data = json.loads(small_report.to_json())
        assert data["config"]["seed"] == 42
        assert len(data["cells"]) == len(small_report.cells)
        cell = data["cells"][0]
        for key in ("detection_probability", "mean_latency_bits",
                    "sequence_failure_rate", "attribution", "false_alarm_rate"):
            assert key in cell

    def test_save_json_and_csv(self, small_report, tmp_path):
        json_path = tmp_path / "campaign.json"
        csv_path = tmp_path / "campaign.csv"
        small_report.save_json(json_path)
        small_report.save_csv(csv_path)
        assert json.loads(json_path.read_text())["config"]["trials"] == 2
        rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
        assert len(rows) == len(small_report.cells)
        assert rows[0]["scenario"] == small_report.cells[0].scenario

    def test_format_table_contains_every_cell(self, small_report):
        text = small_report.format_table()
        assert "detect_prob" in text and "false_alarm" in text
        for cell in small_report.cells:
            assert cell.scenario in text

    def test_control_false_alarm_rate_per_design(self, small_report):
        for design in small_report.designs:
            rate = small_report.control_false_alarm_rate(design)
            assert rate is not None and 0.0 <= rate <= 0.3
        assert small_report.control_false_alarm_rate("not_a_design") is None

    def test_detected_everywhere(self, small_report):
        everywhere = small_report.detected_everywhere()
        assert "wire-cut" in everywhere
        assert "healthy-ideal" not in everywhere

    def test_golden_summary_row_shape(self, small_report):
        row = small_report.summary_rows()[0]
        assert set(row) == {
            "scenario", "category", "design", "n", "detect_prob",
            "latency_seqs", "latency_bits", "seq_fail_rate", "false_alarm",
            "detected_by",
        }


class TestAttributionTables:
    def test_attribution_tests_union(self, small_report):
        numbers = attribution_tests(small_report.cells)
        assert set(numbers) == {1, 2, 3, 4, 11, 12, 13}

    def test_rows_mark_unimplemented_vs_silent_tests(self, small_report):
        rows, columns = attribution_rows(small_report.threat_cells())
        assert columns[0] == "scenario" and columns[-1] == "first"
        by_key = {(row["scenario"], row["design"]): row for row in rows}
        light_alternating = by_key[("alternating", "n128_light")]
        assert light_alternating["t11"] == ""  # not implemented by the design
        assert light_alternating["t1"] == "."  # implemented, never flagged
        assert light_alternating["t3"] == "2/2"

    def test_format_attribution_table(self, small_report):
        text = format_attribution_table(small_report.threat_cells())
        assert "t3" in text and "wire-cut" in text
