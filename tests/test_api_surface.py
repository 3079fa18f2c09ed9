"""The documented public API stays importable from the package roots."""

import importlib

import pytest

import repro


class TestTopLevelApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("name", sorted(repro.__all__))
    def test_every_exported_name_resolves(self, name):
        assert getattr(repro, name) is not None

    def test_core_classes_exposed(self):
        assert repro.OnTheFlyPlatform is not None
        assert repro.OnTheFlyMonitor is not None
        assert repro.FlexibleLengthPlatform is not None
        assert repro.UnifiedTestingBlock is not None

    def test_design_helpers_exposed(self):
        assert len(repro.STANDARD_DESIGNS) == 8
        assert repro.get_design("n128_light").n == 128
        assert len(repro.list_designs()) == 8


class TestSubpackageApi:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.analysis",
            "repro.campaign",
            "repro.core",
            "repro.engine",
            "repro.fleet",
            "repro.hwsim",
            "repro.hwtests",
            "repro.sw",
            "repro.nist",
            "repro.trng",
            "repro.eval",
            "repro.fips",
            "repro.cli",
        ],
    )
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert getattr(module, name) is not None, f"{module_name}.{name}"

    def test_nist_exports_all_fifteen_tests(self):
        import repro.nist as nist

        test_functions = [name for name in nist.__all__ if name.endswith("_test")]
        assert len(test_functions) == 15

    def test_trng_exports_replay_and_capture(self):
        import repro.trng as trng

        assert "ReplaySource" in trng.__all__
        assert "CaptureSource" in trng.__all__

    def test_analysis_registry_lists_every_shipped_checker(self):
        from repro.analysis import DEFAULT_REGISTRY
        from repro.analysis.checkers import (
            ApiHygieneChecker,
            DeterminismChecker,
            LockDisciplineChecker,
            ObservabilityChecker,
            PackedKernelChecker,
            RobustnessChecker,
        )

        registered = set(DEFAULT_REGISTRY.checkers())
        assert {
            ApiHygieneChecker,
            DeterminismChecker,
            LockDisciplineChecker,
            ObservabilityChecker,
            PackedKernelChecker,
            RobustnessChecker,
        } <= registered

        rule_ids = [rule.id for rule in DEFAULT_REGISTRY.rules()]
        assert sorted(rule_ids) == sorted(set(rule_ids)), "duplicate rule ids"
        assert set(rule_ids) == {
            "DET001", "DET002", "DET003", "DET004", "DET005",
            "PKD001", "PKD002", "PKD003",
            "LCK001", "LCK002",
            "API001", "API002",
            "OBS001",
            "ROB001",
        }
        assert set(DEFAULT_REGISTRY.families()) == {
            "determinism", "packed-kernel", "lock-discipline", "api-hygiene",
            "observability", "robustness",
        }

    def test_analysis_cli_surface(self, capsys):
        from repro.analysis.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["src", "--format", "json", "--strict"])
        assert args.paths == ["src"]
        assert args.format == "json" and args.strict

    def test_main_cli_exposes_lint_subcommand(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["lint", "src", "--list-rules"])
        assert args.command == "lint"
        assert args.list_rules

    def test_docstrings_present_on_public_entry_points(self):
        for obj in (
            repro.OnTheFlyPlatform,
            repro.OnTheFlyMonitor,
            repro.FlexibleLengthPlatform,
            repro.UnifiedTestingBlock,
            repro.NistSuite,
            repro.SoftwareVerifier,
            repro.CriticalValues,
        ):
            assert obj.__doc__ and obj.__doc__.strip()
