"""Framework-level tests: suppressions, baseline round-trip, CLI exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.baseline import Baseline, BaselineEntry, TODO_JUSTIFICATION
from repro.analysis.cli import main as analysis_main
from repro.analysis.findings import AnalysisReport, Finding, Severity
from repro.analysis.framework import (
    CheckerRegistry,
    Checker,
    Rule,
    analyze_source,
    classify_path,
    collect_files,
    scan_suppressions,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A snippet that fires DET001 wherever it is placed.
UNSEEDED = "import numpy as np\nrng = np.random.default_rng()\n"


class TestClassifyPath:
    def test_library_scope(self):
        assert "library" in classify_path("src/repro/engine/packed.py")
        assert "engine" in classify_path("src/repro/engine/packed.py")
        assert "fleet" in classify_path("src/repro/fleet/scheduler.py")

    def test_tmp_fixture_trees_still_classify(self):
        # Fixture tests write under tmp_path/src/repro/... — substring
        # matching keeps the scope tags working there.
        tags = classify_path("/tmp/pytest-x/src/repro/fleet/svc.py")
        assert {"library", "fleet"}.issubset(tags)

    def test_top_level_scopes(self):
        assert "benchmarks" in classify_path("benchmarks/bench_packed.py")
        assert "examples" in classify_path("examples/fleet_demo.py")
        assert "tests" in classify_path("tests/test_engine.py")

    def test_unscoped_file_has_no_tags(self):
        assert classify_path("setup.py") == set()


class TestSuppressions:
    def test_scan_single_and_multi_rule(self):
        lines = [
            "x = 1  # repro: ignore[DET001]",
            "y = 2",
            "z = 3  # repro: ignore[PKD001, PKD002]",
        ]
        mapping = scan_suppressions(lines)
        assert mapping == {1: {"DET001"}, 3: {"PKD001", "PKD002"}}

    def test_suppressed_finding_moves_to_suppressed_list(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro: ignore[DET001]\n"
        )
        ctx = analyze_source(source, "src/repro/fixture.py")
        assert not [f for f in ctx.findings if f.rule == "DET001"]
        assert [f for f in ctx.suppressed if f.rule == "DET001"]

    def test_suppression_only_covers_its_own_line(self):
        source = (
            "import numpy as np\n"
            "# repro: ignore[DET001]\n"
            "rng = np.random.default_rng()\n"
        )
        ctx = analyze_source(source, "src/repro/fixture.py")
        assert [f for f in ctx.findings if f.rule == "DET001"]

    def test_select_isolates_one_rule(self):
        source = "import random\nimport numpy as np\nr = np.random.default_rng()\n"
        ctx = analyze_source(source, "src/repro/fixture.py", select=["DET003"])
        assert {f.rule for f in ctx.findings} == {"DET003"}


class TestRegistry:
    def test_duplicate_rule_id_rejected(self):
        registry = CheckerRegistry()

        rule = Rule(id="X001", family="x", severity=Severity.ERROR,
                    summary="s", invariant="i")

        @registry.register
        class First(Checker):
            rules = (rule,)

        with pytest.raises(ValueError, match="duplicate rule id"):
            @registry.register
            class Second(Checker):
                rules = (rule,)

    def test_custom_registry_is_isolated(self):
        registry = CheckerRegistry()
        ctx = analyze_source(UNSEEDED, "src/repro/fixture.py", registry=registry)
        assert ctx.findings == []


class TestCollectFiles:
    def test_walks_skips_hidden_and_pycache(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.cpython-312.py").write_text("")
        (tmp_path / ".git").mkdir()
        (tmp_path / ".git" / "hook.py").write_text("")
        (tmp_path / "notes.txt").write_text("")
        files = collect_files([str(tmp_path)])
        assert [Path(f).name for f in files] == ["a.py"]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            collect_files(["no/such/dir"])


class TestExitCodes:
    def _finding(self, severity):
        return Finding(rule="X", severity=severity, path="p.py", line=1,
                       column=1, message="m", snippet="s")

    def test_clean_report_exits_zero(self):
        assert AnalysisReport().exit_code(strict=False) == 0

    def test_errors_gate(self):
        report = AnalysisReport(findings=[self._finding(Severity.ERROR)])
        assert report.exit_code(strict=False) == 1

    def test_warnings_gate_only_under_strict(self):
        report = AnalysisReport(findings=[self._finding(Severity.WARNING)])
        assert report.exit_code(strict=False) == 0
        assert report.exit_code(strict=True) == 1

    def test_baseline_errors_exit_two(self):
        report = AnalysisReport(baseline_errors=["stale"])
        assert report.exit_code(strict=False) == 2

    def test_json_document_shape(self):
        report = AnalysisReport(findings=[self._finding(Severity.ERROR)],
                                files_scanned=3)
        doc = report.to_dict()
        assert doc["summary"]["files_scanned"] == 3
        assert doc["summary"]["errors"] == 1
        entry = doc["findings"][0]
        assert {"rule", "severity", "path", "line", "column", "message",
                "snippet"} <= set(entry)


class TestBaseline:
    def _entry(self, **overrides):
        fields = dict(rule="DET001", path="src/repro/x.py", line=2,
                      snippet="rng = np.random.default_rng()",
                      justification="needed for the legacy replay fixture")
        fields.update(overrides)
        return BaselineEntry(**fields)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline([self._entry()]).save(str(path))
        loaded = Baseline.load(str(path))
        assert loaded.entries == [self._entry()]

    def test_missing_justification_invalidates(self):
        for bad in ("", "   ", TODO_JUSTIFICATION):
            errors = Baseline([self._entry(justification=bad)]).validation_errors()
            assert errors, bad

    def test_stale_when_file_missing(self):
        errors = Baseline([self._entry(path="gone/away.py")]).staleness_errors()
        assert "no longer exists" in errors[0]

    def test_stale_when_line_out_of_range(self, tmp_path, monkeypatch):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        monkeypatch.chdir(tmp_path)
        errors = Baseline([self._entry(path="mod.py", line=99)]).staleness_errors()
        assert "references line 99" in errors[0]

    def test_stale_when_snippet_changed(self, tmp_path, monkeypatch):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\nsomething_else = 2\n")
        monkeypatch.chdir(tmp_path)
        errors = Baseline([self._entry(path="mod.py", line=2)]).staleness_errors()
        assert "the line changed" in errors[0]

    def test_partition_matches_exact_finding(self):
        finding = Finding(rule="DET001", severity=Severity.ERROR,
                          path="src/repro/x.py", line=2, column=7, message="m",
                          snippet="rng = np.random.default_rng()")
        live, baselined, errors = Baseline([self._entry()]).partition([finding])
        assert live == [] and baselined == [finding] and errors == []

    def test_partition_reports_fixed_entries_as_stale(self):
        live, baselined, errors = Baseline([self._entry()]).partition([])
        assert "no current finding matches" in errors[0]

    def _finding(self, line, snippet="rng = np.random.default_rng()"):
        return Finding(rule="DET001", severity=Severity.ERROR,
                       path="src/repro/x.py", line=line, column=7, message="m",
                       snippet=snippet)

    def test_moved_line_still_matches(self, tmp_path, monkeypatch):
        # An edit above the finding moved it from line 2 to line 5: the
        # entry stays valid and still accepts it.
        target = tmp_path / "mod.py"
        target.write_text("import numpy as np\n\n\n\nrng = np.random.default_rng()\n")
        monkeypatch.chdir(tmp_path)
        entry = self._entry(path="mod.py", line=2)
        assert Baseline([entry]).staleness_errors() == []
        finding = Finding(rule="DET001", severity=Severity.ERROR, path="mod.py",
                          line=5, column=7, message="m",
                          snippet="rng = np.random.default_rng()")
        live, baselined, errors = Baseline([entry]).partition([finding])
        assert live == [] and baselined == [finding] and errors == []

    def test_stale_when_snippet_gone_after_a_move(self, tmp_path, monkeypatch):
        target = tmp_path / "mod.py"
        target.write_text("import numpy as np\n\nrng = np.random.default_rng(7)\n")
        monkeypatch.chdir(tmp_path)
        errors = Baseline([self._entry(path="mod.py", line=2)]).staleness_errors()
        assert "is no longer in the file" in errors[0]

    def test_second_identical_finding_stays_live(self):
        first, second = self._finding(2), self._finding(9)
        live, baselined, errors = Baseline([self._entry()]).partition([first, second])
        assert baselined == [first] and live == [second] and errors == []

    def test_each_identical_entry_accepts_one_finding(self):
        # Two entries with one snippet accept two findings, each preferring
        # the entry recorded at its own line; a third finding stays live.
        entries = [self._entry(line=9), self._entry(line=2)]
        findings = [self._finding(2), self._finding(9), self._finding(14)]
        live, baselined, errors = Baseline(entries).partition(findings)
        assert baselined == findings[:2] and live == findings[2:] and errors == []
        live, baselined, errors = Baseline(entries).partition(findings[:1])
        assert len(errors) == 1 and ":9:" in errors[0]

    def test_unjustified_entry_still_invalid_when_it_matches(self):
        baseline = Baseline([self._entry(justification="")])
        assert baseline.validation_errors()
        live, baselined, _ = baseline.partition([self._finding(40)])
        assert baselined  # matching never waives the justification check

    def test_from_findings_carries_justifications_across_line_moves(self):
        finding = Finding(rule="DET001", severity=Severity.ERROR,
                          path="src/repro/x.py", line=40, column=7, message="m",
                          snippet="rng = np.random.default_rng()")
        fresh = Baseline.from_findings([finding], previous=Baseline([self._entry()]))
        assert fresh.entries[0].line == 40
        assert fresh.entries[0].justification == self._entry().justification

    def test_from_findings_inserts_todo_for_new_entries(self):
        finding = Finding(rule="PKD001", severity=Severity.ERROR,
                          path="src/repro/y.py", line=1, column=1, message="m",
                          snippet="w << 3")
        fresh = Baseline.from_findings([finding])
        assert fresh.entries[0].justification == TODO_JUSTIFICATION


class TestCliEndToEnd:
    def _run(self, *argv, out=None):
        import io

        out = out if out is not None else io.StringIO()
        code = analysis_main(list(argv), out=out)
        return code, out.getvalue()

    def test_violating_fixture_fails(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(UNSEEDED)
        code, text = self._run(str(bad), "--no-baseline")
        assert code == 1
        assert "DET001" in text

    def test_clean_fixture_passes(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("import numpy as np\nrng = np.random.default_rng(42)\n")
        code, text = self._run(str(good), "--no-baseline")
        assert code == 0

    def test_syntax_error_exits_two(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        code, text = self._run(str(broken), "--no-baseline")
        assert code == 2
        assert "does not parse" in text

    def test_unknown_rule_select_exits_two(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        code, text = self._run(str(good), "--select", "NOPE01")
        assert code == 2

    def test_json_report_artifact(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(UNSEEDED)
        artifact = tmp_path / "report.json"
        code, _ = self._run(str(bad), "--no-baseline", "--format", "json",
                            "--json-report", str(artifact))
        doc = json.loads(artifact.read_text())
        assert doc["summary"]["errors"] >= 1
        assert any(f["rule"] == "DET001" for f in doc["findings"])

    def test_update_baseline_then_clean_run(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(UNSEEDED)
        baseline = tmp_path / "baseline.json"
        code, text = self._run(str(bad), "--baseline", str(baseline),
                               "--update-baseline")
        assert code == 0 and baseline.is_file()
        # The TODO placeholder must fail the gate until a human justifies it.
        code, text = self._run(str(bad), "--baseline", str(baseline))
        assert code == 2
        data = json.loads(baseline.read_text())
        data["findings"][0]["justification"] = "accepted: fixture exercises DET001"
        baseline.write_text(json.dumps(data))
        code, text = self._run(str(bad), "--baseline", str(baseline))
        assert code == 0
        assert "1 baselined" in text

    def test_baselined_entry_survives_a_line_move(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(UNSEEDED)
        baseline = tmp_path / "baseline.json"
        self._run(str(bad), "--baseline", str(baseline), "--update-baseline")
        data = json.loads(baseline.read_text())
        data["findings"][0]["justification"] = "fixture"
        baseline.write_text(json.dumps(data))
        bad.write_text("# a comment pushes the finding down\n\n" + UNSEEDED)
        code, text = self._run(str(bad), "--baseline", str(baseline))
        assert code == 0, text
        assert "1 baselined" in text
        # A second copy of the same line is a new finding, not baselined.
        bad.write_text(UNSEEDED + "rng = np.random.default_rng()\n")
        code, text = self._run(str(bad), "--baseline", str(baseline))
        assert code == 1 and "1 baselined" in text

    def test_baselined_entry_goes_stale_when_fixed(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(UNSEEDED)
        baseline = tmp_path / "baseline.json"
        self._run(str(bad), "--baseline", str(baseline), "--update-baseline")
        data = json.loads(baseline.read_text())
        data["findings"][0]["justification"] = "fixture"
        baseline.write_text(json.dumps(data))
        bad.write_text("import numpy as np\nrng = np.random.default_rng(7)\n")
        code, text = self._run(str(bad), "--baseline", str(baseline))
        assert code == 2
        assert "stale baseline entry" in text

    def test_list_rules_names_every_family(self):
        code, text = self._run("--list-rules")
        assert code == 0
        for family in ("determinism", "packed-kernel", "lock-discipline",
                       "api-hygiene"):
            assert family in text


class TestShippedTreeIsClean:
    def test_real_tree_exits_zero(self):
        """The acceptance gate: the shipped tree passes its own pass."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "src", "benchmarks",
             "examples"],
            cwd=str(REPO_ROOT),
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stdout + result.stderr
