"""The example scripts run end to end (smoke tests).

The examples double as documentation; these tests keep them working.  The two
quick ones are executed in-process, the longer ones as subprocesses with a
generous timeout and are marked slow.
"""

import importlib.util
import pathlib
import subprocess
import sys

import numpy as np
import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 600) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExampleScripts:
    def test_examples_directory_contents(self):
        names = {path.name for path in EXAMPLES_DIR.glob("*.py")}
        assert {
            "quickstart.py",
            "attack_detection.py",
            "design_space_exploration.py",
            "continuous_monitoring.py",
            "detection_campaign.py",
            "fleet_monitoring.py",
        } <= names

    def test_quickstart(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "Healthy source" in result.stdout
        assert "Biased source" in result.stdout
        assert "FAIL" in result.stdout

    def test_design_space_exploration(self):
        result = run_example("design_space_exploration.py")
        assert result.returncode == 0, result.stderr
        assert "n1048576_high" in result.stdout
        assert "Design selection" in result.stdout

    @pytest.mark.slow
    def test_attack_detection(self):
        result = run_example("attack_detection.py")
        assert result.returncode == 0, result.stderr
        assert "Frequency-injection attack" in result.stdout
        assert "value-based reporting" in result.stdout.lower()

    def test_detection_campaign(self):
        result = run_example("detection_campaign.py")
        assert result.returncode == 0, result.stderr
        assert "Detection campaign" in result.stdout
        assert "false-alarm rate" in result.stdout
        assert "wire-cut" in result.stdout

    def test_fleet_monitoring(self):
        result = run_example("fleet_monitoring.py")
        assert result.returncode == 0, result.stderr
        assert "Fleet monitoring" in result.stdout
        assert "wire-cut" in result.stdout
        assert "register -> ingest -> health -> summary" in result.stdout
        assert "health: failed" in result.stdout

    @pytest.mark.slow
    def test_continuous_monitoring(self):
        result = run_example("continuous_monitoring.py")
        assert result.returncode == 0, result.stderr
        quick, slow = result.stdout.split("Slow tests")
        # The quick 128-bit design must see the source's stuck bursts ...
        assert "fail [" in quick and "degradation flagged" in quick
        # ... and the long design the aging drift.
        assert "final state: failed" in slow


def test_continuous_monitoring_source_replays_after_reset():
    # A reset source replays its stream: the aging drift and the bursts.
    spec = importlib.util.spec_from_file_location(
        "continuous_monitoring", EXAMPLES_DIR / "continuous_monitoring.py"
    )
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    source = example.AgingWithBursts(drift_per_bit=2e-7, burst_rate=2e-3, seed=42)
    first = source.generate_block(3072)
    source.reset()
    assert np.array_equal(source.generate_block(3072), first)
