"""Batch entries of tests 7, 8, 11, 12, the FIPS battery and ``hw.platform``.

Every registered test has a batch entry and ``run_batch`` dispatches through
those alone.  The entries added last — serial and approximate entropy on one
cyclic counter set, the two template tests on the shared window values, the
four FIPS tests and the platform model — must reproduce their references bit
for bit: the ``repro.nist`` / ``repro.fips`` functions for results and error
strings, and ``OnTheFlyPlatform.evaluate_sequence`` for the platform model.  The file also pins
the pattern-count marginals, the window/block seams of the template counts,
mixed-length batches, and that saved reports and scheduler states carrying
the retired ``execution_paths`` field still load.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.platform import OnTheFlyPlatform
from repro.engine import DEFAULT_REGISTRY, RegisteredTest, run_batch
from repro.engine.context import BatchContext
from repro.engine.packed import PackedMatrix, pack_matrix
from repro.fips import battery as fips
from repro.fleet import DeviceRegistry, FleetMix, FleetScheduler
from repro.fleet.report import FleetReport
from repro.nist.approximate_entropy import approximate_entropy_test
from repro.nist.common import pattern_counts
from repro.nist.nonoverlapping import _is_aperiodic, non_overlapping_template_test
from repro.nist.overlapping import overlapping_template_test
from repro.nist import serial as serial_module
from repro.nist.serial import serial_test
from repro.trng import IdealSource

#: NIST test number -> scalar reference of the entries pinned here.
REFERENCES = {
    7: non_overlapping_template_test,
    8: overlapping_template_test,
    11: serial_test,
    12: approximate_entropy_test,
}


def _rows(seed, rows, n, p_one=0.5):
    rng = np.random.default_rng(seed)
    return (rng.random((rows, n)) < p_one).astype(np.uint8)


def _assert_identical(result, reference):
    assert result.name == reference.name
    assert result.statistic == reference.statistic
    assert result.p_value == reference.p_value
    assert result.p_values == reference.p_values
    assert repr(result.details) == repr(reference.details)


def _check(sequences, parameters, tests=tuple(REFERENCES)):
    """``run_batch`` equals each reference per row, errors included."""
    result = run_batch(sequences, tests=list(tests), parameters=parameters)
    if isinstance(sequences, PackedMatrix):
        sequences = sequences.unpack()
    rows = [np.asarray(row) for row in sequences]
    for row, report in zip(rows, result):
        for number in tests:
            test_id = DEFAULT_REGISTRY.resolve(number).id
            try:
                reference = REFERENCES[number](row, **parameters.get(number, {}))
            except ValueError as exc:
                assert report.errors[test_id] == str(exc), number
                assert test_id not in report.results
            else:
                _assert_identical(report.results[test_id], reference)
    return result


class TestRegistry:
    def test_every_default_entry_has_a_batch_entry(self):
        for test in DEFAULT_REGISTRY:
            assert callable(test.batch_runner), test.id

    def test_batch_runner_is_required(self):
        with pytest.raises(TypeError):
            RegisteredTest(id="x", name="x")


class TestHypothesisParity:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 3),
        n=st.integers(16, 1500),
        p_one=st.sampled_from([0.5, 0.3, 0.8]),
        serial_m=st.integers(2, 6),
        apen_m=st.integers(1, 5),
        template=st.lists(st.integers(0, 1), min_size=2, max_size=6),
        num_blocks=st.integers(1, 10),
        block_length=st.integers(2, 300),
        k=st.integers(1, 6),
    )
    def test_entries_equal_the_references(
        self, seed, rows, n, p_one, serial_m, apen_m, template, num_blocks,
        block_length, k,
    ):
        parameters = {
            7: {"template": template, "num_blocks": num_blocks},
            8: {"template": template, "block_length": block_length, "k": k},
            11: {"m": serial_m},
            12: {"m": apen_m},
        }
        _check(_rows(seed, rows, n, p_one), parameters)

    @pytest.mark.parametrize(
        "template", [(0, 0, 0, 0, 0, 0, 0, 0, 1), (1, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    )
    def test_aperiodic_and_periodic_templates(self, template):
        periodic = not _is_aperiodic(template)
        assert periodic == (template in [(1, 1), (1, 0, 1), (1, 1, 1)])
        matrix = _rows(31, 3, 2000, 0.7)
        _check(
            pack_matrix(matrix),
            {7: {"template": template}, 8: {"template": template, "block_length": 250}},
            tests=(7, 8),
        )


class TestPerRowErrors:
    #: Two rows; on the first, serial m = 2's ∇²ψ² rounds to -1.4e-14.
    MATRIX = _rows(9373, 2, 120)

    def test_rounding_below_zero_is_clamped_like_apen(self):
        # Both sequences used to raise "x must be non-negative" in igamc;
        # ∇²ψ² is now clamped at 0, as ApEn clamps its χ².
        ordinary = np.random.default_rng(25).integers(0, 2, 120, dtype=np.uint8)
        for bits in (self.MATRIX[0], ordinary):
            reference = serial_test(bits, m=2)
            assert reference.details["del2"] == 0.0
            assert reference.p_values[1] == 1.0
            result = _check(bits[np.newaxis], {11: {"m": 2}}, tests=(11,))
            assert result.errors == {}

    @staticmethod
    def _plant_first_row_error(monkeypatch, first_row):
        """Make the decision helper the reference and the batch entry share
        raise on ``first_row``'s counts alone."""
        shared = serial_module._serial_result
        first_counts = pattern_counts(first_row, 2, cyclic=True)

        def planted(n, m, counts_m, *rest):
            if np.array_equal(counts_m, first_counts):
                raise ValueError("planted row error")
            return shared(n, m, counts_m, *rest)

        monkeypatch.setattr(serial_module, "_serial_result", planted)

    def test_a_row_errors_alone_as_its_reference_does(self, monkeypatch):
        self._plant_first_row_error(monkeypatch, self.MATRIX[0])
        with pytest.raises(ValueError) as excinfo:
            serial_test(self.MATRIX[0], m=2)
        serial_test(self.MATRIX[1], m=2)
        result = _check(self.MATRIX, {11: {"m": 2}}, tests=(11,))
        assert result.errors == {"nist.serial": {0: str(excinfo.value)}}
        assert not result.failing()[0, 0]

    def test_skip_errors_false_raises_the_row_error(self, monkeypatch):
        self._plant_first_row_error(monkeypatch, self.MATRIX[0])
        with pytest.raises(ValueError, match="planted row error"):
            run_batch(self.MATRIX, tests=[11], parameters={11: {"m": 2}},
                      skip_errors=False)


class TestSeams:
    def test_windows_crossing_block_ends_are_not_counted(self):
        # Every 16-bit period holds the template 0111 twice: at bits 6..9,
        # across the end of its first 8-bit block (no block owns that
        # window), and at bits 11..14, inside its second block.
        period = np.zeros(16, dtype=np.uint8)
        period[7:10] = 1
        period[12:15] = 1
        bits = np.tile(period, 8)
        template = (0, 1, 1, 1)
        parameters = {7: {"template": template, "num_blocks": 16},
                      8: {"template": template, "block_length": 8}}
        report = _check([bits], parameters, tests=(7, 8))[0]
        assert report.results["nist.non_overlapping_template"].details["counts"] == [0, 1] * 8
        assert report.results["nist.overlapping_template"].details["categories"] == [8, 8, 0, 0, 0, 0]

    @pytest.mark.parametrize("n", [1000, 1003, 1031, 4096 + 37, 64 * 17 + 63])
    def test_n_not_a_multiple_of_the_block_length(self, n):
        matrix = _rows(n, 2, n, 0.6)
        _check(
            pack_matrix(matrix),
            {
                7: {"template": (0, 0, 1), "num_blocks": 7},
                8: {"template": (1, 1, 1), "block_length": 97},
                11: {"m": 5},
                12: {"m": 4},
            },
        )

    def test_last_block_ends_at_the_final_window(self):
        # n = N*M exactly and n = N*M + m - 2: the last block's final window
        # ends at the sequence's last bit, with no window beyond it.
        for n in (64, 64 + 1):
            matrix = _rows(n, 2, n)
            _check(matrix, {7: {"template": (0, 1, 1), "num_blocks": 8},
                            8: {"template": (1, 1, 1), "block_length": 8}},
                   tests=(7, 8))


class TestPatternCountMarginals:
    @pytest.mark.parametrize("order", [(4, 3, 2, 1, 0), (0, 1, 2, 3, 4), (3, 4, 2, 6, 5)])
    def test_any_request_order_equals_the_reference(self, order):
        matrix = _rows(40, 3, 777, 0.4)
        batch = BatchContext(pack_matrix(matrix))
        for m in order:
            counts = batch.pattern_counts(m)
            for row in range(matrix.shape[0]):
                expected = pattern_counts(matrix[row], m, cyclic=True)
                assert counts[row].dtype == expected.dtype
                assert np.array_equal(counts[row], expected), m

    def test_narrower_widths_scan_no_windows(self, monkeypatch):
        # Serial m = 4 and ApEn m = 3 share one counter set: after the 4-bit
        # count, the 3- and 2-bit counts are marginals, with no window scan.
        # The count keeps no windows (only the template tests reread them).
        batch = BatchContext(_rows(41, 2, 512))
        widest = batch.pattern_counts(4)
        scans = []
        monkeypatch.setattr(batch, "_windows", lambda m: scans.append(m))
        narrower = batch.pattern_counts(3)
        batch.pattern_counts(2)
        assert scans == []
        assert batch._window_values == {}
        assert np.array_equal(narrower, widest.reshape(2, 8, 2).sum(axis=2))

    def test_pattern_count_reuses_cached_template_windows(self):
        batch = BatchContext(_rows(42, 2, 512))
        windows = batch.window_values(9)
        expected = BatchContext(_rows(42, 2, 512)).pattern_counts(9)
        assert np.array_equal(batch.pattern_counts(9), expected)
        assert batch._window_values[9] is windows

    def test_empty_sequence(self):
        batch = BatchContext(np.zeros((2, 0), dtype=np.uint8))
        assert np.array_equal(batch.pattern_counts(3), np.zeros((2, 8), dtype=np.int64))
        assert np.array_equal(batch.pattern_counts(0), np.zeros((2, 1), dtype=np.int64))


class TestMixedLengths:
    def test_each_length_is_its_own_batch(self):
        lengths = [500, 2000, 500, 40, 2000]
        sequences = [_rows(50 + i, 1, n)[0] for i, n in enumerate(lengths)]
        result = _check(sequences, {11: {"m": 4}, 12: {"m": 3}})
        assert result.lengths == tuple(lengths)
        # Only the 2000-bit rows hold a 1032-bit block: the per-row errors of
        # one test come from two length groups.
        assert sorted(result.errors["nist.overlapping_template"]) == [0, 2, 3]
        assert sorted(result.errors["nist.non_overlapping_template"]) == [3]

    def test_decided_columns_scatter_back_in_input_order(self):
        lengths = [300, 128, 300, 128]
        sequences = [_rows(60 + i, 1, n)[0] for i, n in enumerate(lengths)]
        result = run_batch(sequences, tests=[1, 11])
        for row, bits in enumerate(sequences):
            solo = run_batch([bits], tests=[1, 11])[0]
            assert result[row] == solo


class TestFipsEntries:
    def test_entries_equal_the_fips_references(self):
        matrix = np.vstack(
            [
                _rows(70, 3, fips.FIPS_BLOCK_BITS),
                _rows(71, 1, fips.FIPS_BLOCK_BITS, 0.52),
                np.zeros((1, fips.FIPS_BLOCK_BITS), dtype=np.uint8),
            ]
        )
        result = run_batch(pack_matrix(matrix), tests=["fips.monobit", "fips.poker",
                                                       "fips.runs", "fips.long_run"])
        references = {
            "fips.monobit": fips.monobit_test,
            "fips.poker": fips.poker_test,
            "fips.runs": fips.runs_test,
            "fips.long_run": fips.long_run_test,
        }
        for row, report in enumerate(result):
            alone = run_batch([matrix[row]], tests=list(references))[0]
            for test_id, reference in references.items():
                expected = reference(matrix[row])
                got = report.results[test_id]
                assert got.details["fips"] == expected
                assert got.p_value == (1.0 if expected.passed else 0.0)
                assert repr(got) == repr(alone.results[test_id])
        assert not result[4].passed()

    def test_battery_run_batch_equals_run(self):
        blocks = list(_rows(72, 3, fips.FIPS_BLOCK_BITS))
        battery = fips.FipsBattery()
        assert battery.run_batch(blocks) == [battery.run(block) for block in blocks]

    def test_wrong_length_error_matches_the_reference(self):
        bits = _rows(73, 1, 1000)[0]
        with pytest.raises(ValueError) as excinfo:
            fips.monobit_test(bits)
        report = run_batch([bits], tests=["fips.monobit", "fips.runs"])[0]
        assert report.errors == {
            "fips.monobit": str(excinfo.value),
            "fips.runs": str(excinfo.value),
        }


class TestPlatformEntry:
    def test_entry_equals_the_platform_model(self):
        matrix = np.vstack(
            [
                _rows(80, 3, 128),
                np.zeros((1, 128), dtype=np.uint8),
            ]
        )
        params = {"hw.platform": {"design": "n128_light"}}
        result = run_batch(matrix, tests=["hw.platform"], parameters=params)
        platform = OnTheFlyPlatform("n128_light")
        for row, report in enumerate(result):
            expected = platform.evaluate_sequence(matrix[row], accelerated=True)
            got = report.results["hw.platform"]
            assert got.p_value == (1.0 if expected.passed else 0.0)
            assert got.statistic == float(len(expected.failing_tests))
            assert repr(got.details["platform_report"]) == repr(expected)
        assert not result[3].passed()


class TestRetiredExecutionPaths:
    @pytest.fixture
    def scheduler(self):
        registry = DeviceRegistry("n128_light")
        registry.populate(6, FleetMix.parse("healthy-ideal:0.5,stuck-at-1:0.5"), seed=3)
        scheduler = FleetScheduler(registry)
        scheduler.run_round()
        return scheduler

    def test_state_dict_has_no_execution_paths(self, scheduler):
        assert "execution_paths" not in scheduler.state_dict()
        assert "execution_paths" not in scheduler.report().to_dict()

    def test_saved_state_with_execution_paths_loads(self, scheduler):
        state = dict(scheduler.state_dict())
        state["execution_paths"] = {"nist.frequency": "batched", "nist.serial": "inline"}
        restored = FleetScheduler(DeviceRegistry("n128_light"))
        restored.load_state(state)
        assert restored.report().to_dict() == scheduler.report().to_dict()
        expected = scheduler.run_round().to_dict()
        got = restored.run_round().to_dict()
        assert got["health"] == expected["health"]
        assert got["failing_sequences"] == expected["failing_sequences"]

    def test_saved_fleet_report_with_execution_paths_loads(self, scheduler):
        data = scheduler.report().to_dict()
        data["execution_paths"] = {"nist.frequency": "batched", "nist.serial": "inline"}
        restored = FleetReport.from_json(json.dumps(data))
        assert restored.to_dict() == scheduler.report().to_dict()


def test_nine_test_design_runs_on_one_path():
    # The paper's n65536_high subset at a reduced length: every one of its
    # nine tests decides through its batch entry.
    design_tests = [1, 2, 3, 4, 7, 8, 11, 12, 13]
    matrix = IdealSource(seed=90).generate_matrix(3, 4096)
    result = run_batch(matrix, tests=design_tests)
    assert result.errors == {}
    for row, report in enumerate(result):
        for number in (7, 8, 11, 12):
            test_id = DEFAULT_REGISTRY.resolve(number).id
            _assert_identical(report.results[test_id], REFERENCES[number](matrix[row]))
