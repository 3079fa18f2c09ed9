"""Columnar decisions of the five light tests against the scalar references.

Tests 1, 2, 3, 4 and 13 decide a whole packed batch at once from its shared
integer statistics (:mod:`repro.engine.decisions`): ``run_batch`` returns
their statistic columns, decided against critical values, and computes
P-values and a row's ``TestResult`` only when they are read.  These tests
pin the verdicts and both lazy halves to the ``repro.nist`` references bit
for bit — the P-value column and every materialised field — on
hypothesis-drawn batches and edge rows, check that a verdict computes no
P-value, and pin the error and verdict semantics the fleet tier reduces
from the failing mask.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import decisions, run_batch
from repro.engine.batch import BatchResult
from repro.engine.packed import pack_matrix
from repro.engine.registry import NIST_NUMBER_TO_ID
from repro.fleet import DeviceRegistry, FleetScheduler
from repro.fleet.scheduler import FleetVerdict, _reduce_verdicts
from repro.nist.block_frequency import block_frequency_test
from repro.nist.cusum import cumulative_sums_test
from repro.nist.frequency import frequency_test
from repro.nist.longest_run import longest_run_test
from repro.nist.runs import runs_test

LIGHT_TESTS = (1, 2, 3, 4, 13)

#: Scalar reference entry point per NIST number.
REFERENCES = {
    1: frequency_test,
    2: block_frequency_test,
    3: runs_test,
    4: longest_run_test,
    13: cumulative_sums_test,
}

ID_TO_NUMBER = {test_id: number for number, test_id in NIST_NUMBER_TO_ID.items()}


def _rows(seed, rows, n, p_one=0.5):
    rng = np.random.default_rng(seed)
    return (rng.random((rows, n)) < p_one).astype(np.uint8)


def _assert_identical(result, reference):
    assert result.name == reference.name
    assert result.statistic == reference.statistic
    assert result.p_value == reference.p_value
    assert result.p_values == reference.p_values
    assert repr(result.details) == repr(reference.details)


def _check_parity(matrix, parameters=None):
    """Columns, materialised results and failing masks equal the references."""
    parameters = parameters or {}
    result = run_batch(
        pack_matrix(matrix), tests=list(LIGHT_TESTS), parameters=parameters
    )
    assert isinstance(result, BatchResult)
    assert result.test_ids == tuple(NIST_NUMBER_TO_ID[number] for number in LIGHT_TESTS)
    assert result.errors == {}
    references = [
        [REFERENCES[number](row, **parameters.get(number, {})) for number in LIGHT_TESTS]
        for row in matrix
    ]
    p_values = result.p_values
    for row, report in enumerate(result):
        for column, number in enumerate(LIGHT_TESTS):
            reference = references[row][column]
            assert p_values[row, column] == reference.p_value, (row, number)
            _assert_identical(report.results[NIST_NUMBER_TO_ID[number]], reference)
    for alpha in (0.01, 0.5):
        expected = [[not reference.passed(alpha) for reference in row] for row in references]
        assert result.failing(alpha).tolist() == expected
    return result


def _reference_verdict(report, alpha=0.01):
    """The per-report reduction a fleet verdict used to be built with."""
    results = report.results
    failing = sorted(
        ID_TO_NUMBER.get(test_id, -1)
        for test_id, result in results.items()
        if not result.passed(alpha)
    )
    return FleetVerdict(
        passed=all(result.passed(alpha) for result in results.values())
        and not report.errors,
        failing_tests=tuple(failing),
        errors=tuple(sorted(report.errors.values())),
    )


class TestDrawnBatches:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 5),
        n=st.sampled_from([128, 129, 300, 1000, 4096 + 37]),
        p_one=st.sampled_from([0.5, 0.45, 0.8]),
    )
    def test_columns_match_references(self, seed, rows, n, p_one):
        _check_parity(_rows(seed, rows, n, p_one))


class TestEdgeRows:
    def test_all_zeros_and_all_ones_rows(self):
        matrix = np.vstack(
            [np.zeros((1, 128), np.uint8), np.ones((1, 128), np.uint8), _rows(1, 2, 128)]
        )
        result = _check_parity(matrix)
        for row in (0, 1):
            runs = result[row].results["nist.runs"]
            assert runs.p_value == 0.0 and runs.statistic == float("inf")
            assert result[row].results["nist.cumulative_sums"].details["z"] == 128

    @pytest.mark.parametrize("n, block_length", [(6271, 8), (6272, 128)])
    def test_longest_run_block_length_switch(self, n, block_length):
        result = _check_parity(_rows(n, 3, n))
        details = result[0].results["nist.longest_run"].details
        assert details["block_length"] == block_length

    def test_n65536(self):
        _check_parity(_rows(2, 2, 65536))

    def test_single_row_batch(self):
        _check_parity(_rows(3, 1, 2048))

    @pytest.mark.parametrize(
        "parameters",
        [
            {2: {"block_length": 64}},
            {2: {"block_length": 100}},  # no packed block kernel for M = 100
            {4: {"block_length": 128}},
            {2: {"block_length": 1000}, 4: {"block_length": 512}},
            {13: {"mode": 1}},
        ],
    )
    def test_non_default_parameters(self, parameters):
        _check_parity(_rows(4, 3, 6272), parameters)

    def test_backward_cusum_on_degenerate_rows(self):
        matrix = np.vstack([np.zeros((1, 256), np.uint8), _rows(5, 2, 256, 0.7)])
        _check_parity(matrix, {13: {"mode": 1}})


class TestLazyPValues:
    def test_verdicts_compute_no_p_value(self, monkeypatch):
        # Stuck, alternating and fair rows, none near a critical value.
        # Once the tables are built a verdict is comparisons alone; P-values
        # are computed when they are read.
        matrix = np.vstack(
            [
                np.zeros((1, 4096), np.uint8),
                np.tile(np.array([0, 1], np.uint8), (1, 2048)),
                _rows(16, 4, 4096),
            ]
        )
        expected = run_batch(matrix, tests=list(LIGHT_TESTS)).failing(0.01)

        def p_value_computed(*args, **kwargs):
            raise AssertionError("a verdict computed a P-value")

        special = SimpleNamespace(erfc=p_value_computed, gammaincc=p_value_computed)
        with monkeypatch.context() as patched:
            patched.setattr(decisions, "_special", special)
            patched.setattr(decisions, "cusum_p_value", p_value_computed)
            result = run_batch(matrix, tests=list(LIGHT_TESTS))
            assert np.array_equal(result.failing(0.01), expected)
        assert expected[0].all() and not expected[1, 0]
        references = [
            [REFERENCES[number](row).p_value for number in LIGHT_TESTS] for row in matrix
        ]
        assert result.p_values.tolist() == references


class TestErrorAndVerdictSemantics:
    def test_uniform_error_matches_the_scalar_reference(self):
        matrix = np.vstack([np.zeros((1, 128), np.uint8), _rows(8, 5, 128)])
        result = run_batch(
            pack_matrix(matrix),
            tests=list(LIGHT_TESTS),
            parameters={2: {"block_length": 4096}},
        )
        for row, report in enumerate(result):
            with pytest.raises(ValueError) as excinfo:
                block_frequency_test(matrix[row], block_length=4096)
            assert report.errors == {"nist.block_frequency": str(excinfo.value)}
            assert "nist.block_frequency" not in report.results
            results = report.results
            assert report.passed() == all(r.passed() for r in results.values())
            assert report.failing_tests() == [
                test_id for test_id, r in results.items() if not r.passed()
            ]
        assert np.isnan(result.p_values[:, 1]).all()
        assert not result.failing()[:, 1].any()
        verdicts = _reduce_verdicts(result, 0.01)
        assert verdicts == [_reference_verdict(report) for report in result]
        assert not any(verdict.passed for verdict in verdicts)

    def test_uniform_error_raises_without_skip_errors(self):
        with pytest.raises(ValueError, match="exceeds sequence length"):
            run_batch(
                pack_matrix(_rows(9, 2, 128)),
                tests=[2],
                parameters={2: {"block_length": 4096}},
                skip_errors=False,
            )

    def test_per_row_errors_on_mixed_lengths(self):
        short, long = _rows(10, 1, 100)[0], _rows(11, 1, 256)[0]
        result = run_batch([short, long], tests=[1, 4])
        assert list(result.errors) == ["nist.longest_run"]
        assert list(result.errors["nist.longest_run"]) == [0]
        assert _reduce_verdicts(result, 0.01) == [
            _reference_verdict(report) for report in result
        ]

    def test_fleet_verdicts_equal_the_per_report_reduction(self):
        registry = DeviceRegistry("n128_light")
        scheduler = FleetScheduler(registry)
        matrix = np.vstack(
            [
                np.zeros((2, 128), np.uint8),
                np.ones((1, 128), np.uint8),
                _rows(12, 40, 128),
                _rows(13, 5, 128, 0.65),
            ]
        )
        verdicts = scheduler.evaluate_matrix(matrix)
        expected = [
            _reference_verdict(report, registry.alpha)
            for report in run_batch(matrix, tests=list(registry.tests))
        ]
        assert verdicts == expected
        assert any(v.passed for v in verdicts) and not all(v.passed for v in verdicts)


class TestBatchResultSequence:
    def test_sequence_protocol(self):
        result = run_batch(_rows(14, 4, 256), tests=[1, 13])
        assert len(result) == 4
        assert result[-1] is result[3]
        assert result[1:3] == [result[1], result[2]]
        assert [report.n for report in result] == [256] * 4
        with pytest.raises(IndexError):
            result[4]

    def test_report_views_read_the_mask(self):
        matrix = np.vstack([np.ones((1, 256), np.uint8), _rows(15, 2, 256)])
        result = run_batch(matrix, tests=[1, 3])
        stuck = result[0]
        assert not stuck.passed()
        assert stuck.failing_tests() == ["nist.frequency", "nist.runs"]
        assert stuck.p_values() == {
            "nist.frequency": frequency_test(matrix[0]).p_value,
            "nist.runs": runs_test(matrix[0]).p_value,
        }
