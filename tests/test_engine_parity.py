"""Golden engine/reference parity tests.

The acceptance bar of the engine: every test run through ``run_batch``,
``NistSuite.run`` (a one-row batch) or ``FipsBattery.run`` must produce a
*bit-identical* ``TestResult`` — name, statistic, P-values and every entry
of ``details`` — and identical error strings to the plain-bits reference
functions of ``repro.nist`` / ``repro.fips``, on ideal, biased and
correlated sources alike.
"""

import dataclasses

import numpy as np
import pytest

from repro.engine import DEFAULT_REGISTRY, NIST_NUMBER_TO_ID, run_batch
from repro.fips.battery import (
    FIPS_BLOCK_BITS,
    FipsBattery,
    fips_battery,
)
from repro.nist.approximate_entropy import approximate_entropy_test
from repro.nist.block_frequency import block_frequency_test
from repro.nist.common import TestResult
from repro.nist.cusum import cumulative_sums_test
from repro.nist.dft import dft_test
from repro.nist.frequency import frequency_test
from repro.nist.linear_complexity import linear_complexity_test
from repro.nist.longest_run import longest_run_test
from repro.nist.nonoverlapping import non_overlapping_template_test
from repro.nist.overlapping import overlapping_template_test
from repro.nist.random_excursions import random_excursions_test
from repro.nist.random_excursions_variant import random_excursions_variant_test
from repro.nist.rank import binary_matrix_rank_test
from repro.nist.runs import runs_test
from repro.nist.serial import serial_test
from repro.nist.suite import NistSuite
from repro.nist.universal import universal_test
from repro.trng import BiasedSource, CorrelatedSource, IdealSource

#: The direct reference entry points, by NIST number (the golden model).
REFERENCE_TESTS = {
    1: frequency_test,
    2: block_frequency_test,
    3: runs_test,
    4: longest_run_test,
    5: binary_matrix_rank_test,
    6: dft_test,
    7: non_overlapping_template_test,
    8: overlapping_template_test,
    9: universal_test,
    10: linear_complexity_test,
    11: serial_test,
    12: approximate_entropy_test,
    13: cumulative_sums_test,
    14: random_excursions_test,
    15: random_excursions_variant_test,
}

N = 16384


def _sources():
    return {
        "ideal": IdealSource(seed=1111),
        "biased": BiasedSource(0.55, seed=2222),
        "correlated": CorrelatedSource(0.75, seed=3333),
    }


@pytest.fixture(scope="module")
def golden_sequences():
    """One fixed sequence per source kind."""
    return {name: source.generate(N).bits for name, source in _sources().items()}


@pytest.fixture(scope="module")
def reference_outcomes(golden_sequences):
    """Reference results and errors per source, straight from the golden model."""
    outcomes = {}
    for name, bits in golden_sequences.items():
        results, errors = {}, {}
        for number, reference in REFERENCE_TESTS.items():
            try:
                results[number] = reference(bits)
            except ValueError as exc:
                errors[number] = str(exc)
        outcomes[name] = (results, errors)
    return outcomes


def _same(value, reference) -> bool:
    """Bit-identical, type for type: floats by their bits (NaN and the sign
    of zero included), arrays by dtype, shape and bytes, containers and
    dataclasses entry by entry."""
    if type(value) is not type(reference):
        return False
    if isinstance(value, np.ndarray):
        return (
            value.dtype == reference.dtype
            and value.shape == reference.shape
            and value.tobytes() == reference.tobytes()
        )
    if isinstance(value, float):
        return value.hex() == reference.hex()
    if isinstance(value, dict):
        return list(value) == list(reference) and all(
            _same(value[key], reference[key]) for key in value
        )
    if isinstance(value, (list, tuple)):
        return len(value) == len(reference) and all(map(_same, value, reference))
    if dataclasses.is_dataclass(value):
        return _same(vars(value), vars(reference))
    return value == reference


def _assert_identical(result, reference, label):
    assert repr(result) == repr(reference), label
    assert _same(result, reference), label


def _fips_as_test_result(outcome):
    """A reference FIPS outcome as the registry's ``fips.*`` entries report it:
    a degenerate P-value (1.0 pass / 0.0 fail), the outcome in ``details``."""
    return TestResult(
        name=outcome.name,
        statistic=outcome.statistic,
        p_value=1.0 if outcome.passed else 0.0,
        details={"fips": outcome, **outcome.details},
    )


class TestOneRowParity:
    """``NistSuite.run`` (a one-row batch) vs direct reference calls."""

    @pytest.mark.parametrize("source_name", ["ideal", "biased", "correlated"])
    def test_all_tests_bit_identical(self, golden_sequences, reference_outcomes, source_name):
        results, errors = reference_outcomes[source_name]
        report = NistSuite().run(golden_sequences[source_name])
        assert report.errors == errors
        assert list(report.results) == [number for number in REFERENCE_TESTS if number in results]
        for number, reference in results.items():
            _assert_identical(report.results[number], reference, (source_name, number))

    def test_error_messages_identical(self, golden_sequences, reference_outcomes):
        bits = golden_sequences["ideal"]
        _, errors = reference_outcomes["ideal"]
        assert errors
        for number, message in errors.items():
            with pytest.raises(ValueError) as excinfo:
                NistSuite(tests=[number], skip_errors=False).run(bits)
            assert str(excinfo.value) == message


class TestBatchParity:
    """run_batch (shared BatchContext) vs direct reference calls."""

    def test_batch_bit_identical_across_sources(self, golden_sequences, reference_outcomes):
        names = list(golden_sequences)
        reports = run_batch([golden_sequences[name] for name in names])
        for name, report in zip(names, reports):
            results, errors = reference_outcomes[name]
            for number in REFERENCE_TESTS:
                test_id = DEFAULT_REGISTRY.resolve(number).id
                if number in errors:
                    assert report.errors[test_id] == errors[number]
                else:
                    _assert_identical(
                        report.results[test_id], results[number], (name, number)
                    )

    @pytest.mark.parametrize("n", [128, 1000, 4096 + 37, N])
    def test_one_sequence_is_a_one_row_batch(self, n):
        # A single sequence takes the batch entries, and results and
        # errors still equal the golden model's.
        bits = IdealSource(seed=n).generate(n).bits
        report = run_batch([bits])[0]
        for number, reference in REFERENCE_TESTS.items():
            test = DEFAULT_REGISTRY.resolve(number)
            try:
                expected = reference(bits)
            except ValueError as exc:
                assert report.errors[test.id] == str(exc)
                assert test.id not in report.results
            else:
                _assert_identical(report.results[test.id], expected, (n, number))

    def test_mixed_lengths_fall_back_per_sequence(self):
        short = IdealSource(seed=777).generate(1024).bits
        long = IdealSource(seed=778).generate(2048).bits
        reports = run_batch([short, long], tests=[1, 3, 13])
        for bits, report in zip([short, long], reports):
            assert report.n == bits.size
            for number in (1, 3, 13):
                _assert_identical(
                    report.results[NIST_NUMBER_TO_ID[number]],
                    REFERENCE_TESTS[number](bits),
                    ("mixed", bits.size, number),
                )

    def test_suite_run_batch_matches_suite_run(self, golden_sequences):
        suite = NistSuite(
            tests=[1, 2, 3, 4, 7, 8, 11, 12, 13],
            parameters={2: {"block_length": 256}, 11: {"m": 5}},
        )
        sequences = list(golden_sequences.values())
        batch_reports = suite.run_batch(sequences)
        for bits, batch_report in zip(sequences, batch_reports):
            solo_report = suite.run(bits)
            assert solo_report.p_values() == batch_report.p_values()
            for number in suite.tests:
                _assert_identical(
                    batch_report.results[number], solo_report.results[number], number
                )


class TestFipsParity:
    """The FIPS battery through the engine vs the direct reference functions."""

    FIPS_IDS = ("fips.monobit", "fips.poker", "fips.runs", "fips.long_run")

    @pytest.fixture(scope="class")
    def fips_blocks(self):
        return {
            name: source.generate(FIPS_BLOCK_BITS).bits
            for name, source in _sources().items()
        }

    def test_battery_run_matches_reference(self, fips_blocks):
        for name, block in fips_blocks.items():
            assert _same(FipsBattery().run(block), fips_battery(block)), name

    def test_battery_run_batch_matches_reference(self, fips_blocks):
        blocks = list(fips_blocks.values())
        for block, report in zip(blocks, FipsBattery().run_batch(blocks)):
            assert _same(report, fips_battery(block))

    def test_registry_results_match_reference(self, fips_blocks):
        names = list(fips_blocks)
        result = run_batch([fips_blocks[name] for name in names], tests=list(self.FIPS_IDS))
        for name, report in zip(names, result):
            reference = fips_battery(fips_blocks[name])
            assert list(report.results) == list(self.FIPS_IDS)
            for test_id, outcome in zip(self.FIPS_IDS, reference.results):
                _assert_identical(
                    report.results[test_id], _fips_as_test_result(outcome), (name, test_id)
                )

    def test_wrong_length_error_identical(self, fips_blocks):
        short = fips_blocks["ideal"][:1000]
        with pytest.raises(ValueError) as expected:
            fips_battery(short)
        with pytest.raises(ValueError) as excinfo:
            FipsBattery().run(short)
        assert str(excinfo.value) == str(expected.value)
        report = run_batch([short], tests=list(self.FIPS_IDS))[0]
        assert report.errors == dict.fromkeys(self.FIPS_IDS, str(expected.value))
