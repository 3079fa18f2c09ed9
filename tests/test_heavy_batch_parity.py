"""Bit-identity of the batch-native heavy kernels against the scalar suite.

The five heavyweight NIST tests (rank, DFT, universal, linear complexity,
random excursions + variant) run through :mod:`repro.engine.heavy`'s
batch-native kernels over packed words.  These tests pin the contract of
that path on deliberately awkward inputs — lengths that are not multiples of
64 (live word-padding bits), degenerate all-zeros / all-ones streams,
single-row batches, inapplicably short sequences — and the dispatch
semantics: a non-32x32 rank geometry stays bit-identical through
``run_batch``, and error messages match the scalar reference verbatim.
"""

import numpy as np
import pytest

from repro.engine import run_batch
from repro.engine.heavy import batch_rank
from repro.engine.context import BatchContext
from repro.engine.packed import pack_matrix
from repro.engine.registry import NIST_NUMBER_TO_ID
from repro.nist.dft import dft_test
from repro.nist.linear_complexity import linear_complexity_test
from repro.nist.random_excursions import random_excursions_test
from repro.nist.random_excursions_variant import random_excursions_variant_test
from repro.nist.rank import binary_matrix_rank_test
from repro.nist.universal import universal_test

#: The five heavyweight tests with batch-native kernels.
HEAVY_TESTS = [5, 6, 9, 10, 14, 15]

#: Scalar reference entry point per NIST number.
REFERENCES = {
    5: binary_matrix_rank_test,
    6: dft_test,
    9: universal_test,
    10: linear_complexity_test,
    14: random_excursions_test,
    15: random_excursions_variant_test,
}

#: Parameters that make every heavy test applicable at a few kilobits.
SMALL_PARAMS = {
    9: {"block_length": 6, "init_blocks": 32},
    10: {"block_length": 64},
}


def _rows(seed: int, rows: int, n: int) -> np.ndarray:
    if seed < 0:  # constant streams
        return np.full((rows, n), -seed - 1, dtype=np.uint8)
    return np.random.default_rng(seed).integers(0, 2, size=(rows, n), dtype=np.uint8)


def _assert_identical(result, reference):
    assert result.name == reference.name
    assert result.statistic == reference.statistic
    assert result.p_value == reference.p_value
    assert result.p_values == reference.p_values
    assert repr(result.details) == repr(reference.details)


def _check_parity(matrix: np.ndarray, tests=HEAVY_TESTS, params=SMALL_PARAMS):
    """Packed-batch reports must equal the scalar references bit for bit."""
    reports = run_batch(pack_matrix(matrix), tests=tests, parameters=params)
    assert len(reports) == matrix.shape[0]
    for row, report in enumerate(reports):
        for number in tests:
            test_id = NIST_NUMBER_TO_ID[number]
            reference = REFERENCES[number](matrix[row], **params.get(number, {}))
            _assert_identical(report.results[test_id], reference)
    return reports


class TestAwkwardShapeParity:
    def test_non_multiple_of_64_length(self):
        # 4096 + 37 bits: the last packed word carries 37 live bits and 27
        # zero-pad bits that every kernel must mask out.
        _check_parity(_rows(1, rows=5, n=4096 + 37))

    def test_word_aligned_length(self):
        _check_parity(_rows(2, rows=4, n=4096))

    def test_single_row_batch(self):
        _check_parity(_rows(3, rows=1, n=2048 + 13))

    def test_all_zeros_and_all_ones(self):
        # Degenerate streams: rank 0 matrices, a DC-only spectrum, zero
        # linear complexity (all-zeros), single-cycle excursion walks.
        _check_parity(_rows(-1, rows=2, n=1500))  # all zeros
        _check_parity(_rows(-2, rows=2, n=1500))  # all ones

    def test_mixed_degenerate_and_random_rows(self):
        matrix = np.vstack(
            [
                _rows(-1, rows=1, n=3333),
                _rows(7, rows=2, n=3333),
                _rows(-2, rows=1, n=3333),
            ]
        )
        _check_parity(matrix)


class TestShortSequenceErrors:
    def test_error_messages_match_scalar(self):
        # 100 bits: too short for rank (needs 1024) and universal's default
        # parameters; the per-report error strings must match the scalar
        # ValueError messages verbatim.
        matrix = _rows(4, rows=3, n=100)
        reports = run_batch(pack_matrix(matrix), tests=[5, 9])
        for row, report in enumerate(reports):
            for number in (5, 9):
                test_id = NIST_NUMBER_TO_ID[number]
                with pytest.raises(ValueError) as excinfo:
                    REFERENCES[number](matrix[row])
                assert report.errors[test_id] == str(excinfo.value)
                assert test_id not in report.results

    def test_skip_errors_false_raises_scalar_error(self):
        matrix = _rows(5, rows=2, n=100)
        with pytest.raises(ValueError, match="need at least 1024 bits"):
            run_batch(pack_matrix(matrix), tests=[5], skip_errors=False)


class TestDispatchSemantics:
    @pytest.mark.parametrize(
        "seed, rows, as_list", [(8, 3, False), (9, 2, False), (9, 1, True)]
    )
    def test_non_32x32_rank_is_bit_identical(self, seed, rows, as_list):
        # Non-32x32 rank matrices are outside the packed word layout:
        # batch_rank runs the scalar reference per row inside the kernel,
        # so run_batch stays bit-identical — a single sequence handed over
        # as a list (a one-row batch) included.
        matrix = _rows(seed, rows=rows, n=2048)
        batch = BatchContext(pack_matrix(matrix))
        direct = batch_rank(batch, matrix_rows=16, matrix_cols=16)
        params = {5: {"matrix_rows": 16, "matrix_cols": 16}}
        sequences = list(matrix) if as_list else pack_matrix(matrix)
        reports = run_batch(sequences, tests=[5], parameters=params)
        test_id = NIST_NUMBER_TO_ID[5]
        for row, report in enumerate(reports):
            reference = binary_matrix_rank_test(
                matrix[row], matrix_rows=16, matrix_cols=16
            )
            _assert_identical(direct[row], reference)
            _assert_identical(report.results[test_id], reference)
