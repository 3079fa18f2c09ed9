"""Unit tests of the shared-statistic batch (BatchContext)."""

import numpy as np
import pytest

from repro.engine import BatchContext, run_batch
from repro.fips.battery import _run_lengths
from repro.nist.common import pattern_counts, to_bits
from repro.nist.cusum import random_walk_extremes
from repro.nist.longest_run import longest_run_of_ones
from repro.nist.runs import count_runs
from repro.trng import AlternatingSource, BiasedSource, IdealSource


@pytest.fixture(scope="module")
def sample_bits():
    return IdealSource(seed=4242).generate(2048).bits


@pytest.fixture(scope="module")
def sample_rows():
    """Diverse equal-length rows: ideal, biased, alternating, constant."""
    rows = [
        IdealSource(seed=9001).generate(1024).bits,
        BiasedSource(0.7, seed=9002).generate(1024).bits,
        AlternatingSource().generate(1024).bits,
        np.ones(1024, dtype=np.uint8),
        np.zeros(1024, dtype=np.uint8),
    ]
    return rows


def _one_row(bits) -> BatchContext:
    """A lone sequence as a one-row batch."""
    return BatchContext(to_bits(bits)[np.newaxis, :])


def _walk_row(batch: BatchContext, row: int = 0):
    return tuple(int(column[row]) for column in batch.walk_extremes())


def _run_lengths_row(batch: BatchContext, row: int = 0) -> np.ndarray:
    rows, _, lengths = batch.runs()
    return lengths[rows == row]


class TestOneRowBatch:
    def test_basic_counts(self, sample_bits):
        batch = _one_row(sample_bits)
        assert batch.n == sample_bits.size
        assert batch.num_sequences == 1
        assert int(batch.ones()[0]) == int(sample_bits.sum())

    def test_walk_extremes_match_reference(self, sample_bits):
        assert _walk_row(_one_row(sample_bits)) == random_walk_extremes(sample_bits)

    def test_num_runs_matches_reference(self, sample_bits):
        assert int(_one_row(sample_bits).num_runs()[0]) == count_runs(sample_bits)

    @pytest.mark.parametrize("block_length", [8, 64, 100, 128])
    def test_block_sums_match_chunked_sums(self, sample_bits, block_length):
        sums = _one_row(sample_bits).block_sums(block_length)[0]
        num_blocks = sample_bits.size // block_length
        expected = [
            int(sample_bits[i * block_length : (i + 1) * block_length].sum())
            for i in range(num_blocks)
        ]
        assert sums.tolist() == expected

    @pytest.mark.parametrize("block_length", [8, 128])
    def test_block_longest_one_runs_match_reference(self, sample_bits, block_length):
        per_block = _one_row(sample_bits).block_longest_one_runs(block_length)[0]
        num_blocks = sample_bits.size // block_length
        expected = [
            longest_run_of_ones(sample_bits[i * block_length : (i + 1) * block_length])
            for i in range(num_blocks)
        ]
        assert per_block.tolist() == expected

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    def test_pattern_counts_match_reference(self, sample_bits, m):
        expected = pattern_counts(sample_bits, m, cyclic=True)
        assert np.array_equal(_one_row(sample_bits).pattern_counts(m)[0], expected)

    def test_window_values_match_bruteforce(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        values = _one_row(bits).window_values(3)[0]
        expected = [int("".join(map(str, bits[i : i + 3])), 2) for i in range(6)]
        assert values.tolist() == expected

    def test_block_value_counts_match_bruteforce(self, sample_bits):
        counts = _one_row(sample_bits).block_value_counts(4)[0]
        nibbles = sample_bits[: (sample_bits.size // 4) * 4].reshape(-1, 4)
        expected = np.bincount(nibbles @ np.array([8, 4, 2, 1]), minlength=16)
        assert np.array_equal(counts, expected)

    def test_run_arrays_give_the_fips_run_histogram(self, sample_bits):
        rows, values, lengths = _one_row(sample_bits).runs()
        assert not rows.any()
        histogram = {
            bit: {length: 0 for length in range(1, 7)} for bit in (0, 1)
        }
        for value, length in zip(values.tolist(), np.minimum(lengths, 6).tolist()):
            histogram[value][length] += 1
        assert histogram == _run_lengths(sample_bits)

    def test_longest_run_overall(self):
        assert int(_run_lengths_row(_one_row("1100011110001")).max()) == 4
        assert int(_run_lengths_row(_one_row(np.zeros(7, dtype=np.uint8))).max()) == 7

    def test_memoization_returns_same_object(self, sample_bits):
        batch = _one_row(sample_bits)
        assert batch.pattern_counts(4) is batch.pattern_counts(4)
        assert batch.block_sums(128) is batch.block_sums(128)

    def test_accepts_any_bitslike(self):
        for bits in ("1011", [1, 0, 1, 1]):
            report = run_batch([bits], tests=[1])[0]
            assert report.results["nist.frequency"].details["ones"] == 3


EMPTY = np.zeros(0, dtype=np.uint8)

#: Each statistic read off the first row of an empty batch, and what the
#: scalar references give for an empty sequence (an exception type where
#: the statistic does not exist).
EMPTY_STATISTICS = {
    "ones": (lambda batch: int(batch.ones()[0]), 0),
    "num_runs": (lambda batch: int(batch.num_runs()[0]), count_runs(EMPTY)),
    "walk_extremes": (_walk_row, random_walk_extremes(EMPTY)),
    "last_bit": (lambda batch: batch.last_bits()[0], ValueError),
    "last_bits": (lambda batch: batch.last_bits(), ValueError),
    "block_sums": (lambda batch: batch.block_sums(8)[0].tolist(), []),
    "block_longest": (lambda batch: batch.block_longest_one_runs(8)[0].tolist(), []),
    "block_values": (lambda batch: batch.block_value_counts(4)[0].tolist(), [0] * 16),
    "patterns": (lambda batch: batch.pattern_counts(2)[0].tolist(), [0] * 4),
    "patterns_m0": (lambda batch: batch.pattern_counts(0)[0].tolist(), [0]),
}


@pytest.mark.parametrize("name", list(EMPTY_STATISTICS))
def test_zero_length_batch_matches_scalar_expectations(name):
    read, expected = EMPTY_STATISTICS[name]
    batch = BatchContext(np.zeros((2, 0), dtype=np.uint8))
    if expected is ValueError:
        with pytest.raises(ValueError):
            read(batch)
    else:
        assert read(batch) == expected


class TestBatchContext:
    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            BatchContext(np.zeros(16, dtype=np.uint8))

    def test_row_out_of_range(self, sample_rows):
        batch = BatchContext(np.vstack(sample_rows))
        with pytest.raises(IndexError):
            batch.row_bits(len(sample_rows))

    @pytest.mark.parametrize("row,expected", [(-1, 4), (-2, 3), (4, 4)])
    def test_row_bits_counts_negative_rows_from_the_end(self, row, expected):
        eye = np.eye(5, 64, dtype=np.uint8)
        assert np.array_equal(BatchContext(eye).row_bits(row), eye[expected])

    @pytest.mark.parametrize("row", [5, -6])
    def test_row_bits_out_of_range_names_the_row(self, row):
        with pytest.raises(IndexError, match=f"row {row} out of range for 5 rows"):
            BatchContext(np.eye(5, 64, dtype=np.uint8)).row_bits(row)

    def test_every_statistic_matches_a_one_row_batch(self, sample_rows):
        batch = BatchContext(np.vstack(sample_rows))
        for index, row in enumerate(sample_rows):
            solo = _one_row(row)
            assert batch.ones()[index] == solo.ones()[0]
            assert _walk_row(batch, index) == _walk_row(solo)
            assert batch.num_runs()[index] == solo.num_runs()[0]
            assert np.array_equal(batch.block_sums(128)[index], solo.block_sums(128)[0])
            assert np.array_equal(
                batch.block_longest_one_runs(8)[index], solo.block_longest_one_runs(8)[0]
            )
            for m in (1, 3, 4):
                assert np.array_equal(batch.pattern_counts(m)[index], solo.pattern_counts(m)[0])
            assert np.array_equal(batch.window_values(9)[index], solo.window_values(9)[0])
            assert np.array_equal(
                batch.block_value_counts(4)[index], solo.block_value_counts(4)[0]
            )
            assert np.array_equal(_run_lengths_row(batch, index), _run_lengths_row(solo))
            assert np.array_equal(batch.row_bits(index), row)

    def test_batch_statistics_are_shared(self, sample_rows):
        batch = BatchContext(np.vstack(sample_rows))
        first = batch.ones()
        assert batch.ones() is first  # computed once for the whole batch
