"""Unit tests of the shared-statistic contexts (SequenceContext/BatchContext)."""

import numpy as np
import pytest

from repro.engine import BatchContext, SequenceContext
from repro.fips.battery import _run_lengths
from repro.nist.common import pattern_counts
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


class TestSequenceContext:
    def test_basic_counts(self, sample_bits):
        context = SequenceContext(sample_bits)
        assert context.n == sample_bits.size
        assert context.ones == int(sample_bits.sum())
        assert context.zeros == context.n - context.ones

    def test_walk_extremes_match_reference(self, sample_bits):
        context = SequenceContext(sample_bits)
        assert context.walk_extremes() == random_walk_extremes(sample_bits)

    def test_num_runs_matches_reference(self, sample_bits):
        context = SequenceContext(sample_bits)
        assert context.num_runs() == count_runs(sample_bits)

    @pytest.mark.parametrize("block_length", [8, 64, 100, 128])
    def test_block_sums_match_chunked_sums(self, sample_bits, block_length):
        context = SequenceContext(sample_bits)
        sums = context.block_sums(block_length)
        num_blocks = sample_bits.size // block_length
        expected = [
            int(sample_bits[i * block_length : (i + 1) * block_length].sum())
            for i in range(num_blocks)
        ]
        assert sums.tolist() == expected

    @pytest.mark.parametrize("block_length", [8, 128])
    def test_block_longest_one_runs_match_reference(self, sample_bits, block_length):
        context = SequenceContext(sample_bits)
        per_block = context.block_longest_one_runs(block_length)
        num_blocks = sample_bits.size // block_length
        expected = [
            longest_run_of_ones(sample_bits[i * block_length : (i + 1) * block_length])
            for i in range(num_blocks)
        ]
        assert per_block.tolist() == expected

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    def test_pattern_counts_match_reference(self, sample_bits, m):
        context = SequenceContext(sample_bits)
        expected = pattern_counts(sample_bits, m, cyclic=True)
        assert np.array_equal(context.pattern_counts(m), expected)

    def test_window_values_match_bruteforce(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        context = SequenceContext(bits)
        values = context.window_values(3)
        expected = [int("".join(map(str, bits[i : i + 3])), 2) for i in range(6)]
        assert values.tolist() == expected

    def test_block_value_counts_match_bruteforce(self, sample_bits):
        context = SequenceContext(sample_bits)
        counts = context.block_value_counts(4)
        nibbles = sample_bits[: (sample_bits.size // 4) * 4].reshape(-1, 4)
        expected = np.bincount(nibbles @ np.array([8, 4, 2, 1]), minlength=16)
        assert np.array_equal(counts, expected)

    def test_run_length_histogram_matches_fips_reference(self, sample_bits):
        context = SequenceContext(sample_bits)
        assert context.run_length_histogram(cap=6) == _run_lengths(sample_bits)

    def test_longest_run_overall(self):
        context = SequenceContext("1100011110001")
        assert context.longest_run() == 4
        assert SequenceContext(np.zeros(7, dtype=np.uint8)).longest_run() == 7

    def test_memoization_returns_same_object(self, sample_bits):
        context = SequenceContext(sample_bits)
        assert context.pattern_counts(4) is context.pattern_counts(4)
        assert context.block_sums(128) is context.block_sums(128)

    def test_accepts_any_bitslike(self):
        assert SequenceContext("1011").ones == 3
        assert SequenceContext([1, 0, 1, 1]).ones == 3


EMPTY = np.zeros(0, dtype=np.uint8)

#: Each statistic read off the first row of an empty batch, and what the
#: scalar references give for an empty sequence (an exception type where
#: the statistic does not exist).
EMPTY_STATISTICS = {
    "ones": (lambda batch: batch.context(0).ones, 0),
    "zeros": (lambda batch: batch.context(0).zeros, 0),
    "num_runs": (lambda batch: batch.context(0).num_runs(), count_runs(EMPTY)),
    "walk_extremes": (lambda batch: batch.context(0).walk_extremes(), random_walk_extremes(EMPTY)),
    "last_bit": (lambda batch: batch.context(0).last_bit(), ValueError),
    "last_bits": (lambda batch: batch.last_bits(), ValueError),
    "block_sums": (lambda batch: batch.context(0).block_sums(8).tolist(), []),
    "block_longest": (lambda batch: batch.context(0).block_longest_one_runs(8).tolist(), []),
    "block_values": (lambda batch: batch.context(0).block_value_counts(4).tolist(), [0] * 16),
    "patterns": (lambda batch: batch.context(0).pattern_counts(2).tolist(), [0] * 4),
    "patterns_m0": (lambda batch: batch.context(0).pattern_counts(0).tolist(), [0]),
    "longest_run": (lambda batch: batch.context(0).longest_run(), 0),
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
            batch.context(len(sample_rows))

    def test_every_statistic_matches_solo_context(self, sample_rows):
        batch = BatchContext(np.vstack(sample_rows))
        for row, context in zip(sample_rows, batch.contexts()):
            solo = SequenceContext(row)
            assert context.ones == solo.ones
            assert context.walk_extremes() == solo.walk_extremes()
            assert context.num_runs() == solo.num_runs()
            assert np.array_equal(context.block_sums(128), solo.block_sums(128))
            assert np.array_equal(
                context.block_longest_one_runs(8), solo.block_longest_one_runs(8)
            )
            for m in (1, 3, 4):
                assert np.array_equal(
                    context.pattern_counts(m), solo.pattern_counts(m)
                )
            assert np.array_equal(context.window_values(9), solo.window_values(9))
            assert np.array_equal(
                context.block_value_counts(4), solo.block_value_counts(4)
            )
            assert context.run_length_histogram() == solo.run_length_histogram()
            assert context.longest_run() == solo.longest_run()

    def test_batch_statistics_are_shared(self, sample_rows):
        batch = BatchContext(np.vstack(sample_rows))
        first = batch.ones()
        assert batch.ones() is first  # computed once for the whole batch
