"""The packed window kernel and the statistics built on it.

``repro.engine.packed.window_values`` is the software form of the paper's
template shift register: every overlapping ``m``-bit window of a row, read
MSB-first straight off the packed words.  The template tests read it
directly, the serial and approximate-entropy tests bincount it into cyclic
pattern counts (plus the ``m - 1`` windows of the wrap seam), and the FIPS
poker test takes every ``L``-th window.  These tests pin the kernel against
a plain-Python oracle — for every width, composed widths beyond the 32-bit
funnel included, and at byte, word and row-tile seams — and each derived
statistic against its :mod:`repro.nist` / :mod:`repro.fips` reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import packed as P
from repro.engine.context import BatchContext
from repro.fips import battery as fips
from repro.nist.common import pattern_counts


def window_oracle(row, m):
    """Every overlapping ``m``-bit window of ``row`` as a Python int, MSB first."""
    text = "".join(str(int(bit)) for bit in row)
    return [int(text[start : start + m], 2) for start in range(len(text) - m + 1)]


def random_matrix(rows, n, seed, p=0.5):
    rng = np.random.default_rng(seed)
    return (rng.random((rows, n)) < p).astype(np.uint8)


def expected_dtype(m):
    if m <= 16:
        return np.uint16
    return np.uint32 if m <= 25 else np.int64


@st.composite
def matrices_and_widths(draw):
    n = draw(st.one_of(st.integers(1, 3000), st.sampled_from([7, 8, 9, 63, 64, 65, 127, 129])))
    m = draw(st.integers(1, min(40, n)))
    rows = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    p = draw(st.sampled_from([0.5, 0.1, 0.9]))
    return random_matrix(rows, n, seed, p), m


class TestWindowValues:
    @settings(max_examples=80, deadline=None)
    @given(matrices_and_widths())
    def test_equals_the_python_oracle(self, case):
        matrix, m = case
        values = P.window_values(P.pack_matrix(matrix), m)
        assert values.dtype == expected_dtype(m)
        assert values.shape == (matrix.shape[0], matrix.shape[1] - m + 1)
        for row, expected in zip(values, matrix):
            assert row.tolist() == window_oracle(expected, m)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 9])
    @pytest.mark.parametrize("n", [9, 15, 16, 17, 63, 64, 65, 128, 131, 200, 1031])
    def test_byte_and_word_seams(self, n, m):
        # Rows of all ones, all zeros and random bits, stacked so that a
        # funnel reading past one row's last byte would see the next row.
        matrix = np.vstack(
            [np.ones(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8), random_matrix(1, n, n * m)[0]]
        )
        if m > n:
            with pytest.raises(ValueError, match="exceeds sequence length"):
                P.window_values(P.pack_matrix(matrix), m)
            return
        values = P.window_values(P.pack_matrix(matrix), m)
        for row, expected in zip(values, matrix):
            assert row.tolist() == window_oracle(expected, m)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 9])
    def test_row_tile_seams(self, m, monkeypatch):
        # Batches one row either side of the row tile of the other packed
        # kernels, and several tiles tall: every row keeps its own windows
        # and its own cyclic counts.
        n = 1000 + m
        monkeypatch.setattr(P, "_TILE_CHUNKS", 5 * (n // 16))
        tile = P.bit_tile_rows(n)
        for rows in (tile - 1, tile, tile + 1, 3 * tile + 2):
            matrix = random_matrix(rows, n, seed=rows * 31 + m)
            batch = BatchContext(matrix)
            values = batch.window_values(m)
            counts = batch.pattern_counts(m)
            for row in range(rows):
                assert values[row].tolist() == window_oracle(matrix[row], m)
                assert np.array_equal(counts[row], pattern_counts(matrix[row], m, cyclic=True))

    def test_rejects_widths_without_windows(self):
        packed = P.pack_matrix(random_matrix(2, 10, seed=1))
        with pytest.raises(ValueError, match="m=11 exceeds sequence length n=10"):
            P.window_values(packed, 11)
        with pytest.raises(ValueError, match="positive"):
            P.window_values(packed, 0)


class TestCyclicPatternCounts:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 600),
        m=st.integers(0, 12),
        rows=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equal_the_reference(self, n, m, rows, seed):
        matrix = random_matrix(rows, n, seed)
        batch = BatchContext(matrix)
        if m > n:
            with pytest.raises(ValueError, match="exceeds sequence length"):
                batch.pattern_counts(m)
            return
        counts = batch.pattern_counts(m)
        for row in range(rows):
            assert np.array_equal(counts[row], pattern_counts(matrix[row], m, cyclic=True))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 9])
    def test_wrap_windows_are_counted(self, m):
        # One 1 at the very end, one at the very start: only the windows
        # that wrap from the tail into the head see both.
        n = 131
        row = np.zeros(n, dtype=np.uint8)
        row[0] = row[-1] = 1
        counts = BatchContext(row[np.newaxis]).pattern_counts(m)[0]
        assert counts.sum() == n
        assert np.array_equal(counts, pattern_counts(row, m, cyclic=True))
        assert counts[(1 << (m - 1)) | (1 << (m - 2))] == 1  # the window "11 0...0"

    def test_wrap_seam_is_the_tail_then_the_head(self):
        matrix = random_matrix(3, 70, seed=4)
        seam = P.wrap_seam(P.pack_matrix(matrix), 8)
        assert np.array_equal(
            seam.unpack(), np.concatenate([matrix[:, -8:], matrix[:, :8]], axis=1)
        )


class TestBlockValueCounts:
    def test_fips_poker_equals_the_reference(self):
        matrix = random_matrix(4, 20000, seed=12)
        matrix[3] = np.tile([1, 0, 1, 1, 0, 0, 0, 1], 2500)  # a skewed nibble mix
        results = fips.batch_poker(BatchContext(matrix))
        assert results == [fips.poker_test(row) for row in matrix]

    @pytest.mark.parametrize("block_length", [1, 3, 4, 5, 8, 9, 17])
    @pytest.mark.parametrize("n", [40, 1000, 1003])
    def test_every_block_length(self, n, block_length):
        matrix = random_matrix(2, n, seed=n + block_length, p=0.3)
        counts = BatchContext(matrix).block_value_counts(block_length)
        for row in range(2):
            blocks = window_oracle(matrix[row], block_length)[::block_length][: n // block_length]
            expected = np.bincount(blocks, minlength=1 << block_length)
            assert np.array_equal(counts[row], expected)

    def test_no_full_block(self):
        counts = BatchContext(random_matrix(2, 3, seed=2)).block_value_counts(4)
        assert np.array_equal(counts, np.zeros((2, 16), dtype=np.int64))


class TestOddGeometries:
    @pytest.mark.parametrize("n", [1000, 1099, 100])
    def test_block_sums_at_m100(self, n):
        matrix = random_matrix(3, n, seed=n)
        assert not P.supports_block_ones(100, n)
        sums = BatchContext(matrix).block_sums(100)
        expected = [
            [int(matrix[row, start : start + 100].sum()) for start in range(0, n - 99, 100)]
            for row in range(3)
        ]
        assert sums.tolist() == expected

    @pytest.mark.parametrize("block_length", [8, 13, 20, 100, 128])
    def test_block_longest_one_runs(self, block_length):
        n = 1037
        matrix = random_matrix(3, n, seed=block_length, p=0.8)
        longest = BatchContext(matrix).block_longest_one_runs(block_length)
        for row in range(3):
            expected = []
            for start in range(0, n - block_length + 1, block_length):
                runs = "".join(map(str, matrix[row, start : start + block_length])).split("0")
                expected.append(max(len(run) for run in runs))
            assert longest[row].tolist() == expected

    @pytest.mark.parametrize("block_length", [128, 20])
    def test_block_longest_one_runs_without_a_full_block(self, block_length):
        matrix = random_matrix(2, 19, seed=3)
        longest = BatchContext(matrix).block_longest_one_runs(block_length)
        assert longest.shape == (2, 0)
