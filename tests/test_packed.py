"""Packed bit-planes: round-trips and bit-exact parity with plain numpy.

The 64-bits-per-word kernels of :mod:`repro.engine.packed` must produce
*bit-identical* statistics to plain numpy expressions over the unpacked
bits — and therefore P-values identical to the :mod:`repro.nist` scalar
references — for every matrix shape, including the awkward ones: ``n`` not
a multiple of 64 (tail bits in the last word), a single row, an empty
tail, all-zeros and all-ones rows.  These tests sweep those shapes with
seeded random matrices and hypothesis-generated sequences.
"""

import itertools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nist
from repro.engine import packed as P
from repro.engine.batch import run_batch
from repro.engine.context import BatchContext
from repro.trng.ideal import IdealSource

#: Shapes chosen to stress the word-boundary logic: multiples of 64,
#: off-by-one around them, sub-word rows, and byte-but-not-word multiples.
AWKWARD_SHAPES = [
    (1, 1), (1, 63), (1, 64), (1, 65), (3, 7), (2, 127), (4, 128),
    (5, 129), (1, 1000), (3, 20000), (2, 4096), (7, 130),
]


def random_matrix(rows, n, seed=0, p=0.5):
    rng = np.random.default_rng(seed)
    return (rng.random((rows, n)) < p).astype(np.uint8)


def special_matrices(rows, n):
    yield np.zeros((rows, n), dtype=np.uint8)
    yield np.ones((rows, n), dtype=np.uint8)
    yield random_matrix(rows, n, seed=rows * 1000 + n)
    yield random_matrix(rows, n, seed=rows * 1000 + n + 1, p=0.9)


def walk_reference(matrix):
    """``(S_max, S_min, S_final)`` per row from the full ±1 walk."""
    walk = np.cumsum(2 * matrix.astype(np.int64) - 1, axis=1)
    return walk.max(axis=1), walk.min(axis=1), walk[:, -1]


def transitions_reference(matrix):
    """Adjacent-bit changes per row."""
    return np.count_nonzero(np.diff(matrix.astype(np.int8), axis=1), axis=1)


def block_sums_reference(matrix, block_length):
    rows, n = matrix.shape
    num_blocks = n // block_length
    blocks = matrix[:, : num_blocks * block_length].reshape(rows, num_blocks, block_length)
    return blocks.sum(axis=2, dtype=np.int64)


def block_longest_reference(matrix, block_length):
    """Longest run of ones per full block: ones so far minus ones so far at
    the block's latest zero is the length of the run ending at each bit."""
    rows, n = matrix.shape
    num_blocks = n // block_length
    blocks = matrix[:, : num_blocks * block_length].reshape(rows, num_blocks, block_length)
    ones = np.cumsum(blocks, axis=2, dtype=np.int64)
    at_last_zero = np.maximum.accumulate(np.where(blocks == 0, ones, 0), axis=2)
    return (ones - at_last_zero).max(axis=2)

class TestRoundTrip:
    @pytest.mark.parametrize("rows,n", AWKWARD_SHAPES)
    def test_pack_unpack_exact(self, rows, n):
        for matrix in special_matrices(rows, n):
            packed = P.pack_matrix(matrix)
            assert packed.num_words == (n + 63) // 64
            assert np.array_equal(P.unpack_matrix(packed), matrix)

    def test_empty_rows_and_zero_bits(self):
        empty = np.zeros((0, 40), dtype=np.uint8)
        assert P.unpack_matrix(P.pack_matrix(empty)).shape == (0, 40)
        zero_bits = np.zeros((3, 0), dtype=np.uint8)
        packed = P.pack_matrix(zero_bits)
        assert packed.num_words == 0
        assert P.unpack_matrix(packed).shape == (3, 0)

    def test_nbytes_is_an_eighth(self):
        matrix = random_matrix(16, 4096)
        assert P.pack_matrix(matrix).nbytes == matrix.nbytes // 8

    def test_rejects_non_bits_and_bad_tail(self):
        with pytest.raises(ValueError, match="only 0 and 1"):
            P.pack_matrix(np.full((2, 8), 2, dtype=np.uint8))
        with pytest.raises(ValueError, match="2-D"):
            P.pack_matrix(np.zeros(8, dtype=np.uint8))
        dirty = np.full((1, 1), 0xFF, dtype="<u8")
        with pytest.raises(ValueError, match="tail bits"):
            P.PackedMatrix(dirty, 4)

    @given(st.lists(st.integers(0, 1), min_size=0, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, bits):
        matrix = np.array([bits], dtype=np.uint8)
        assert np.array_equal(P.unpack_matrix(P.pack_matrix(matrix)), matrix)


class TestPopcount:
    def test_lut_fallback_matches_bitwise_count(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 1 << 63, size=(5, 17), dtype=np.uint64)
        via_lut = P.popcount(values, force_lut=True)
        assert via_lut.dtype == np.uint8
        assert np.array_equal(via_lut, np.bitwise_count(values))

    def test_lut_fallback_other_dtypes(self):
        for dtype in (np.uint8, np.uint16, np.uint32):
            values = np.arange(200, dtype=dtype)
            assert np.array_equal(
                P.popcount(values, force_lut=True), np.bitwise_count(values)
            )


class TestKernelParity:
    """Each packed kernel against plain numpy, shape by shape."""

    @pytest.mark.parametrize("rows,n", AWKWARD_SHAPES)
    def test_ones_count(self, rows, n):
        for matrix in special_matrices(rows, n):
            assert np.array_equal(
                P.ones_count(P.pack_matrix(matrix)),
                matrix.sum(axis=1, dtype=np.int64),
            )

    @pytest.mark.parametrize("rows,n", AWKWARD_SHAPES)
    def test_transition_counts(self, rows, n):
        for matrix in special_matrices(rows, n):
            assert np.array_equal(
                P.transition_counts(P.pack_matrix(matrix)), transitions_reference(matrix)
            )

    @pytest.mark.parametrize("rows,n", AWKWARD_SHAPES)
    def test_walk_extremes(self, rows, n):
        for matrix in special_matrices(rows, n):
            packed = P.walk_extremes(P.pack_matrix(matrix))
            for fast, reference in zip(packed, walk_reference(matrix)):
                assert np.array_equal(fast, reference)

    @pytest.mark.parametrize("rows,n", AWKWARD_SHAPES)
    def test_last_bits(self, rows, n):
        for matrix in special_matrices(rows, n):
            assert np.array_equal(P.last_bits(P.pack_matrix(matrix)), matrix[:, -1])

    @pytest.mark.parametrize("block_length", [8, 16, 32, 64, 128, 4096])
    def test_block_ones(self, block_length):
        n = block_length * 3 + (block_length // 2)  # trailing partial block
        matrix = random_matrix(4, n, seed=block_length)
        packed = P.pack_matrix(matrix)
        assert P.supports_block_ones(block_length, n)
        assert np.array_equal(
            P.block_ones(packed, block_length), block_sums_reference(matrix, block_length)
        )

    def test_block_ones_unsupported_geometry(self):
        matrix = random_matrix(2, 100)
        assert not P.supports_block_ones(20, 100)
        with pytest.raises(ValueError, match="no packed kernel"):
            P.block_ones(P.pack_matrix(matrix), 20)

    @pytest.mark.parametrize("block_length", [8, 128, 512, 1000, 10000])
    def test_block_longest_one_runs(self, block_length):
        n = block_length * 2 + block_length // 4
        for matrix in special_matrices(3, n):
            packed = P.pack_matrix(matrix)
            assert P.supports_block_longest_one_runs(block_length, n)
            result = P.block_longest_one_runs(packed, block_length)
            num_blocks = n // block_length
            for row in range(matrix.shape[0]):
                for block in range(num_blocks):
                    bits = matrix[row, block * block_length : (block + 1) * block_length]
                    # Longest run of ones, by run-length encoding.
                    longest = max(
                        (len(s) for s in "".join(map(str, bits)).split("0")),
                        default=0,
                    )
                    assert result[row, block] == longest

    @pytest.mark.parametrize("block_length", [40000, 65536])
    def test_block_longest_runs_past_int16(self, block_length):
        # A run of 2**15 or more ones must not wrap in the cross-chunk merge.
        packed = P.pack_matrix(np.ones((1, 65536), dtype=np.uint8))
        result = P.block_longest_one_runs(packed, block_length)
        assert result.dtype == np.int64
        assert result.tolist() == [[block_length]]

    def test_walk_extremes_rejects_empty(self):
        with pytest.raises(ValueError):
            P.walk_extremes(P.pack_matrix(np.zeros((2, 0), dtype=np.uint8)))
        with pytest.raises(ValueError):
            P.last_bits(P.pack_matrix(np.zeros((2, 0), dtype=np.uint8)))


def pattern_rows(pattern, rows, n, seed):
    """A ``(rows, n)`` matrix of one row pattern (random ones vary by row)."""
    if pattern == "zeros":
        return np.zeros((rows, n), dtype=np.uint8)
    if pattern == "ones":
        return np.ones((rows, n), dtype=np.uint8)
    if pattern == "alternating":
        return np.tile((np.arange(n) % 2).astype(np.uint8), (rows, 1))
    return random_matrix(rows, n, seed=seed, p={"p0.9": 0.9, "p0.5": 0.5}[pattern])


ROW_PATTERNS = ("zeros", "ones", "alternating", "p0.9", "p0.5")


def seam_matrices(rows, n):
    """One matrix per row pattern, then one mixing all patterns row by row."""
    for pattern in ROW_PATTERNS:
        yield pattern_rows(pattern, rows, n, seed=rows * 7 + n)
    mixed = np.stack(
        [pattern_rows(ROW_PATTERNS[row % 5], 1, n, seed=row)[0] for row in range(rows)]
    )
    yield mixed


def seam_row_counts(tile):
    """1, tile - 1, tile, tile + 1 and several tiles (deduplicated, > 0)."""
    return sorted({count for count in (1, tile - 1, tile, tile + 1, 3 * tile + 2) if count})


#: Chunks a row of ``n`` bits puts through one pass of each kernel: the
#: width its tile rule is sized from.
KERNEL_WIDTHS = {
    "walk_extremes": lambda n, block_length: n // 16,
    "transition_counts": lambda n, block_length: 4 * ((n + 63) // 64),
    "block_longest_one_runs": lambda n, block_length: n // block_length,
}


def assert_kernel_matches_numpy(kernel, matrix, block_length):
    packed = P.pack_matrix(matrix)
    if kernel == "walk_extremes":
        for fast, reference in zip(P.walk_extremes(packed), walk_reference(matrix)):
            assert np.array_equal(fast, reference)
    elif kernel == "transition_counts":
        assert np.array_equal(P.transition_counts(packed), transitions_reference(matrix))
    else:
        assert np.array_equal(
            P.block_longest_one_runs(packed, block_length),
            block_longest_reference(matrix, block_length),
        )


def _chunk_summary(value, bits):
    """Brute force: one-run and ±1-walk summary of a chunk's stream bits."""
    stream = format(value, f"0{bits}b")[::-1]  # bit j of the value is stream bit j
    walk = list(itertools.accumulate(1 if bit == "1" else -1 for bit in stream))
    return {
        "longest": max(len(run) for run in stream.split("0")),
        "prefix": len(stream) - len(stream.lstrip("1")),
        "suffix": len(stream) - len(stream.rstrip("1")),
        "walk_max": max(walk),
        "walk_min": min(walk),
        "walk_sum": walk[-1],
    }


class TestChunkTables:
    @pytest.mark.parametrize("bits", [8, 16])
    def test_every_entry_matches_brute_force(self, bits):
        tables = P._chunk_luts(bits)
        expected = [_chunk_summary(value, bits) for value in range(1 << bits)]
        for key, table in tables.items():
            assert table.dtype == np.int16
            assert table.tolist() == [summary[key] for summary in expected], key

    def test_walk_fields_match_brute_force(self):
        fields = P._walk_field_lut().astype(np.int32)
        assert fields.dtype == np.int32 and fields.shape == (1 << 16,)
        walk_max = ((fields >> 10) - 1).tolist()
        walk_min = (((fields >> 5) & 31) - 16).tolist()
        ones = (fields & 31).tolist()
        for value in range(1 << 16):
            summary = _chunk_summary(value, 16)
            assert walk_max[value] == summary["walk_max"], value
            assert walk_min[value] == summary["walk_min"], value
            assert ones[value] == bin(value).count("1"), value

    def test_threads_share_one_build(self, monkeypatch):
        monkeypatch.setattr(P, "_CHUNK_LUTS", {})
        builds = []
        build = P._byte_luts
        monkeypatch.setattr(P, "_byte_luts", lambda: builds.append(1) or build())
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait(timeout=60)
            P._chunk_luts(16)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert builds == [1]


class TestTileSeams:
    """The row-tiled kernels stay bit-identical across tile boundaries.

    Row counts sit on and around the seams of the module's own tile rule:
    one row, a tile less one, a whole tile, a tile plus one and several
    tiles.  At the real chunk budget a 65536-bit row's tile is 8-16 rows;
    to reach the seams of every longest-run block length at small sizes,
    the budget is also shrunk to five rows' worth.
    """

    @pytest.mark.parametrize("n", [65536, 65536 + 11])
    @pytest.mark.parametrize(
        "kernel,block_length",
        [("walk_extremes", None), ("transition_counts", None), ("block_longest_one_runs", 8)],
    )
    def test_real_budget_seams(self, kernel, block_length, n):
        tile = P._tile_rows(KERNEL_WIDTHS[kernel](n, block_length))
        assert tile > 1
        for rows in seam_row_counts(tile):
            for matrix in seam_matrices(rows, n):
                assert_kernel_matches_numpy(kernel, matrix, block_length)

    @pytest.mark.parametrize("n", [65536, 65536 + 11])
    @pytest.mark.parametrize(
        "kernel,block_length",
        [("walk_extremes", None), ("transition_counts", None)]
        + [("block_longest_one_runs", m) for m in (8, 128, 512, 1000, 10000)],
    )
    def test_shrunk_budget_seams(self, kernel, block_length, n, monkeypatch):
        width = KERNEL_WIDTHS[kernel](n, block_length)
        monkeypatch.setattr(P, "_TILE_CHUNKS", 5 * width)
        tile = P._tile_rows(width)
        assert tile == 5
        for rows in seam_row_counts(tile):
            for matrix in seam_matrices(rows, n):
                assert_kernel_matches_numpy(kernel, matrix, block_length)

    def test_small_batches_are_one_tile(self):
        # An 8x128 ingest chunk and a 48x4096 batch never split.
        for rows, n, block_length in ((8, 128, 8), (48, 4096, 128)):
            for width in KERNEL_WIDTHS.values():
                assert P._tile_rows(width(n, block_length)) >= rows


def peaked_row(n, position, sign):
    """Alternating bits whose walk max (``sign=1``) or min (``sign=-1``) is
    reached first right after stream bit ``position``: a 5-bit run of the
    extreme's bit ends there and a 5-bit run of the other bit follows."""
    row = (np.arange(n) % 2).astype(np.uint8)
    peak = 1 if sign > 0 else 0
    row[max(0, position - 4) : position + 1] = peak
    row[position + 1 : position + 6] = 1 - peak
    return row


def peak_positions(n):
    """Positions in each of a word's four chunks, and on its seams, for the
    first, a middle and the last word a row of ``n`` bits reaches."""
    words = sorted({0, (n // 64) // 2, (n - 1) // 64})
    offsets = [16 * chunk + at for chunk in range(4) for at in (0, 7, 15)]
    positions = {64 * word + offset for word in words for offset in offsets}
    positions |= {64 * word - 1 for word in words if word} | {n - 1}
    return sorted(position for position in positions if position < n)


class TestWordWalk:
    """walk_extremes at word resolution equals the scalar reference."""

    @given(
        n=st.integers(1, 300),
        rows=st.integers(1, 40),
        skew=st.sampled_from(["none", "ones", "zeros"]),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_random_walk_extremes(self, n, rows, skew, data):
        size = rows * -(-n // 8)

        def draw():
            return np.frombuffer(
                data.draw(st.binary(min_size=size, max_size=size)), dtype=np.uint8
            )

        raw = draw()
        if skew == "ones":
            raw = raw | draw()
        elif skew == "zeros":
            raw = raw & draw()
        matrix = np.unpackbits(raw).reshape(rows, -1)[:, :n]
        s_max, s_min, s_final = P.walk_extremes(P.pack_matrix(matrix))
        for row in range(rows):
            expected = nist.cusum.random_walk_extremes(matrix[row])
            assert (s_max[row], s_min[row], s_final[row]) == expected

    @pytest.mark.parametrize("n", [63, 64, 65, 65535, 65536, 65539])
    def test_extreme_in_every_chunk_and_seam(self, n):
        cases = [(position, sign) for position in peak_positions(n) for sign in (1, -1)]
        matrix = np.stack([peaked_row(n, position, sign) for position, sign in cases])
        walk = np.cumsum(2 * matrix.astype(np.int64) - 1, axis=1)
        for row, (position, sign) in enumerate(cases):
            assert np.argmax(sign * walk[row]) == position
        s_max, s_min, s_final = P.walk_extremes(P.pack_matrix(matrix))
        for row in range(len(cases)):
            expected = nist.cusum.random_walk_extremes(matrix[row])
            assert (s_max[row], s_min[row], s_final[row]) == expected


class TestSmallBatchGathers:
    """The table-gather kernels on ingest-sized batches: zero rows, one row
    and 8 rows of 128 bits (8-bit longest-run blocks)."""

    @pytest.mark.parametrize("rows", [0, 1, 8])
    def test_n128_kernels(self, rows):
        for matrix in special_matrices(rows, 128):
            packed = P.pack_matrix(matrix)
            for fast, reference in zip(P.walk_extremes(packed), walk_reference(matrix)):
                assert np.array_equal(fast, reference)
            assert np.array_equal(
                P.block_longest_one_runs(packed, 8), block_longest_reference(matrix, 8)
            )
            for block_length in (8, 64, 128):
                assert np.array_equal(
                    P.block_ones(packed, block_length),
                    block_sums_reference(matrix, block_length),
                )

    @pytest.mark.parametrize("width", [1, 2, 8, 9])
    def test_sum_short_axis(self, width):
        values = np.random.default_rng(width).integers(0, 65, (3, 5, width), dtype=np.uint8)
        total = P.sum_short_axis(values)
        assert total.dtype == np.int64
        assert np.array_equal(total, values.sum(axis=2, dtype=np.int64))


class TestBatchContextParity:
    """The context's statistics equal plain numpy over the unpacked bits."""

    @pytest.mark.parametrize("rows,n", [(3, 100), (1, 4096), (5, 20000), (2, 127)])
    def test_shared_statistics_match(self, rows, n):
        matrix = random_matrix(rows, n, seed=n)
        ctx = BatchContext(matrix)
        assert np.array_equal(ctx.ones(), matrix.sum(axis=1, dtype=np.int64))
        assert np.array_equal(ctx.num_runs(), transitions_reference(matrix) + 1)
        for fast, reference in zip(ctx.walk_extremes(), walk_reference(matrix)):
            assert np.array_equal(fast, reference)
        for block_length in (8, 16, 32, 64):
            if block_length <= n:
                assert np.array_equal(
                    ctx.block_sums(block_length),
                    block_sums_reference(matrix, block_length),
                )
                assert np.array_equal(
                    ctx.block_longest_one_runs(block_length),
                    block_longest_reference(matrix, block_length),
                )

    def test_unsupported_block_length_falls_back(self):
        matrix = random_matrix(2, 100, seed=5)
        ctx = BatchContext(matrix)
        # 20 has no packed kernel; the context must silently use uint8.
        assert not P.supports_block_ones(20, 100)
        assert not P.supports_block_longest_one_runs(20, 100)
        assert np.array_equal(ctx.block_sums(20), block_sums_reference(matrix, 20))
        assert np.array_equal(
            ctx.block_longest_one_runs(20), block_longest_reference(matrix, 20)
        )

    def test_context_keeps_only_packed_words(self):
        matrix = random_matrix(4, 4096, seed=9)
        packed = P.pack_matrix(matrix)
        ctx = BatchContext(packed)
        assert ctx.packed() is packed
        ctx.ones()
        ctx.walk_extremes()
        ctx.num_runs()
        ctx.runs()
        ctx.block_sums(100)
        ctx.window_values(9)
        ctx.pattern_counts(4)
        ctx.block_value_counts(4)
        # The per-bit consumers read a transient unpack: no uint8 bit
        # matrix is ever stored on the context.
        stored = [value for value in vars(ctx).values() if isinstance(value, np.ndarray)]
        assert not any(value.dtype == np.uint8 and value.shape == matrix.shape for value in stored)
        assert np.array_equal(ctx.packed().unpack(), matrix)


class TestEngineParity:
    """run_batch: P-values of the scalar references, whatever the container."""

    TESTS = [1, 2, 3, 4, 11, 12, 13]
    REFERENCES = {
        1: nist.frequency_test,
        2: nist.block_frequency_test,
        3: nist.runs_test,
        4: nist.longest_run_test,
        11: nist.serial_test,
        12: nist.approximate_entropy_test,
        13: nist.cumulative_sums_test,
    }

    def p_values(self, reports):
        return [
            {test_id: result.p_values for test_id, result in report.results.items()}
            for report in reports
        ]

    @pytest.mark.parametrize("n", [128, 4096])
    def test_p_values_match_nist_references(self, n):
        matrix = IdealSource(seed=42).generate_matrix(8, n)
        reports = run_batch(matrix, tests=self.TESTS)
        expected = [
            [self.REFERENCES[number](row).p_values for number in self.TESTS]
            for row in matrix
        ]
        assert [list(row.values()) for row in self.p_values(reports)] == expected

    def test_prepacked_input_matches_uint8_matrix(self):
        source = IdealSource(seed=77)
        matrix = source.generate_matrix(6, 2048)
        source.reset()
        prepacked = source.generate_matrix(6, 2048, packed=True)
        assert isinstance(prepacked, P.PackedMatrix)
        assert np.array_equal(prepacked.unpack(), matrix)  # same stream
        from_packed = run_batch(prepacked, tests=self.TESTS)
        from_matrix = run_batch(matrix, tests=self.TESTS)
        assert self.p_values(from_packed) == self.p_values(from_matrix)

    def test_empty_prepacked_batch(self):
        packed = P.pack_matrix(np.zeros((0, 128), dtype=np.uint8))
        assert run_batch(packed, tests=[1]) == []
